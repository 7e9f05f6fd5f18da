"""Structure-preserving finite-volume simulation of bulk-surface reaction-diffusion.

A species u diffuses nonlinearly in a rectangle and exchanges mass through a
reversible mass-action reaction with a species v living on an active part of
the boundary, where v also diffuses (possibly with cross diffusion).  The
scheme conserves the weighted mass exactly and the diagnostics layer tracks
the relative entropy, the pointwise envelopes implied by the initial data,
and the sign-definite pieces of the entropy production.
"""

from .diagnostics import (
    DiagnosticsRecord,
    ReactionDissipation,
    UndershootFields,
    entropy_density,
    envelope_entropy,
    envelope_potentials,
    reaction_dissipation_split,
    record,
    relative_entropy,
    undershoot_fields,
    weighted_mass,
)
from .mesh import CoupledMesh, FaceSet, build_mesh, bulk_face_list, surface_face_list
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    clamp_state,
    coefficient_bounds,
    constant_law,
    diffusion_coefficient,
    exponential_law,
    log_mean,
    potential_rate,
    power_law,
    rate,
    safe_rate,
    solve_equilibrium,
    surface_cross_law,
    window_from_initial_data,
)
from .solver import (
    NewtonLU,
    NonConvergence,
    State,
    StepConfig,
    bulk_diffusion_rate,
    coupling_rate,
    run,
    step,
    surface_diffusion_rate,
    total_rate,
)

__version__ = "0.1.0"

__all__ = [
    "CoupledMesh",
    "FaceSet",
    "build_mesh",
    "bulk_face_list",
    "surface_face_list",
    "Kinetics",
    "DiffusionLaw",
    "ClampWindow",
    "Equilibrium",
    "power_law",
    "exponential_law",
    "constant_law",
    "surface_cross_law",
    "log_mean",
    "rate",
    "safe_rate",
    "potential_rate",
    "clamp_state",
    "diffusion_coefficient",
    "coefficient_bounds",
    "solve_equilibrium",
    "window_from_initial_data",
    "State",
    "StepConfig",
    "NewtonLU",
    "NonConvergence",
    "bulk_diffusion_rate",
    "surface_diffusion_rate",
    "coupling_rate",
    "total_rate",
    "step",
    "run",
    "DiagnosticsRecord",
    "ReactionDissipation",
    "UndershootFields",
    "entropy_density",
    "relative_entropy",
    "envelope_entropy",
    "envelope_potentials",
    "reaction_dissipation_split",
    "undershoot_fields",
    "weighted_mass",
    "record",
    "__version__",
]
