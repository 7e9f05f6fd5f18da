"""Structure-preserving finite-volume simulation of bulk-surface reaction-diffusion.

A species u diffuses nonlinearly in a bulk domain and exchanges mass through a
reversible mass-action reaction with a species v living on an active part of
the boundary, where v also diffuses (possibly with cross diffusion).  The
scheme conserves the weighted mass exactly and the diagnostics layer tracks
the relative entropy, the pointwise envelopes implied by the initial data,
and the sign-definite pieces of the entropy production.
"""

from .diagnostics import (
    DiagnosticsRecord,
    ReactionDissipation,
    entropy_density,
    envelope_entropy,
    reaction_dissipation_split,
    record,
    relative_entropy,
    weighted_mass,
)
from .mesh import CoupledMesh, FaceSet, build_mesh
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
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
    run,
    step,
    total_rate,
)

__version__ = "0.1.0"

__all__ = [
    "CoupledMesh",
    "FaceSet",
    "build_mesh",
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
    "diffusion_coefficient",
    "coefficient_bounds",
    "solve_equilibrium",
    "window_from_initial_data",
    "State",
    "StepConfig",
    "NewtonLU",
    "NonConvergence",
    "total_rate",
    "step",
    "run",
    "DiagnosticsRecord",
    "ReactionDissipation",
    "entropy_density",
    "relative_entropy",
    "envelope_entropy",
    "reaction_dissipation_split",
    "weighted_mass",
    "record",
    "__version__",
]
