"""Entropy, envelope and dissipation diagnostics on discrete states.

The simulator's structural guarantees are monitored through a handful of
scalar functionals:

* the conserved weighted mass `beta*int(u) + alpha*int(v)`;
* the relative entropy `int u_star*e(u/u_star) + int v_star*e(v/v_star)`
  with entropy density e(z) = z*log(z) - z + 1, a Lyapunov functional;
* an envelope entropy, the same functional of the upper-truncated fields
  against the envelope values u_star*upper**(1/alpha), v_star*upper**(1/beta),
  zero exactly when the upper envelope holds: every pressure p, (u/u_star)**alpha or
  (v/v_star)**beta, is at most upper, the one envelope test of this module;
* the excess log-potentials log(p/upper)/exponent, whose pairing with the
  reaction rate splits into three sign-definite surface integrals, and whose
  face differences give the two sign-definite diffusion dissipations;
* the envelope extrema min and max of (u/u_star)**alpha and (v/v_star)**beta.

Every envelope quantity is on the window's one scale, the normalized
pressure p = (c/star)**exponent of model._pressure.

record reads the stacked state (u, v) in single passes, one for each kind of
work, and keeps the arithmetic of each public function it stands for.

All operations are read-only on the state and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .mesh import CoupledMesh, check_sizes, face_flux
from .model import ClampWindow, DiffusionLaw, Equilibrium, Kinetics


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step scalar diagnostics: the columns of the CLI's diagnostics.csv, in order.

    The envelope extrema are pressures, on the scale of the window's lower
    and upper.  The three dissipation fields are the signed contributions to
    the envelope entropy's time derivative, so each is <= 0 up to round-off
    on healthy states, and exactly 0 while both upper envelopes hold.
    """

    t: float
    mass: float
    entropy: float
    envelope_entropy: float
    u_env_max: float
    v_env_max: float
    u_env_min: float
    v_env_min: float
    reaction_dissipation: float
    diffusion_dissipation_bulk: float
    diffusion_dissipation_surface: float
    clamp_activations: int


@dataclass(frozen=True)
class ReactionDissipation:
    """Surface reaction-dissipation integral split by envelope-violation class.

    Each of u_only, v_only and both is a sum of pointwise-nonnegative terms;
    cells with a nonpositive trace pair are excluded.  total is their sum.
    """

    u_only: float
    v_only: float
    both: float
    total: float
    n_u_only: int
    n_v_only: int
    n_both: int


def entropy_density(z):
    """e(z) = z*log(z) - z + 1 for z > 0, continuously extended by e(0) = 1.

    Nonnegative with a unique zero at z = 1; negative, infinite or NaN input
    is rejected.
    """
    z_arr = np.asarray(z, dtype=float)
    if not ((z_arr >= 0) & (z_arr < np.inf)).all():
        raise ValueError("entropy density requires a finite nonnegative argument")
    pos = z_arr > 0
    return model._float_if_0d(np.where(pos, z_arr * np.log(np.where(pos, z_arr, 1.0)) - z_arr + 1.0, 1.0))


def weighted_mass(state, mesh: CoupledMesh, kin: Kinetics) -> float:
    """Conserved functional beta*sum(u_i*|K_i|) + alpha*sum(v_j*|G_j|)."""
    check_sizes(state, mesh)
    measure, nb = mesh.faces.measure, mesh.n_bulk
    return float(
        kin.beta * (state.u * measure[:nb]).sum() + kin.alpha * (state.v * measure[nb:]).sum()
    )


def _entropy(u, v, u_star, v_star, mesh: CoupledMesh) -> float:
    """int u_star*e(u/u_star) + int v_star*e(v/v_star), in one pass over the stacked state."""
    dens = entropy_density(np.concatenate((u / u_star, v / v_star)))
    dens *= mesh.faces.measure
    return float(u_star * dens[: mesh.n_bulk].sum() + v_star * dens[mesh.n_bulk :].sum())


def relative_entropy(state, eq: Equilibrium, mesh: CoupledMesh) -> float:
    """Discrete relative entropy against the equilibrium pair; zero iff at it."""
    check_sizes(state, mesh)
    return _entropy(state.u, state.v, eq.u_star, eq.v_star, mesh)


def _above(p, window: ClampWindow):
    return np.logical_not(p <= window.upper)  # the one envelope comparison: p > upper, or NaN


def _envelope(c, star, exponent, window: ClampWindow):
    """The envelope test of one field: (above, p, pot), entrywise.

    p = (c/star)**exponent is the pressure (0 where c <= 0), above is _above(p)
    (a NaN is above, so envelope_entropy rejects it) and pot the excess
    log-potential of the truncated field, log(p/upper) / exponent where above
    and 0 elsewhere: >= 0 by construction, and 0 exactly where the envelope holds.
    """
    p = model._pressure(c, star, exponent)
    above = _above(p, window)
    return above, p, np.log(np.where(above, p / window.upper, 1.0)) / exponent


def envelope_entropy(state, mesh: CoupledMesh, window: ClampWindow) -> float:
    """Relative entropy of the upper-truncated fields against the envelope.

    A field is truncated at its envelope value s, the concentration whose
    _pressure is upper (model._concentration): a cell at or below the envelope
    is set to s, where e(1) = 0, so the result is zero exactly when both upper
    envelopes hold.
    """
    check_sizes(state, mesh)
    truncated, stars = [], []
    for c, star, exponent, _ in window._fields(state.u, state.v):
        stars.append(model._concentration(window.upper, star, exponent))
        truncated.append(np.where(_envelope(c, star, exponent, window)[0], c, stars[-1]))
    return _entropy(*truncated, *stars, mesh)


def reaction_dissipation_split(
    state,
    mesh: CoupledMesh,
    kin: Kinetics,
    window: ClampWindow,
) -> ReactionDissipation:
    """Reaction contribution to the envelope-entropy production, per class.

    For each surface cell whose trace pair (u_i, v_j) lies in the rate's
    domain, model._positive_quadrant (u_i > 0 and v_j > 0), pressures
    p_u = (u_i/u_star)**alpha, p_v = (v_j/v_star)**beta and excess potentials
    xi, chi, the integrand is the rate k*u_star**alpha*(p_u - p_v) times

        (alpha*xi - beta*chi) * |G_j|  >= 0:

    in the u-only class p_u > upper >= p_v, likewise for v only, and with both
    above the second factor is log(p_u/p_v).  A cell's class comes from p_u
    and p_v by the envelope test of record.  The class sums are scaled by
    k*u_star**alpha last, so an overflowing unit gives inf, not an error.
    The stars and exponents, the unit's included, are the window's; kin
    gives only k.
    """
    check_sizes(state, mesh)
    u_t, v = state.u[mesh.surf_to_bulk], state.v
    admissible = model._positive_quadrant(u_t, v)[0]
    (u_above, p_u, xi), (v_above, p_v, chi) = (
        _envelope(c, star, exponent, window) for c, star, exponent, _ in window._fields(u_t, v)
    )
    contrib = np.where(admissible, (p_u - p_v) * (window.alpha * xi - window.beta * chi), 0.0)
    contrib *= mesh.faces.measure[mesh.n_bulk :]
    xi_pos, chi_pos = admissible & u_above, admissible & v_above
    masks = (xi_pos & ~chi_pos, chi_pos & ~xi_pos, xi_pos & chi_pos)
    with np.errstate(over="ignore"):
        unit = float(kin.k * np.float64(window.u_star) ** window.alpha)
    sums = (float(np.sum(contrib[m])) for m in (*masks, xi_pos | chi_pos))
    return ReactionDissipation(
        *(x * unit if x else 0.0 for x in sums),  # an empty class stays 0 when the unit is inf
        *(int(np.count_nonzero(m)) for m in masks),
    )


def _diffusion_dissipation(state, mesh, window, bulk_law, surf_law):
    """Face-sum analogues of the two gradient terms of the entropy production.

    bulk = -sum_faces mu_f * (du)(d bulk_pot) * |face|/dist and likewise on
    the surface chain, with the excess potentials of _envelope; both are
    <= 0 because the excess potential is a nondecreasing function of its own
    concentration, making each face term a product of like-signed
    differences.  One pass over mesh.faces and the stacked state, with the
    solver's flux by the face set's own average, gives every face term; the
    sum splits by whether a face joins bulk cells.
    """
    u, v = state.u, state.v
    mu = np.concatenate((
        model.diffusion_coefficient(bulk_law, u, None, window),
        model.diffusion_coefficient(surf_law, u[mesh.surf_to_bulk], v, window),
    ))
    pot = np.concatenate(
        [_envelope(c, star, exponent, window)[2] for c, star, exponent, _ in window._fields(u, v)]
    )
    faces, bulk = mesh.faces, mesh.faces.cell_a < mesh.n_bulk
    flux = face_flux(faces, np.concatenate((u, v)), mu)
    terms = flux * (pot[faces.cell_b] - pot[faces.cell_a])
    return -float(np.sum(terms[bulk])), -float(np.sum(terms[~bulk]))


def record(
    state,
    mesh: CoupledMesh,
    kin: Kinetics,
    eq: Equilibrium,
    window: ClampWindow,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
) -> DiagnosticsRecord:
    """Assemble the full diagnostics record for one nonnegative state.

    The window supplies the stars and exponents of every envelope quantity,
    eq those of the relative entropy and kin those of the mass, so a window
    whose u_star, v_star, alpha, beta are not eq's and kin's raises
    ValueError.  The envelope extrema take window_from_initial_data's
    _pressure call, one pass per field: a zero entry has zero pressure, so a
    lost strict positivity shows up as u_env_min = 0 (or v_env_min = 0),
    while a negative entry raises ValueError from the relative entropy.
    surface_cross as bulk_law raises ValueError on every state.  The reaction
    dissipation carries its sign in the envelope-entropy balance (<= 0), the
    negated total of the split.

    Unless u_env_max or v_env_max is _above upper, the envelope terms are 0
    and no cell is in a violation class, so they are set unevaluated;
    otherwise envelope_entropy, reaction_dissipation_split and the face-sum
    dissipation (the solver's flux, by mesh.faces.average) test each cell by
    _above.  clamp_activations counts the entries the clamp moves: those of
    u and v that model._clip, the clamp of every diffusion law, changes.
    """
    model.check_bulk_law(bulk_law)
    refs = (window.u_star, window.v_star, window.alpha, window.beta)
    if refs != (eq.u_star, eq.v_star, kin.alpha, kin.beta):
        raise ValueError(f"window stars and exponents {refs} are not those of eq and kin")
    fields = window._fields(state.u, state.v)
    entropy = relative_entropy(state, eq, mesh)  # rejects negative and non-finite entries
    p_u, p_v = (model._pressure(c, star, exponent) for c, star, exponent, _ in fields)
    u_env_max, v_env_max = float(p_u.max()) + 0.0, float(p_v.max()) + 0.0  # 0.0, not -0.0
    if not (_above(u_env_max, window) or _above(v_env_max, window)):
        envelope, reaction, diss = 0.0, 0.0, (0.0, 0.0)
    else:
        envelope = envelope_entropy(state, mesh, window)
        reaction = -reaction_dissipation_split(state, mesh, kin, window).total
        diss = _diffusion_dissipation(state, mesh, window, bulk_law, surf_law)
    clamp_count = sum(int(np.count_nonzero(model._clip(c, caps) != c)) for c, *_, caps in fields)
    return DiagnosticsRecord(
        t=float(state.t),
        mass=weighted_mass(state, mesh, kin),
        entropy=entropy,
        envelope_entropy=envelope,
        u_env_max=u_env_max,
        v_env_max=v_env_max,
        u_env_min=float(p_u.min()) + 0.0,
        v_env_min=float(p_v.min()) + 0.0,
        reaction_dissipation=reaction + 0.0,
        diffusion_dissipation_bulk=diss[0] + 0.0,
        diffusion_dissipation_surface=diss[1] + 0.0,
        clamp_activations=clamp_count,
    )
