"""Entropy, envelope and dissipation diagnostics on discrete states.

The simulator's structural guarantees are monitored through a handful of
scalar functionals:

* the conserved weighted mass `beta*int(u) + alpha*int(v)`;
* the relative entropy `int u_star*e(u/u_star) + int v_star*e(v/v_star)`
  with entropy density e(z) = z*log(z) - z + 1, a Lyapunov functional;
* an envelope entropy, the relative entropy of upper-truncated fields with
  weights upper**(1/alpha), upper**(1/beta), which is zero exactly when the
  pointwise upper envelope (u/u_star)**alpha <= upper,
  (v/v_star)**beta <= upper holds;
* the excess log-potentials of the truncated fields, whose pairing with the
  reaction rate splits into three sign-definite surface integrals;
* undershoot fields below the stationary floor pair (sigma_u, sigma_v), whose
  squared L2 norms vanish exactly when the lower envelope holds.

All operations are read-only on the state and safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import CoupledMesh, check_sizes, face_flux
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    check_role,
    clamp_state,
    diffusion_coefficient,
    log_mean,
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step scalar diagnostics.

    The three dissipation fields are the signed contributions to the envelope
    entropy's time derivative, so each is <= 0 up to round-off on healthy
    states, and exactly 0 while both upper envelopes hold.  partition_counts
    holds the surface-cell counts of the three envelope-violation classes
    (only u above, only v above, both above).
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
    partition_counts: tuple[int, int, int]


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


@dataclass(frozen=True)
class UndershootFields:
    """Truncations below the stationary floor and their squared L2 norms.

    sigma_u = lower**(1/alpha) and sigma_v = (lower/kappa)**(1/beta) form the
    constant stationary pair implied by the window (sigma_u**alpha equals
    kappa*sigma_v**beta equals lower).
    """

    u_minus: np.ndarray
    v_minus: np.ndarray
    u_norm_sq: float
    v_norm_sq: float
    sigma_u: float
    sigma_v: float
    n_u_below_only: int
    n_v_below_only: int
    n_both_below_backward: int
    n_both_below_forward: int


def entropy_density(z):
    """e(z) = z*log(z) - z + 1 for z > 0, continuously extended by e(0) = 1.

    Nonnegative with a unique zero at z = 1; negative, infinite or NaN input
    is rejected.
    """
    z_arr = np.asarray(z, dtype=float)
    if not np.all((z_arr >= 0) & (z_arr < np.inf)):
        raise ValueError("entropy density requires a finite nonnegative argument")
    z_safe = np.where(z_arr > 0, z_arr, 1.0)
    out = np.where(z_arr > 0, z_arr * np.log(z_safe) - z_arr + 1.0, 1.0)
    if np.isscalar(z):
        return float(out)
    return out


def weighted_mass(state, mesh: CoupledMesh, kin: Kinetics) -> float:
    """Conserved functional beta*sum(u)*|cell| + alpha*sum(v*|G_j|)."""
    check_sizes(state, mesh)
    return float(
        kin.beta * np.sum(state.u) * mesh.cell_volume
        + kin.alpha * np.sum(state.v * mesh.surf_length)
    )


def relative_entropy(state, eq: Equilibrium, mesh: CoupledMesh) -> float:
    """Discrete relative entropy against the equilibrium pair; zero iff at it."""
    check_sizes(state, mesh)
    bulk = eq.u_star * np.sum(entropy_density(state.u / eq.u_star)) * mesh.cell_volume
    surf = eq.v_star * np.sum(entropy_density(state.v / eq.v_star) * mesh.surf_length)
    return float(bulk + surf)


def envelope_entropy(state, mesh: CoupledMesh, window: ClampWindow) -> float:
    """Weighted relative entropy of the upper-truncated fields.

    The truncation maps everything at or below the envelope to the
    equilibrium value, so the result is zero exactly when both upper
    envelopes hold, and positive otherwise.
    """
    check_sizes(state, mesh)
    total = 0.0
    for c, star, exponent, ceiling, measure in (
        (state.u, window.u_star, window.alpha, window.u_ceiling, mesh.cell_volume),
        (state.v, window.v_star, window.beta, window.v_ceiling, mesh.surf_length),
    ):
        scale = window.upper ** (1.0 / exponent)
        trunc = np.where(c <= ceiling, star, c / scale)
        total += scale * star * np.sum(entropy_density(trunc / star) * measure)
    return float(total)


def _below_upper_envelopes(state, window: ClampWindow) -> bool:
    """True when every u and every v lies at or below its window ceiling.

    Then the envelope entropy, every excess potential and with them the
    reaction split and both diffusion dissipations are exactly zero.
    """
    return bool(
        np.all(state.u <= window.u_ceiling) and np.all(state.v <= window.v_ceiling)
    )


def _excess_potential(c, star: float, exponent: float, ceiling: float, window: ClampWindow):
    """log(c/star) - log(upper)/exponent above the ceiling, 0 at or below it.

    ceiling is the window's star*upper**(1/exponent) for the same field.
    Total in c: nonpositive entries sit below the envelope and give 0.
    """
    above = c > ceiling
    c_safe = np.where(above, c, star)
    return np.where(above, np.log(c_safe / star) - np.log(window.upper) / exponent, 0.0)


def envelope_potentials(state, window: ClampWindow) -> tuple[np.ndarray, np.ndarray]:
    """Excess log-potentials of the truncated fields, entrywise.

    bulk_pot_i = log(u_i/u_star) - log(upper)/alpha where the bulk envelope
    is exceeded and 0 otherwise (the threshold itself belongs to the zero
    branch); surf_pot_j likewise with exponent beta.  Both are >= 0 and
    vanish exactly where the envelope holds.  Requires strictly positive
    entries.
    """
    if np.any(state.u <= 0) or np.any(state.v <= 0):
        raise ValueError("envelope potentials require strictly positive fields")
    return (
        _excess_potential(state.u, window.u_star, window.alpha, window.u_ceiling, window),
        _excess_potential(state.v, window.v_star, window.beta, window.v_ceiling, window),
    )


def reaction_dissipation_split(
    state,
    mesh: CoupledMesh,
    kin: Kinetics,
    window: ClampWindow,
) -> ReactionDissipation:
    """Reaction contribution to the envelope-entropy production, per class.

    For each surface cell with positive trace pair (u_i, v_j) the integrand

        k * LogMean(u**alpha, kappa*v**beta)
          * (alpha*log(u/u_star) - beta*log(v/v_star))
          * (alpha*bulk_pot - beta*surf_pot) * |G_j|

    is nonnegative: with only the bulk potential active the two log factors
    share the sign of the excess, likewise for the surface-only class, and
    with both active the product is a perfect square thanks to the envelope
    weights.  Cells below the envelope contribute exactly zero.
    """
    check_sizes(state, mesh)
    u_t = state.u[mesh.surf_to_bulk]
    v = state.v
    admissible = (u_t > 0) & (v > 0)
    u_safe = np.where(admissible, u_t, window.u_star)
    v_safe = np.where(admissible, v, window.v_star)

    bulk_pot = _excess_potential(u_safe, window.u_star, window.alpha, window.u_ceiling, window)
    surf_pot = _excess_potential(v_safe, window.v_star, window.beta, window.v_ceiling, window)

    lam = log_mean(u_safe**kin.alpha, kin.kappa * v_safe**kin.beta)
    log_diff = kin.alpha * np.log(u_safe / window.u_star) - kin.beta * np.log(
        v_safe / window.v_star
    )
    integrand = kin.k * lam * log_diff * (kin.alpha * bulk_pot - kin.beta * surf_pot)
    contrib = np.where(admissible, integrand * mesh.surf_length, 0.0)

    xi_pos = admissible & (bulk_pot > 0)
    chi_pos = admissible & (surf_pot > 0)
    m_u = xi_pos & ~chi_pos
    m_v = chi_pos & ~xi_pos
    m_b = xi_pos & chi_pos
    return ReactionDissipation(
        u_only=float(np.sum(contrib[m_u])),
        v_only=float(np.sum(contrib[m_v])),
        both=float(np.sum(contrib[m_b])),
        total=float(np.sum(contrib[m_u | m_v | m_b])),
        n_u_only=int(np.count_nonzero(m_u)),
        n_v_only=int(np.count_nonzero(m_v)),
        n_both=int(np.count_nonzero(m_b)),
    )


def undershoot_fields(
    state,
    mesh: CoupledMesh,
    kin: Kinetics,
    window: ClampWindow,
) -> UndershootFields:
    """Parts of the fields below the stationary floor, and where they sit.

    u_minus = min(u - sigma_u, 0) per bulk cell and v_minus likewise per
    surface cell; the squared L2 norms are zero exactly when the lower
    envelope holds.  Surface cells are classified by which trace component
    undershoots and, when both do, by the sign of u**alpha - kappa*v**beta
    (nonpositive values enter that comparison as zero pressure).
    """
    check_sizes(state, mesh)
    sigma_u = window.lower ** (1.0 / window.alpha)
    sigma_v = (window.lower / kin.kappa) ** (1.0 / window.beta)
    u_minus = np.minimum(state.u - sigma_u, 0.0)
    v_minus = np.minimum(state.v - sigma_v, 0.0)

    u_t = state.u[mesh.surf_to_bulk]
    u_below = u_t < sigma_u
    v_below = state.v < sigma_v
    u_safe = np.where(u_t > 0, u_t, 1.0)
    v_safe = np.where(state.v > 0, state.v, 1.0)
    pu = np.where(u_t > 0, u_safe**kin.alpha, 0.0)
    pv = np.where(state.v > 0, kin.kappa * v_safe**kin.beta, 0.0)
    both = u_below & v_below
    return UndershootFields(
        u_minus=u_minus,
        v_minus=v_minus,
        u_norm_sq=float(np.sum(u_minus**2) * mesh.cell_volume),
        v_norm_sq=float(np.sum(v_minus**2 * mesh.surf_length)),
        sigma_u=float(sigma_u),
        sigma_v=float(sigma_v),
        n_u_below_only=int(np.count_nonzero(u_below & ~v_below)),
        n_v_below_only=int(np.count_nonzero(v_below & ~u_below)),
        n_both_below_backward=int(np.count_nonzero(both & (pu < pv))),
        n_both_below_forward=int(np.count_nonzero(both & (pu > pv))),
    )


def _diffusion_dissipation(state, mesh, window, bulk_law, surf_law, face_average):
    """Face-sum analogues of the two gradient terms of the entropy production.

    bulk = -sum_faces mu_f * (du)(d bulk_pot) * |face|/dist and likewise on
    the surface chain; both are <= 0 because the excess potential is a
    nondecreasing function of its own concentration, making each face term
    a product of like-signed differences.  Nonpositive entries have zero
    excess potential.  Each law must have the role of its slot.
    """
    check_role(bulk_law, "bulk")
    check_role(surf_law, "surface")
    u, v = state.u, state.v
    mu_bulk = diffusion_coefficient(bulk_law, u, None, window)
    mu_surf = diffusion_coefficient(surf_law, u[mesh.surf_to_bulk], v, window)
    sums = []
    for faces, x, mu, star, exponent, ceiling in (
        (mesh.bulk_faces, u, mu_bulk, window.u_star, window.alpha, window.u_ceiling),
        (mesh.surf_faces, v, mu_surf, window.v_star, window.beta, window.v_ceiling),
    ):
        pot = _excess_potential(x, star, exponent, ceiling, window)
        flux = face_flux(faces, x, mu, face_average)
        sums.append(-float(np.sum(flux * (pot[faces.cell_b] - pot[faces.cell_a]))))
    return sums[0], sums[1]


def record(
    state,
    mesh: CoupledMesh,
    kin: Kinetics,
    eq: Equilibrium,
    window: ClampWindow,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
    face_average: str = "arithmetic",
) -> DiagnosticsRecord:
    """Assemble the full diagnostics record for one nonnegative state.

    Envelope extrema treat zero entries as zero pressure, so a lost strict
    positivity shows up as u_env_min = 0 (or v_env_min = 0) rather than an
    error.  Negative entries still raise ValueError: the relative entropy is
    undefined there.  Each law must have the role of its slot.
    The reaction dissipation is reported with the sign it carries in the
    envelope-entropy balance (<= 0), the negated total of the split.

    Both upper envelopes are tested once, against the window's u_ceiling
    and v_ceiling.  While they hold, the envelope entropy, the reaction and
    both diffusion dissipations are exactly 0 and no cell is in a violation
    class, so those fields are set to zero without evaluating them;
    otherwise they come from envelope_entropy, reaction_dissipation_split
    and the face-sum dissipation.
    """
    check_sizes(state, mesh)
    check_role(bulk_law, "bulk")
    check_role(surf_law, "surface")
    entropy = relative_entropy(state, eq, mesh)
    u_pos = np.maximum(state.u, 0.0)
    v_pos = np.maximum(state.v, 0.0)
    u_env = (u_pos / eq.u_star) ** kin.alpha
    v_env = (v_pos / eq.v_star) ** kin.beta
    if _below_upper_envelopes(state, window):
        envelope, reaction, diss, counts = 0.0, 0.0, (0.0, 0.0), (0, 0, 0)
    else:
        envelope = envelope_entropy(state, mesh, window)
        split = reaction_dissipation_split(state, mesh, kin, window)
        reaction = -split.total
        diss = _diffusion_dissipation(state, mesh, window, bulk_law, surf_law, face_average)
        counts = (split.n_u_only, split.n_v_only, split.n_both)
    u_hat, v_hat = clamp_state(state.u, state.v, window)
    clamp_count = int(np.count_nonzero(u_hat != state.u)) + int(
        np.count_nonzero(v_hat != state.v)
    )
    return DiagnosticsRecord(
        t=float(state.t),
        mass=weighted_mass(state, mesh, kin),
        entropy=entropy,
        envelope_entropy=envelope,
        u_env_max=float(np.max(u_env)),
        v_env_max=float(np.max(v_env)),
        u_env_min=float(np.min(u_pos**kin.alpha)),
        v_env_min=float(np.min(kin.kappa * v_pos**kin.beta)),
        reaction_dissipation=reaction + 0.0,
        diffusion_dissipation_bulk=diss[0] + 0.0,
        diffusion_dissipation_surface=diss[1] + 0.0,
        clamp_activations=clamp_count,
        partition_counts=counts,
    )
