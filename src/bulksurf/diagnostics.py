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
  reaction rate splits into three sign-definite surface integrals, and whose
  face differences give the two sign-definite diffusion dissipations;
* the envelope extrema max (u/u_star)**alpha, max (v/v_star)**beta,
  min u**alpha and min kappa*v**beta of every record.

record reads the stacked state (u, v) in single passes, one for each kind of
work, and keeps the arithmetic of each public function it stands for.

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


def entropy_density(z):
    """e(z) = z*log(z) - z + 1 for z > 0, continuously extended by e(0) = 1.

    Nonnegative with a unique zero at z = 1; negative, infinite or NaN input
    is rejected.
    """
    z_arr = np.asarray(z, dtype=float)
    if not ((z_arr >= 0) & (z_arr < np.inf)).all():
        raise ValueError("entropy density requires a finite nonnegative argument")
    pos = z_arr > 0
    out = np.where(pos, z_arr * np.log(np.where(pos, z_arr, 1.0)) - z_arr + 1.0, 1.0)
    if np.isscalar(z):
        return float(out)
    return out


def weighted_mass(state, mesh: CoupledMesh, kin: Kinetics) -> float:
    """Conserved functional beta*sum(u)*|cell| + alpha*sum(v*|G_j|)."""
    check_sizes(state, mesh)
    return float(
        kin.beta * state.u.sum() * mesh.cell_volume
        + kin.alpha * (state.v * mesh.surf_length).sum()
    )


def relative_entropy(state, eq: Equilibrium, mesh: CoupledMesh) -> float:
    """Discrete relative entropy against the equilibrium pair; zero iff at it."""
    check_sizes(state, mesh)
    return _entropy(state, eq, mesh)[0]


def _entropy(state, eq: Equilibrium, mesh: CoupledMesh) -> tuple[float, np.ndarray]:
    """Relative entropy by one density pass over z = (u/u_star, v/v_star), and z."""
    z = np.concatenate((state.u / eq.u_star, state.v / eq.v_star))
    dens = entropy_density(z)
    nb = mesh.n_bulk
    bulk = eq.u_star * dens[:nb].sum() * mesh.cell_volume
    surf = eq.v_star * (dens[nb:] * mesh.surf_length).sum()
    return float(bulk + surf), z


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


def _envelope_potentials(u, v, window: ClampWindow) -> tuple[np.ndarray, np.ndarray]:
    """Excess log-potentials of the truncated fields, entrywise.

    bulk_pot = log(u/u_star) - log(upper)/alpha where u exceeds u_ceiling
    and 0 otherwise (the ceiling itself belongs to the zero branch);
    surf_pot likewise for v with exponent beta.  Both are >= 0 and vanish
    exactly where the envelope holds.  Total in u and v: nonpositive
    entries sit below the envelope and give 0.
    """
    pots = []
    for c, star, exponent, ceiling in (
        (u, window.u_star, window.alpha, window.u_ceiling),
        (v, window.v_star, window.beta, window.v_ceiling),
    ):
        above = c > ceiling
        c_safe = np.where(above, c, star)
        pots.append(np.where(above, np.log(c_safe / star) - np.log(window.upper) / exponent, 0.0))
    return pots[0], pots[1]


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

    bulk_pot, surf_pot = _envelope_potentials(u_safe, v_safe, window)

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


def _diffusion_dissipation(state, mesh, window, bulk_law, surf_law, face_average):
    """Face-sum analogues of the two gradient terms of the entropy production.

    bulk = -sum_faces mu_f * (du)(d bulk_pot) * |face|/dist and likewise on
    the surface chain, with the potentials of _envelope_potentials; both are
    <= 0 because the excess potential is a nondecreasing function of its own
    concentration, making each face term a product of like-signed
    differences.  One pass over mesh.faces and the stacked state gives every
    face term; the sum splits at the first chain face.  The laws' roles are
    checked by record, the only caller.
    """
    u, v = state.u, state.v
    mu = np.concatenate((
        diffusion_coefficient(bulk_law, u, None, window),
        diffusion_coefficient(surf_law, u[mesh.surf_to_bulk], v, window),
    ))
    pot = np.concatenate(_envelope_potentials(u, v, window))
    faces, m = mesh.faces, mesh.n_bulk_faces
    flux = face_flux(faces, np.concatenate((u, v)), mu, face_average)
    terms = flux * (pot[faces.cell_b] - pot[faces.cell_a])
    return -float(np.sum(terms[:m])), -float(np.sum(terms[m:]))


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

    One pass over the stacked state w = (u, v) takes the minima and maxima
    of u and v.  The maxima test both upper envelopes, against u_ceiling
    and v_ceiling; only when an extremum lies outside the clamp caps are
    the clamped entries counted.  While both envelopes hold, the envelope
    entropy, the reaction and both diffusion dissipations are exactly 0 and
    no cell is in a violation class, so those fields are set to zero
    without evaluating them; otherwise they come from envelope_entropy,
    reaction_dissipation_split and the face-sum dissipation.
    """
    check_sizes(state, mesh)
    check_role(bulk_law, "bulk")
    check_role(surf_law, "surface")
    nb = mesh.n_bulk
    u, v = state.u, state.v
    entropy, z = _entropy(state, eq, mesh)  # rejects negative and non-finite entries
    w = np.concatenate((u, v))
    (u_min, v_min), (u_max, v_max) = (f.reduceat(w, (0, nb)) for f in (np.minimum, np.maximum))
    if u_max <= window.u_ceiling and v_max <= window.v_ceiling:
        envelope, reaction, diss, counts = 0.0, 0.0, (0.0, 0.0), (0, 0, 0)
    else:
        envelope = envelope_entropy(state, mesh, window)
        split = reaction_dissipation_split(state, mesh, kin, window)
        reaction = -split.total
        diss = _diffusion_dissipation(state, mesh, window, bulk_law, surf_law, face_average)
        counts = (split.n_u_only, split.n_v_only, split.n_both)
    clamp_count = 0
    for c, c_min, c_max, (lo, hi) in (
        (u, u_min, u_max, window.u_caps),
        (v, v_min, v_max, window.v_caps),
    ):
        if c_min < lo or c_max > hi:  # the clamp moves exactly the entries outside [lo, hi]
            clamp_count += int(np.count_nonzero((c < lo) | (c > hi)))
    # + 0.0 turns a -0.0 entry's extremum into 0.0, the pressure of max(c, 0)
    return DiagnosticsRecord(
        t=float(state.t),
        mass=weighted_mass(state, mesh, kin),
        entropy=entropy,
        envelope_entropy=envelope,
        u_env_max=float((z[:nb] ** kin.alpha).max()) + 0.0,
        v_env_max=float((z[nb:] ** kin.beta).max()) + 0.0,
        u_env_min=float((u**kin.alpha).min()) + 0.0,
        v_env_min=float((kin.kappa * v**kin.beta).min()) + 0.0,
        reaction_dissipation=reaction + 0.0,
        diffusion_dissipation_bulk=diss[0] + 0.0,
        diffusion_dissipation_surface=diss[1] + 0.0,
        clamp_activations=clamp_count,
        partition_counts=counts,
    )
