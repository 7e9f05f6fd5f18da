"""Implicit mass-conservative time stepping for the coupled bulk-surface system.

Semi-discrete form, with U the bulk cell averages and V the surface cell
averages:

    dU_i/dt = (1/|cell|) * sum_faces mu_f * (U_nb - U_i) * |face|/dist
              - alpha * sum_{j traced to i} f(U_i, V_j) * |G_j| / |cell|,
    dV_j/dt = (1/|G_j|) * sum_chain_faces muG_f * (V_nb - V_j) / dist
              + beta * f(U_i(j), V_j),

with f the guarded mass-action rate and all diffusion coefficients evaluated
at clamped arguments.  Faces are two-point fluxes with arithmetic (default)
or harmonic coefficient averaging; every boundary face outside the active
surface is no-flux by omission.  The weighted mass

    beta * sum_i U_i |cell| + alpha * sum_j V_j |G_j|

is conserved exactly by this flux/source structure, up to the nonlinear-solve
residual.

Time discretization is theta-implicit (backward Euler at theta = 1), solved
by damped Newton.  The Newton matrix I - theta*dt*dF/dw is assembled from the
analytic sparse Jacobian and factored by SuperLU with the minimum-degree
ordering of A^T + A, since the matrix is structurally symmetric.  The LU is
kept across steps in a NewtonLU holder keyed on theta*dt (simplified Newton):
a step refactors only when the key changes (a clipped last step, a halved
dt), when an iteration leaves more than CONTRACTION times the previous
residual, or when a line search fails on a reused LU.  A dense
finite-difference Jacobian serves as the cross-check of the analytic one in
the tests.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .mesh import CoupledMesh, FaceSet
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    coefficient_and_derivatives,
    diffusion_coefficient,
    safe_rate,
    safe_rate_derivatives,
)


# Face averages by name: (face value mu_f of the cell coefficients a and b,
# its partial weights (d mu_f / d a, d mu_f / d b)).
_FACE_AVERAGES = {
    "arithmetic": (lambda a, b: 0.5 * (a + b), lambda a, b: (0.5, 0.5)),
    "harmonic": (
        lambda a, b: 2.0 * a * b / (a + b),
        lambda a, b: (2.0 * b**2 / (a + b) ** 2, 2.0 * a**2 / (a + b) ** 2),
    ),
}
FACE_AVERAGES = tuple(_FACE_AVERAGES)

# A Newton iteration whose residual max-norm exceeds this fraction of the
# previous one drops the LU, so the next iteration refactors at the current
# iterate.  Of 0.2, 0.1, 0.05 and 0.02, 0.05 gave the shortest runs on the
# blob and CLI problems: at 0.2 a lagged LU took about 11 iterations per step
# on the 32x32 blob, and at 0.02 the extra factorizations cost more than they
# saved.
CONTRACTION = 0.05


class NonConvergence(RuntimeError):
    """Newton failed to reach the residual tolerance within the iteration cap."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"Newton did not converge: residual {residual:.3e} after {iterations} iterations"
        )
        self.iterations = iterations
        self.residual = residual
        self.last_state: State | None = None
        self.records: list | None = None


@dataclass
class State:
    """Cell-averaged fields at one time instant."""

    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v))):
            raise ValueError("state fields must be finite")

    def copy(self) -> "State":
        return State(t=self.t, u=self.u.copy(), v=self.v.copy())


@dataclass(frozen=True)
class StepConfig:
    """Time-step controls.

    theta = 1 is backward Euler; theta = 0.5 the trapezoidal rule.
    face_average names the face coefficient mean, one of FACE_AVERAGES.
    """

    dt: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    theta: float = 1.0
    face_average: str = "arithmetic"
    max_dt_halvings: int = 5

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not (_is_int(self.newton_max_iter) and self.newton_max_iter >= 1):
            raise ValueError(f"newton_max_iter must be an integer >= 1, got {self.newton_max_iter!r}")
        if not (_is_int(self.max_dt_halvings) and self.max_dt_halvings >= 0):
            raise ValueError(f"max_dt_halvings must be an integer >= 0, got {self.max_dt_halvings!r}")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")
        if self.face_average not in FACE_AVERAGES:
            raise ValueError(f"unknown face average {self.face_average!r}")


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass
class NewtonLU:
    """The LU of the Newton matrix I - key*J, kept from one step to the next.

    key is theta*dt of the matrix and solve the factorization's solve; both
    are None until the first factorization.  A holder serves one problem
    (mesh, kinetics, laws, window, face average): step refactors when the key
    differs, but cannot see any other change.
    """

    key: float | None = None
    solve: Callable[[np.ndarray], np.ndarray] | None = None


def _check_sizes(state: State, mesh: CoupledMesh) -> None:
    if state.u.size != mesh.n_bulk or state.v.size != mesh.n_surface:
        raise ValueError(
            f"state sizes ({state.u.size}, {state.v.size}) do not match mesh "
            f"({mesh.n_bulk}, {mesh.n_surface})"
        )


def face_flux(faces: FaceSet, x, mu, face_average: str) -> np.ndarray:
    """Two-point flux mu_f * (x_b - x_a) * trans on every face of a face set.

    mu holds the cell coefficients; mu_f combines the two sides of a face.
    """
    if face_average not in _FACE_AVERAGES:
        raise ValueError(f"unknown face average {face_average!r}")
    a, b = faces.cell_a, faces.cell_b
    mean, _ = _FACE_AVERAGES[face_average]
    return mean(mu[a], mu[b]) * (x[b] - x[a]) * faces.trans


def _face_divergence(faces: FaceSet, x, mu, face_average: str) -> np.ndarray:
    """Net two-point-flux inflow per unit cell measure; its measure-weighted sum is zero."""
    flux = face_flux(faces, x, mu, face_average)
    div = np.bincount(faces.cell_a, weights=flux, minlength=faces.measure.size)
    div -= np.bincount(faces.cell_b, weights=flux, minlength=faces.measure.size)
    return div / faces.measure


def _bulk_diffusion(u, mesh, law, window, face_average):
    mu = diffusion_coefficient(law, u, None, window)
    return _face_divergence(mesh.bulk_faces, u, mu, face_average)


def _surface_diffusion(u, v, mesh, law, window, face_average):
    mu = diffusion_coefficient(law, u[mesh.surf_to_bulk], v, window)
    return _face_divergence(mesh.surf_faces, v, mu, face_average)


def _coupling(u, v, mesh, kin):
    r = np.asarray(safe_rate(u[mesh.surf_to_bulk], v, kin), dtype=float)
    du = -kin.alpha / mesh.cell_volume * np.bincount(
        mesh.surf_to_bulk, weights=r * mesh.surf_length, minlength=mesh.n_bulk
    )
    dv = kin.beta * r
    return du, dv


def _rates(u, v, mesh, kin, bulk_law, surf_law, window, face_average):
    du, dv = _coupling(u, v, mesh, kin)
    du = du + _bulk_diffusion(u, mesh, bulk_law, window, face_average)
    dv = dv + _surface_diffusion(u, v, mesh, surf_law, window, face_average)
    return du, dv


def bulk_diffusion_rate(
    state: State,
    mesh: CoupledMesh,
    law: DiffusionLaw,
    window: ClampWindow,
    face_average: str = "arithmetic",
) -> np.ndarray:
    """Per-bulk-cell rate of change from interior two-point diffusion fluxes.

    Boundary faces carry no flux here; the active-surface exchange is a
    separate operator.  The volume-weighted sum over cells is zero.
    """
    _check_sizes(state, mesh)
    return _bulk_diffusion(state.u, mesh, law, window, face_average)


def surface_diffusion_rate(
    state: State,
    mesh: CoupledMesh,
    law: DiffusionLaw,
    window: ClampWindow,
    face_average: str = "arithmetic",
) -> np.ndarray:
    """Per-surface-cell rate of change from the 1D chain diffusion fluxes.

    The coefficient may depend on the bulk trace value (cross diffusion);
    chain endpoints are zero flux.  The length-weighted sum is zero.
    """
    _check_sizes(state, mesh)
    return _surface_diffusion(state.u, state.v, mesh, law, window, face_average)


def coupling_rate(
    state: State,
    mesh: CoupledMesh,
    kin: Kinetics,
) -> tuple[np.ndarray, np.ndarray]:
    """Reaction exchange between each surface cell and its trace bulk cell.

    With r_j = safe_rate(u_trace, v_j), the bulk cell loses alpha*r_j*|G_j|
    per unit volume and the surface cell gains beta*r_j, so the
    (beta, alpha)-weighted sum of the two returned arrays is zero.
    """
    _check_sizes(state, mesh)
    return _coupling(state.u, state.v, mesh, kin)


def total_rate(
    state: State,
    mesh: CoupledMesh,
    kin: Kinetics,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
    window: ClampWindow,
    face_average: str = "arithmetic",
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the three spatial operators: (du/dt, dv/dt)."""
    _check_sizes(state, mesh)
    return _rates(state.u, state.v, mesh, kin, bulk_law, surf_law, window, face_average)


def _rate_vector(w, mesh, kin, bulk_law, surf_law, window, face_average):
    nb = mesh.n_bulk
    du, dv = _rates(w[:nb], w[nb:], mesh, kin, bulk_law, surf_law, window, face_average)
    return np.concatenate([du, dv])


def _face_block(faces: FaceSet, x, offset: int, mu, dmu_x, face_average, dmu_y=None, y_cols=None):
    """COO triplets (rows, cols, vals) of the Jacobian of one face divergence.

    The flux phi = trans * mu_f * (x_b - x_a) of a face enters the rate of
    cell a as +phi/|a| and that of cell b as -phi/|b|.  x is the diffused
    field, stored at state index offset + cell; mu and dmu_x are the cell
    coefficients and their derivatives along x.  A cross coefficient also
    depends on a second field y, with derivatives dmu_y and state indices
    y_cols[cell].
    """
    a, b = faces.cell_a, faces.cell_b
    mu_a, mu_b = mu[a], mu[b]
    mean, weights = _FACE_AVERAGES[face_average]
    mu_f = mean(mu_a, mu_b)
    w_a, w_b = weights(mu_a, mu_b)
    g = faces.trans
    dlt = x[b] - x[a]
    cols = [offset + a, offset + b]
    dphi = [g * (w_a * dmu_x[a] * dlt - mu_f), g * (w_b * dmu_x[b] * dlt + mu_f)]
    if dmu_y is not None:
        cols += [y_cols[a], y_cols[b]]
        dphi += [g * w_a * dmu_y[a] * dlt, g * w_b * dmu_y[b] * dlt]
    inv_a, inv_b = 1.0 / faces.measure[a], 1.0 / faces.measure[b]
    rows = [offset + a] * len(cols) + [offset + b] * len(cols)
    return rows, cols + cols, [d * inv_a for d in dphi] + [-d * inv_b for d in dphi]


def _analytic_jacobian(w, mesh, kin, bulk_law, surf_law, window, face_average):
    """Sparse Jacobian of the total rate with respect to the stacked state."""
    nb, ns = mesh.n_bulk, mesh.n_surface
    u, v = w[:nb], w[nb:]
    tr = mesh.surf_to_bulk
    mu, dmu_du, _ = coefficient_and_derivatives(bulk_law, u, None, window)
    rows, cols, vals = _face_block(mesh.bulk_faces, u, 0, mu, dmu_du, face_average)
    mu, dmu_du, dmu_dv = coefficient_and_derivatives(surf_law, u[tr], v, window)
    block = _face_block(mesh.surf_faces, v, nb, mu, dmu_dv, face_average, dmu_du, tr)
    rows, cols, vals = rows + block[0], cols + block[1], vals + block[2]

    # coupling
    dr_du, dr_dv = safe_rate_derivatives(u[tr], v, kin)
    cpl = -kin.alpha * mesh.surf_length / mesh.cell_volume
    j_idx = nb + np.arange(ns)
    rows += [tr, tr, j_idx, j_idx]
    cols += [tr, j_idx, tr, j_idx]
    vals += [cpl * dr_du, cpl * dr_dv, kin.beta * dr_du, kin.beta * dr_dv]

    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nb + ns, nb + ns),
    ).tocsc()


def _fd_jacobian(w, mesh, kin, bulk_law, surf_law, window, face_average):
    """Dense finite-difference Jacobian of the total rate (column perturbations)."""
    n = w.size
    f0 = _rate_vector(w, mesh, kin, bulk_law, surf_law, window, face_average)
    jac = np.empty((n, n))
    for i in range(n):
        h = 1e-7 * (1.0 + abs(w[i]))
        wp = w.copy()
        wp[i] += h
        fp = _rate_vector(wp, mesh, kin, bulk_law, surf_law, window, face_average)
        jac[:, i] = (fp - f0) / h
    return jac


def step(
    state: State,
    mesh: CoupledMesh,
    kin: Kinetics,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
    window: ClampWindow,
    cfg: StepConfig,
    *,
    lu: NewtonLU | None = None,
) -> State:
    """Advance one theta-implicit step with damped Newton.

    Solves R(w) = w - w_old - dt*(theta*F(w) + (1-theta)*F(w_old)) = 0 to
    max-norm tolerance cfg.newton_tol.  If the old state already satisfies
    the residual (e.g. at equilibrium) it is returned unchanged apart from
    the time.  Negative intermediate iterates are harmless: the guarded rate
    and the coefficient clamp keep every evaluation defined.

    lu holds the LU of I - theta*dt*J from earlier steps of the same problem
    and receives the one this step leaves; without it the step starts from a
    new empty holder and factors at the old state.  A holder keyed on another
    theta*dt is emptied first.  A reused LU is stale: if the line search
    fails on it, the iteration is retried with a fresh LU at the current
    iterate.  After any iteration that leaves more than CONTRACTION times
    the previous residual the LU is dropped and the next iteration
    refactors.  The
    factorization uses the MMD_AT_PLUS_A column ordering.

    Raises NonConvergence when the iteration cap is reached or the line
    search fails on a fresh LU; the caller may halve dt and retry.
    """
    _check_sizes(state, mesh)
    nb = mesh.n_bulk
    dt = cfg.dt
    theta = cfg.theta
    w_old = np.concatenate([state.u, state.v])

    def fvec(w: np.ndarray) -> np.ndarray:
        return _rate_vector(w, mesh, kin, bulk_law, surf_law, window, cfg.face_average)

    f_old = fvec(w_old)
    expl = np.zeros_like(w_old) if theta == 1.0 else dt * (1.0 - theta) * f_old

    def residual(w: np.ndarray, f: np.ndarray) -> np.ndarray:
        return w - w_old - dt * theta * f - expl

    w = w_old.copy()
    r = residual(w, f_old)
    rn = float(np.max(np.abs(r)))
    if rn <= cfg.newton_tol:
        return State(t=state.t + dt, u=state.u.copy(), v=state.v.copy())

    if lu is None:
        lu = NewtonLU()
    if lu.key != dt * theta:
        lu.key, lu.solve = dt * theta, None
    fresh = False  # lu.solve was factored at the current iterate
    iters = 0
    while iters < cfg.newton_max_iter:
        if lu.solve is None:
            jmat = _analytic_jacobian(w, mesh, kin, bulk_law, surf_law, window, cfg.face_average)
            matrix = (sparse.identity(w.size, format="csc") - lu.key * jmat).tocsc()
            lu.solve = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve
            fresh = True
        delta = lu.solve(-r)
        iters += 1

        lam = 1.0
        accepted = False
        rn_trial = rn
        for _ in range(12):
            w_trial = w + lam * delta
            r_trial = residual(w_trial, fvec(w_trial))
            rn_trial = float(np.max(np.abs(r_trial)))
            if np.isfinite(rn_trial) and rn_trial < rn:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            if not fresh:
                lu.solve = None  # retry this iteration with a fresh Jacobian
                continue
            raise NonConvergence(iters, rn)

        contraction = rn_trial / rn
        w, r, rn = w_trial, r_trial, rn_trial
        fresh = False
        if rn <= cfg.newton_tol:
            return State(t=state.t + dt, u=w[:nb].copy(), v=w[nb:].copy())
        if contraction > CONTRACTION:
            lu.solve = None

    raise NonConvergence(iters, rn)


def run(
    initial: State,
    t_final: float,
    mesh: CoupledMesh,
    kin: Kinetics,
    eq: Equilibrium,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
    window: ClampWindow,
    cfg: StepConfig,
) -> tuple[State, list]:
    """March from initial.t to t_final, collecting one DiagnosticsRecord per state.

    The first record is the initial state; one more follows each accepted
    step (the final step is clipped to land on t_final exactly).  On Newton
    failure the step is retried with dt halved, up to cfg.max_dt_halvings
    times; subsequent steps return to the configured dt.  The steps share
    one NewtonLU, so the LU is reused across steps and refactored when dt
    changes.  A fatal failure propagates NonConvergence with the last good
    state and the records so far attached to the exception.
    """
    from .diagnostics import record as make_record

    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < initial.t:
        raise ValueError(f"t_final={t_final} lies before the initial time {initial.t}")
    _check_sizes(initial, mesh)

    def recorded(st: State):
        return make_record(
            st, mesh, kin, eq, window, bulk_law, surf_law, face_average=cfg.face_average
        )

    state = initial
    records = [recorded(state)]
    lu = NewtonLU()
    t_eps = 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final - t_eps:
        dt_step = min(cfg.dt, t_final - state.t)
        local = replace(cfg, dt=dt_step)
        for halving in range(cfg.max_dt_halvings + 1):
            try:
                state = step(state, mesh, kin, bulk_law, surf_law, window, local, lu=lu)
                break
            except NonConvergence as exc:
                if halving == cfg.max_dt_halvings:
                    exc.last_state = state
                    exc.records = records
                    raise
                local = replace(local, dt=0.5 * local.dt)
        records.append(recorded(state))
    return state, records
