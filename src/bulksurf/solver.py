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
surface is no-flux by omission.  The face operator (flux, divergence and
Jacobian block) lives in mesh.py beside FaceSet; this module evaluates the
coefficients, adds the reaction coupling and steps in time.  The weighted mass

    beta * sum_i U_i |cell| + alpha * sum_j V_j |G_j|

is conserved exactly by this flux/source structure, up to the nonlinear-solve
residual.

Time discretization is theta-implicit (backward Euler at theta = 1), solved
by damped Newton.  The Newton matrix I - theta*dt*dF/dw is assembled from the
analytic sparse Jacobian and factored by SuperLU with the minimum-degree
ordering of A^T + A, since the matrix is structurally symmetric.  A NewtonLU
holder carries the LU, the last accepted rate and the last accepted states
from one step to the next (simplified Newton with a predictor, Hairer &
Wanner, Solving ODEs II, IV.8); its docstring states when each is used and
when it is dropped.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from math import comb

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from . import diagnostics
from .mesh import FACE_AVERAGES, CoupledMesh, check_sizes, face_block, face_divergence, is_int
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    check_role,
    coefficient_and_derivatives,
    diffusion_coefficient,
    safe_rate,
    safe_rate_derivatives,
)

# A Newton iteration whose residual max-norm exceeds this fraction of the
# previous one drops the LU, so the next iteration refactors at the current
# iterate.  Of 0.2, 0.1, 0.05 and 0.02, 0.05 gave the shortest runs on the
# blob and CLI problems: at 0.2 a lagged LU took about 11 iterations per step
# on the 32x32 blob, and at 0.02 the extra factorizations cost more than they
# saved.
CONTRACTION = 0.05

# Degree of the polynomial through the last accepted states that predicts the
# start of the next Newton solve.  Of 2 to 7, 5 took the fewest Newton solves
# on the 32x32 blob and the CLI problem together: 557 and 459 for 300 steps,
# against 1390 and 1591 from the old state.  6 saves a few solves on the blob
# but costs the CLI problem 34 to 42 and sometimes an LU.  The weights
# extrapolate PREDICTOR_DEGREE + 1 equally spaced states, newest first, one
# step ahead.
PREDICTOR_DEGREE = 5
_PREDICTOR_WEIGHTS = [
    (-1) ** j * comb(PREDICTOR_DEGREE + 1, j + 1) for j in range(PREDICTOR_DEGREE + 1)
]


class NonConvergence(RuntimeError):
    """Newton failed to converge in step.

    step raises it when the iteration cap cfg.newton_max_iter is reached, or
    when no damping of the line search lowers the residual on an LU freshly
    factored at the current iterate.
    """

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
    """Cell-averaged fields at one time instant: a finite t and 1-D finite u and v."""

    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if not np.isfinite(self.t):
            raise ValueError(f"state time must be finite, got {self.t}")
        if self.u.ndim != 1 or self.v.ndim != 1:
            raise ValueError(f"state fields must be 1-D, got shapes {self.u.shape}, {self.v.shape}")
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
        if not (is_int(self.newton_max_iter) and self.newton_max_iter >= 1):
            raise ValueError(f"newton_max_iter must be an integer >= 1, got {self.newton_max_iter!r}")
        if not (is_int(self.max_dt_halvings) and self.max_dt_halvings >= 0):
            raise ValueError(f"max_dt_halvings must be an integer >= 0, got {self.max_dt_halvings!r}")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")
        if self.face_average not in FACE_AVERAGES:
            raise ValueError(f"unknown face average {self.face_average!r}")


@dataclass
class NewtonLU:
    """The Newton LU, the last accepted rate and states, kept from one step to the next.

    problem is what the holder serves: (mesh, kinetics, bulk law, surface
    law, window, face average, theta*dt).  solve is the solve of the LU of
    I - theta*dt*J, f the total rate F at the state the last step accepted,
    and history up to PREDICTOR_DEGREE + 1 consecutive accepted stacked
    states, newest first, so history[0] is the accepted state.  A holder
    with no recorded problem adopts the first one step uses it with.

    step keeps two rules.  A step with another problem (the mesh compared
    by identity, the rest by value) empties solve, f and history first.  A
    step whose old state equals history[0] bit for bit takes f as F(w_old)
    and prepends its accepted state to the history, starting Newton from the
    history's extrapolation once it is full; any other step evaluates
    F(w_old) and restarts the history as (accepted state, old state).  So
    the predictor only extrapolates an unbroken equally spaced sequence.
    The LU is also dropped, and refactored at the current iterate, after an
    iteration that leaves more than CONTRACTION times the previous residual
    and when the line search fails on it.
    """

    problem: tuple | None = None
    solve: Callable[[np.ndarray], np.ndarray] | None = None
    f: np.ndarray | None = None
    history: tuple[np.ndarray, ...] = ()


def _bulk_diffusion(u, mesh, law, window, face_average):
    check_role(law, "bulk")
    mu = diffusion_coefficient(law, u, None, window)
    return face_divergence(mesh.bulk_faces, u, mu, face_average)


def _surface_diffusion(u, v, mesh, law, window, face_average):
    check_role(law, "surface")
    mu = diffusion_coefficient(law, u[mesh.surf_to_bulk], v, window)
    return face_divergence(mesh.surf_faces, v, mu, face_average)


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
    check_sizes(state, mesh)
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
    check_sizes(state, mesh)
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
    check_sizes(state, mesh)
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
    check_sizes(state, mesh)
    return _rates(state.u, state.v, mesh, kin, bulk_law, surf_law, window, face_average)


def _rate_vector(w, mesh, kin, bulk_law, surf_law, window, face_average):
    nb = mesh.n_bulk
    du, dv = _rates(w[:nb], w[nb:], mesh, kin, bulk_law, surf_law, window, face_average)
    return np.concatenate([du, dv])


def _analytic_jacobian(w, mesh, kin, bulk_law, surf_law, window, face_average):
    """Sparse Jacobian of the total rate with respect to the stacked state."""
    nb, ns = mesh.n_bulk, mesh.n_surface
    u, v = w[:nb], w[nb:]
    tr = mesh.surf_to_bulk
    mu, dmu_du, _ = coefficient_and_derivatives(bulk_law, u, None, window)
    rows, cols, vals = face_block(mesh.bulk_faces, u, 0, mu, dmu_du, face_average)
    mu, dmu_du, dmu_dv = coefficient_and_derivatives(surf_law, u[tr], v, window)
    block = face_block(mesh.surf_faces, v, nb, mu, dmu_dv, face_average, dmu_du, tr)
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
    max-norm tolerance cfg.newton_tol, tested once at the top of every
    Newton iteration (a NaN residual never passes).  If the old state
    already satisfies it (e.g. at equilibrium) no iteration runs, no
    predictor is evaluated and the state is returned unchanged apart from
    the time.  Otherwise Newton starts from w_old, or, when lu holds a full
    history ending at w_old, from its extrapolant sum_j (-1)^j C(K+1, j+1)
    w_{n-j} (K = PREDICTOR_DEGREE) if R there, evaluated once, has a
    strictly smaller max-norm than R(w_old) = -dt*F(w_old).  Negative
    intermediate iterates are harmless: the guarded rate and the coefficient
    clamp keep every evaluation defined.

    lu carries the LU, the accepted rate and the accepted states from the
    step before and receives this step's; NewtonLU states when each is used
    and when it is dropped.  Without lu the step starts from a new empty
    holder and factors at the old state, with the MMD_AT_PLUS_A column
    ordering.

    Raises NonConvergence when the iteration cap is reached or the line
    search fails on a fresh LU; the caller may halve dt and retry.
    """
    check_sizes(state, mesh)
    nb = mesh.n_bulk
    dt = cfg.dt
    theta = cfg.theta
    w_old = np.concatenate([state.u, state.v])

    def fvec(w: np.ndarray) -> np.ndarray:
        return _rate_vector(w, mesh, kin, bulk_law, surf_law, window, cfg.face_average)

    if lu is None:
        lu = NewtonLU()
    problem = (mesh, kin, bulk_law, surf_law, window, cfg.face_average, dt * theta)
    if lu.problem is not None and lu.problem != problem:
        lu.solve, lu.f, lu.history = None, None, ()
    lu.problem = problem

    chained = bool(lu.history) and np.array_equal(lu.history[0], w_old)
    history = lu.history if chained else (w_old,)
    f_old = lu.f if chained and lu.f is not None else fvec(w_old)
    expl = np.zeros_like(w_old) if theta == 1.0 else dt * (1.0 - theta) * f_old

    def residual(w: np.ndarray, f: np.ndarray) -> np.ndarray:
        return w - w_old - dt * theta * f - expl

    w, f = w_old.copy(), f_old
    r = residual(w, f)
    rn = float(np.max(np.abs(r)))
    if not rn <= cfg.newton_tol and len(history) == PREDICTOR_DEGREE + 1:
        w_pred = sum(c * h for c, h in zip(_PREDICTOR_WEIGHTS, history))
        f_pred = fvec(w_pred)
        r_pred = residual(w_pred, f_pred)
        rn_pred = float(np.max(np.abs(r_pred)))
        if rn_pred < rn:
            w, f, r, rn = w_pred, f_pred, r_pred, rn_pred
    iters = 0
    while not rn <= cfg.newton_tol:
        if iters >= cfg.newton_max_iter:
            raise NonConvergence(iters, rn)
        fresh = lu.solve is None  # factored at the current iterate
        if fresh:
            jmat = _analytic_jacobian(w, mesh, kin, bulk_law, surf_law, window, cfg.face_average)
            matrix = (sparse.identity(w.size, format="csc") - dt * theta * jmat).tocsc()
            lu.solve = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A").solve
        delta = lu.solve(-r)
        iters += 1

        lam = 1.0
        for _ in range(12):
            w_trial = w + lam * delta
            f_trial = fvec(w_trial)
            r_trial = residual(w_trial, f_trial)
            rn_trial = float(np.max(np.abs(r_trial)))
            if np.isfinite(rn_trial) and rn_trial < rn:
                break
            lam *= 0.5
        else:  # no trial reduced the residual
            if fresh:
                raise NonConvergence(iters, rn)
            lu.solve = None  # retry this iteration with a fresh Jacobian
            continue

        contraction = rn_trial / rn
        w, f, r, rn = w_trial, f_trial, r_trial, rn_trial
        if rn > cfg.newton_tol and contraction > CONTRACTION:
            lu.solve = None

    lu.f = f
    lu.history = (w,) + history[:PREDICTOR_DEGREE]
    return State(t=state.t + dt, u=w[:nb].copy(), v=w[nb:].copy())


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
    step.  The final step is clipped to land on t_final exactly; a remainder
    within round-off (t_eps) of cfg.dt is taken at cfg.dt, so summed step
    times do not cost a clipped step, and its time is set to t_final.  On
    Newton failure the step is retried with dt halved, up to
    cfg.max_dt_halvings times; subsequent steps return to the configured dt.
    The steps share one NewtonLU (see there for what it carries across
    steps and when a halved or clipped step drops it).  A fatal failure propagates NonConvergence with the last good state and the
    records so far attached to the exception.
    """
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < initial.t:
        raise ValueError(f"t_final={t_final} lies before the initial time {initial.t}")
    check_sizes(initial, mesh)

    def recorded(st: State):
        return diagnostics.record(
            st, mesh, kin, eq, window, bulk_law, surf_law, face_average=cfg.face_average
        )

    state = initial
    records = [recorded(state)]
    lu = NewtonLU()
    t_eps = 1e-12 * max(1.0, abs(t_final))
    while state.t < t_final - t_eps:
        remaining = t_final - state.t
        local = cfg if remaining >= cfg.dt - t_eps else replace(cfg, dt=remaining)
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
        if abs(state.t - t_final) <= t_eps:
            state.t = t_final
        records.append(recorded(state))
    return state, records
