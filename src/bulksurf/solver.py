"""Implicit mass-conservative time stepping for the coupled bulk-surface system.

Semi-discrete form, with U the bulk cell averages and V the surface cell
averages:

    dU_i/dt = (1/|cell|) * sum_faces mu_f * (U_nb - U_i) * |face|/dist
              - alpha * sum_{j traced to i} f(U_i, V_j) * |G_j| / |cell|,
    dV_j/dt = (1/|G_j|) * sum_chain_faces muG_f * (V_nb - V_j) / dist
              + beta * f(U_i(j), V_j),

with f the guarded mass-action rate and all diffusion coefficients evaluated
at clamped arguments.  Faces are two-point fluxes whose coefficient mean,
arithmetic or harmonic, is the face set's own (mesh.faces.average); every
boundary face outside the active surface is no-flux by omission.  Both
sums over faces are one face divergence on mesh.faces, the one face set
over the stacked state w = (U, V), with one coefficient per stacked cell.  The face operator (flux,
divergence and Jacobian block) lives in mesh.py beside FaceSet; this module
evaluates the coefficients, adds the reaction coupling and steps in time.
The weighted mass

    beta * sum_i U_i |cell| + alpha * sum_j V_j |G_j|

is conserved exactly by this flux/source structure, up to the nonlinear-solve
residual.

Time discretization is theta-implicit (backward Euler at theta = 1), solved
by damped Newton.  The Newton matrix I - theta*dt*dF/dw is assembled in one
pass from the analytic derivatives: two off-diagonal entries per face and
per surface-cell coupling, and a diagonal summed per cell with the identity
folded in.  SuperLU factors it with the minimum-degree ordering of A^T + A,
since the matrix is structurally symmetric, and panel size 1.  The factor
is single precision: it only steers the iteration, while residuals,
iterates, the line search and the stopping test stay in double precision
(mixed-precision iterative refinement, Carson & Higham, SIAM J. Sci.
Comput. 40, 2018).  The matrix is assembled inside the factor helper, and
its float32 values replace the float64 ones before SuperLU runs, so the
factor holds the only copy of the Newton values.  A problem on which a
single-precision factor fails falls back to double precision.  A NewtonLU
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
from .mesh import CoupledMesh, check_sizes, face_block, face_divergence, is_int
from .model import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    check_laws,
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

# run retries a step that raises NonConvergence, or that leaves a negative
# entry, with dt halved, up to this many times, before the failure is fatal.
MAX_DT_HALVINGS = 5

_Solve = Callable[[np.ndarray], np.ndarray]  # the solve of a Newton LU


class NonConvergence(RuntimeError):
    """Newton failed to converge in step.

    step raises it when the iteration cap cfg.newton_max_iter is reached,
    when SuperLU cannot factor the Newton matrix in double precision, or
    when no damping of the line search lowers the residual on a fresh
    double-precision LU; residual is in units of u* and v*.  run raises it,
    with iterations and residual None and a message of its own, when a step
    leaves a state with a negative entry, whose entropy is undefined.  run
    retries the step with dt halved up to MAX_DT_HALVINGS times first.
    """

    def __init__(self, iterations: int | None, residual: float | None, message: str = ""):
        super().__init__(
            message or f"Newton did not converge: residual {residual:.3e} after {iterations} iterations"
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
        if not (np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise ValueError("state fields must be finite")

    def copy(self) -> "State":
        return State(t=self.t, u=self.u.copy(), v=self.v.copy())


@dataclass(frozen=True)
class StepConfig:
    """Time-step controls.

    theta = 1 is backward Euler; theta = 0.5 the trapezoidal rule.
    newton_tol is in units of the window's u* and v* (see step).  The face
    coefficient mean is the mesh's (mesh.faces.average), not a step control.
    """

    dt: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    theta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not (is_int(self.newton_max_iter) and self.newton_max_iter >= 1):
            raise ValueError(f"newton_max_iter must be an integer >= 1, got {self.newton_max_iter!r}")
        if not (0.5 <= self.theta <= 1.0):
            raise ValueError(f"theta must lie in [0.5, 1], got {self.theta}")


@dataclass
class NewtonLU:
    """The Newton LU, the last accepted rate and states, kept from one step to the next.

    problem is what the holder serves: (mesh, kinetics, bulk law, surface
    law, window, theta*dt); the mesh carries the face average.  solve is the
    solve of the LU of I - theta*dt*J, f the total rate F at the state the
    last step accepted, and history up to PREDICTOR_DEGREE + 1 consecutive
    accepted stacked states, newest first, so history[0] is the accepted
    state.  A holder
    with no recorded problem adopts the first one step uses it with.

    step keeps two rules.  A step with another problem (the mesh compared
    by identity, the rest by value) empties solve, f and history first.  A
    step whose old state equals history[0] bit for bit takes f as F(w_old)
    and prepends its accepted state to the history, starting Newton from the
    history's extrapolation once it is full; any other step evaluates
    F(w_old) and restarts the history as (accepted state, old state).  So
    the predictor only extrapolates an unbroken equally spaced sequence.
    One rule drops the LU, to be refactored at the current iterate: an
    iteration whose line search fails, or whose accepted residual is above
    newton_tol and more than CONTRACTION times the previous one.

    Factors are single precision until double is set.  _factor sets it when
    the Newton matrix is not finite in float32 or SuperLU cannot factor its
    float32 values, and step when the rule drops a fresh single-precision LU;
    every later factor is then double precision until another problem
    empties the holder.
    """

    problem: tuple | None = None
    solve: _Solve | None = None
    f: np.ndarray | None = None
    history: tuple[np.ndarray, ...] = ()
    double: bool = False


def _factor(w: np.ndarray, c: float, operator: tuple, double: bool) -> tuple[_Solve | None, bool]:
    """The solve of a SuperLU factor of I - c*J at w and whether it is double precision.

    operator is (mesh, kinetics, bulk law, surface law, window).  The
    Newton matrix is assembled here and never leaves the helper.  Panel size
    1 gives the same factor as SuperLU's default panel size, bit for bit, in
    less time and memory (the panel workspace scales with panel size times
    n).  Unless double is set the factor is single precision: the summed
    float64 values are cast to float32 and replace them in the matrix, so
    they are freed before SuperLU runs.  Its solve scales the right-hand side
    by its max-norm, so its range fits single precision, and returns
    float64.  A matrix that is not finite in float32 is factored in double
    precision; when SuperLU raises on the float32 values (an exactly
    singular factor), the matrix is assembled again at w in double
    precision.  solve is None only when SuperLU raises on the
    double-precision matrix.
    """
    matrix = _newton_matrix(w, c, *operator)
    if not double:
        with np.errstate(over="ignore"):
            data = matrix.data.astype(np.float32)
        double = not np.all(np.isfinite(data))
        if not double:
            matrix.data = data
        del data  # a non-finite copy is not kept through a double factor
    try:
        factor = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", panel_size=1)
    except RuntimeError:
        return (None, True) if double else _factor(w, c, operator, True)
    if double:
        return factor.solve, True

    def solve(b: np.ndarray) -> np.ndarray:
        scale = np.abs(b).max()
        return scale * factor.solve((b / scale).astype(np.float32)).astype(float)

    return solve, False


def total_rate(
    state: State,
    mesh: CoupledMesh,
    kin: Kinetics,
    bulk_law: DiffusionLaw,
    surf_law: DiffusionLaw,
    window: ClampWindow,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the three spatial operators, (du/dt, dv/dt); each law reads what its slot gives."""
    check_sizes(state, mesh)
    w = np.concatenate([state.u, state.v])
    f = _rate_vector(w, mesh, kin, bulk_law, surf_law, window)
    return f[: mesh.n_bulk], f[mesh.n_bulk :]


def _rate_vector(w, mesh, kin, bulk_law, surf_law, window):
    """The total rate F(w) of the stacked state w = (u, v).

    One face divergence over mesh.faces diffuses u with the bulk law and v
    with the surface law.  With r_j = safe_rate(u_trace, v_j), the trace
    bulk cell K then loses alpha*r_j*|G_j|/|K| and surface cell j gains
    beta*r_j, every measure read from mesh.faces.measure.
    """
    nb = mesh.n_bulk
    measure = mesh.faces.measure
    u, v = w[:nb], w[nb:]
    tr = mesh.surf_to_bulk
    u_tr = u[tr]
    mu = np.empty_like(w)
    mu[:nb] = diffusion_coefficient(bulk_law, u, None, window)
    mu[nb:] = diffusion_coefficient(surf_law, u_tr, v, window)
    f = face_divergence(mesh.faces, w, mu)
    r = safe_rate(u_tr, v, kin)
    f[:nb] += -kin.alpha / measure[:nb] * np.bincount(tr, weights=r * measure[nb:], minlength=nb)
    f[nb:] += kin.beta * r
    return f


def _newton_matrix(w, c, mesh, kin, bulk_law, surf_law, window):
    """The Newton matrix I - c*J in CSC, J the Jacobian of the total rate at w.

    One face_block call over mesh.faces gives two off-diagonal entries per
    face (and the bulk-trace columns of a cross coefficient), the coupling
    two per surface cell; the diagonal is summed per cell and 1 - c*J_ii is
    folded into it.  All indices are np.intc, and explicit zeros are
    dropped, so SuperLU orders the pattern of the nonzeros.
    """
    nb, n = mesh.n_bulk, w.size
    u, v = w[:nb], w[nb:]
    tr = mesh.surf_to_bulk
    u_tr = u[tr]
    # per stacked cell: the coefficient and its derivatives along the cell's own entry and u[tr]
    mu, dmu, dmu_tr = np.empty(n), np.empty(n), np.zeros(n)
    mu[:nb], dmu[:nb], _ = coefficient_and_derivatives(bulk_law, u, None, window)
    mu[nb:], dmu_du, dmu[nb:] = coefficient_and_derivatives(surf_law, u_tr, v, window)
    dmu_tr[nb:] = 0.0 if dmu_du is None else dmu_du
    trace_cols = np.concatenate([np.arange(nb), tr])  # a bulk cell is its own trace
    rows, cols, vals, diag = face_block(mesh.faces, w, mu, dmu, dmu_tr, trace_cols)
    del mu, dmu, dmu_du, dmu_tr, trace_cols

    # coupling: bulk trace cell tr[j] <-> surface cell nb + j
    dr_du, dr_dv = safe_rate_derivatives(u_tr, v, kin)
    cpl = -kin.alpha * mesh.faces.measure[nb:] / mesh.faces.measure[tr]
    diag[:nb] += np.bincount(tr, weights=cpl * dr_du, minlength=nb)
    diag[nb:] += kin.beta * dr_dv

    cells = np.arange(n, dtype=np.intc)
    # freed together after the joins, the block's arrays and diag leave ~1 MB less heap at 256x256
    rows, cols, vals = (
        np.concatenate([rows, tr, cells[nb:], cells], dtype=np.intc),
        np.concatenate([cols, cells[nb:], tr, cells], dtype=np.intc),
        np.concatenate([vals, cpl * dr_dv, kin.beta * dr_du, diag]),
    )
    del diag
    vals *= -c
    vals[-n:] += 1.0  # the identity
    matrix = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()
    matrix.eliminate_zeros()
    return matrix


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

    Solves R(w) = w - w_old - dt*(theta*F(w) + (1-theta)*F(w_old)) = 0 in
    units of the equilibrium, where x has size max_i |x_i|/star_i, star_i =
    window.u_star on bulk and window.v_star on surface entries.  Newton
    stops at the top of an iteration when the residual's size is at most
    cfg.newton_tol (a NaN residual never passes), or after a solve when the
    correction delta's is: it takes w + delta and evaluates F there once,
    for lu.f.  If the old state already passes (e.g. at equilibrium) no
    iteration runs, no predictor is evaluated and the state is returned
    unchanged apart from the time.  Otherwise Newton starts from w_old, or,
    when lu holds a full history ending at w_old, from its extrapolant
    sum_j (-1)^j C(K+1, j+1) w_{n-j} (K = PREDICTOR_DEGREE) if R there,
    evaluated once, is smaller than R(w_old) = -dt*F(w_old).  The line
    search takes the first of w + 2**-k * delta, k = 0..11, whose residual
    is smaller.  Each candidate (w_old, the extrapolant, a trial) is
    evaluated by one helper: F once, then R and its size.  Negative
    intermediate iterates are harmless: the guarded rate and the
    coefficient clamp keep every evaluation defined.

    lu carries the LU, the accepted rate and the accepted states from the
    step before and receives this step's; NewtonLU states when each is used
    and the one rule that drops the LU, and when its factors switch from
    single to double precision.  Without lu the step starts from a new
    empty holder and factors at the old state.  Every factor comes from
    _factor(w, theta*dt, operator, lu.double), which assembles the Newton
    matrix at the iterate w, factors it and returns its solve and precision.

    Raises NonConvergence when the iteration cap is reached, or when SuperLU
    cannot factor the matrix or the line search fails on a fresh
    double-precision LU; the caller may halve dt and retry.
    """
    check_sizes(state, mesh)
    nb = mesh.n_bulk
    dt = cfg.dt
    theta = cfg.theta
    w_old = np.concatenate([state.u, state.v])
    operator = (mesh, kin, bulk_law, surf_law, window)  # F and J read these

    if lu is None:
        lu = NewtonLU()
    problem = operator + (dt * theta,)
    if lu.problem is not None and lu.problem != problem:
        lu.solve, lu.f, lu.history, lu.double = None, None, (), False
    lu.problem = problem

    chained = bool(lu.history) and np.array_equal(lu.history[0], w_old)
    history = lu.history if chained else (w_old,)
    f_old = lu.f if chained and lu.f is not None else _rate_vector(w_old, *operator)
    expl = None if theta == 1.0 else dt * (1.0 - theta) * f_old  # the explicit part of R

    def size(x: np.ndarray) -> float:
        """max_i |x_i|/star_i, one reduction per field; NaN if x holds a NaN."""
        u_max, v_max = np.maximum.reduceat(np.abs(x), (0, nb)).tolist()
        u_size, v_size = u_max / window.u_star, v_max / window.v_star
        return u_size if u_size >= v_size or u_size != u_size else v_size  # NaN wins

    def candidate(w: np.ndarray, f: np.ndarray | None = None) -> tuple:
        """(w, F(w), R(w), size(R(w))), evaluating F unless it is given."""
        if f is None:
            f = _rate_vector(w, *operator)
        r = w - w_old - dt * theta * f
        if expl is not None:
            r -= expl
        return w, f, r, size(r)

    w, f, r, rn = candidate(w_old, f_old)
    if not rn <= cfg.newton_tol and len(history) == PREDICTOR_DEGREE + 1:
        predicted = candidate(sum(c * h for c, h in zip(_PREDICTOR_WEIGHTS, history)))
        if predicted[3] < rn:
            w, f, r, rn = predicted
    iters = 0
    while not rn <= cfg.newton_tol:
        if iters >= cfg.newton_max_iter:
            raise NonConvergence(iters, rn)
        fresh = lu.solve is None  # factored at the current iterate
        if fresh:
            lu.solve, lu.double = _factor(w, dt * theta, operator, lu.double)
            if lu.solve is None:
                raise NonConvergence(iters, rn)
        delta = lu.solve(-r)
        iters += 1
        if size(delta) <= cfg.newton_tol:
            w = w + delta
            f = _rate_vector(w, *operator)  # for lu.f; the residual is not needed
            break

        for k in range(12):  # damping 1, 1/2, ..., 1/2**11
            trial = candidate(w + 0.5**k * delta)
            if trial[3] < rn:
                break
        reduced = trial[3] < rn  # false for a NaN or inf residual
        if not reduced or trial[3] > cfg.newton_tol and trial[3] / rn > CONTRACTION:
            if fresh and lu.double and not reduced:
                raise NonConvergence(iters, rn)
            lu.double |= fresh  # after a fresh factor, every next one is double precision
            lu.solve = None  # refactor at the current iterate
        if reduced:
            w, f, r, rn = trial

    lu.f = f
    lu.history = (w,) + history[:PREDICTOR_DEGREE]
    return State(t=state.t + dt, u=w[:nb].copy(), v=w[nb:].copy())


def check_clock(t0: float, t_final: float, dt: float) -> float:
    """Round-off t_eps of a run from t0 to t_final in steps of dt.

    t_eps is 1e-12 times the larger of |t0| and |t_final|.  Raises
    ValueError when t_final is not finite or lies before t0, and when a
    positive span lies within t_eps or dt is at most 2*t_eps, which the
    clock cannot resolve.
    """
    if not np.isfinite(t_final):
        raise ValueError(f"t_final must be finite, got {t_final}")
    if t_final < t0:
        raise ValueError(f"t_final={t_final} lies before the initial time {t0}")
    t_eps = 1e-12 * max(abs(t0), abs(t_final))
    if t_final > t0 and min(t_final - t0, 0.5 * dt) <= t_eps:
        raise ValueError(f"span {t_final - t0} or dt {dt} is within round-off {t_eps}")
    return t_eps


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
    within round-off of cfg.dt (t_eps, 1e-12 times the larger of |initial.t|
    and |t_final|, so any time scale steps alike) is taken at cfg.dt, so
    summed step times do not cost a clipped step, and its time is set to
    t_final.  A clock that cannot resolve the span or cfg.dt raises
    ValueError (see check_clock), and so does a law that check_laws
    rejects.  A step that fails Newton or leaves a negative entry is retried
    with dt halved, up to MAX_DT_HALVINGS times; later steps return to the
    configured dt.  The steps share one NewtonLU (see there for what it
    carries across steps and when a halved or clipped step drops it).  A fatal failure propagates NonConvergence with
    the last good state and the records so far attached to the exception.
    """
    t_eps = check_clock(initial.t, t_final, cfg.dt)
    check_sizes(initial, mesh)
    check_laws(bulk_law, surf_law, window)
    record_args = (mesh, kin, eq, window, bulk_law, surf_law)  # after the state
    state = initial
    records = [diagnostics.record(state, *record_args)]
    lu = NewtonLU()
    while state.t < t_final - t_eps:
        remaining = t_final - state.t
        local = cfg if remaining >= cfg.dt - t_eps else replace(cfg, dt=remaining)
        for halving in range(MAX_DT_HALVINGS + 1):
            try:
                new = step(state, mesh, kin, bulk_law, surf_law, window, local, lu=lu)
                low = min(new.u.min(), new.v.min())
                if low < 0:
                    raise NonConvergence(None, None, f"a negative state at t = {new.t:.6g}: min {low:.3e}")
                state = new
                break
            except NonConvergence as exc:
                if halving == MAX_DT_HALVINGS:
                    exc.last_state = state
                    exc.records = records
                    raise
                local = replace(local, dt=0.5 * local.dt)
        if abs(state.t - t_final) <= t_eps:
            state.t = t_final
        records.append(diagnostics.record(state, *record_args))
    return state, records
