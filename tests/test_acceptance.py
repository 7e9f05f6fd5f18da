"""Acceptance suite: one test per numbered criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite needs about 15 seconds, most of it the equilibration
run of criterion 9 (which extends the criterion-1 run at its original time
step).  Both step loops pass one NewtonLU through, as run does.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import bulksurf as bs
from test_mesh import disk_mesh

RNG_SEED = 20240817


def blob_problem(n=32):
    """The reference verification run: n x n bulk (32x32 by default), bottom-edge surface.

    Two Gaussian bumps ride on a reaction-balanced background (the background
    pair satisfies base_u**alpha = kappa*base_v**beta, so every deviation is
    carried by the bumps).  The window's floor is the data's least pressure,
    so the lower-envelope criterion checks a floor the data touch.
    """
    kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
    mesh = bs.build_mesh(n, n, 1.0, 1.0, {"bottom"})
    base_u = 1.2
    base_v = (base_u**kin.alpha / kin.kappa) ** (1.0 / kin.beta)
    width = 0.12
    g1 = np.exp(
        -((mesh.cell_center_x - 0.35) ** 2 + (mesh.cell_center_y - 0.6) ** 2) / (2 * width**2)
    )
    g2 = np.exp(
        -((mesh.cell_center_x - 0.65) ** 2 + (mesh.cell_center_y - 0.4) ** 2) / (2 * width**2)
    )
    u0 = base_u + 0.6 * g1 + 0.45 * g2
    v0 = np.full(mesh.n_surface, base_v)
    state = bs.State(t=0.0, u=u0, v=v0)
    mass = bs.weighted_mass(state, mesh, kin)
    eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(u0, v0, eq, kin)
    bulk_law = bs.power_law(1.0)
    surf_law = bs.surface_cross_law(kin)
    # fully implicit step at most 1e-3 of the characteristic diffusion time,
    # with the diffusion coefficient taken at its clamped upper bound
    mu_hi = bs.coefficient_bounds(bulk_law, window)[1]
    tau_diffusion = min(mesh.lx, mesh.ly) ** 2 / mu_hi
    cfg = bs.StepConfig(dt=1e-3 * tau_diffusion, newton_tol=1e-13, newton_max_iter=40)
    return SimpleNamespace(
        kin=kin,
        mesh=mesh,
        state=state,
        mass=mass,
        eq=eq,
        window=window,
        bulk_law=bulk_law,
        surf_law=surf_law,
        cfg=cfg,
        tau_diffusion=tau_diffusion,
    )


def sup_distance(state, eq):
    return max(
        float(np.max(np.abs(state.u - eq.u_star))),
        float(np.max(np.abs(state.v - eq.v_star))),
    )


@pytest.fixture(scope="module")
def blob_run():
    """2000 backward-Euler steps of the reference run, fully instrumented."""
    p = blob_problem()
    records = [bs.record(p.state, p.mesh, p.kin, p.eq, p.window, p.bulk_law, p.surf_law)]
    sups = [sup_distance(p.state, p.eq)]
    state = p.state
    lu = bs.NewtonLU()
    started = time.perf_counter()
    for _ in range(2000):
        state = bs.step(state, p.mesh, p.kin, p.bulk_law, p.surf_law, p.window, p.cfg, lu=lu)
        records.append(bs.record(state, p.mesh, p.kin, p.eq, p.window, p.bulk_law, p.surf_law))
        sups.append(sup_distance(state, p.eq))
    elapsed = time.perf_counter() - started
    p.records = records
    p.sups = sups
    p.final_state = state
    p.elapsed = elapsed
    return p


def test_criterion_01_mass_conservation(blob_run):
    p = blob_run
    drift = max(abs(r.mass - p.mass) / p.mass for r in p.records)
    assert drift <= 1e-11
    assert p.elapsed < 60.0
    print(f"[criterion 1] PASS mass conservation: relative drift {drift:.2e} "
          f"over 2000 steps in {p.elapsed:.1f} s")


def test_criterion_02_equilibrium_solver():
    def bisect_oracle(kin, mass, omega, gamma):
        def g(v):
            return (
                kin.beta * omega * kin.kappa ** (1 / kin.alpha) * v ** (kin.beta / kin.alpha)
                + kin.alpha * gamma * v
                - mass
            )

        lo, hi = 0.0, mass / (kin.alpha * gamma)
        while g(hi) < 0:
            hi *= 2
        # 1e-14 bracket width, stopping once the midpoint is no longer representable
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(RNG_SEED)
    started = time.perf_counter()
    worst_gap = worst_mass = worst_balance = 0.0
    for _ in range(1000):
        kin = bs.Kinetics(
            k=1.0,
            kappa=10.0 ** rng.uniform(-1, 1),
            alpha=rng.uniform(1, 4),
            beta=rng.uniform(1, 4),
        )
        mass = rng.uniform(1e-3, 100.0)
        omega = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.1, 10.0)
        eq = bs.solve_equilibrium(kin, mass, omega, gamma)
        v_ref = bisect_oracle(kin, mass, omega, gamma)
        gap = abs(eq.v_star - v_ref) / max(1.0, v_ref)
        mass_res = abs(kin.beta * omega * eq.u_star + kin.alpha * gamma * eq.v_star - mass) / mass
        p, q = eq.u_star**kin.alpha, kin.kappa * eq.v_star**kin.beta
        balance = abs(p - q) / max(p, q)
        worst_gap = max(worst_gap, gap)
        worst_mass = max(worst_mass, mass_res)
        worst_balance = max(worst_balance, balance)
        assert gap <= 1e-10
        assert mass_res <= 1e-12
        assert balance <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"[criterion 2] PASS equilibrium: worst oracle gap {worst_gap:.2e}, "
          f"mass residual {worst_mass:.2e}, balance residual {worst_balance:.2e}, "
          f"1000 tuples in {elapsed:.2f} s")


def test_criterion_03_upper_envelope(blob_run):
    p = blob_run
    bound = p.window.upper * (1 + 1e-6)
    u_max = max(r.u_env_max for r in p.records)
    v_max = max(r.v_env_max for r in p.records)
    assert u_max <= bound
    assert v_max <= bound
    assert all(r.envelope_entropy == 0.0 for r in p.records)
    print(f"[criterion 3] PASS upper envelope: max (u/u*)^a {u_max:.6f}, "
          f"max (v/v*)^b {v_max:.6f} vs L {p.window.upper:.6f}; adapted entropy 0 throughout")


def test_criterion_04_lower_envelope(blob_run):
    p = blob_run
    u_min = min(r.u_env_min for r in p.records)
    v_min = min(r.v_env_min for r in p.records)
    assert u_min >= p.window.lower
    assert v_min >= p.window.lower
    # the floor is the data's own least pressure, so the t = 0 record touches it
    start = p.records[0]
    assert start.t == 0.0
    assert min(start.u_env_min, start.v_env_min) == p.window.lower
    print(f"[criterion 4] PASS lower envelope: min (u/u*)^a {u_min:.6f}, "
          f"min (v/v*)^b {v_min:.6f} vs l {p.window.lower:.6f}, touched at t = 0")


def test_criterion_05_entropy_monotonicity(blob_run):
    p = blob_run
    assert p.cfg.theta == 1.0
    assert p.cfg.dt <= 1e-3 * p.tau_diffusion
    entropies = [r.entropy for r in p.records]
    slack = 1e-10 * entropies[0]
    worst = max(b - a for a, b in zip(entropies, entropies[1:]))
    assert worst <= slack
    print(f"[criterion 5] PASS entropy monotone: worst per-step increase {worst:.2e} "
          f"vs slack {slack:.2e}; E(0) = {entropies[0]:.6f}, E(end) = {entropies[-1]:.3e}")


def test_criterion_06_reaction_dissipation_sign():
    rng = np.random.default_rng(RNG_SEED + 1)
    mesh = bs.build_mesh(100, 1, 1.0, 0.2, {"bottom"})
    started = time.perf_counter()
    worst = 0.0
    n_states = 1000  # 100 random surface pairs per state -> 1e5 samples
    counts = np.zeros(3, dtype=int)
    for _ in range(n_states):
        kin = bs.Kinetics(
            k=10.0 ** rng.uniform(-1, 1),
            kappa=10.0 ** rng.uniform(-1, 1),
            alpha=rng.uniform(1, 4),
            beta=rng.uniform(1, 4),
        )
        v_star = 10.0 ** rng.uniform(-0.5, 0.5)
        u_star = (kin.kappa * v_star**kin.beta) ** (1 / kin.alpha)
        window = bs.ClampWindow(
            lower=10.0 ** rng.uniform(-2, -0.1),
            upper=10.0 ** rng.uniform(0.05, 1.5),
            u_star=u_star,
            v_star=v_star,
            alpha=kin.alpha,
            beta=kin.beta,
        )
        state = bs.State(
            t=0.0,
            u=u_star * 10.0 ** rng.uniform(-1.5, 1.5, mesh.n_bulk),
            v=v_star * 10.0 ** rng.uniform(-1.5, 1.5, mesh.n_surface),
        )
        split = bs.reaction_dissipation_split(state, mesh, kin, window)
        scale = max(1.0, abs(split.total))
        for value in (split.u_only, split.v_only, split.both):
            worst = min(worst, value / scale)
            assert value >= -1e-14 * scale
        counts += (split.n_u_only, split.n_v_only, split.n_both)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert np.all(counts > 0)  # all three classes exercised
    print(f"[criterion 6] PASS dissipation sign: worst scaled partition {worst:.2e} on "
          f"{n_states * mesh.n_surface} samples (class counts {tuple(counts)}) in {elapsed:.2f} s")


def test_criterion_07_rate_identity():
    rng = np.random.default_rng(RNG_SEED + 2)
    started = time.perf_counter()
    worst = 0.0
    batch = 10_000
    for _ in range(100):  # 1e6 samples total
        kin = bs.Kinetics(
            k=10.0 ** rng.uniform(-1, 1),
            kappa=10.0 ** rng.uniform(-1, 1),
            alpha=rng.uniform(1, 4),
            beta=rng.uniform(1, 4),
        )
        v_star = 10.0 ** rng.uniform(-0.5, 0.5)
        u_star = (kin.kappa * v_star**kin.beta) ** (1 / kin.alpha)
        eq = bs.Equilibrium(u_star=u_star, v_star=v_star, mass=1.0)
        u = 10.0 ** rng.uniform(-1, math.log10(2.0), batch)
        v = 10.0 ** rng.uniform(-1, math.log10(2.0), batch)
        direct = bs.rate(u, v, kin)
        potential = bs.potential_rate(u, v, kin, eq)
        err = np.abs(direct - potential) / np.maximum(1.0, np.abs(direct))
        worst = max(worst, float(err.max()))
        assert np.all(err <= 1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"[criterion 7] PASS rate identity: worst scaled gap {worst:.2e} "
          f"on 1e6 samples in {elapsed:.2f} s")


def test_criterion_08_log_mean_properties():
    rng = np.random.default_rng(RNG_SEED + 3)
    a = 10.0 ** rng.uniform(-6, 6, 1_000_000)
    b = 10.0 ** rng.uniform(-6, 6, 1_000_000)
    lam = bs.log_mean(a, b)
    gm = np.sqrt(a * b)
    am = 0.5 * (a + b)
    assert np.all(gm <= lam * (1 + 4e-16))
    assert np.all(lam <= am * (1 + 4e-16))
    ridge_worst = 0.0
    base = 10.0 ** rng.uniform(-3, 3, 1000)
    for side in (1 + 1e-9, 1 - 1e-9):
        lam_r = bs.log_mean(base, base * side)
        ridge_worst = max(ridge_worst, float(np.max(np.abs(lam_r - base) / base)))
        assert np.all(np.abs(lam_r - base) <= 1e-8 * base)
    print(f"[criterion 8] PASS log mean: GM <= LogMean <= AM on 1e6 pairs; "
          f"ridge deviation {ridge_worst:.2e} (tolerance 1e-8)")


def test_criterion_09_equilibration(blob_run):
    p = blob_run
    state = p.final_state.copy()
    sups = list(p.sups)
    steps = 0
    lu = bs.NewtonLU()
    while sups[-1] > 1e-6:
        assert state.t < 50.0, "equilibration stalled"
        state = bs.step(state, p.mesh, p.kin, p.bulk_law, p.surf_law, p.window, p.cfg, lu=lu)
        sups.append(sup_distance(state, p.eq))
        steps += 1
    sups = np.array(sups)
    peak = int(np.argmax(sups))
    worst_rise = float(np.max(np.diff(sups[peak:])))
    assert worst_rise <= 1e-10
    print(f"[criterion 9] PASS equilibration: sup distance {sups[-1]:.2e} at t = {state.t:.2f} "
          f"({steps} extra steps); monotone after peak index {peak} "
          f"(worst rise {worst_rise:.2e})")


def test_criterion_10_single_cell_ode_oracle():
    kin = bs.Kinetics(k=1.5, kappa=0.8, alpha=2.0, beta=1.5)
    mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
    eq = bs.solve_equilibrium(kin, 4.0, 1.0, 1.0)
    u, v = 1.6 * eq.u_star, 0.7 * eq.v_star
    window = bs.window_from_initial_data(np.array([u]), np.array([v]), eq, kin)
    state = bs.State(t=0.0, u=np.array([u]), v=np.array([v]))
    dt = 0.05
    cfg = bs.StepConfig(dt=dt, newton_tol=1e-14, newton_max_iter=60)
    laws = (bs.constant_law(1.0), bs.constant_law(1.0))
    area_ratio = mesh.total_surface_measure / mesh.total_bulk_measure
    worst = 0.0
    for _ in range(100):
        # independent two-variable Newton oracle for the backward-Euler system
        un, vn = u, v
        for _ in range(100):
            f = kin.k * (un**kin.alpha - kin.kappa * vn**kin.beta)
            g1 = un - u + dt * kin.alpha * f * area_ratio
            g2 = vn - v - dt * kin.beta * f
            df_du = kin.k * kin.alpha * un ** (kin.alpha - 1)
            df_dv = -kin.k * kin.kappa * kin.beta * vn ** (kin.beta - 1)
            j11 = 1 + dt * kin.alpha * area_ratio * df_du
            j12 = dt * kin.alpha * area_ratio * df_dv
            j21 = -dt * kin.beta * df_du
            j22 = 1 - dt * kin.beta * df_dv
            det = j11 * j22 - j12 * j21
            dun = (g1 * j22 - g2 * j12) / det
            dvn = (g2 * j11 - g1 * j21) / det
            un, vn = un - dun, vn - dvn
            if max(abs(dun), abs(dvn)) < 1e-14:
                break
        u, v = un, vn
        state = bs.step(state, mesh, kin, *laws, window, cfg)
        worst = max(worst, abs(state.u[0] - u), abs(state.v[0] - v))
        assert abs(state.u[0] - u) <= 1e-9
        assert abs(state.v[0] - v) <= 1e-9
    print(f"[criterion 10] PASS single-cell oracle: worst component gap {worst:.2e} "
          f"over 100 steps")


@pytest.mark.parametrize(
    "label,bulk_law_maker,surf_law_maker",
    [
        ("power+cross", lambda kin: bs.power_law(1.0), lambda kin: bs.surface_cross_law(kin)),
        ("exp+power", lambda kin: bs.exponential_law(0.4), lambda kin: bs.power_law(0.7)),
        ("const+const", lambda kin: bs.constant_law(1.2), lambda kin: bs.constant_law(0.8)),
    ],
)
def test_criterion_11_equilibrium_fixed_point(label, bulk_law_maker, surf_law_maker):
    kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
    mesh = bs.build_mesh(8, 8, 1.0, 1.0, {"bottom"})
    eq = bs.solve_equilibrium(kin, 7.0, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.ClampWindow(
        lower=0.25, upper=4.0, u_star=eq.u_star, v_star=eq.v_star,
        alpha=kin.alpha, beta=kin.beta,
    )
    bulk_law, surf_law = bulk_law_maker(kin), surf_law_maker(kin)
    state = bs.State(
        t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star)
    )
    cfg = bs.StepConfig(dt=0.5, newton_tol=1e-12)
    worst = 0.0
    for _ in range(100):
        state = bs.step(state, mesh, kin, bulk_law, surf_law, window, cfg)
        rec = bs.record(state, mesh, kin, eq, window, bulk_law, surf_law)
        assert rec.clamp_activations == 0
        worst = max(
            worst,
            float(np.max(np.abs(state.u - eq.u_star))),
            float(np.max(np.abs(state.v - eq.v_star))),
        )
        assert worst <= 1e-13
    print(f"[criterion 11] PASS fixed point ({label}): worst drift {worst:.2e} "
          f"over 100 steps, clamp never active")


def test_disk_blob_keeps_the_structure():
    # The nonlinear blob on a polar mesh of the unit disk, with Gamma the
    # whole boundary circle, through run and record unchanged: the core reads
    # only the mesh's face set, trace map and measures.
    n = 8
    mesh = disk_mesh(np.arange(1, n + 1) / n, 4 * n)
    assert (mesh.n_bulk, mesh.n_surface) == (225, 32)
    assert mesh.total_bulk_measure == pytest.approx(math.pi, rel=1e-15, abs=0)
    assert mesh.total_surface_measure == pytest.approx(2 * math.pi, rel=1e-15, abs=0)
    kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
    x, y, width = mesh.cell_center_x, mesh.cell_center_y, 0.24
    u0 = (1.2 + 0.6 * np.exp(-((x + 0.3) ** 2 + (y - 0.2) ** 2) / (2 * width**2))
          + 0.45 * np.exp(-((x - 0.3) ** 2 + (y + 0.25) ** 2) / (2 * width**2)))
    state = bs.State(t=0.0, u=u0, v=np.full(mesh.n_surface, 1.2**kin.alpha / kin.kappa))
    mass = bs.weighted_mass(state, mesh, kin)
    eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(state.u, state.v, eq, kin)
    cfg = bs.StepConfig(dt=1e-3, newton_tol=1e-13, newton_max_iter=40)
    final, records = bs.run(
        state, 0.3, mesh, kin, eq, bs.power_law(1.0), bs.surface_cross_law(kin), window, cfg
    )
    assert len(records) == 301 and final.t == 0.3
    drift = max(abs(r.mass - mass) / mass for r in records)
    assert drift <= 1e-14
    entropies = [r.entropy for r in records]
    assert all(b <= a for a, b in zip(entropies, entropies[1:]))
    assert all(r.envelope_entropy == 0.0 and r.clamp_activations == 0 for r in records)
    print(f"[disk] PASS blob on {mesh.n_bulk} + {mesh.n_surface} polar cells: mass drift "
          f"{drift:.1e}, entropy {entropies[0]:.4f} -> {entropies[-1]:.4f}, envelopes held")
