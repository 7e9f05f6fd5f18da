from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulksurf as bs
from bulksurf.solver import _analytic_jacobian, _rate_vector


def wide_window(u_star=1.0, v_star=1.0, alpha=1.0, beta=1.0):
    """Window so wide the clamp never acts in these tests."""
    return bs.ClampWindow(
        lower=1e-8, upper=1e8, u_star=u_star, v_star=v_star, alpha=alpha, beta=beta
    )


def linear_kinetics(k=1.0, kappa=1.0):
    return bs.Kinetics(k=k, kappa=kappa, alpha=1.0, beta=1.0)


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


class TestBulkDiffusion:
    def test_constant_state_gives_zero(self):
        mesh = bs.build_mesh(5, 4, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.full(20, 3.7), v=np.ones(5))
        out = bs.bulk_diffusion_rate(state, mesh, bs.power_law(2.0), wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_two_cell_hand_flux(self):
        # lx=2, ly=1 -> two unit cells; face length 1, center distance 1
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([0.0, 2.0]), v=np.ones(2))
        out = bs.bulk_diffusion_rate(state, mesh, bs.constant_law(1.0), wide_window())
        np.testing.assert_allclose(out, [2.0, -2.0])

    def test_two_cell_nonlinear_face_average(self):
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([1.0, 3.0]), v=np.ones(2))
        out = bs.bulk_diffusion_rate(state, mesh, bs.power_law(1.0), wide_window())
        # mu_face = (1+3)/2 = 2, flux = 2*2 = 4
        np.testing.assert_allclose(out, [4.0, -4.0])

    def test_harmonic_average_option(self):
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([1.0, 3.0]), v=np.ones(2))
        out = bs.bulk_diffusion_rate(
            state, mesh, bs.power_law(1.0), wide_window(), face_average="harmonic"
        )
        np.testing.assert_allclose(out, [3.0, -3.0])  # harmonic mean 1.5, flux 3

    def test_volume_weighted_sum_is_zero(self):
        rng = np.random.default_rng(31)
        mesh = bs.build_mesh(7, 5, 1.3, 0.9, {"bottom", "left"})
        state = bs.State(t=0.0, u=rng.uniform(0.5, 2.0, mesh.n_bulk), v=np.ones(mesh.n_surface))
        out = bs.bulk_diffusion_rate(state, mesh, bs.exponential_law(0.4), wide_window())
        assert abs(np.sum(out) * mesh.cell_volume) < 1e-13


class TestSurfaceDiffusion:
    def test_constant_state_gives_zero(self):
        mesh = bs.build_mesh(4, 2, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.ones(8), v=np.full(4, 2.2))
        out = bs.surface_diffusion_rate(state, mesh, bs.constant_law(1.0, role="surface"), wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_two_cell_chain_hand_flux(self):
        # lx=2 with nx=2 -> two surface cells of length 1, distance 1
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.ones(2), v=np.array([1.0, 3.0]))
        out = bs.surface_diffusion_rate(state, mesh, bs.constant_law(1.0, role="surface"), wide_window())
        np.testing.assert_allclose(out, [2.0, -2.0])

    def test_cross_law_constant_surface_field(self):
        kin = linear_kinetics()
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.ones(2), v=np.ones(2))
        out = bs.surface_diffusion_rate(state, mesh, bs.surface_cross_law(kin), wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_length_weighted_sum_is_zero(self):
        rng = np.random.default_rng(37)
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(6, 3, 2.0, 1.0, {"bottom", "left", "top"})
        state = bs.State(
            t=0.0,
            u=rng.uniform(0.5, 2.0, mesh.n_bulk),
            v=rng.uniform(0.5, 2.0, mesh.n_surface),
        )
        win = wide_window(alpha=2.0)
        out = bs.surface_diffusion_rate(state, mesh, bs.surface_cross_law(kin), win)
        assert abs(np.sum(out * mesh.surf_length)) < 1e-13


class TestCoupling:
    def test_equilibrium_state_is_silent(self):
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        eq = bs.solve_equilibrium(kin, 3.0, 1.0, 1.0)
        mesh = bs.build_mesh(3, 3, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.full(9, eq.u_star), v=np.full(3, eq.v_star))
        du, dv = bs.coupling_rate(state, mesh, kin)
        np.testing.assert_allclose(du, 0.0, atol=1e-15)
        np.testing.assert_allclose(dv, 0.0, atol=1e-15)

    def test_single_cell_hand_value(self):
        kin = linear_kinetics()
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([2.0]), v=np.array([1.0]))
        du, dv = bs.coupling_rate(state, mesh, kin)
        np.testing.assert_allclose(du, [-1.0])
        np.testing.assert_allclose(dv, [1.0])

    def test_nonpositive_trace_contributes_nothing(self):
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.5, beta=1.0)
        mesh = bs.build_mesh(3, 1, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([-0.2, 1.0, 1.0]), v=np.array([1.0, 1.0, 0.0]))
        du, dv = bs.coupling_rate(state, mesh, kin)
        assert du[0] == 0.0 and dv[0] == 0.0  # u <= 0
        assert du[2] == 0.0 and dv[2] == 0.0  # v <= 0
        assert dv[1] == 0.0  # rate vanishes at (1, 1) with kappa = 1

    def test_weighted_sum_is_zero(self):
        rng = np.random.default_rng(41)
        kin = bs.Kinetics(k=2.0, kappa=0.5, alpha=2.0, beta=3.0)
        mesh = bs.build_mesh(5, 4, 2.0, 1.5, {"bottom", "right"})
        state = bs.State(
            t=0.0,
            u=rng.uniform(0.5, 2.0, mesh.n_bulk),
            v=rng.uniform(0.5, 2.0, mesh.n_surface),
        )
        du, dv = bs.coupling_rate(state, mesh, kin)
        total = kin.beta * np.sum(du) * mesh.cell_volume + kin.alpha * np.sum(dv * mesh.surf_length)
        assert abs(total) < 1e-13


JACOBIAN_LAWS = [
    (bs.power_law(1.0), lambda kin: bs.surface_cross_law(kin)),
    (bs.exponential_law(0.5), lambda kin: bs.power_law(0.8, role="surface")),
    (bs.constant_law(1.5), lambda kin: bs.constant_law(0.7, role="surface")),
]


class TestJacobian:
    @pytest.mark.parametrize("face_average", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("bulk_law,surf_law_maker", JACOBIAN_LAWS)
    def test_analytic_matches_finite_differences(self, face_average, bulk_law, surf_law_maker):
        mesh = bs.build_mesh(4, 3, 1.0, 1.5, {"bottom", "left"})
        self.check(mesh, face_average, bulk_law, surf_law_maker)

    @pytest.mark.parametrize("face_average", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("bulk_law,surf_law_maker", JACOBIAN_LAWS)
    def test_closed_chain_matches_finite_differences(self, face_average, bulk_law, surf_law_maker):
        # all four edges: the surface chain closes into a loop, as in the CLI benchmark run
        mesh = bs.build_mesh(4, 3, 1.0, 1.5, {"bottom", "right", "top", "left"})
        self.check(mesh, face_average, bulk_law, surf_law_maker)

    @staticmethod
    def check(mesh, face_average, bulk_law, surf_law_maker):
        rng = np.random.default_rng(43)
        kin = bs.Kinetics(k=1.2, kappa=0.6, alpha=2.0, beta=1.5)
        win = bs.ClampWindow(
            lower=0.3, upper=5.0, u_star=1.0, v_star=1.1, alpha=2.0, beta=1.5
        )
        surf_law = surf_law_maker(kin)
        w = rng.uniform(0.6, 1.8, mesh.n_bulk + mesh.n_surface)
        J_an = _analytic_jacobian(w, mesh, kin, bulk_law, surf_law, win, face_average).toarray()
        J_fd = _fd_jacobian(w, mesh, kin, bulk_law, surf_law, win, face_average)
        scale = max(1.0, np.abs(J_fd).max())
        assert np.abs(J_an - J_fd).max() / scale < 1e-5


class TestStep:
    def setup_problem(self):
        kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(6, 5, 1.0, 1.0, {"bottom"})
        eq = bs.solve_equilibrium(kin, 8.0, mesh.total_bulk_measure, mesh.total_surface_measure)
        rng = np.random.default_rng(47)
        u0 = eq.u_star * (1 + 0.3 * rng.random(mesh.n_bulk))
        v0 = eq.v_star * (1 + 0.3 * rng.random(mesh.n_surface))
        window = bs.window_from_initial_data(u0, v0, eq, kin)
        return mesh, kin, eq, bs.State(t=0.0, u=u0, v=v0), window

    def test_equilibrium_is_fixed_point(self):
        mesh, kin, eq, _, window = self.setup_problem()
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        for dt in (1e-3, 1.0, 1e3):
            # for huge dt the residual dt*F(w) has a quantization floor of
            # dt*ulp, so the absolute tolerance must scale with dt
            cfg = bs.StepConfig(dt=dt, newton_tol=1e-12 * max(1.0, dt))
            out = bs.step(state, mesh, kin, bs.power_law(1.0), bs.surface_cross_law(kin), window, cfg)
            assert out.t == dt
            np.testing.assert_allclose(out.u, eq.u_star, rtol=1e-13, atol=0)
            np.testing.assert_allclose(out.v, eq.v_star, rtol=1e-13, atol=0)

    def test_mass_conserved_per_step(self):
        mesh, kin, eq, state, window = self.setup_problem()
        cfg = bs.StepConfig(dt=5e-3, newton_tol=1e-13)
        m0 = bs.weighted_mass(state, mesh, kin)
        for _ in range(50):
            state = bs.step(state, mesh, kin, bs.power_law(1.0), bs.surface_cross_law(kin), window, cfg)
            m = bs.weighted_mass(state, mesh, kin)
            assert abs(m - m0) <= 1e-12 * m0

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_step_solves_theta_scheme(self, theta):
        # w1 - w0 - dt*(theta*F(w1) + (1-theta)*F(w0)) = 0 to newton_tol, F from total_rate
        mesh, kin, eq, state, window = self.setup_problem()
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        cfg = bs.StepConfig(dt=2e-3, theta=theta, newton_tol=1e-13)
        out = bs.step(state, mesh, kin, *laws, window, cfg)
        f0 = np.concatenate(bs.total_rate(state, mesh, kin, *laws, window))
        f1 = np.concatenate(bs.total_rate(out, mesh, kin, *laws, window))
        w0 = np.concatenate([state.u, state.v])
        w1 = np.concatenate([out.u, out.v])
        res = w1 - w0 - cfg.dt * (theta * f1 + (1.0 - theta) * f0)
        assert np.max(np.abs(res)) <= cfg.newton_tol
        assert np.max(np.abs(w1 - w0)) > 1e3 * cfg.newton_tol  # the step moved the state

    def test_trapezoidal_theta(self):
        mesh, kin, eq, state, window = self.setup_problem()
        cfg = bs.StepConfig(dt=1e-3, theta=0.5, newton_tol=1e-13)
        out = bs.step(state, mesh, kin, bs.power_law(1.0), bs.surface_cross_law(kin), window, cfg)
        m0 = bs.weighted_mass(state, mesh, kin)
        m1 = bs.weighted_mass(out, mesh, kin)
        assert abs(m1 - m0) <= 1e-12 * m0

    def test_nonconvergence_raised(self):
        mesh, kin, eq, state, window = self.setup_problem()
        hot = state.copy()
        hot.u *= 3.0
        cfg = bs.StepConfig(dt=1e3, newton_max_iter=1, newton_tol=1e-15)
        with pytest.raises(bs.NonConvergence) as info:
            bs.step(hot, mesh, kin, bs.power_law(1.0), bs.surface_cross_law(kin), window, cfg)
        assert info.value.iterations >= 1
        assert info.value.residual > 0
        # u**2 - kappa*v**2 overflows to inf - inf: a NaN residual never counts as converged
        huge = bs.State(t=0.0, u=np.full(mesh.n_bulk, 1e200), v=np.full(mesh.n_surface, 1e200))
        kin2 = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=2.0)
        with np.errstate(all="ignore"), pytest.raises(bs.NonConvergence):
            bs.step(huge, mesh, kin2, bs.constant_law(1.0), bs.constant_law(1.0, role="surface"),
                    wide_window(alpha=2.0, beta=2.0), bs.StepConfig(dt=1e-3))

    def test_law_in_wrong_slot_raises(self):
        # a bulk law in the surface slot would read the bulk trace as v, and
        # surface_cross in the bulk slot has no surface value to read
        mesh, kin, eq, state, window = self.setup_problem()
        cfg = bs.StepConfig(dt=1e-3)
        bulk, cross = bs.power_law(1.0), bs.surface_cross_law(kin)
        for slot, laws, operator in (
            ("surface", (bulk, bulk), lambda: bs.surface_diffusion_rate(state, mesh, bulk, window)),
            ("bulk", (cross, cross), lambda: bs.bulk_diffusion_rate(state, mesh, cross, window)),
        ):
            for call in (
                operator,
                lambda: bs.total_rate(state, mesh, kin, *laws, window),
                lambda: bs.record(state, mesh, kin, eq, window, *laws),
                lambda: bs.step(state, mesh, kin, *laws, window, cfg),
                lambda: bs.run(state, 2e-3, mesh, kin, eq, *laws, window, cfg),
            ):
                with pytest.raises(ValueError, match=f"{slot} law slot"):
                    call()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bs.StepConfig(dt=0.0)
        with pytest.raises(ValueError):
            bs.StepConfig(dt=1e-3, theta=0.3)
        with pytest.raises(ValueError):
            bs.StepConfig(dt=1e-3, face_average="geometric")
        mesh, kin, eq, state, window = self.setup_problem()
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        with pytest.raises(ValueError):
            bs.total_rate(state, mesh, kin, *laws, window, face_average="geometric")
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(dt=nan),
            dict(dt=inf),
            dict(dt=1e-3, newton_tol=nan),
            dict(dt=1e-3, newton_tol=inf),
            dict(dt=1e-3, max_dt_halvings=-1),
            dict(dt=1e-3, max_dt_halvings=1.5),
            dict(dt=1e-3, max_dt_halvings=True),
            dict(dt=1e-3, newton_max_iter=1.5),
            dict(dt=1e-3, newton_max_iter=True),
        ):
            with pytest.raises(ValueError):
                bs.StepConfig(**bad)
        with pytest.raises(ValueError):
            bs.State(t=0.0, u=state.u[:, None], v=state.v)


class TestSingleCellOde:
    """With one bulk and one surface cell there is no diffusion at all and the
    scheme reduces to the two-variable ODE system
        du/dt = -k*alpha*(u**a - kappa*v**b) * |G|/|cell|,
        dv/dt = +k*beta*(u**a - kappa*v**b).
    """

    @staticmethod
    def oracle_backward_euler(u, v, kin, area_ratio, dt, steps):
        """Independent scalar Newton on the 2x2 backward-Euler system."""
        traj = []
        for _ in range(steps):
            un, vn = u, v  # iterate
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
            traj.append((u, v))
        return traj

    def test_matches_independent_oracle(self):
        kin = bs.Kinetics(k=1.5, kappa=0.8, alpha=2.0, beta=1.5)
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        eq = bs.solve_equilibrium(kin, 4.0, 1.0, 1.0)
        u0, v0 = 1.6 * eq.u_star, 0.7 * eq.v_star
        window = bs.window_from_initial_data(np.array([u0]), np.array([v0]), eq, kin)
        state = bs.State(t=0.0, u=np.array([u0]), v=np.array([v0]))
        cfg = bs.StepConfig(dt=0.05, newton_tol=1e-14, newton_max_iter=60)
        laws = (bs.constant_law(1.0), bs.constant_law(1.0, role="surface"))
        oracle = self.oracle_backward_euler(u0, v0, kin, 1.0, 0.05, 100)
        for u_ref, v_ref in oracle:
            state = bs.step(state, mesh, kin, *laws, window, cfg)
            assert abs(state.u[0] - u_ref) <= 1e-9
            assert abs(state.v[0] - v_ref) <= 1e-9


class TestRun:
    def setup_problem(self):
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        mesh = bs.build_mesh(4, 4, 1.0, 1.0, {"bottom"})
        rng = np.random.default_rng(53)
        u0 = 1.0 + 0.2 * rng.random(mesh.n_bulk)
        v0 = 1.0 + 0.2 * rng.random(mesh.n_surface)
        state = bs.State(t=0.0, u=u0, v=v0)
        mass = bs.weighted_mass(state, mesh, kin)
        eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.window_from_initial_data(u0, v0, eq, kin)
        laws = (bs.constant_law(1.0), bs.constant_law(1.0, role="surface"))
        return mesh, kin, eq, state, window, laws

    def test_zero_horizon_returns_initial(self):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        final, records = bs.run(state, 0.0, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-2))
        assert final is state
        assert len(records) == 1
        assert records[0].t == 0.0

    def test_equilibrium_run_is_constant(self):
        mesh, kin, eq, _, window, laws = self.setup_problem()
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        final, records = bs.run(state, 0.05, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-2))
        assert len(records) == 6
        for rec in records:
            assert rec.entropy == pytest.approx(0.0, abs=1e-13)
            assert rec.mass == pytest.approx(eq.mass, rel=1e-13)

    def test_final_time_is_hit_exactly(self):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        final, records = bs.run(state, 0.025, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-2))
        assert final.t == pytest.approx(0.025, abs=1e-14)
        assert len(records) == 4  # 0.01, 0.02, 0.025 plus the initial record

    def test_equilibration_toward_equilibrium(self):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        final, records = bs.run(state, 40.0, mesh, kin, eq, *laws, window, bs.StepConfig(dt=0.05))
        sup = max(np.abs(final.u - eq.u_star).max(), np.abs(final.v - eq.v_star).max())
        assert sup < 1e-6
        entropies = [r.entropy for r in records]
        assert entropies[-1] < 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_fatal_nonconvergence_carries_partial_results(self):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        hot = state.copy()
        hot.u *= 5.0
        kin2 = bs.Kinetics(k=50.0, kappa=1.0, alpha=4.0, beta=4.0)
        cfg = bs.StepConfig(dt=1e6, newton_max_iter=1, newton_tol=1e-16, max_dt_halvings=2)
        with pytest.raises(bs.NonConvergence) as info:
            bs.run(hot, 2e6, mesh, kin2, eq, *laws, window, cfg)
        assert info.value.last_state is not None
        assert info.value.records is not None
        assert len(info.value.records) >= 1

    def test_rejects_backward_horizon(self):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        with pytest.raises(ValueError):
            bs.run(bs.State(t=1.0, u=state.u, v=state.v), 0.5, mesh, kin, eq, *laws, window,
                   bs.StepConfig(dt=1e-2))
        for t_final in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bs.run(state, t_final, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-2))
            with pytest.raises(ValueError):
                bs.State(t=t_final, u=state.u, v=state.v)


class TestLUReuse:
    """run keeps one Newton LU across steps and refactors when theta*dt changes."""

    def setup_problem(self):
        kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(16, 16, 1.0, 1.0, {"bottom"})
        bump = np.exp(
            -((mesh.cell_center_x - 0.35) ** 2 + (mesh.cell_center_y - 0.6) ** 2) / (2 * 0.12**2)
        )
        u0 = 1.2 + 0.6 * bump
        v0 = np.full(mesh.n_surface, 1.2**kin.alpha / kin.kappa)
        state = bs.State(t=0.0, u=u0, v=v0)
        mass = bs.weighted_mass(state, mesh, kin)
        eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.window_from_initial_data(u0, v0, eq, kin)
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        # a power of two, so that step sums hit t_final exactly and no step is clipped
        cfg = bs.StepConfig(dt=2.0**-12, newton_tol=1e-13, newton_max_iter=40)
        return mesh, kin, eq, state, window, laws, cfg

    @staticmethod
    def count_splu(monkeypatch):
        """Lists that grow by one per factorization and per solve with a factor."""
        calls, solves = [], []
        splu = bs.solver.spla.splu

        class Counted:
            def __init__(self, factor):
                self.factor = factor

            def solve(self, b):
                solves.append(1)
                return self.factor.solve(b)

        def counted(*args, **kwargs):
            calls.append(1)
            return Counted(splu(*args, **kwargs))

        monkeypatch.setattr(bs.solver.spla, "splu", counted)
        return calls, solves

    def primed(self):
        """The problem, and the state and holder after just enough steps to fill the history."""
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        lu = bs.NewtonLU()
        for _ in range(bs.solver.PREDICTOR_DEGREE):
            state = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        assert len(lu.history) == bs.solver.PREDICTOR_DEGREE + 1
        return mesh, kin, eq, state, window, laws, cfg, lu

    def test_run_factors_rarely_and_matches_bare_steps(self, monkeypatch):
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        calls, _ = self.count_splu(monkeypatch)
        final, records = bs.run(state, 50 * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        assert len(records) == 51
        assert 1 <= len(calls) <= 5
        reused = len(calls)

        chain = state
        for _ in range(50):
            chain = bs.step(chain, mesh, kin, *laws, window, cfg)
        assert len(calls) == reused + 50  # a bare step factors afresh
        scale = max(np.abs(chain.u).max(), np.abs(chain.v).max())
        gap = max(np.abs(final.u - chain.u).max(), np.abs(final.v - chain.v).max())
        assert gap <= 1e-11 * scale

        # a clipped last step changes theta*dt and costs exactly one more LU
        del calls[:]
        bs.run(state, 50.5 * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        assert len(calls) == reused + 1

    def test_summed_steps_do_not_clip_the_last_step(self, monkeypatch):
        # with a non-dyadic dt the summed step times fall short of N*dt by
        # round-off; the last step still takes dt and reuses the LU
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        cfg = replace(cfg, dt=3e-4)
        n = 20
        t = 0.0
        for _ in range(n - 1):
            t += cfg.dt
        assert n * cfg.dt - t < cfg.dt  # a plain min(dt, remainder) would clip
        calls, _ = self.count_splu(monkeypatch)
        final, records = bs.run(state, n * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        run_lus = len(calls)
        lu = bs.NewtonLU()
        chain = state
        for _ in range(n):
            chain = bs.step(chain, mesh, kin, *laws, window, cfg, lu=lu)
        assert len(calls) == 2 * run_lus
        assert final.t == records[-1].t == n * cfg.dt
        np.testing.assert_array_equal(final.u, chain.u)
        np.testing.assert_array_equal(final.v, chain.v)

    def test_second_step_reuses_the_accepted_rate(self, monkeypatch):
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        cfg = replace(cfg, theta=0.5)
        lu = bs.NewtonLU()
        first = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        evaluated = []
        rate_vector = bs.solver._rate_vector

        def counted(w, *args):
            evaluated.append(w.copy())
            return rate_vector(w, *args)

        monkeypatch.setattr(bs.solver, "_rate_vector", counted)
        twin = replace(lu, f=None)  # the same LU, start and history, without the rate
        out = bs.step(first, mesh, kin, *laws, window, cfg, lu=lu)
        w_old = np.concatenate([first.u, first.v])
        assert evaluated and not any(np.array_equal(w, w_old) for w in evaluated)
        fresh = bs.step(first, mesh, kin, *laws, window, cfg, lu=twin)
        np.testing.assert_array_equal(out.u, fresh.u)
        np.testing.assert_array_equal(out.v, fresh.v)

    def test_holder_from_other_problem_is_emptied(self):
        # problem B differs from A only in its kinetics; A's LU and rate
        # must not leak into B's step
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        cfg = replace(cfg, theta=0.5)
        kin_b = replace(kin, k=3.0)
        lu = bs.NewtonLU()
        first = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        out = bs.step(first, mesh, kin_b, *laws, window, cfg, lu=lu)
        bare = bs.step(first, mesh, kin_b, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)

    def test_holder_with_other_key_is_refactored(self):
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        lu = bs.NewtonLU()
        bs.step(state, mesh, kin, *laws, window, replace(cfg, dt=2 * cfg.dt), lu=lu)
        assert lu.problem[-1] == 2 * cfg.dt and lu.solve is not None
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        bare = bs.step(state, mesh, kin, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)
        assert lu.problem[-1] == cfg.dt * cfg.theta

    def test_other_key_evaluates_the_old_rate_afresh(self, monkeypatch):
        # theta*dt is part of the problem: a clipped or halved step empties
        # the accepted rate with the LU and evaluates F at its old state
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        cfg = replace(cfg, theta=0.5)
        lu = bs.NewtonLU()
        first = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        evaluated = []
        rate_vector = bs.solver._rate_vector

        def counted(w, *args):
            evaluated.append(w.copy())
            return rate_vector(w, *args)

        monkeypatch.setattr(bs.solver, "_rate_vector", counted)
        short = replace(cfg, dt=0.5 * cfg.dt)
        out = bs.step(first, mesh, kin, *laws, window, short, lu=lu)
        np.testing.assert_array_equal(evaluated[0], np.concatenate([first.u, first.v]))
        bare = bs.step(first, mesh, kin, *laws, window, short)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)

    def test_stale_lu_failing_line_search_is_refactored(self):
        # a reused LU whose Newton direction raises the residual at every
        # damping: the step refactors at the old state instead of failing
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        lu = bs.NewtonLU(solve=lambda b: -b)
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        bare = bs.step(state, mesh, kin, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)

    def test_history_cuts_newton_solves(self, monkeypatch):
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        _, solves = self.count_splu(monkeypatch)
        final, _ = bs.run(state, 50 * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        with_history = len(solves)
        del solves[:]
        lu = bs.NewtonLU()
        chain = state
        for _ in range(50):
            lu.history = ()
            chain = bs.step(chain, mesh, kin, *laws, window, cfg, lu=lu)
        # 201 against 310 solves: the predictor saves two to three of the
        # four to seven solves a step takes once the history is full
        assert with_history <= 2 / 3 * len(solves)
        scale = max(np.abs(chain.u).max(), np.abs(chain.v).max())
        gap = max(np.abs(final.u - chain.u).max(), np.abs(final.v - chain.v).max())
        assert gap <= 1e-11 * scale

    def test_history_is_live(self):
        # the control for the invalidation tests below: with a full history
        # the next step does start elsewhere than a holder without one
        mesh, kin, eq, state, window, laws, cfg, lu = self.primed()
        twin = replace(lu, history=())
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        plain = bs.step(state, mesh, kin, *laws, window, cfg, lu=twin)
        assert not np.array_equal(out.u, plain.u)

    @pytest.mark.parametrize("ratio", [0.5, 0.3])  # a halved dt, a clipped last step
    def test_key_change_empties_the_history(self, ratio):
        mesh, kin, eq, state, window, laws, cfg, lu = self.primed()
        twin = replace(lu, history=())
        short = replace(cfg, dt=ratio * cfg.dt)
        out = bs.step(state, mesh, kin, *laws, window, short, lu=lu)
        plain = bs.step(state, mesh, kin, *laws, window, short, lu=twin)
        np.testing.assert_array_equal(out.u, plain.u)
        np.testing.assert_array_equal(out.v, plain.v)
        assert len(lu.history) == 2  # (accepted, old): one step at the new theta*dt
        # back at the old theta*dt, the history restarts once more
        back = bs.step(out, mesh, kin, *laws, window, cfg, lu=lu)
        again = bs.step(plain, mesh, kin, *laws, window, cfg, lu=twin)
        np.testing.assert_array_equal(back.u, again.u)
        np.testing.assert_array_equal(back.v, again.v)

    def test_problem_change_empties_the_history(self):
        mesh, kin, eq, state, window, laws, cfg, lu = self.primed()
        kin_b = replace(kin, k=3.0)
        out = bs.step(state, mesh, kin_b, *laws, window, cfg, lu=lu)
        bare = bs.step(state, mesh, kin_b, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)
        assert len(lu.history) == 2

    def test_other_old_state_ignores_the_history(self):
        mesh, kin, eq, state, window, laws, cfg, lu = self.primed()
        other = bs.State(t=state.t, u=state.u * (1 + 1e-9), v=state.v)
        twin = replace(lu, history=())
        out = bs.step(other, mesh, kin, *laws, window, cfg, lu=lu)
        plain = bs.step(other, mesh, kin, *laws, window, cfg, lu=twin)
        np.testing.assert_array_equal(out.u, plain.u)
        np.testing.assert_array_equal(out.v, plain.v)
        assert len(lu.history) == 2

    def test_equilibrium_run_evaluates_the_rate_once(self, monkeypatch):
        mesh, kin, eq, _, window, laws, cfg = self.setup_problem()
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        evaluated = []
        rate_vector = bs.solver._rate_vector

        def counted(w, *args):
            evaluated.append(w.copy())
            return rate_vector(w, *args)

        monkeypatch.setattr(bs.solver, "_rate_vector", counted)
        n = 3 * (bs.solver.PREDICTOR_DEGREE + 1)
        final, records = bs.run(state, n * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        assert len(records) == n + 1
        assert len(evaluated) == 1
        np.testing.assert_array_equal(evaluated[0], np.concatenate([state.u, state.v]))
        np.testing.assert_array_equal(final.u, state.u)
        np.testing.assert_array_equal(final.v, state.v)

    def test_worse_prediction_is_discarded(self):
        # a history that zigzags extrapolates far off; the step evaluates the
        # rate there once and then starts from the old state as without it
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        w_old = np.concatenate([state.u, state.v])
        zigzag = tuple(w_old * (1.0 + 0.1 * (j % 2)) for j in range(bs.solver.PREDICTOR_DEGREE + 1))
        lu = bs.NewtonLU(history=zigzag)  # zigzag[0] is w_old
        twin = replace(lu, history=())
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        plain = bs.step(state, mesh, kin, *laws, window, cfg, lu=twin)
        np.testing.assert_array_equal(out.u, plain.u)
        np.testing.assert_array_equal(out.v, plain.v)


# every law kind in each slot; the surface makers take the kinetics because
# surface_cross reads its alpha and beta
BULK_LAWS = (bs.power_law(1.0), bs.exponential_law(0.5), bs.constant_law(1.5))
SURFACE_LAW_MAKERS = (
    bs.surface_cross_law,
    lambda kin: bs.power_law(0.8, role="surface"),
    lambda kin: bs.exponential_law(0.3, role="surface"),
    lambda kin: bs.constant_law(0.7, role="surface"),
)


class TestRandomProblems:
    """Structure checks on randomly drawn meshes, laws, exponents and face averages."""

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        edges=st.sets(st.sampled_from(bs.mesh.EDGE_NAMES), min_size=1),
        bulk_law=st.sampled_from(BULK_LAWS),
        surf_law_maker=st.sampled_from(SURFACE_LAW_MAKERS),
        alpha=st.floats(1.0, 3.0),
        beta=st.floats(1.0, 3.0),
        face_average=st.sampled_from(bs.mesh.FACE_AVERAGES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jacobian_mass_and_fixed_point(
        self, nx, ny, edges, bulk_law, surf_law_maker, alpha, beta, face_average, seed
    ):
        kin = bs.Kinetics(k=1.2, kappa=0.6, alpha=alpha, beta=beta)
        mesh = bs.build_mesh(nx, ny, 1.0, 1.3, edges)
        rng = np.random.default_rng(seed)
        state = bs.State(
            t=0.0, u=rng.uniform(0.6, 1.8, mesh.n_bulk), v=rng.uniform(0.6, 1.8, mesh.n_surface)
        )
        m0 = bs.weighted_mass(state, mesh, kin)
        eq = bs.solve_equilibrium(kin, m0, mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.window_from_initial_data(state.u, state.v, eq, kin)
        laws = (bulk_law, surf_law_maker(kin))
        cfg = bs.StepConfig(dt=1e-3, newton_tol=1e-13, newton_max_iter=40, face_average=face_average)

        w = np.concatenate([state.u, state.v])
        J_an = _analytic_jacobian(w, mesh, kin, *laws, window, face_average).toarray()
        J_fd = _fd_jacobian(w, mesh, kin, *laws, window, face_average)
        assert np.abs(J_an - J_fd).max() <= 1e-5 * max(1.0, np.abs(J_fd).max())

        # the weighted mass moves by at most the weighted Newton residual
        slack = (kin.beta * mesh.total_bulk_measure + kin.alpha * mesh.total_surface_measure)
        lu = bs.NewtonLU()
        for _ in range(3):
            new = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
            m = bs.weighted_mass(new, mesh, kin)
            assert abs(m - bs.weighted_mass(state, mesh, kin)) <= slack * cfg.newton_tol + 1e-14 * m0
            state = new

        star = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        out = bs.step(star, mesh, kin, *laws, window, cfg)
        np.testing.assert_allclose(out.u, eq.u_star, rtol=1e-13, atol=0)
        np.testing.assert_allclose(out.v, eq.v_star, rtol=1e-13, atol=0)
