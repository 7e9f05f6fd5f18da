import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bulksurf as bs
from bulksurf import cli
from bulksurf.mesh import face_divergence, face_flux
from bulksurf.solver import _newton_matrix, _rate_vector
from test_acceptance import blob_problem
from test_mesh import disk_mesh, split_faces


def wide_window(u_star=1.0, v_star=1.0, alpha=1.0, beta=1.0):
    """Window so wide the clamp never acts in these tests."""
    return bs.ClampWindow(
        lower=1e-8, upper=1e8, u_star=u_star, v_star=v_star, alpha=alpha, beta=beta
    )


def linear_kinetics(k=1.0, kappa=1.0):
    return bs.Kinetics(k=k, kappa=kappa, alpha=1.0, beta=1.0)


# The scalings theta*dt of the Newton matrix M = I - theta*dt*J that the
# Jacobian checks recover J from.
NEWTON_SCALES = (1e-3, 1.0, 1e3)


def _newton_jacobian(w, c, mesh, kin, bulk_law, surf_law, window):
    """Dense Jacobian of the total rate recovered from the Newton matrix as (I - M)/c."""
    matrix = _newton_matrix(w, c, mesh, kin, bulk_law, surf_law, window)
    return (np.eye(w.size) - matrix.toarray()) / c


def _fd_jacobian(w, mesh, kin, bulk_law, surf_law, window):
    """Dense finite-difference Jacobian of the total rate (column perturbations)."""
    n = w.size
    f0 = _rate_vector(w, mesh, kin, bulk_law, surf_law, window)
    jac = np.empty((n, n))
    for i in range(n):
        h = 1e-7 * (1.0 + abs(w[i]))
        wp = w.copy()
        wp[i] += h
        fp = _rate_vector(wp, mesh, kin, bulk_law, surf_law, window)
        jac[:, i] = (fp - f0) / h
    return jac


def bulk_only_rate(state, mesh, law, window):
    """du of total_rate on a state with a constant v and no exchange.

    There dv == 0 checks that the surface flux and the exchange vanish bit
    for bit, so du is the bulk diffusion alone.
    """
    surf_law = bs.constant_law(1.0)
    du, dv = bs.total_rate(state, mesh, linear_kinetics(), law, surf_law, window)
    np.testing.assert_array_equal(dv, 0.0)
    return du


def surface_only_rate(state, mesh, law, window):
    """dv of total_rate on a state with a constant u and no exchange.

    There du == 0 checks that the bulk flux and the exchange vanish bit for
    bit (each surface cell here has its own trace cell), so dv is the
    surface diffusion alone.
    """
    du, dv = bs.total_rate(state, mesh, linear_kinetics(), bs.constant_law(1.0), law, window)
    np.testing.assert_array_equal(du, 0.0)
    return dv


class TestBulkDiffusion:
    # v = 0 holds the guarded exchange at zero and carries no surface flux

    def test_constant_state_gives_zero(self):
        mesh = bs.build_mesh(5, 4, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.full(20, 3.7), v=np.zeros(5))
        out = bulk_only_rate(state, mesh, bs.power_law(2.0), wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_two_cell_hand_flux(self):
        # lx=2, ly=1 -> two unit cells; face length 1, center distance 1
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([0.0, 2.0]), v=np.zeros(2))
        out = bulk_only_rate(state, mesh, bs.constant_law(1.0), wide_window())
        np.testing.assert_allclose(out, [2.0, -2.0])

    def test_two_cell_nonlinear_face_average(self):
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([1.0, 3.0]), v=np.zeros(2))
        out = bulk_only_rate(state, mesh, bs.power_law(1.0), wide_window())
        # mu_face = (1+3)/2 = 2, flux = 2*2 = 4
        np.testing.assert_allclose(out, [4.0, -4.0])

    def test_harmonic_average_option(self):
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"}, face_average="harmonic")
        state = bs.State(t=0.0, u=np.array([1.0, 3.0]), v=np.zeros(2))
        out = bulk_only_rate(state, mesh, bs.power_law(1.0), wide_window())
        np.testing.assert_allclose(out, [3.0, -3.0])  # harmonic mean 1.5, flux 3

    def test_volume_weighted_sum_is_zero(self):
        rng = np.random.default_rng(31)
        mesh = bs.build_mesh(7, 5, 1.3, 0.9, {"bottom", "left"})
        u = rng.uniform(0.5, 2.0, mesh.n_bulk)
        mu = bs.diffusion_coefficient(bs.exponential_law(0.4), u, None, wide_window())
        # the one face set over the stacked state; a flat v carries no flux
        w = np.concatenate([u, np.ones(mesh.n_surface)])
        mu = np.concatenate([mu, np.ones(mesh.n_surface)])
        out = face_divergence(mesh.faces, w, mu)
        assert abs(np.sum(out[: mesh.n_bulk] * mesh.faces.measure[: mesh.n_bulk])) < 1e-13
        np.testing.assert_array_equal(out[mesh.n_bulk :], 0.0)


class TestSurfaceDiffusion:
    # u = 0 holds the guarded exchange at zero and carries no bulk flux

    def test_constant_state_gives_zero(self):
        mesh = bs.build_mesh(4, 2, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.zeros(8), v=np.full(4, 2.2))
        out = surface_only_rate(state, mesh, bs.constant_law(1.0), wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_two_cell_chain_hand_flux(self):
        # lx=2 with nx=2 -> two surface cells of length 1, distance 1
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.zeros(2), v=np.array([1.0, 3.0]))
        out = surface_only_rate(state, mesh, bs.constant_law(1.0), wide_window())
        np.testing.assert_allclose(out, [2.0, -2.0])

    def test_cross_law_constant_surface_field(self):
        # u = v = 1 with kappa = 1: the exchange is zero and the cross law reads u = 1
        mesh = bs.build_mesh(2, 1, 2.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.ones(2), v=np.ones(2))
        cross = bs.surface_cross_law(linear_kinetics())
        out = surface_only_rate(state, mesh, cross, wide_window())
        np.testing.assert_array_equal(out, 0.0)

    def test_length_weighted_sum_is_zero(self):
        rng = np.random.default_rng(37)
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(6, 3, 2.0, 1.0, {"bottom", "left", "top"})
        u = rng.uniform(0.5, 2.0, mesh.n_bulk)
        v = rng.uniform(0.5, 2.0, mesh.n_surface)
        win = wide_window(alpha=2.0)
        mu = bs.diffusion_coefficient(bs.surface_cross_law(kin), u[mesh.surf_to_bulk], v, win)
        # the one face set over the stacked state; a flat u carries no flux
        w = np.concatenate([np.ones(mesh.n_bulk), v])
        mu = np.concatenate([np.ones(mesh.n_bulk), mu])
        out = face_divergence(mesh.faces, w, mu)
        assert abs(np.sum(out[mesh.n_bulk :] * mesh.faces.measure[mesh.n_bulk :])) < 1e-13
        np.testing.assert_array_equal(out[: mesh.n_bulk], 0.0)


def test_one_law_fills_both_slots():
    # the slot decides what a law reads: power_law(1.0) is u in the bulk slot
    # and v in the surface slot, so under a window that never clamps the
    # coefficient of every stacked cell is the state itself
    kin = bs.Kinetics(k=1.3, kappa=0.7, alpha=2.0, beta=1.0)
    mesh = bs.build_mesh(4, 3, 1.0, 1.0, {"bottom", "right"})
    nb, tr, m = mesh.n_bulk, mesh.surf_to_bulk, mesh.faces.measure
    rng = np.random.default_rng(43)
    state = bs.State(t=0.0, u=rng.uniform(0.5, 1.5, nb), v=rng.uniform(3.0, 5.0, mesh.n_surface))
    law, window = bs.power_law(1.0), wide_window(alpha=2.0)

    def hand_rate(w):
        f = face_divergence(mesh.faces, w, w)
        r = kin.k * (w[tr] ** kin.alpha - kin.kappa * w[nb:] ** kin.beta)
        f[:nb] -= kin.alpha * np.bincount(tr, weights=r * m[nb:], minlength=nb) / m[:nb]
        f[nb:] += kin.beta * r
        return f

    w_old = np.concatenate([state.u, state.v])
    du, dv = bs.total_rate(state, mesh, kin, law, law, window)
    np.testing.assert_allclose(np.concatenate([du, dv]), hand_rate(w_old), rtol=1e-13, atol=1e-13)
    dt = 1e-2
    new = bs.step(state, mesh, kin, law, law, window, bs.StepConfig(dt=dt, newton_tol=1e-13))
    w = np.concatenate([new.u, new.v])
    assert np.max(np.abs(w - w_old)) > 1e-3  # the step moved the state
    np.testing.assert_allclose(w - w_old - dt * hand_rate(w), 0.0, atol=1e-12)


def with_nonuniform_measures(mesh, rng):
    """mesh with each bulk cell measure scaled by its own uniform(0.5, 2) factor."""
    m = mesh.faces.measure.copy()
    m[: mesh.n_bulk] *= rng.uniform(0.5, 2.0, mesh.n_bulk)
    return replace(mesh, faces=replace(mesh.faces, measure=m))


def exchange_rate(state, mesh, kin):
    """total_rate under constant laws: the exchange alone where both fields are constant."""
    laws = (bs.constant_law(1.0), bs.constant_law(1.0))
    return bs.total_rate(state, mesh, kin, *laws, wide_window())


class TestCoupling:
    def test_equilibrium_state_is_silent(self):
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        eq = bs.solve_equilibrium(kin, 3.0, 1.0, 1.0)
        mesh = bs.build_mesh(3, 3, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.full(9, eq.u_star), v=np.full(3, eq.v_star))
        du, dv = exchange_rate(state, mesh, kin)
        np.testing.assert_allclose(du, 0.0, atol=1e-15)
        np.testing.assert_allclose(dv, 0.0, atol=1e-15)

    def test_single_cell_hand_value(self):
        kin = linear_kinetics()
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.array([2.0]), v=np.array([1.0]))
        du, dv = exchange_rate(state, mesh, kin)
        np.testing.assert_allclose(du, [-1.0])
        np.testing.assert_allclose(dv, [1.0])

    def test_nonpositive_trace_contributes_nothing(self):
        # one cell per trace pair, so no flux reaches it
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.5, beta=1.0)
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        for u, v in ((-0.2, 1.0), (1.0, 0.0), (1.0, 1.0)):  # u <= 0, v <= 0, the rate's zero
            du, dv = exchange_rate(bs.State(t=0.0, u=np.array([u]), v=np.array([v])), mesh, kin)
            assert du[0] == 0.0 and dv[0] == 0.0

    def test_weighted_sum_is_zero(self):
        # each flux conserves its own field: the weighted sum is the exchange's,
        # on the uniform grid and on per-cell bulk measures alike
        rng = np.random.default_rng(41)
        kin = bs.Kinetics(k=2.0, kappa=0.5, alpha=2.0, beta=3.0)
        uniform = bs.build_mesh(5, 4, 2.0, 1.5, {"bottom", "right"})
        state = bs.State(
            t=0.0,
            u=rng.uniform(0.5, 2.0, uniform.n_bulk),
            v=rng.uniform(0.5, 2.0, uniform.n_surface),
        )
        for mesh in (uniform, with_nonuniform_measures(uniform, rng)):
            du, dv = exchange_rate(state, mesh, kin)
            m, nb = mesh.faces.measure, mesh.n_bulk
            total = kin.beta * np.sum(du * m[:nb]) + kin.alpha * np.sum(dv * m[nb:])
            assert abs(total) < 1e-13
            assert bs.weighted_mass(state, mesh, kin) == pytest.approx(
                kin.beta * np.sum(state.u * m[:nb]) + kin.alpha * np.sum(state.v * m[nb:]),
                rel=1e-15,
            )

    def test_totals_are_the_measure_sums(self):
        # a mesh with measures of its own solves its own equilibrium: the
        # constant pair (u*, v*) carries the weighted mass it was solved for
        rng = np.random.default_rng(41)
        kin = bs.Kinetics(k=2.0, kappa=0.5, alpha=2.0, beta=3.0)
        mesh = with_nonuniform_measures(bs.build_mesh(5, 4, 2.0, 1.5, {"bottom", "right"}), rng)
        m, nb = mesh.faces.measure, mesh.n_bulk
        assert mesh.total_bulk_measure == np.sum(m[:nb])
        assert mesh.total_surface_measure == np.sum(m[nb:])
        mass = 7.0
        eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
        state = bs.State(t=0.0, u=np.full(nb, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        assert bs.weighted_mass(state, mesh, kin) == pytest.approx(mass, rel=1e-14)


JACOBIAN_LAWS = [
    (bs.power_law(1.0), lambda kin: bs.surface_cross_law(kin)),
    (bs.exponential_law(0.5), lambda kin: bs.power_law(0.8)),
    (bs.constant_law(1.5), lambda kin: bs.constant_law(0.7)),
]


class TestJacobian:
    @pytest.mark.parametrize("face_average", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("bulk_law,surf_law_maker", JACOBIAN_LAWS)
    def test_analytic_matches_finite_differences(self, face_average, bulk_law, surf_law_maker):
        mesh = bs.build_mesh(4, 3, 1.0, 1.5, {"bottom", "left"}, face_average)
        self.check(mesh, bulk_law, surf_law_maker)

    @pytest.mark.parametrize("face_average", ["arithmetic", "harmonic"])
    @pytest.mark.parametrize("bulk_law,surf_law_maker", JACOBIAN_LAWS)
    def test_closed_chain_matches_finite_differences(self, face_average, bulk_law, surf_law_maker):
        # all four edges: the surface chain closes into a loop, as in the CLI benchmark run
        mesh = bs.build_mesh(4, 3, 1.0, 1.5, {"bottom", "right", "top", "left"}, face_average)
        self.check(mesh, bulk_law, surf_law_maker)

    @staticmethod
    def check(mesh, bulk_law, surf_law_maker):
        rng = np.random.default_rng(43)
        kin = bs.Kinetics(k=1.2, kappa=0.6, alpha=2.0, beta=1.5)
        win = bs.ClampWindow(
            lower=0.3, upper=5.0, u_star=1.0, v_star=1.1, alpha=2.0, beta=1.5
        )
        surf_law = surf_law_maker(kin)
        w = rng.uniform(0.6, 1.8, mesh.n_bulk + mesh.n_surface)
        # A second state puts bulk cells 0 (a corner) and 2, and the surface
        # cells they host, well outside the caps.  A cross coefficient's
        # derivative along the trace is then 0 at one end of the chain faces
        # next to those cells, and at both ends of the corner link, whose two
        # cells share the trace 0.
        w_out = w.copy()
        w_out[[0, 2]] = 6.0, 0.15
        v_out = w_out[mesh.n_bulk :]
        v_out[mesh.surf_to_bulk == 0], v_out[mesh.surf_to_bulk == 2] = 9.0, 0.12
        assert w_out[0] > 1.5 * win.u_caps[1] and w_out[2] < 0.5 * win.u_caps[0]
        assert 9.0 > 1.5 * win.v_caps[1] and 0.12 < 0.5 * win.v_caps[0]
        # the grid's own measures, then per-cell bulk measures
        for m in (mesh, with_nonuniform_measures(mesh, rng)):
            for x in (w, w_out):
                J_fd = _fd_jacobian(x, m, kin, bulk_law, surf_law, win)
                scale = max(1.0, np.abs(J_fd).max())
                for c in NEWTON_SCALES:
                    J_an = _newton_jacobian(x, c, m, kin, bulk_law, surf_law, win)
                    assert np.abs(J_an - J_fd).max() / scale < 1e-5


def test_the_mesh_face_average_reaches_step_total_rate_and_record():
    # a mesh built harmonic is rated, stepped and recorded harmonic with
    # nothing else passed: each is checked against face_flux on that mesh,
    # and the same mesh made arithmetic misses every check
    kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
    mesh = bs.build_mesh(5, 4, 1.0, 1.0, {"bottom", "right"}, face_average="harmonic")
    assert bs.build_mesh(2, 2, 1.0, 1.0, {"top"}).faces.average == "arithmetic"
    arithmetic = replace(mesh, faces=replace(mesh.faces, average="arithmetic"))
    rng = np.random.default_rng(23)
    u, v = rng.uniform(0.5, 3.0, mesh.n_bulk), rng.uniform(0.5, 3.0, mesh.n_surface)
    state = bs.State(t=0.0, u=u, v=v)
    eq = bs.solve_equilibrium(kin, bs.weighted_mass(state, mesh, kin),
                              mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(u, v, eq, kin)
    window = replace(window, upper=1.0)  # both envelopes breached, so record has dissipations
    laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
    faces, nb, tr = mesh.faces, mesh.n_bulk, mesh.surf_to_bulk
    measure = faces.measure

    def flux(st):
        mu = np.concatenate((bs.diffusion_coefficient(laws[0], st.u, None, window),
                             bs.diffusion_coefficient(laws[1], st.u[tr], st.v, window)))
        return face_flux(faces, np.concatenate((st.u, st.v)), mu)

    def rate(st):
        phi = flux(st)
        f = np.bincount(faces.cell_a, weights=phi, minlength=measure.size)
        f -= np.bincount(faces.cell_b, weights=phi, minlength=measure.size)
        f /= measure
        r = bs.safe_rate(st.u[tr], st.v, kin)
        f[:nb] -= kin.alpha * np.bincount(tr, weights=r * measure[nb:], minlength=nb) / measure[:nb]
        f[nb:] += kin.beta * r
        return f

    pot = np.concatenate([
        np.log(np.maximum((c / star) ** exponent / window.upper, 1.0)) / exponent
        for c, star, exponent in ((u, eq.u_star, kin.alpha), (v, eq.v_star, kin.beta))
    ])
    terms = flux(state) * (pot[faces.cell_b] - pot[faces.cell_a])
    bulk = faces.cell_a < nb
    dissipation = (-np.sum(terms[bulk]), -np.sum(terms[~bulk]))
    assert max(dissipation) < 0
    expected = rate(state)
    cfg = bs.StepConfig(dt=1e-2, newton_tol=1e-13)
    w0 = np.concatenate((u, v))
    for m, agrees in ((mesh, True), (arithmetic, False)):
        got = np.concatenate(bs.total_rate(state, m, kin, *laws, window))
        assert np.allclose(got, expected, rtol=1e-13, atol=0) is agrees
        st = bs.step(state, m, kin, *laws, window, cfg)
        residual = np.abs(np.concatenate((st.u, st.v)) - w0 - cfg.dt * rate(st)).max()
        assert bool(residual <= 1e-12 * max(eq.u_star, eq.v_star)) is agrees
        rec = bs.record(state, m, kin, eq, window, *laws)
        got = (rec.diffusion_dissipation_bulk, rec.diffusion_dissipation_surface)
        assert np.allclose(got, dissipation, rtol=1e-12, atol=0) is agrees

    # the mesh is the holder's problem: a mesh of another average empties it
    lu = bs.NewtonLU()
    bs.step(state, arithmetic, kin, *laws, window, cfg, lu=lu)
    held = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
    bare = bs.step(state, mesh, kin, *laws, window, cfg)
    np.testing.assert_array_equal(np.concatenate((held.u, held.v)), np.concatenate((bare.u, bare.v)))


def test_newton_matrix_assembly_is_lean(monkeypatch):
    # One assembly of the 128x128 blob matrix peaks at about 170 bytes per
    # unknown: the COO triplets, two per face plus the diagonal, and the CSC
    # they become.  int64 indices alone would take it past 230.
    p = blob_problem(128)
    w = np.concatenate([p.state.u, p.state.v])
    args = (p.mesh, p.kin, p.bulk_law, p.surf_law, p.window)
    _newton_matrix(w, p.cfg.dt, *args)  # first-call allocations are not the assembly's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = _newton_matrix(w, p.cfg.dt, *args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 200 * w.size
    assert matrix.indices.dtype == matrix.indptr.dtype == np.intc
    # the uniform surface start makes the cross-diffusion entries exactly 0:
    # they must be dropped, not stored
    assert np.all(matrix.data != 0)

    # the single-precision factor holds the only copy of the values: when
    # SuperLU is entered, what _factor has added since it was entered is the
    # float32 matrix, 4 bytes of value and 4 of row index per nonzero and 4
    # of column pointer per column; the float64 values are freed
    seen = []
    splu = bs.solver.spla.splu

    def traced(a, **kw):
        seen.append((a.dtype, a.indices.dtype, tracemalloc.get_traced_memory()[0] - base))
        return splu(a, **kw)

    monkeypatch.setattr(bs.solver.spla, "splu", traced)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bs.solver._factor(w, p.cfg.dt, args, False)
    finally:
        tracemalloc.stop()
    [(dtype, index_dtype, held)] = seen
    assert dtype == np.float32 and index_dtype == np.intc
    assert held <= 9 * matrix.nnz + 4 * w.size + 4096, (held, matrix.nnz, w.size)


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
        # u**alpha - kappa*v**2 overflows to inf - inf: a NaN residual never
        # counts as converged.  At alpha = 2 the Newton matrix overflows
        # float32; at alpha = 3 and 4 on a 4x4 mesh SuperLU finds it exactly
        # singular.  Each case falls back to double precision and fails there.
        small = bs.build_mesh(4, 4, 1.0, 1.0, {"bottom"})
        for alpha, m in ((2.0, mesh), (3.0, small), (4.0, small)):
            huge = bs.State(t=0.0, u=np.full(m.n_bulk, 1e200), v=np.full(m.n_surface, 1e200))
            kin2 = bs.Kinetics(k=1.0, kappa=1.0, alpha=alpha, beta=2.0)
            lu = bs.NewtonLU()
            with np.errstate(all="ignore"), pytest.raises(bs.NonConvergence):
                bs.step(huge, m, kin2, bs.constant_law(1.0), bs.constant_law(1.0),
                        wide_window(alpha=alpha, beta=2.0), bs.StepConfig(dt=1e-3), lu=lu)
            assert lu.double

    def test_law_in_wrong_slot_raises(self):
        # surface_cross in the bulk slot has no surface value to read, on
        # the initial state and at equilibrium, where Newton takes no iteration
        mesh, kin, eq, initial, window = self.setup_problem()
        at_eq = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star), v=np.full(mesh.n_surface, eq.v_star))
        cfg = bs.StepConfig(dt=1e-3)
        laws = (bs.surface_cross_law(kin),) * 2
        for state in (initial, at_eq):
            for call in (
                lambda: bs.total_rate(state, mesh, kin, *laws, window),
                lambda: bs.record(state, mesh, kin, eq, window, *laws),
                lambda: bs.step(state, mesh, kin, *laws, window, cfg),
                lambda: bs.run(state, 2e-3, mesh, kin, eq, *laws, window, cfg),
            ):
                with pytest.raises(ValueError, match="bulk law slot"):
                    call()

    @pytest.mark.parametrize(
        "bulk_law,surf_law,slot",
        [
            (bs.exponential_law(1000.0), bs.constant_law(1.0), "bulk_law"),
            (bs.constant_law(1.0), bs.exponential_law(1000.0), "surface_law"),
            (bs.exponential_law(-1000.0), bs.constant_law(1.0), "bulk_law"),
        ],
        ids=["bulk-overflow", "surface-overflow", "bulk-underflow"],
    )
    def test_a_law_the_clamp_cannot_bound_raises_before_the_first_step(self, bulk_law, surf_law, slot):
        # exp(1000 c) is inf on the caps and exp(-1000 c) is 0 there, so no
        # clamp bounds the coefficient; run names the slot instead of stepping
        mesh, kin, eq, state, window = self.setup_problem()
        with pytest.raises(ValueError, match=f"bad value for {slot}"):
            bs.run(state, 2e-3, mesh, kin, eq, bulk_law, surf_law, window, bs.StepConfig(dt=1e-3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bs.StepConfig(dt=0.0)
        with pytest.raises(ValueError):
            bs.StepConfig(dt=1e-3, theta=0.3)
        # the face average is the mesh's: one check, where the face set is made
        with pytest.raises(TypeError):
            bs.StepConfig(dt=1e-3, face_average="harmonic")
        with pytest.raises(ValueError, match="unknown face average"):
            bs.build_mesh(4, 4, 1.0, 1.0, {"bottom"}, face_average="geometric")
        mesh, kin, eq, state, window = self.setup_problem()
        with pytest.raises(ValueError, match="unknown face average"):
            replace(mesh.faces, average="geometric")
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(dt=nan),
            dict(dt=inf),
            dict(dt=1e-3, newton_tol=nan),
            dict(dt=1e-3, newton_tol=inf),
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
        laws = (bs.constant_law(1.0), bs.constant_law(1.0))
        oracle = self.oracle_backward_euler(u0, v0, kin, 1.0, 0.05, 100)
        for u_ref, v_ref in oracle:
            state = bs.step(state, mesh, kin, *laws, window, cfg)
            assert abs(state.u[0] - u_ref) <= 1e-9
            assert abs(state.v[0] - v_ref) <= 1e-9


@pytest.mark.parametrize("theta,order", [(1.0, 1.0), (0.5, 2.0)], ids=["euler", "trapezoidal"])
def test_time_order_on_the_blob(theta, order):
    # The acceptance blob to T = 0.064 at dt = 8e-3 / 2**k, k = 0..4.  The
    # max-norm differences of successive final (u, v) shrink by 2**order per
    # halving: backward Euler gives 0.936, 0.957, 0.981 and the trapezoidal
    # rule 2.829, 1.994, 2.000.  The coarsest trapezoidal ratio is not yet in
    # its asymptotic range, so the two finest ratios are pinned.
    p = blob_problem(32)
    finals = []
    for k in range(5):
        cfg = replace(p.cfg, dt=8e-3 / 2**k, theta=theta)
        state, lu = p.state, bs.NewtonLU()
        for _ in range(8 * 2**k):
            state = bs.step(state, p.mesh, p.kin, p.bulk_law, p.surf_law, p.window, cfg, lu=lu)
        assert state.t == pytest.approx(0.064, rel=1e-12)
        finals.append(np.concatenate([state.u, state.v]))
    diffs = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(order - 0.1 <= q <= order + 0.1 for q in orders[-2:]), orders


def _linear_problem(n):
    """Constant laws, alpha = beta = k = kappa = 1, u0 = 1 + cos(pi x) cos(pi y)/2, v0 = 1."""
    kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
    mesh = bs.build_mesh(n, n, 1.0, 1.0, {"bottom"})
    u0 = 1 + 0.5 * np.cos(np.pi * mesh.cell_center_x) * np.cos(np.pi * mesh.cell_center_y)
    state = bs.State(t=0.0, u=u0, v=np.ones(mesh.n_surface))
    eq = bs.solve_equilibrium(kin, bs.weighted_mass(state, mesh, kin),
                              mesh.total_bulk_measure, mesh.total_surface_measure)
    laws = (bs.constant_law(1.0), bs.constant_law(1.0))
    cfg = bs.StepConfig(dt=1e-3, newton_tol=1e-13, newton_max_iter=40)
    return SimpleNamespace(kin=kin, mesh=mesh, state=state, bulk_law=laws[0], surf_law=laws[1],
                           window=bs.window_from_initial_data(u0, state.v, eq, kin), cfg=cfg)


@pytest.mark.parametrize("problem,dt,t_final,pinned", [
    # measured: u max 1.261, v max 1.301, u off the bottom quarter 1.992
    ("blob", 4e-4, 0.02, {"u": (1.16, 1.36), "v": (1.2, 1.4), "u_interior": (1.9, 2.1)}),
    # measured: v max 0.897, u off the bottom quarter 1.989; the bottom row
    # mixes a first- and a second-order error of opposite sign, so it is not pinned
    ("linear", 1e-3, 0.05, {"v": (0.8, 1.0), "u_interior": (1.9, 2.1)}),
], ids=["blob", "linear"])
def test_space_order_is_one_at_the_active_boundary(problem, dt, t_final, pinned):
    # Grids 16, 32, 64 at theta = 0.5, where the time error is negligible.  A 2n grid nests in an
    # n grid: its solution restricts by 2x2 cell means and chain pairs, and
    # the max-norm differences of successive grids give one order per
    # measure.  The reaction reads the cell-centre u, h/2 from the surface,
    # so the scheme is first order in space at the active boundary and second
    # order away from it, in u_interior, u off the bottom quarter.  ROADMAP
    # item 8 (a trace unknown at the surface) is meant to raise the
    # first-order orders to about 2: change these bands with it.
    diffs = []
    for n in (16, 32, 64):
        p = blob_problem(n) if problem == "blob" else _linear_problem(n)
        cfg = replace(p.cfg, dt=dt, theta=0.5)
        state, lu = p.state, bs.NewtonLU()
        for _ in range(round(t_final / dt)):
            state = bs.step(state, p.mesh, p.kin, p.bulk_law, p.surf_law, p.window, cfg, lu=lu)
        assert np.array_equal(p.mesh.surf_to_bulk, np.arange(n))  # the chain runs along y = 0
        if n > 16:
            m = n // 2
            u = state.u.reshape(m, 2, m, 2).mean(axis=(1, 3))
            v = state.v.reshape(m, 2).mean(axis=1)
            du = np.abs(u - coarse.u.reshape(m, m))
            diffs.append({"u": du.max(), "v": np.abs(v - coarse.v).max(),
                          "u_interior": du[m // 4:].max()})
        coarse = state
    for name, (lo, hi) in pinned.items():
        order = np.log2(diffs[0][name] / diffs[1][name])
        assert lo <= order <= hi, (name, order)


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
        laws = (bs.constant_law(1.0), bs.constant_law(1.0))
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
        mass2 = bs.weighted_mass(hot, mesh, kin2)
        eq2 = bs.solve_equilibrium(kin2, mass2, mesh.total_bulk_measure, mesh.total_surface_measure)
        window2 = bs.window_from_initial_data(hot.u, hot.v, eq2, kin2)
        cfg = bs.StepConfig(dt=1e6, newton_max_iter=1, newton_tol=1e-16)
        with pytest.raises(bs.NonConvergence) as info:
            bs.run(hot, 2e6, mesh, kin2, eq2, *laws, window2, cfg)
        assert info.value.iterations == 1
        assert info.value.last_state is not None
        assert info.value.records is not None
        assert len(info.value.records) >= 1

    def test_a_step_that_goes_negative_is_retried_with_dt_halved(self, tmp_path):
        # a README-valid two-blob config whose first trapezoidal step at the
        # configured dt accepts min u = -40; at dt/32 the step stays positive
        path = tmp_path / "neg.cfg"
        path.write_text("nx = 16\nny = 16\ninitial = two-blob\nblob_amplitude_1 = 50\n"
                        "blob_width = 0.03\nblob_base_u = 0.01\ntheta = 0.5\ndt = 0.05\n"
                        "t_final = 0.1\n")
        mesh, kin, bulk_law, surf_law, state, eq, window, cfg = cli.build_problem(
            cli.parse_config(path)
        )
        laws = (bulk_law, surf_law)
        assert bs.step(state, mesh, kin, *laws, window, cfg).u.min() < -40
        final, records = bs.run(state, 0.1, mesh, kin, eq, *laws, window, cfg)
        assert records[1].t == 0.05 / 2**bs.solver.MAX_DT_HALVINGS
        assert final.t == 0.1
        assert min(final.u.min(), final.v.min()) >= 0
        assert all(min(r.u_env_min, r.v_env_min) >= 0 for r in records)
        assert max(abs(r.mass - eq.mass) for r in records) <= 1e-12 * eq.mass

    def test_a_step_negative_after_the_last_halving_is_fatal(self, monkeypatch):
        mesh, kin, eq, state, window, laws = self.setup_problem()
        dts = []

        def negative(st, *args, **kwargs):  # the step run takes, with a negative u
            dts.append(args[-1].dt)
            return bs.State(t=st.t + args[-1].dt, u=-st.u, v=st.v)

        monkeypatch.setattr(bs.solver, "step", negative)
        with pytest.raises(bs.NonConvergence, match="a negative state at t = ") as info:
            bs.run(state, 0.05, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-2))
        assert dts == [1e-2 / 2**k for k in range(bs.solver.MAX_DT_HALVINGS + 1)]
        assert info.value.last_state is state and len(info.value.records) == 1
        assert info.value.iterations is None and info.value.residual is None

    def test_a_span_the_clock_cannot_resolve_raises(self, monkeypatch):
        # At t = 1e6 the round-off allowance t_eps is 1e-6.  A span within it,
        # or a dt within 2*t_eps, would be cut short, and a dt below half an
        # ulp of 1e6 would never move the clock, so run raises on each.  step
        # is capped so that a loop that does not end fails instead of hanging.
        mesh, kin, eq, state, window, laws = self.setup_problem()
        step, calls = bs.solver.step, []

        def capped(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= 200, "run does not end"
            return step(*args, **kwargs)

        monkeypatch.setattr(bs.solver, "step", capped)
        late = bs.State(t=1e6, u=state.u, v=state.v)
        for span, dt in ((1e-7, 1e-8), (1e-5, 1e-6), (1e-5, 1e-11)):
            with pytest.raises(ValueError):
                bs.run(late, 1e6 + span, mesh, kin, eq, *laws, window, bs.StepConfig(dt=dt))
        assert not calls
        cfg = bs.StepConfig(dt=1e-3)
        final, records = bs.run(late, 1e6 + 1e-2, mesh, kin, eq, *laws, window, cfg)
        assert len(calls) == len(records) - 1 == 10
        assert final.t == 1e6 + 1e-2
        final, records = bs.run(late, 1e6, mesh, kin, eq, *laws, window, bs.StepConfig(dt=1e-11))
        assert final is late and len(records) == 1

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


def test_newton_stops_in_units_of_the_equilibrium():
    # A linear problem scaled by s has the solution scaled by s.  Newton
    # measures residuals and corrections in units of u* and v*, so every
    # scale takes the same 10 steps, with no dt halving, conserves the mass
    # to round-off, and lands on the same (u, v)/s.
    kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
    mesh = bs.build_mesh(8, 8, 1.0, 1.0, {"bottom"})
    laws = (bs.constant_law(1.0), bs.constant_law(1.0))
    finals = []
    for s in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        u0 = s * (1.0 + 0.5 * np.sin(3.0 * mesh.cell_center_x))
        v0 = np.full(mesh.n_surface, 0.7 * s)
        state = bs.State(t=0.0, u=u0, v=v0)
        mass = bs.weighted_mass(state, mesh, kin)
        eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.window_from_initial_data(u0, v0, eq, kin)
        final, records = bs.run(state, 0.1, mesh, kin, eq, *laws, window, bs.StepConfig(dt=0.01))
        np.testing.assert_allclose([r.t for r in records], 0.01 * np.arange(11), rtol=0, atol=1e-15)
        assert max(abs(r.mass - mass) for r in records) <= 1e-14 * mass, s
        finals.append(np.concatenate([final.u, final.v]) / s)
    for scaled in finals[1:]:
        np.testing.assert_allclose(scaled, finals[0], rtol=1e-14, atol=0)

    # Time scaled by s: rate constant and coefficients 1/s, dt 0.01*s.  run's
    # round-off allowance on the times is relative to them, so every scale
    # takes the same 10 steps to the same state.
    u0, v0 = 1.0 + 0.5 * np.sin(3.0 * mesh.cell_center_x), np.full(mesh.n_surface, 0.7)
    state = bs.State(t=0.0, u=u0, v=v0)
    eq = bs.solve_equilibrium(
        kin, bs.weighted_mass(state, mesh, kin), mesh.total_bulk_measure, mesh.total_surface_measure
    )
    window = bs.window_from_initial_data(u0, v0, eq, kin)
    finals = []
    for s in (1.0, 1e-6, 1e-11, 1e-13, 1e-200):
        kin_s = bs.Kinetics(k=1.0 / s, kappa=1.0, alpha=1.0, beta=1.0)
        laws_s = (bs.constant_law(1.0 / s), bs.constant_law(1.0 / s))
        cfg = bs.StepConfig(dt=0.01 * s)
        final, records = bs.run(state, 0.1 * s, mesh, kin_s, eq, *laws_s, window, cfg)
        times = [r.t / s for r in records]
        np.testing.assert_allclose(times, 0.01 * np.arange(11), rtol=0, atol=1e-15, err_msg=str(s))
        finals.append(np.concatenate([final.u, final.v]))
    for scaled in finals[1:]:
        np.testing.assert_allclose(scaled, finals[0], rtol=1e-14, atol=0)


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

    @staticmethod
    def force_double(monkeypatch):
        """Make every factor double precision: no single-precision factor can be made."""
        factor = bs.solver._factor
        monkeypatch.setattr(
            bs.solver, "_factor",
            lambda w, c, operator, double: factor(w, c, operator, True),
        )

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

    def test_single_precision_factors_match_double(self, monkeypatch):
        # the single-precision LU only steers Newton; the double-precision
        # residual decides convergence, so the run factors as often
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        calls, _ = self.count_splu(monkeypatch)
        single, _ = bs.run(state, 50 * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        single_lus = len(calls)
        del calls[:]
        self.force_double(monkeypatch)
        double, _ = bs.run(state, 50 * cfg.dt, mesh, kin, eq, *laws, window, cfg)
        assert len(calls) == single_lus
        scale = max(np.abs(double.u).max(), np.abs(double.v).max())
        gap = max(np.abs(single.u - double.u).max(), np.abs(single.v - double.v).max())
        assert gap <= 1e-11 * scale

    def test_failing_single_factor_falls_back_to_double(self, monkeypatch):
        # a fresh single-precision factor whose direction fails the line
        # search: the step refactors in double precision at the same iterate,
        # as a step that never had a single-precision factor
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        factor = bs.solver._factor
        monkeypatch.setattr(
            bs.solver, "_factor",
            lambda w, c, operator, double: (
                factor(w, c, operator, True) if double else ((lambda b: -b), False)
            ),
        )
        lu = bs.NewtonLU()
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        assert lu.double
        self.force_double(monkeypatch)
        bare = bs.step(state, mesh, kin, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)
        # double precision holds for the rest of the problem only
        monkeypatch.setattr(bs.solver, "_factor", factor)
        bs.step(out, mesh, kin, *laws, window, cfg, lu=lu)
        assert lu.double
        bs.step(out, mesh, replace(kin, k=3.0), *laws, window, cfg, lu=lu)
        assert not lu.double

    @staticmethod
    def count_assemblies(monkeypatch, edit=None):
        """A list of the iterates at which a Newton matrix is assembled; edit changes each matrix."""
        assembled = []
        newton_matrix = bs.solver._newton_matrix

        def counted(w, *args):
            assembled.append(w.copy())
            matrix = newton_matrix(w, *args)
            if edit is not None:
                edit(matrix)
            return matrix

        monkeypatch.setattr(bs.solver, "_newton_matrix", counted)
        return assembled

    def test_single_factor_superlu_rejects_is_assembled_again_in_double(self, monkeypatch):
        # SuperLU raises on the float32 matrix once (as on an exactly singular
        # factor): _factor assembles the matrix again at the same iterate and
        # factors it in double precision, so the step is a step whose
        # factors are all double precision, bit for bit
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        assembled = self.count_assemblies(monkeypatch)
        splu = bs.solver.spla.splu
        raised = []

        def rejects_single_once(a, **kwargs):
            if a.dtype == np.float32 and not raised:
                raised.append(a.dtype)
                raise RuntimeError("Factor is exactly singular")
            return splu(a, **kwargs)

        monkeypatch.setattr(bs.solver.spla, "splu", rejects_single_once)
        lu = bs.NewtonLU()
        out = bs.step(state, mesh, kin, *laws, window, cfg, lu=lu)
        assert raised and lu.double
        assert len(assembled) == 2
        np.testing.assert_array_equal(assembled[0], assembled[1])
        self.force_double(monkeypatch)
        bare = bs.step(state, mesh, kin, *laws, window, cfg)
        np.testing.assert_array_equal(out.u, bare.u)
        np.testing.assert_array_equal(out.v, bare.v)

    def test_matrix_beyond_single_range_is_factored_in_double(self, monkeypatch):
        # an entry beyond the float32 range: the one assembly is factored in
        # double precision, and its solve is a double-precision solve
        mesh, kin, eq, state, window, laws, cfg = self.setup_problem()
        huge = 1e3 * float(np.finfo(np.float32).max)

        def widen(matrix):
            matrix[0, 0] = huge

        assembled = self.count_assemblies(monkeypatch, widen)
        seen = []
        splu = bs.solver.spla.splu
        monkeypatch.setattr(bs.solver.spla, "splu", lambda a, **kw: seen.append(a.dtype) or splu(a, **kw))
        w = np.concatenate([state.u, state.v])
        operator = (mesh, kin, *laws, window)
        solve, double = bs.solver._factor(w, cfg.dt, operator, False)
        assert double and seen == [np.float64] and len(assembled) == 1
        matrix = bs.solver._newton_matrix(w, cfg.dt, *operator)
        assert matrix[0, 0] == huge
        x = solve(w)
        norm = abs(matrix).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(matrix @ x - w).max() <= 1e3 * np.finfo(float).eps * norm

    def test_ill_conditioned_steps_fall_back_to_double(self, monkeypatch):
        # the acceptance blob at 1e8 times its dt: cond(I - dt*J) is about
        # 7e8 at the start, beyond what a single-precision LU can steer.
        # Double precision takes 4 LUs and 10 solves for 3 steps; single
        # precision alone fails to converge.  The fallback may cost one more
        # factor.
        p = blob_problem()
        cfg = replace(p.cfg, dt=1e8 * p.cfg.dt, newton_tol=1e-6)
        laws = (p.bulk_law, p.surf_law)
        calls, _ = self.count_splu(monkeypatch)
        lu = bs.NewtonLU()
        single = p.state
        for _ in range(3):
            single = bs.step(single, p.mesh, p.kin, *laws, p.window, cfg, lu=lu)
        single_lus = len(calls)
        assert lu.double
        del calls[:]
        self.force_double(monkeypatch)
        lu = bs.NewtonLU()
        double = p.state
        for _ in range(3):
            double = bs.step(double, p.mesh, p.kin, *laws, p.window, cfg, lu=lu)
        assert single_lus <= len(calls) + 1
        assert single.t == double.t == 3 * cfg.dt

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

    def test_acceptance_blob_work_is_pinned(self, monkeypatch):
        # 300 steps of the acceptance blob take 4 LUs, 545 solves and 841
        # rate evaluations: a change to the Newton loop, the LU reuse or the
        # predictor that changes the work shows here
        p = blob_problem()
        calls, solves = self.count_splu(monkeypatch)
        rates = []
        rate = bs.solver.safe_rate
        monkeypatch.setattr(bs.solver, "safe_rate", lambda *args: rates.append(1) or rate(*args))
        _, records = bs.run(
            p.state, 300 * p.cfg.dt, p.mesh, p.kin, p.eq, p.bulk_law, p.surf_law, p.window, p.cfg
        )
        assert len(records) == 301
        assert (len(calls), len(solves), len(rates)) == (4, 545, 841)


# every law kind in each slot; the surface makers take the kinetics because
# surface_cross reads its alpha and beta
BULK_LAWS = (bs.power_law(1.0), bs.exponential_law(0.5), bs.constant_law(1.5))
SURFACE_LAW_MAKERS = (
    bs.surface_cross_law,
    lambda kin: bs.power_law(0.8),
    lambda kin: bs.exponential_law(0.3),
    lambda kin: bs.constant_law(0.7),
)


# Mesh draws: (nx, ny, active edges) of a rectangle, or (widths, sectors) of
# a polar disk with 1-4 rings around its centre cell.
MESH_SPECS = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 6),
              st.sets(st.sampled_from(bs.mesh.EDGE_NAMES), min_size=1)),
    st.tuples(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=5), st.integers(3, 12)),
)


def mesh_from(spec):
    """The 1.0 x 1.3 rectangle of build_mesh, or a disk_mesh of the unit disk.

    A disk's widths are the centre cell's radius and then the ring widths,
    scaled so that the outer radius is 1.
    """
    if len(spec) == 3:
        nx, ny, edges = spec
        return bs.build_mesh(nx, ny, 1.0, 1.3, edges)
    widths, sectors = spec
    radii = np.cumsum(widths)
    return disk_mesh(radii / radii[-1], sectors)


class TestRandomProblems:
    """Structure checks on randomly drawn meshes, laws, exponents and face averages."""

    @settings(max_examples=40, deadline=None)
    @given(
        mesh_spec=MESH_SPECS,
        bulk_law=st.sampled_from(BULK_LAWS),
        surf_law_maker=st.sampled_from(SURFACE_LAW_MAKERS),
        alpha=st.floats(1.0, 3.0),
        beta=st.floats(1.0, 3.0),
        face_average=st.sampled_from(bs.mesh.FACE_AVERAGES),
        c=st.sampled_from(NEWTON_SCALES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_jacobian_mass_and_fixed_point(
        self, mesh_spec, bulk_law, surf_law_maker, alpha, beta, face_average, c, seed
    ):
        kin = bs.Kinetics(k=1.2, kappa=0.6, alpha=alpha, beta=beta)
        mesh = mesh_from(mesh_spec)
        mesh = replace(mesh, faces=replace(mesh.faces, average=face_average))
        rng = np.random.default_rng(seed)
        state = bs.State(
            t=0.0, u=rng.uniform(0.6, 1.8, mesh.n_bulk), v=rng.uniform(0.6, 1.8, mesh.n_surface)
        )
        m0 = bs.weighted_mass(state, mesh, kin)
        eq = bs.solve_equilibrium(kin, m0, mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.window_from_initial_data(state.u, state.v, eq, kin)
        laws = (bulk_law, surf_law_maker(kin))
        cfg = bs.StepConfig(dt=1e-3, newton_tol=1e-13, newton_max_iter=40)

        w = np.concatenate([state.u, state.v])
        J_an = _newton_jacobian(w, c, mesh, kin, *laws, window)
        J_fd = _fd_jacobian(w, mesh, kin, *laws, window)
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

    @pytest.mark.parametrize("face_average", bs.mesh.FACE_AVERAGES)
    @pytest.mark.parametrize("edges", [{"bottom"}, {"left", "bottom"}, set(bs.mesh.EDGE_NAMES)],
                             ids=["open", "open-corner", "closed"])
    @settings(max_examples=15, deadline=None)
    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 6),
        bulk_law=st.sampled_from(BULK_LAWS),
        alpha=st.floats(1.0, 3.0),
        beta=st.floats(1.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_total_rate_is_the_sum_of_its_operators(
        self, face_average, edges, nx, ny, bulk_law, alpha, beta, seed
    ):
        # exchange + bulk divergence + surface divergence, bit for bit; some
        # entries are nonpositive, where the guarded rate is 0
        kin = bs.Kinetics(k=1.2, kappa=0.6, alpha=alpha, beta=beta)
        mesh = bs.build_mesh(nx, ny, 1.0, 1.3, edges, face_average)
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.2, 1.8, mesh.n_bulk)
        v = rng.uniform(-0.2, 1.8, mesh.n_surface)
        window = wide_window(alpha=alpha, beta=beta)
        surf_law = bs.surface_cross_law(kin)
        du, dv = bs.total_rate(bs.State(t=0.0, u=u, v=v), mesh, kin, bulk_law, surf_law, window)

        tr = mesh.surf_to_bulk
        bulk_faces, chain_faces = split_faces(mesh)
        r = bs.safe_rate(u[tr], v, kin)
        measure, nb = mesh.faces.measure, mesh.n_bulk
        exchange = -kin.alpha / measure[:nb] * np.bincount(
            tr, weights=r * measure[nb:], minlength=nb
        )
        mu = bs.diffusion_coefficient(bulk_law, u, None, window)
        np.testing.assert_array_equal(
            du, exchange + face_divergence(bulk_faces, u, mu)
        )
        mu = bs.diffusion_coefficient(surf_law, u[tr], v, window)
        np.testing.assert_array_equal(
            dv, kin.beta * r + face_divergence(chain_faces, v, mu)
        )


# Assembles, factors and solves the Newton matrices of 1x1, 3x2 all-edge,
# 16x16 and 64x64 meshes at three time steps, in both precisions, through
# the solver's factor helper (a single-precision factor puts float32 values
# on the index arrays of the assembly), in 12 passes; each solve is checked
# against a float64 assembly at the same iterate.  Under
# MALLOC_CHECK_=3 glibc aborts the interpreter when SuperLU corrupts its
# heap.  relax=100 corrupts it, but not on every pass: this test caught it
# in one to two of every four runs.
_HEAP_SCRIPT = """
import numpy as np
import bulksurf as bs
from bulksurf.mesh import face_divergence
from bulksurf.solver import _factor, _newton_matrix

kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
problems = []
for nx, ny, edges in ((1, 1, {"bottom"}), (3, 2, set(bs.mesh.EDGE_NAMES)),
                      (16, 16, {"bottom"}), (64, 64, {"bottom"})):
    mesh = bs.build_mesh(nx, ny, 1.0, 1.0, edges)
    rng = np.random.default_rng(nx)
    u = rng.uniform(0.8, 1.6, mesh.n_bulk)
    v = rng.uniform(0.8, 1.6, mesh.n_surface)
    eq = bs.solve_equilibrium(kin, 2.0, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(u, v, eq, kin)
    w = np.concatenate([u, v])
    for dt in (1e-3, 1.0, 1e3):
        operator = (mesh, kin, *laws, window)
        problems.append((w, dt, operator, _newton_matrix(w, dt, *operator)))
for _ in range(12):
    for w, dt, operator, matrix in problems:
        for dtype in (np.float32, np.float64):
            x = _factor(w, dt, operator, dtype == np.float64)[0](w)
            # normwise backward error within a few hundred units of round-off
            norm = abs(matrix).sum(axis=1).max() * np.abs(x).max()
            assert np.abs(matrix @ x - w).max() <= 1e3 * np.finfo(dtype).eps * norm
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="MALLOC_CHECK_ is a glibc feature")
def test_superlu_options_keep_the_heap_intact():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, MALLOC_CHECK_="3",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _HEAP_SCRIPT], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
