import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import blob_problem
from test_mesh import split_faces

import bulksurf as bs
from bulksurf.diagnostics import _diffusion_dissipation, _envelope
from bulksurf.mesh import face_flux
from bulksurf.model import _pressure


def make_problem(nx=4, ny=3, edges=("bottom",), alpha=2.0, beta=1.0, kappa=0.5, seed=61,
                 spread=0.4):
    kin = bs.Kinetics(k=1.0, kappa=kappa, alpha=alpha, beta=beta)
    mesh = bs.build_mesh(nx, ny, 1.0, 1.0, edges)
    rng = np.random.default_rng(seed)
    u0 = 1.0 + spread * rng.random(mesh.n_bulk)
    v0 = 1.5 + spread * rng.random(mesh.n_surface)
    state = bs.State(t=0.0, u=u0, v=v0)
    mass = bs.weighted_mass(state, mesh, kin)
    eq = bs.solve_equilibrium(kin, mass, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(u0, v0, eq, kin)
    return mesh, kin, eq, state, window


def envelope_potentials(u, v, window):
    """The excess log-potentials of u and of v, from the envelope test of each field."""
    return (_envelope(u, window.u_star, window.alpha, window)[2],
            _envelope(v, window.v_star, window.beta, window)[2])


def _outside_caps(u, v, window) -> int:
    """Entries of u and v outside the window's clamp caps, the ones the clamp moves."""
    return sum(
        int(np.count_nonzero((c < lo) | (c > hi)))
        for c, (lo, hi) in ((u, window.u_caps), (v, window.v_caps))
    )


def test_state_sized_for_another_mesh_is_rejected():
    # too few or too many entries must raise, not give a plausible number
    mesh, kin, eq, state, window = make_problem(nx=2, ny=2)
    laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
    for u, v in ((state.u[:3], state.v), (state.u, np.append(state.v, 1.5))):
        bad = bs.State(t=0.0, u=u, v=v)
        for diagnostic in (
            lambda: bs.weighted_mass(bad, mesh, kin),
            lambda: bs.relative_entropy(bad, eq, mesh),
            lambda: bs.envelope_entropy(bad, mesh, window),
            lambda: bs.reaction_dissipation_split(bad, mesh, kin, window),
            lambda: bs.record(bad, mesh, kin, eq, window, *laws),
        ):
            with pytest.raises(ValueError, match="do not match mesh"):
                diagnostic()


class TestEntropyDensity:
    def test_zero_at_one(self):
        assert bs.entropy_density(1.0) == 0.0

    def test_continuous_extension_at_zero(self):
        assert bs.entropy_density(0.0) == 1.0

    def test_direct_value(self):
        assert bs.entropy_density(2.0) == pytest.approx(2 * math.log(2) - 1, rel=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bs.entropy_density(-0.5)
        with pytest.raises(ValueError):
            bs.entropy_density(float("nan"))
        with pytest.raises(ValueError):
            bs.entropy_density(np.array([1.0, float("nan")]))
        with pytest.raises(ValueError):
            bs.entropy_density(float("inf"))
        with pytest.raises(ValueError):
            bs.entropy_density(np.array([1.0, float("inf")]))

    def test_nonnegative_with_unique_zero(self):
        z = np.linspace(0.0, 5.0, 10001)
        e = bs.entropy_density(z)
        assert np.all(e >= 0)
        assert np.argmin(e) == np.searchsorted(z, 1.0)

    def test_convexity_on_sampled_triples(self):
        rng = np.random.default_rng(67)
        a = rng.uniform(0, 5, 20000)
        b = rng.uniform(0, 5, 20000)
        lam = rng.uniform(0, 1, 20000)
        mix = bs.entropy_density(lam * a + (1 - lam) * b)
        bound = lam * bs.entropy_density(a) + (1 - lam) * bs.entropy_density(b)
        assert np.all(mix <= bound + 1e-12)


class TestRelativeEntropy:
    def test_zero_at_equilibrium(self):
        mesh, kin, eq, _, _ = make_problem()
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star),
                         v=np.full(mesh.n_surface, eq.v_star))
        assert bs.relative_entropy(state, eq, mesh) == 0.0

    def test_vacuum_bulk_contribution(self):
        # u identically 0 on a unit-measure bulk contributes u_star * e(0) = u_star
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        eq = bs.Equilibrium(u_star=0.8, v_star=1.1, mass=3.0)
        state = bs.State(t=0.0, u=np.zeros(1), v=np.array([eq.v_star]))
        assert bs.relative_entropy(state, eq, mesh) == pytest.approx(0.8, rel=1e-14)

    def test_matches_naive_loop(self):
        mesh, kin, eq, state, _ = make_problem(nx=5, ny=4, edges=("bottom", "left"))
        total = 0.0
        for ui, ki in zip(state.u, mesh.faces.measure[: mesh.n_bulk]):
            z = ui / eq.u_star
            total += eq.u_star * (z * math.log(z) - z + 1) * ki
        for vj, hj in zip(state.v, mesh.faces.measure[mesh.n_bulk :]):
            z = vj / eq.v_star
            total += eq.v_star * (z * math.log(z) - z + 1) * hj
        assert bs.relative_entropy(state, eq, mesh) == pytest.approx(total, rel=1e-14)

    def test_positive_away_from_equilibrium(self):
        mesh, kin, eq, state, _ = make_problem()
        assert bs.relative_entropy(state, eq, mesh) > 0


class TestEnvelopeEntropy:
    def test_zero_within_envelope(self):
        mesh, kin, eq, state, window = make_problem()
        assert bs.envelope_entropy(state, mesh, window) == 0.0

    def test_zero_at_equilibrium(self):
        mesh, kin, eq, _, window = make_problem()
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, eq.u_star),
                         v=np.full(mesh.n_surface, eq.v_star))
        assert bs.envelope_entropy(state, mesh, window) == 0.0

    def test_single_violating_cell_value(self):
        # one unit bulk cell at pressure 4*upper with alpha=1: upper * u_star * e(4)
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        window = bs.ClampWindow(lower=0.5, upper=2.5, u_star=0.7, v_star=1.1,
                                alpha=1.0, beta=1.0)
        state = bs.State(t=0.0, u=np.array([4 * 2.5 * 0.7]), v=np.array([1.1]))
        expected = 2.5 * 0.7 * (4 * math.log(4) - 3)
        assert bs.envelope_entropy(state, mesh, window) == pytest.approx(expected, rel=1e-13)

    def test_zero_iff_potentials_vanish(self):
        mesh, kin, eq, state, window = make_problem(seed=71)
        hot = state.copy()
        hot.u[2] = eq.u_star * (3.0 * window.upper) ** (1 / kin.alpha)
        for st in (state, hot):
            e_l = bs.envelope_entropy(st, mesh, window)
            pots = np.concatenate(envelope_potentials(st.u, st.v, window))
            assert (e_l == 0.0) == bool(np.all(pots == 0.0))


class TestEnvelopePotentials:
    def test_zero_within_envelope(self):
        mesh, kin, eq, state, window = make_problem()
        bulk_pot, surf_pot = envelope_potentials(state.u, state.v, window)
        assert np.all(bulk_pot == 0.0)
        assert np.all(surf_pot == 0.0)

    def test_unit_excess(self):
        # pressure e**alpha * upper gives potential exactly 1
        mesh, kin, eq, state, window = make_problem(alpha=2.0)
        hot = state.copy()
        hot.u[0] = window.u_star * (math.e**2 * window.upper) ** (1 / 2)
        bulk_pot, _ = envelope_potentials(hot.u, hot.v, window)
        assert bulk_pot[0] == pytest.approx(1.0, rel=1e-12)

    def test_threshold_belongs_to_zero_branch(self):
        mesh, kin, eq, state, window = make_problem(beta=2.0)
        edge = state.copy()
        edge.v[1] = window.v_star * window.upper ** (1 / window.beta)
        _, surf_pot = envelope_potentials(edge.u, edge.v, window)
        assert surf_pot[1] == 0.0

    def test_nonpositive_entries_are_below_and_nan_is_rejected(self):
        # a fractional exponent has no power of a negative: any warning fails here
        mesh, kin, eq, state, window = make_problem(alpha=1.5, beta=2.5)
        dry = state.copy()
        dry.u[:3] = (-1.0, -0.0, 0.0)
        dry.v[0] = -1e-3
        pots = envelope_potentials(dry.u, dry.v, window)
        assert all(np.all(pot == 0.0) for pot in pots)
        assert bs.envelope_entropy(dry, mesh, window) == 0.0
        dry.u[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            bs.envelope_entropy(dry, mesh, window)

    def test_nondecreasing_in_concentration(self):
        _, _, _, _, window = make_problem()
        u = np.linspace(1e-3, 10 * window.u_star * window.upper, 5001)
        state = bs.State(t=0.0, u=u, v=np.full(3, window.v_star))
        bulk_pot, _ = envelope_potentials(state.u, state.v, window)
        assert np.all(np.diff(bulk_pot) >= 0)


class TestReactionDissipationSplit:
    def test_zero_within_envelope(self):
        mesh, kin, eq, state, window = make_problem()
        split = bs.reaction_dissipation_split(state, mesh, kin, window)
        assert split.total == 0.0
        assert split.n_u_only == split.n_v_only == split.n_both == 0

    def test_bulk_only_cell_formula(self):
        mesh, kin, eq, state, window = make_problem()
        hot = state.copy()
        j = 1
        i = mesh.surf_to_bulk[j]
        hot.u[i] = eq.u_star * (4.0 * window.upper) ** (1 / kin.alpha)
        split = bs.reaction_dissipation_split(hot, mesh, kin, window)
        assert split.n_u_only == 1 and split.n_v_only == 0 and split.n_both == 0
        assert split.u_only > 0
        lam = bs.log_mean(hot.u[i] ** kin.alpha, kin.kappa * hot.v[j] ** kin.beta)
        pot = kin.alpha * math.log(hot.u[i] / eq.u_star) - kin.beta * math.log(hot.v[j] / eq.v_star)
        xi = math.log(hot.u[i] / eq.u_star) - math.log(window.upper) / kin.alpha
        expected = kin.k * lam * pot * kin.alpha * xi * mesh.faces.measure[mesh.n_bulk + j]
        assert split.u_only == pytest.approx(expected, rel=1e-12)

    def test_both_class_is_square(self):
        mesh, kin, eq, state, window = make_problem()
        hot = state.copy()
        j = 2
        i = mesh.surf_to_bulk[j]
        hot.u[i] = eq.u_star * (5.0 * window.upper) ** (1 / kin.alpha)
        hot.v[j] = eq.v_star * (3.0 * window.upper) ** (1 / kin.beta)
        split = bs.reaction_dissipation_split(hot, mesh, kin, window)
        assert split.n_both == 1
        lam = bs.log_mean(hot.u[i] ** kin.alpha, kin.kappa * hot.v[j] ** kin.beta)
        diff = kin.alpha * math.log(hot.u[i] / eq.u_star) - kin.beta * math.log(hot.v[j] / eq.v_star)
        expected = kin.k * lam * diff**2 * mesh.faces.measure[mesh.n_bulk + j]
        assert split.both == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_cells_excluded(self):
        mesh, kin, eq, state, window = make_problem(alpha=1.0)
        bad = state.copy()
        j = 0
        bad.u[mesh.surf_to_bulk[j]] = -5.0  # enormous violation, but inadmissible
        split_bad = bs.reaction_dissipation_split(bad, mesh, kin, window)
        assert split_bad.total == 0.0

    def test_partitions_nonnegative_on_random_states(self):
        rng = np.random.default_rng(73)
        mesh = bs.build_mesh(10, 1, 1.0, 0.3, {"bottom"})
        for _ in range(300):
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
                upper=10.0 ** rng.uniform(0.1, 2),
                u_star=u_star,
                v_star=v_star,
                alpha=kin.alpha,
                beta=kin.beta,
            )
            state = bs.State(
                t=0.0,
                u=10.0 ** rng.uniform(-1.5, 1.5, mesh.n_bulk),
                v=10.0 ** rng.uniform(-1.5, 1.5, mesh.n_surface),
            )
            split = bs.reaction_dissipation_split(state, mesh, kin, window)
            scale = max(1.0, abs(split.total))
            assert split.u_only >= -1e-14 * scale
            assert split.v_only >= -1e-14 * scale
            assert split.both >= -1e-14 * scale


class TestDiffusionDissipationSign:
    def test_nonpositive_on_random_states(self):
        rng = np.random.default_rng(83)
        mesh, kin, eq, state, window = make_problem(nx=6, ny=5, edges=("bottom", "left"))
        for _ in range(100):
            st = bs.State(
                t=0.0,
                u=10.0 ** rng.uniform(-1, 1, mesh.n_bulk),
                v=10.0 ** rng.uniform(-1, 1, mesh.n_surface),
            )
            db, ds = _diffusion_dissipation(
                st, mesh, window, bs.power_law(1.0), bs.surface_cross_law(kin)
            )
            assert db <= 1e-14
            assert ds <= 1e-14


class TestRecord:
    def test_equilibrium_record_is_flat(self):
        mesh, kin, eq, _, window = make_problem()
        state = bs.State(t=0.5, u=np.full(mesh.n_bulk, eq.u_star),
                         v=np.full(mesh.n_surface, eq.v_star))
        rec = bs.record(state, mesh, kin, eq, window,
                        bs.power_law(1.0), bs.surface_cross_law(kin))
        assert rec.t == 0.5
        assert rec.mass == pytest.approx(eq.mass, rel=1e-13)
        assert rec.entropy == 0.0
        assert rec.envelope_entropy == 0.0
        assert rec.reaction_dissipation == 0.0
        assert rec.diffusion_dissipation_bulk == 0.0
        assert rec.diffusion_dissipation_surface == 0.0
        assert rec.clamp_activations == 0

    def test_envelope_respecting_state(self):
        mesh, kin, eq, state, window = make_problem()
        rec = bs.record(state, mesh, kin, eq, window,
                        bs.power_law(1.0), bs.surface_cross_law(kin))
        assert rec.envelope_entropy == 0.0
        assert rec.u_env_max <= window.upper
        assert rec.v_env_max <= window.upper
        assert rec.u_env_min >= window.lower
        assert rec.v_env_min >= window.lower

    def test_composes_individual_operations(self):
        # field by field, on a state inside both upper envelopes (where record
        # skips the envelope terms) and on one that breaches both
        mesh, kin, eq, state, window = make_problem(seed=89)
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        hot = state.copy()
        hot.u[mesh.surf_to_bulk[0]] = eq.u_star * (3 * window.upper) ** (1 / kin.alpha)
        hot.u[mesh.surf_to_bulk[1]] = eq.u_star * (2 * window.upper) ** (1 / kin.alpha)
        hot.v[1:3] = eq.v_star * (2 * window.upper) ** (1 / kin.beta)
        for st, healthy in ((state, True), (hot, False)):
            rec = bs.record(st, mesh, kin, eq, window, *laws)
            split = bs.reaction_dissipation_split(st, mesh, kin, window)
            diss = _diffusion_dissipation(st, mesh, window, *laws)
            assert rec.t == st.t
            assert rec.mass == bs.weighted_mass(st, mesh, kin)
            assert rec.entropy == bs.relative_entropy(st, eq, mesh)
            assert rec.envelope_entropy == bs.envelope_entropy(st, mesh, window)
            assert rec.u_env_max == np.max((st.u / eq.u_star) ** kin.alpha)
            assert rec.v_env_max == np.max((st.v / eq.v_star) ** kin.beta)
            assert rec.u_env_min == np.min((st.u / eq.u_star) ** kin.alpha)
            assert rec.v_env_min == np.min((st.v / eq.v_star) ** kin.beta)
            p_u = _pressure(st.u, window.u_star, window.alpha)
            p_v = _pressure(st.v, window.v_star, window.beta)
            extrema = (rec.u_env_max, rec.v_env_max, rec.u_env_min, rec.v_env_min)
            assert extrema == (p_u.max(), p_v.max(), p_u.min(), p_v.min())  # the window's one scale
            assert rec.reaction_dissipation == -split.total
            assert (rec.diffusion_dissipation_bulk, rec.diffusion_dissipation_surface) == diss
            assert rec.clamp_activations == _outside_caps(st.u, st.v, window)
            below = (np.all((st.u / eq.u_star) ** kin.alpha <= window.upper)
                     and np.all((st.v / eq.v_star) ** kin.beta <= window.upper))
            assert below == healthy
        counts = (split.n_u_only, split.n_v_only, split.n_both)
        assert min(counts) > 0 and min(diss) < 0.0  # every breached term is live

    def test_clamp_activation_count(self):
        mesh, kin, eq, state, window = make_problem()
        wild = state.copy()
        wild.u[0] = 1e9  # far above the clamp cap
        wild.v[1] = 1e-9
        rec = bs.record(wild, mesh, kin, eq, window,
                        bs.power_law(1.0), bs.surface_cross_law(kin))
        assert rec.clamp_activations == 2

    def test_clamp_count_at_the_caps(self):
        # the caps are a closed interval: an entry on a cap is not moved, one
        # ulp outside it is
        mesh, kin, eq, state, window = make_problem()
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        for outward in (False, True):
            edge = state.copy()
            for c, (lo, hi) in ((edge.u, window.u_caps), (edge.v, window.v_caps)):
                c[:2] = (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)) if outward else (lo, hi)
            rec = bs.record(edge, mesh, kin, eq, window, *laws)
            assert rec.clamp_activations == (4 if outward else 0)

    def test_clamp_inert_inside_upper_envelope(self):
        # alpha > beta: v = 6 lies inside v's envelope (v/v_star)**beta <= 8,
        # so neither the envelope entropy nor the clamp sees it
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(1, 1, 1.0, 1.0, {"bottom"})
        eq = bs.Equilibrium(u_star=1.0, v_star=1.0, mass=13.0)
        window = bs.ClampWindow(lower=0.5, upper=8.0, u_star=1.0, v_star=1.0,
                                alpha=2.0, beta=1.0)
        state = bs.State(t=0.0, u=np.ones(mesh.n_bulk), v=np.full(mesh.n_surface, 6.0))
        rec = bs.record(state, mesh, kin, eq, window, bs.constant_law(1.0),
                        bs.constant_law(1.0))
        assert rec.envelope_entropy == 0.0
        assert rec.clamp_activations == 0

    def test_zero_entry_shows_as_zero_envelope_minimum(self):
        mesh, kin, eq, state, window = make_problem()
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        dry = state.copy()
        dry.u[3] = 0.0
        rec = bs.record(dry, mesh, kin, eq, window, *laws)
        assert rec.u_env_min == 0.0
        assert rec.diffusion_dissipation_bulk <= 1e-14
        dry.u[3] = -1e-3  # negative entries are still rejected
        with pytest.raises(ValueError):
            bs.record(dry, mesh, kin, eq, window, *laws)

    @pytest.mark.parametrize("alpha,beta", [(3.0, 2.0), (1.0, 2.0)], ids=["alpha3", "alpha1"])
    def test_huge_data_breaching_a_tight_window_reports_infinite_reaction_dissipation(
        self, alpha, beta
    ):
        # finite but huge data under a window far tighter than their own
        # envelope: the reaction dissipation, in units of u*^alpha, overflows
        # to -inf, with no warning and no raise.  With alpha 1 and beta 2 the
        # equilibrium's u* is near 1e200 and v* near 1e100
        kin = bs.Kinetics(k=1.0, kappa=1.0, alpha=alpha, beta=beta)
        mesh = bs.build_mesh(4, 4, 1.0, 1.0, {"bottom"})
        state = bs.State(t=0.0, u=np.full(mesh.n_bulk, 1e200), v=np.full(mesh.n_surface, 1e200))
        eq = bs.solve_equilibrium(kin, bs.weighted_mass(state, mesh, kin),
                                  mesh.total_bulk_measure, mesh.total_surface_measure)
        window = bs.ClampWindow(lower=0.5, upper=0.9, u_star=eq.u_star, v_star=eq.v_star,
                                alpha=alpha, beta=beta)
        rec = bs.record(state, mesh, kin, eq, window, bs.constant_law(1.0), bs.constant_law(1.0))
        assert max(rec.u_env_max, rec.v_env_max) > window.upper
        assert rec.reaction_dissipation == -math.inf

    def test_window_of_other_stars_is_rejected(self):
        # The envelope quantities read the window's stars and exponents, the
        # entropy eq's stars.  With u_star doubled, u[0] has pressure 2.25 on
        # eq's scale, above the window's upper 2.025, while on the window's
        # own scale it lies under it: a record would report no breach of the
        # data's envelope.  record refuses a window that is not eq's and kin's.
        kin = bs.Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
        mesh = bs.build_mesh(4, 4, 1.0, 1.0, {"bottom"})
        eq = bs.solve_equilibrium(kin, 5.0, mesh.total_bulk_measure, mesh.total_surface_measure)
        u = np.full(mesh.n_bulk, eq.u_star)
        u[0] *= 1.5
        state = bs.State(t=0.0, u=u, v=np.full(mesh.n_surface, eq.v_star))
        window = bs.window_from_initial_data(state.u, state.v, eq, kin)
        laws = (bs.power_law(1.0), bs.surface_cross_law(kin))
        assert bs.record(state, mesh, kin, eq, window, *laws).u_env_max == window.upper
        other = replace(window, upper=0.9 * window.upper, u_star=2 * window.u_star)
        with pytest.raises(ValueError, match="not those of eq and kin"):
            bs.record(state, mesh, kin, eq, other, *laws)
        for name in ("u_star", "v_star", "alpha", "beta"):
            off = replace(window, **{name: 1.5 * getattr(window, name)})
            with pytest.raises(ValueError, match="not those of eq and kin"):
                bs.record(state, mesh, kin, eq, off, *laws)


@pytest.mark.parametrize("face_average", bs.mesh.FACE_AVERAGES)
@pytest.mark.parametrize("edges", [{"bottom"}, {"bottom", "right"}, set(bs.mesh.EDGE_NAMES)],
                         ids=["open", "open-corner", "closed"])
@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    alpha=st.floats(1.0, 3.0),
    beta=st.floats(1.0, 3.0),
    kappa=st.floats(0.2, 5.0),
    cross=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(nx=1, ny=1, alpha=1.25, beta=1.9, kappa=1.875, cross=True, seed=8)
@example(nx=3, ny=3, alpha=2.986242556492236, beta=2.8550634947636615, kappa=2.5864247576363,
         cross=True, seed=567)  # where numpy's SIMD power and libm's pow differ by an ulp
@example(nx=2, ny=2, alpha=1.0, beta=1.0, kappa=4.0, cross=False,
         seed=3)  # a floor with kappa in it, kappa*(min v/v*)**beta, missed its data
def test_data_on_their_own_envelope_record_exact_zeros(
    face_average, edges, nx, ny, alpha, beta, kappa, cross, seed
):
    # the window built from the data puts their largest pressure exactly on
    # upper and their least exactly on lower, so no cell is outside its
    # envelopes and every envelope term is 0, not a round-off residue of
    # either sign
    kin = bs.Kinetics(k=1.0, kappa=kappa, alpha=alpha, beta=beta)
    mesh = bs.build_mesh(nx, ny, 1.0, 1.0, edges, face_average)
    rng = np.random.default_rng(seed)
    state = bs.State(t=0.0, u=rng.uniform(0.5, 2.0, mesh.n_bulk),
                     v=rng.uniform(0.5, 2.0, mesh.n_surface))
    eq = bs.solve_equilibrium(kin, bs.weighted_mass(state, mesh, kin),
                              mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.window_from_initial_data(state.u, state.v, eq, kin)
    laws = (bs.power_law(1.0), bs.surface_cross_law(kin) if cross
            else bs.power_law(1.0))
    rec = bs.record(state, mesh, kin, eq, window, *laws)
    assert max(rec.u_env_max, rec.v_env_max) == window.upper
    assert min(rec.u_env_min, rec.v_env_min) == window.lower
    assert rec.u_env_min >= window.lower and rec.v_env_min >= window.lower
    assert rec.envelope_entropy == 0.0
    assert rec.reaction_dissipation == 0.0
    assert (rec.diffusion_dissipation_bulk, rec.diffusion_dissipation_surface) == (0.0, 0.0)
    assert bs.envelope_entropy(state, mesh, window) == 0.0
    split = bs.reaction_dissipation_split(state, mesh, kin, window)
    assert (split.u_only, split.v_only, split.both, split.total) == (0.0,) * 4
    assert (split.n_u_only, split.n_v_only, split.n_both) == (0, 0, 0)
    assert _diffusion_dissipation(state, mesh, window, *laws) == (0.0, 0.0)


def _under_envelope(c, star, exponent, upper):
    """c cut to star*upper**(1/exponent), then stepped down until (c/star)**exponent <= upper."""
    c = np.minimum(c, star * upper ** (1 / exponent))
    while (over := (c / star) ** exponent > upper).any():
        c[over] = np.nextafter(c[over], 0.0)
    return c


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("face_average", bs.mesh.FACE_AVERAGES)
@pytest.mark.parametrize("edges", [{"bottom"}, {"left", "bottom"}, set(bs.mesh.EDGE_NAMES)],
                         ids=["open", "open-corner", "closed"])
@settings(max_examples=20, deadline=None)
@given(
    nx=st.integers(1, 5),
    ny=st.integers(1, 5),
    alpha=st.floats(1.0, 3.0),
    beta=st.floats(1.0, 3.0),
    bulk_law=st.sampled_from([bs.power_law(1.0), bs.exponential_law(0.4), bs.constant_law(1.3)]),
    cross=st.booleans(),
    below=st.booleans(),
    zeros=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_fields_are_the_functions_they_stand_for(
    face_average, edges, nx, ny, alpha, beta, bulk_law, cross, below, zeros, seed
):
    # record reads the stacked state in one pass; each field must still equal,
    # bit for bit, the function it stands for.  The pressures (c/star)**exponent
    # span 0.1 to 10 around the window [0.3, 3], so entries fall below the
    # lower clamp cap, above the upper one and above the upper envelope; with
    # below, every entry is cut to its envelope, at or under it in pressure
    # units, where the envelope terms must vanish.
    kin = bs.Kinetics(k=1.3, kappa=0.7, alpha=alpha, beta=beta)
    mesh = bs.build_mesh(nx, ny, 1.0, 1.3, edges, face_average)
    eq = bs.solve_equilibrium(kin, 3.0, mesh.total_bulk_measure, mesh.total_surface_measure)
    window = bs.ClampWindow(lower=0.3, upper=3.0, u_star=eq.u_star, v_star=eq.v_star,
                            alpha=alpha, beta=beta)
    surf_law = bs.surface_cross_law(kin) if cross else bs.power_law(1.0)
    rng = np.random.default_rng(seed)
    u = eq.u_star * (10.0 ** rng.uniform(-1, 1, mesh.n_bulk)) ** (1 / alpha)
    v = eq.v_star * (10.0 ** rng.uniform(-1, 1, mesh.n_surface)) ** (1 / beta)
    if below:
        u = _under_envelope(u, eq.u_star, alpha, window.upper)
        v = _under_envelope(v, eq.v_star, beta, window.upper)
    u[rng.integers(mesh.n_bulk, size=zeros)] = 0.0
    v[rng.integers(mesh.n_surface, size=zeros)] = 0.0
    state = bs.State(t=0.25, u=u, v=v)
    rec = bs.record(state, mesh, kin, eq, window, bulk_law, surf_law)

    split = bs.reaction_dissipation_split(state, mesh, kin, window)
    # the two dissipations face set by face set, on each part's own numbering
    tr = mesh.surf_to_bulk
    pots = envelope_potentials(u, v, window)
    mus = (bs.diffusion_coefficient(bulk_law, u, None, window),
           bs.diffusion_coefficient(surf_law, u[tr], v, window))
    diss = []
    for faces, x, mu, pot in zip(split_faces(mesh), (u, v), mus, pots):
        flux = face_flux(faces, x, mu)
        diss.append(-float(np.sum(flux * (pot[faces.cell_b] - pot[faces.cell_a]))) + 0.0)
    u_pos, v_pos = np.maximum(u, 0.0), np.maximum(v, 0.0)
    expected = {
        "t": 0.25,
        "mass": bs.weighted_mass(state, mesh, kin),
        "entropy": bs.relative_entropy(state, eq, mesh),
        "envelope_entropy": bs.envelope_entropy(state, mesh, window),
        "u_env_max": float(np.max((u_pos / eq.u_star) ** alpha)),
        "v_env_max": float(np.max((v_pos / eq.v_star) ** beta)),
        "u_env_min": float(np.min((u_pos / eq.u_star) ** alpha)),
        "v_env_min": float(np.min((v_pos / eq.v_star) ** beta)),
        "reaction_dissipation": -split.total + 0.0,
        "diffusion_dissipation_bulk": diss[0],
        "diffusion_dissipation_surface": diss[1],
    }
    for name, value in expected.items():
        assert _bits(getattr(rec, name)) == _bits(value), (name, getattr(rec, name), value)
    assert rec.clamp_activations == _outside_caps(u, v, window)



# Windows the acceptance blob breaches: (window from the blob's own, steps
# followed at most, whether the envelope must hold again by then).
BREACHES = {
    # the bulk lies above the halved upper envelope until the envelope holds
    "upper halved": (lambda w: replace(w, upper=w.upper / 2), 1000, True),
    # an envelope below the equilibrium's pressure 1: every cell, the surface
    # included, stays above it, so all three dissipations act
    "below equilibrium": (lambda w: replace(w, lower=0.5, upper=0.9), 200, False),
}


@pytest.mark.parametrize("dt_factor", [1, 10, 1000])
@pytest.mark.parametrize("breach", BREACHES)
def test_envelope_entropy_falls_by_its_dissipation_on_every_step(breach, dt_factor):
    # The paper's L-infinity mechanism, step by step.  E_L is convex, and its
    # gradient g is the excess potentials log(p/upper)/exponent weighted by
    # the cell measures, whose pairing with the rate F is the sum D of the
    # three dissipations the record reports.  So a backward-Euler step,
    # w1 = w0 + dt*F(w1) + R with R its Newton residual, satisfies
    #     E_L(w1) - E_L(w0) <= g(w1).(w1 - w0) = dt*D(w1) + g(w1).R,   D <= 0,
    # with |g(w1).R| <= ||g(w1)||_1 ||R||_inf.  Only theta = 1 is checked:
    # no proof covers theta < 1.
    make_window, max_steps, recovers = BREACHES[breach]
    p = blob_problem()
    window = make_window(p.window)
    cfg = replace(p.cfg, dt=p.cfg.dt * dt_factor)
    mesh, laws = p.mesh, (p.bulk_law, p.surf_law)
    state = p.state
    rec = bs.record(state, mesh, p.kin, p.eq, window, *laws)
    assert rec.envelope_entropy > 0.0
    lu = bs.NewtonLU()
    for _ in range(max_steps):
        new = bs.step(state, mesh, p.kin, *laws, window, cfg, lu=lu)
        new_rec = bs.record(new, mesh, p.kin, p.eq, window, *laws)
        du, dv = bs.total_rate(new, mesh, p.kin, *laws, window)
        residual = np.concatenate((new.u - state.u - cfg.dt * du, new.v - state.v - cfg.dt * dv))
        grad = mesh.faces.measure * np.concatenate(envelope_potentials(new.u, new.v, window))
        parts = (
            new_rec.reaction_dissipation,
            new_rec.diffusion_dissipation_bulk,
            new_rec.diffusion_dissipation_surface,
        )
        allowance = np.abs(grad).sum() * np.abs(residual).max()
        rise = new_rec.envelope_entropy - rec.envelope_entropy
        assert rise <= cfg.dt * sum(parts) + allowance, (new.t, rise, cfg.dt * sum(parts))
        assert max(parts) <= 0.0, (new.t, parts)
        state, rec = new, new_rec
        if rec.envelope_entropy == 0.0:
            break
    assert (rec.envelope_entropy == 0.0) == recovers
