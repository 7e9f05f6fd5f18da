import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulksurf import (
    ClampWindow,
    DiffusionLaw,
    Equilibrium,
    Kinetics,
    coefficient_bounds,
    constant_law,
    diffusion_coefficient,
    entropy_density,
    exponential_law,
    log_mean,
    potential_rate,
    power_law,
    rate,
    safe_rate,
    solve_equilibrium,
    surface_cross_law,
    window_from_initial_data,
)
from bulksurf.model import check_laws, coefficient_and_derivatives


def mass_function(kin, mass, omega, gamma):
    """The monotone mass function g(v), whose root is v*."""

    def g(v):
        return (
            kin.beta * omega * kin.kappa ** (1.0 / kin.alpha) * v ** (kin.beta / kin.alpha)
            + kin.alpha * gamma * v
            - mass
        )

    return g


def bisect_equilibrium(kin, mass, omega, gamma, lo=0.0, hi=None):
    """Independent oracle: plain bisection on the monotone mass function."""
    if hi is None:
        hi = mass / (kin.alpha * gamma)
    g = mass_function(kin, mass, omega, gamma)
    while g(hi) < 0:
        hi *= 2.0
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


class TestLogMean:
    def test_equal_arguments(self):
        assert log_mean(4.0, 4.0) == 4.0

    def test_near_the_largest_float(self):
        # no branch may overflow where a + b or 2 * lo would
        big = 1e308
        assert log_mean(big, big) == big
        assert log_mean(big, big * (1 - 1e-12)) == pytest.approx(big * (1 - 5e-13), rel=1e-15)

    def test_zero_argument(self):
        assert log_mean(1.0, 0.0) == 0.0
        assert log_mean(0.0, 3.0) == 0.0

    def test_unit_log_difference(self):
        # log(e) - log(1) = 1, so the mean is e - 1
        assert log_mean(math.e, 1.0) == pytest.approx(1.718281828459045, rel=1e-14)

    def test_rejects_negative(self):
        # negative, NaN and infinite arguments, in either slot and in arrays
        for bad in (-1.0, math.nan, math.inf):
            for a, b in ((bad, 2.0), (2.0, bad), (np.array([1.0, bad]), np.ones(2))):
                with pytest.raises(ValueError):
                    log_mean(a, b)

    def test_bounds_between_geometric_and_arithmetic(self):
        rng = np.random.default_rng(3)
        a = 10.0 ** rng.uniform(-6, 6, size=100_000)
        b = 10.0 ** rng.uniform(-6, 6, size=100_000)
        lam = log_mean(a, b)
        gm = np.sqrt(a * b)
        am = 0.5 * (a + b)
        # mathematical inequalities, allowing a couple of ulps of rounding
        assert np.all(gm <= lam * (1 + 4e-16))
        assert np.all(lam <= am * (1 + 4e-16))

    def test_symmetry_and_homogeneity(self):
        rng = np.random.default_rng(4)
        a = 10.0 ** rng.uniform(-3, 3, size=10_000)
        b = 10.0 ** rng.uniform(-3, 3, size=10_000)
        t = 10.0 ** rng.uniform(-2, 2, size=10_000)
        np.testing.assert_allclose(log_mean(a, b), log_mean(b, a), rtol=1e-14)
        np.testing.assert_allclose(log_mean(t * a, t * b), t * log_mean(a, b), rtol=1e-13)

    def test_ridge_continuity(self):
        rng = np.random.default_rng(5)
        a = 10.0 ** rng.uniform(-3, 3, size=1000)
        for side in (1 + 1e-9, 1 - 1e-9):
            lam = log_mean(a, a * side)
            assert np.all(np.abs(lam - a) <= 1e-8 * a)

    def test_matches_high_precision_oracle_across_ridge_threshold(self):
        # reference computed in 50-digit decimal arithmetic; spans both branches
        from decimal import Decimal, getcontext

        getcontext().prec = 50
        a = 1.7
        for eps in (3e-9, 1e-8, 3e-8, 1e-7, 1e-3, 0.5, 20.0):
            b = a * (1 + eps)
            da, db = Decimal(a), Decimal(b)
            exact = float((da - db) / (da.ln() - db.ln()))
            assert log_mean(a, b) == pytest.approx(exact, rel=1e-13)
            assert log_mean(b, a) == pytest.approx(exact, rel=1e-13)


class TestRate:
    def test_equilibrium_annihilates(self):
        kin = Kinetics(k=2.0, kappa=0.5, alpha=2.0, beta=3.0)
        v_star = 1.3
        u_star = (kin.kappa * v_star**kin.beta) ** (1.0 / kin.alpha)
        assert rate(u_star, v_star, kin) == pytest.approx(0.0, abs=1e-15)

    def test_linear_case(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        assert rate(2.0, 1.0, kin) == 1.0

    def test_scalar_evaluation(self):
        kin = Kinetics(k=2.0, kappa=0.5, alpha=2.0, beta=3.0)
        # 2 * (1.5**2 - 0.5 * 0.7**3) = 2 * (2.25 - 0.1715)
        assert rate(1.5, 0.7, kin) == pytest.approx(4.157, rel=1e-12)

    def test_safe_rate_guards_nonpositive(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.5, beta=1.0)
        assert safe_rate(-0.1, 1.0, kin) == 0.0
        assert safe_rate(1.0, 0.0, kin) == 0.0
        assert safe_rate(0.0, 0.0, kin) == 0.0

    def test_safe_rate_agrees_on_positive_quadrant(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        assert safe_rate(2.0, 1.0, kin) == 1.0

    def test_safe_rate_vectorized(self):
        kin = Kinetics(k=1.0, kappa=2.0, alpha=2.0, beta=1.0)
        u = np.array([1.0, -1.0, 2.0])
        v = np.array([1.0, 1.0, 0.0])
        np.testing.assert_allclose(safe_rate(u, v, kin), [-1.0, 0.0, 0.0])


class TestPotentialRate:
    def test_vanishes_at_equilibrium(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        eq = solve_equilibrium(kin, 3.0, 1.0, 1.0)
        assert potential_rate(eq.u_star, eq.v_star, kin, eq) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        eq = Equilibrium(u_star=1.0, v_star=1.0, mass=2.0)
        # LogMean(2,1) * log(2) = (1/log 2) * log 2 = 1
        assert potential_rate(2.0, 1.0, kin, eq) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        eq = Equilibrium(u_star=1.0, v_star=1.0, mass=2.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                potential_rate(bad, 1.0, kin, eq)
            with pytest.raises(ValueError):
                potential_rate(1.0, bad, kin, eq)

    def test_identity_with_power_form(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            kin = Kinetics(
                k=10.0 ** rng.uniform(-1, 1),
                kappa=10.0 ** rng.uniform(-1, 1),
                alpha=rng.uniform(1, 4),
                beta=rng.uniform(1, 4),
            )
            v_star = 10.0 ** rng.uniform(-0.5, 0.5)
            u_star = (kin.kappa * v_star**kin.beta) ** (1.0 / kin.alpha)
            eq = Equilibrium(u_star=u_star, v_star=v_star, mass=1.0)
            u = 10.0 ** rng.uniform(-1, 0.3, size=2000)
            v = 10.0 ** rng.uniform(-1, 0.3, size=2000)
            direct = rate(u, v, kin)
            potential = potential_rate(u, v, kin, eq)
            assert np.all(np.abs(direct - potential) <= 1e-12 * np.maximum(1.0, np.abs(direct)))


class TestClamp:
    def window(self, lower=0.5, upper=4.0, u_star=1.0, v_star=1.0, alpha=2.0, beta=1.0, **kw):
        return ClampWindow(lower=lower, upper=upper, u_star=u_star, v_star=v_star,
                           alpha=alpha, beta=beta, **kw)

    @staticmethod
    def clamped(u, v, win):
        """The clamped diffusion-law arguments (u_hat, v_hat), or v_hat None without v.

        A power law of exponent 1 returns its clamped argument itself, in
        the bulk slot for u and in the surface slot for v.
        """
        u_hat = diffusion_coefficient(power_law(1.0), u, None, win)
        if v is None:
            return u_hat, None
        return u_hat, diffusion_coefficient(power_law(1.0), None, v, win)

    def test_interior_unchanged(self):
        win = self.window()
        u = win.u_star * win.upper ** (1.0 / win.alpha)  # pressure exactly at upper
        v = win.v_star * win.upper ** (1.0 / win.beta)
        assert ((u / win.u_star) ** win.alpha, (v / win.v_star) ** win.beta) == (win.upper,) * 2
        assert self.clamped(u, v, win) == (u, v)

    def test_zero_maps_to_lower_cap(self):
        win = self.window()
        u_hat, _ = self.clamped(0.0, None, win)
        assert u_hat == pytest.approx(win.u_star * (win.lower / 2) ** (1 / win.alpha), rel=1e-15)

    def test_far_above_maps_to_upper_cap(self):
        win = self.window()
        u = win.u_star * (4 * win.upper) ** (1.0 / win.alpha)
        u_hat, _ = self.clamped(u, None, win)
        assert u_hat == pytest.approx(win.u_star * (2 * win.upper) ** (1 / win.alpha), rel=1e-15)

    def test_negative_input_is_capped_without_power_evaluation(self):
        win = self.window(alpha=1.5)  # fractional exponent
        u_hat, v_hat = self.clamped(np.array([-3.0]), np.array([-1.0]), win)
        assert np.all(u_hat > 0) and np.all(v_hat > 0)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1.0, 4.0),
        beta=st.floats(1.0, 4.0),
        u_star=st.floats(0.1, 10.0),
        v_star=st.floats(0.1, 10.0),
        lower=st.floats(0.0, 1.0, exclude_min=True),
        upper=st.floats(1.0, 100.0),
        t=st.floats(0.0, 1.0),
    )
    def test_caps_contain_the_envelope_on_each_scale(self, alpha, beta, u_star, v_star,
                                                      lower, upper, t):
        # u on (u/u_star)**alpha and v on (v/v_star)**beta: every concentration
        # between the lower and the upper envelope passes the clamp unchanged
        win = self.window(lower=lower, upper=upper, u_star=u_star, v_star=v_star,
                          alpha=alpha, beta=beta)
        inside = []
        for caps, star, exponent in ((win.u_caps, u_star, alpha), (win.v_caps, v_star, beta)):
            lo = star * lower ** (1.0 / exponent)
            hi = star * upper ** (1.0 / exponent)
            assert caps[0] <= lo and hi <= caps[1]
            inside.append(np.array([lo, min(max(lo + t * (hi - lo), lo), hi), hi]))
        u_hat, v_hat = self.clamped(*inside, win)
        assert np.array_equal(u_hat, inside[0]) and np.array_equal(v_hat, inside[1])

    def test_rejects_bad_window(self):
        nan = float("nan")
        for bad in (dict(u_star=nan), dict(v_star=nan), dict(alpha=nan), dict(alpha=0.0),
                    dict(beta=float("inf")), dict(upper=float("inf")), dict(lower=nan)):
            with pytest.raises(ValueError):
                self.window(**bad)

    def test_window_from_initial_data(self):
        kin = Kinetics(k=1.0, kappa=0.5, alpha=2.0, beta=1.0)
        eq = Equilibrium(u_star=1.0, v_star=2.0, mass=5.0)
        u0 = np.array([0.8, 1.0, 1.5])
        v0 = np.array([1.6, 2.0, 2.4])
        win = window_from_initial_data(u0, v0, eq, kin)
        assert win.lower == pytest.approx(min(0.8**2, 0.8))
        assert win.upper == pytest.approx(max(1.5**2, 1.2))
        with pytest.raises(ValueError):
            window_from_initial_data(np.array([0.0, 1.0]), v0, eq, kin)


_KIN = Kinetics(k=1.5, kappa=0.5, alpha=2.0, beta=1.0)
_WINDOW = ClampWindow(lower=0.5, upper=50.0, u_star=1.0, v_star=1.0, alpha=2.0, beta=1.0)
_PUBLIC_OF_ONE_ARRAY = {
    "log_mean": lambda x: log_mean(x, 2.0),
    "entropy_density": entropy_density,
    "safe_rate": lambda x: safe_rate(x, x, _KIN),
    "diffusion_coefficient": lambda x: diffusion_coefficient(power_law(1.0), x, None, _WINDOW),
    "rate": lambda x: rate(x, x, _KIN),
    "potential_rate": lambda x: potential_rate(x, x, _KIN, Equilibrium(1.0, 2.0, 3.0)),
}


@pytest.mark.parametrize("name", list(_PUBLIC_OF_ONE_ARRAY))
@pytest.mark.parametrize(
    "make", [float, np.float64, np.array, lambda x: np.array([x])],
    ids=["float", "float64", "0d", "1d"],
)
def test_a_0d_result_is_a_python_float(name, make):
    out = _PUBLIC_OF_ONE_ARRAY[name](make(1.3))
    if np.ndim(make(1.3)):
        assert isinstance(out, np.ndarray) and out.shape == (1,)
        assert out[0] == pytest.approx(_PUBLIC_OF_ONE_ARRAY[name](1.3), rel=1e-15)
    else:
        assert type(out) is float


class TestDiffusionLaws:
    def window(self):
        return ClampWindow(lower=0.5, upper=50.0, u_star=1.0, v_star=1.0, alpha=1.0, beta=1.0)

    def test_power_zero_is_one(self):
        win = self.window()
        assert diffusion_coefficient(power_law(0.0), 0.7, None, win) == 1.0

    def test_power_square(self):
        win = self.window()
        assert diffusion_coefficient(power_law(2.0), 3.0, None, win) == pytest.approx(9.0)

    def test_surface_cross_half(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        win = self.window()
        law = surface_cross_law(kin)
        assert diffusion_coefficient(law, 1.0, 1.0, win) == pytest.approx(0.5)
        # the law holds no exponent: two windows that differ only in alpha
        # give v / (alpha*u + beta*v), and its derivatives, with their own alpha
        u, v = 0.9, 1.2
        for alpha in (1.0, 3.0):
            mu, dmu_du, dmu_dv = coefficient_and_derivatives(law, u, v, replace(win, alpha=alpha))
            den = alpha * u + 1.0 * v
            assert (mu, dmu_du, dmu_dv) == (v / den, -alpha * v / den**2, alpha * u / den**2)
        with pytest.raises(TypeError):
            DiffusionLaw("surface_cross", alpha=2.0)

    def test_single_argument_surface_law_uses_surface_value(self):
        win = self.window()
        law = power_law(1.0)
        assert diffusion_coefficient(law, 100.0, 3.0, win) == pytest.approx(3.0)

    def test_surface_cross_in_the_bulk_slot_raises(self):
        # v None is the bulk slot, where surface_cross has no surface value to read
        from bulksurf.model import coefficient_and_derivatives

        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        u = np.array([1.0, 2.0])
        for evaluate in (diffusion_coefficient, coefficient_and_derivatives):
            with pytest.raises(ValueError, match="bulk law slot"):
                evaluate(surface_cross_law(kin), u, None, self.window())

    def test_surface_law_without_surface_value_raises(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        win = self.window()
        u = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="surface concentration"):
            diffusion_coefficient(surface_cross_law(kin), u, None, win)

    def test_single_argument_law_bounds_are_the_bulk_slot_extrema(self):
        win = ClampWindow(lower=0.3, upper=6.0, u_star=1.2, v_star=0.8, alpha=2.0, beta=1.5)
        assert win.u_caps != win.v_caps
        assert coefficient_bounds(power_law(1.0), win) == win.u_caps
        assert coefficient_bounds(power_law(-1.0), win) == (1 / win.u_caps[1], 1 / win.u_caps[0])

    def test_check_laws_reads_the_caps_of_each_slot(self):
        # exp(c) is bounded on u_caps = (0.25, 4) and overflows on v_caps = (250, 4000)
        win = ClampWindow(lower=0.5, upper=2.0, u_star=1.0, v_star=1e3, alpha=1.0, beta=1.0)
        law = exponential_law(1.0)
        check_laws(law, constant_law(1.0), win)
        assert coefficient_bounds(law, win) == pytest.approx((math.exp(0.25), math.exp(4.0)))
        with pytest.raises(ValueError, match="bad value for surface_law: DiffusionLaw"):
            check_laws(constant_law(1.0), law, win)
        # the same law in both slots, and surface_cross on the cap box, pass when bounded
        check_laws(power_law(1.0), power_law(1.0), win)
        check_laws(power_law(1.0), surface_cross_law(Kinetics(1.0, 1.0, 1.0, 1.0)), win)
        with pytest.raises(ValueError, match="bad value for bulk_law"):
            check_laws(exponential_law(-1000.0), power_law(1.0), win)  # underflows to 0

    def test_constant_law_positive(self):
        with pytest.raises(ValueError):
            constant_law(0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                constant_law(bad)
            with pytest.raises(ValueError):
                power_law(bad)

    @pytest.mark.parametrize(
        "law",
        [
            power_law(1.5),
            power_law(-0.5),
            exponential_law(0.7),
            exponential_law(-0.3),
            constant_law(2.5),
        ],
    )
    def test_clamped_ellipticity_bulk(self, law):
        win = ClampWindow(lower=0.3, upper=6.0, u_star=1.2, v_star=0.8, alpha=2.0, beta=1.5)
        lo, hi = coefficient_bounds(law, win)
        assert 0 < lo <= hi < np.inf
        rng = np.random.default_rng(17)
        u = rng.uniform(-10, 10, size=1_000_000)
        mu = diffusion_coefficient(law, u, None, win)
        assert np.all(mu >= lo * (1 - 1e-12))
        assert np.all(mu <= hi * (1 + 1e-12))

    def test_clamped_ellipticity_surface_cross(self):
        kin = Kinetics(k=1.0, kappa=2.0, alpha=2.0, beta=1.0)
        win = ClampWindow(lower=0.3, upper=6.0, u_star=1.2, v_star=0.8, alpha=2.0, beta=1.0)
        law = surface_cross_law(kin)
        lo, hi = coefficient_bounds(law, win)
        rng = np.random.default_rng(19)
        u = rng.uniform(-10, 10, size=1_000_000)
        v = rng.uniform(-10, 10, size=1_000_000)
        mu = diffusion_coefficient(law, u, v, win)
        assert np.all(mu >= lo * (1 - 1e-12))
        assert np.all(mu <= hi * (1 + 1e-12))


def equilibrium_draws():
    """200 seeded (kin, mass, |Omega|, |Gamma|) draws."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        kin = Kinetics(
            k=1.0,
            kappa=10.0 ** rng.uniform(-1, 1),
            alpha=rng.uniform(1, 4),
            beta=rng.uniform(1, 4),
        )
        mass = rng.uniform(0.01, 100.0)
        omega = rng.uniform(0.1, 10.0)
        gamma = rng.uniform(0.1, 10.0)
        yield kin, mass, omega, gamma


# (alpha, beta, mass) whose v* lies far from mass/(alpha*|Gamma|)
EXTREME_MASSES = [(1, 2, 1e150), (1, 3, 1e100), (1, 2, 1e200)]


class TestEquilibrium:
    def test_symmetric_linear_case(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        eq = solve_equilibrium(kin, 2.0, 1.0, 1.0)
        assert eq.u_star == pytest.approx(1.0, rel=1e-12)
        assert eq.v_star == pytest.approx(1.0, rel=1e-12)

    def test_quadratic_case(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        eq = solve_equilibrium(kin, 3.0, 1.0, 1.0)
        assert eq.u_star == pytest.approx(1.0, rel=1e-12)
        assert eq.v_star == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_mass(self):
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            solve_equilibrium(kin, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_equilibrium(kin, -1.0, 1.0, 1.0)
        for mass in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                solve_equilibrium(kin, mass, 1.0, 1.0)

    def test_matches_bisection_oracle(self):
        for kin, mass, omega, gamma in equilibrium_draws():
            eq = solve_equilibrium(kin, mass, omega, gamma)
            v_ref = bisect_equilibrium(kin, mass, omega, gamma)
            assert abs(eq.v_star - v_ref) <= 1e-10 * max(1.0, v_ref)
            mass_residual = kin.beta * omega * eq.u_star + kin.alpha * gamma * eq.v_star - mass
            assert abs(mass_residual) <= 1e-12 * mass
            p, q = eq.u_star**kin.alpha, kin.kappa * eq.v_star**kin.beta
            assert abs(p - q) <= 1e-12 * max(p, q)

    def test_lands_on_the_sign_change_of_g(self):
        # v* is a float next to the root: g(v* - 1 ulp) <= 0 < g(v* + 1 ulp)
        extreme = [(Kinetics(1.0, 1.0, a, b), mass, 1.0, 1.0) for a, b, mass in EXTREME_MASSES]
        for args in [*equilibrium_draws(), *extreme]:
            v_star = solve_equilibrium(*args).v_star
            g = mass_function(*args)
            assert g(math.nextafter(v_star, 0.0)) <= 0 < g(math.nextafter(v_star, math.inf)), args

    def test_numpy_scalar_inputs_give_the_same_equilibrium_without_warnings(self):
        # g is evaluated at the largest float, where numpy's ** would warn of overflow
        values = (1.0, 2.0, 1.0, 2.0, 7.0, 2.0, 0.5)  # k, kappa, alpha, beta, mass, |Omega|, |Gamma|
        eq = solve_equilibrium(Kinetics(*values[:4]), *values[4:])
        numpy_values = [np.float64(x) for x in values]
        assert solve_equilibrium(Kinetics(*numpy_values[:4]), *numpy_values[4:]) == eq

    @pytest.mark.parametrize("alpha,beta,mass", EXTREME_MASSES)
    def test_extreme_mass_meets_both_relations(self, alpha, beta, mass):
        # v* ~ mass**(alpha/beta) lies far below mass/(alpha*|Gamma|), and at
        # 1e200 v**(beta/alpha) overflows on much of the float range
        kin = Kinetics(k=1.0, kappa=1.0, alpha=alpha, beta=beta)
        eq = solve_equilibrium(kin, mass, 1.0, 1.0)
        assert abs(beta * eq.u_star + alpha * eq.v_star - mass) <= 1e-14 * mass
        p, q = eq.u_star**alpha, kin.kappa * eq.v_star**beta
        assert abs(p - q) <= 1e-14 * max(p, q)

    def test_tiny_surface_meets_both_relations(self):
        # mass/(alpha*|Gamma|) overflows, yet v* ~ 1e300 is a float
        kin = Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=1.0)
        mass, gamma = 1e300, 1e-10
        eq = solve_equilibrium(kin, mass, 1.0, gamma)
        assert abs(eq.u_star + gamma * eq.v_star - mass) <= 1e-14 * mass
        assert abs(eq.u_star - eq.v_star) <= 1e-14 * eq.u_star
        # for alpha 2 at |Gamma| 1e-300, v* ~ 5e599 lies above the largest float
        kin = Kinetics(k=1.0, kappa=1.0, alpha=2.0, beta=1.0)
        with pytest.raises(ValueError, match="v_star lies above the largest float"):
            solve_equilibrium(kin, mass, 1.0, 1e-300)

    @pytest.mark.parametrize("alpha,beta,name", [(2, 1, "v_star"), (1, 2, "u_star")])
    def test_equilibrium_below_the_normal_floats_is_rejected(self, alpha, beta, name):
        # at mass 1e-300, v* ~ 1e-600 for alpha 2, beta 1, and u* ~ 1e-600 for
        # alpha 1, beta 2: neither is a float
        kin = Kinetics(k=1.0, kappa=1.0, alpha=alpha, beta=beta)
        with pytest.raises(ValueError, match=f"{name} = 0.0 is not a positive normal float"):
            solve_equilibrium(kin, 1e-300, 1.0, 1.0)

    def test_equilibrium_u_star_above_the_floats_is_rejected(self):
        # v* ~ 1e290 is a float, and u* = kappa * v* ~ 1e310 is not
        kin = Kinetics(k=1.0, kappa=1e20, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match="u_star = inf is not a positive normal float"):
            solve_equilibrium(kin, 1e300, 1e-10, 1.0)

    def test_uniqueness_from_different_brackets(self):
        kin = Kinetics(k=1.0, kappa=3.0, alpha=2.5, beta=1.5)
        mass, omega, gamma = 7.0, 2.0, 0.5
        v1 = bisect_equilibrium(kin, mass, omega, gamma)
        v2 = bisect_equilibrium(kin, mass, omega, gamma, lo=1e-6, hi=50 * mass / (kin.alpha * gamma))
        assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)


class TestKineticsValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Kinetics(k=0.0, kappa=1.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            Kinetics(k=1.0, kappa=-1.0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            Kinetics(k=1.0, kappa=1.0, alpha=0.5, beta=1.0)
        with pytest.raises(ValueError):
            Kinetics(k=1.0, kappa=1.0, alpha=1.0, beta=0.99)
        nan, inf = float("nan"), float("inf")
        for bad in (dict(k=nan), dict(k=inf), dict(alpha=nan), dict(kappa=nan), dict(beta=inf)):
            with pytest.raises(ValueError):
                Kinetics(**{**dict(k=1.0, kappa=1.0, alpha=1.0, beta=1.0), **bad})
