"""Kinetics, nonlinear diffusion laws, clamped coefficients and the equilibrium solver.

The reversible surface reaction follows mass-action kinetics with rate density

    f(u, v) = k * (u**alpha - kappa * v**beta),

which, for positive concentrations, can equivalently be written through the
logarithmic mean of the two "pressures" a = u**alpha and b = kappa * v**beta:

    f(u, v) = k * LogMean(a, b) * (alpha*log(u/u_star) - beta*log(v/v_star)),

the form that exposes the entropy-producing structure of the reaction.  The
unique positive equilibrium (u_star, v_star) of a given conserved mass m
solves the pair

    m = beta*|Omega|*u_star + alpha*|Gamma|*v_star,
    u_star**alpha = kappa * v_star**beta.

Diffusion coefficients are always evaluated at concentrations clamped to a
window around the equilibrium, which keeps them uniformly bounded and elliptic
no matter what a nonlinear solver iterate looks like; in a healthy run the
clamp never activates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LOG_MEAN_RIDGE = 1e-8  # switch to the series expansion when |a-b| <= ridge*max(a,b)
_BISECTION_TOL = 1e-15  # equilibrium bisection stops at this relative bracket width

BULK_KINDS = ("power", "exponential", "constant")
SURFACE_KINDS = BULK_KINDS + ("surface_cross",)


def _finite(*values) -> bool:
    return all(math.isfinite(x) for x in values)


@dataclass(frozen=True)
class Kinetics:
    """Mass-action reaction parameters.

    k : forward rate constant (> 0)
    kappa : backward-to-forward rate ratio (> 0)
    alpha : bulk stoichiometric exponent (>= 1)
    beta : surface stoichiometric exponent (>= 1)
    """

    k: float
    kappa: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (_finite(self.k, self.kappa) and self.k > 0 and self.kappa > 0):
            raise ValueError(f"need finite k > 0 and kappa > 0, got k={self.k}, kappa={self.kappa}")
        if not (_finite(self.alpha, self.beta) and self.alpha >= 1 and self.beta >= 1):
            raise ValueError(
                f"need finite exponents alpha, beta >= 1, got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class Equilibrium:
    """Positive equilibrium pair and the conserved weighted mass it realizes."""

    u_star: float
    v_star: float
    mass: float


@dataclass(frozen=True)
class DiffusionLaw:
    """One diffusion coefficient: a named nonlinearity plus its parameter.

    kind : "power" (c -> c**param), "exponential" (c -> exp(param*c)),
           "constant" (-> param), or "surface_cross"
           ((u, v) -> v / (alpha*u + beta*v)).
    role : "bulk" (argument is the bulk concentration) or "surface".
           Single-argument surface laws act on the surface concentration;
           "surface_cross" uses the bulk trace and the surface value and is
           only meaningful in the surface role.
    """

    kind: str
    param: float = 0.0
    role: str = "bulk"
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.role not in ("bulk", "surface"):
            raise ValueError(f"role must be 'bulk' or 'surface', got {self.role!r}")
        allowed = SURFACE_KINDS if self.role == "surface" else BULK_KINDS
        if self.kind not in allowed:
            raise ValueError(f"{self.kind!r} is not a valid {self.role} diffusion law")
        if not _finite(self.param, self.alpha, self.beta):
            raise ValueError(f"diffusion law parameters must be finite, got {self}")
        if self.kind == "constant" and self.param <= 0:
            raise ValueError(f"constant diffusion coefficient must be positive, got {self.param}")
        if self.kind == "surface_cross" and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("surface_cross requires positive alpha and beta")


def check_role(law: DiffusionLaw, role: str) -> None:
    """Raise ValueError unless law has the role ("bulk" or "surface") of the slot it fills."""
    if law.role != role:
        raise ValueError(f"the {role} law slot needs a {role}-role law, got {law}")


def power_law(gamma: float, role: str = "bulk") -> DiffusionLaw:
    return DiffusionLaw(kind="power", param=gamma, role=role)


def exponential_law(delta: float, role: str = "bulk") -> DiffusionLaw:
    return DiffusionLaw(kind="exponential", param=delta, role=role)


def constant_law(value: float, role: str = "bulk") -> DiffusionLaw:
    return DiffusionLaw(kind="constant", param=value, role=role)


def surface_cross_law(kin: Kinetics) -> DiffusionLaw:
    """Cross-diffusion coefficient v / (alpha*u + beta*v) on the surface."""
    return DiffusionLaw(kind="surface_cross", role="surface", alpha=kin.alpha, beta=kin.beta)


@dataclass(frozen=True)
class ClampWindow:
    """Envelope window (lower, upper), read on each field's own scale.

    u is measured by the normalized pressure (u/u_star)**alpha and v by
    (v/v_star)**beta.  Concentrations fed to diffusion laws are clamped so
    that this pressure stays in [lower/2, 2*upper]; ``u_caps`` and ``v_caps``
    hold the matching concentration bounds.  The pressure range of the caps
    contains [lower, upper] for every alpha and beta, so the clamp is inert
    wherever the upper envelope (c/star)**exponent <= upper holds.
    """

    lower: float
    upper: float
    u_star: float
    v_star: float
    alpha: float
    beta: float
    # (lowest, highest) clamped concentration of u and of v, set at construction
    u_caps: tuple[float, float] = field(init=False, repr=False, compare=False)
    v_caps: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.lower <= self.upper < math.inf):
            raise ValueError(f"need 0 < lower <= upper < inf, got ({self.lower}, {self.upper})")
        refs = (self.u_star, self.v_star, self.alpha, self.beta)
        if not (_finite(*refs) and min(refs) > 0):
            raise ValueError(f"need finite positive u_star, v_star, alpha, beta, got {refs}")
        for name, star, exponent in (("u", self.u_star, self.alpha), ("v", self.v_star, self.beta)):
            lo = star * (0.5 * self.lower) ** (1.0 / exponent)
            hi = star * (2.0 * self.upper) ** (1.0 / exponent)
            object.__setattr__(self, f"{name}_caps", (lo, hi))


def window_from_initial_data(
    u0: np.ndarray,
    v0: np.ndarray,
    eq: Equilibrium,
    kin: Kinetics,
) -> ClampWindow:
    """Envelope window implied by strictly positive initial data.

    With c_u = min(u0)/u_star and c_v = min(v0)/v_star,

        lower = min(c_u**alpha, kappa * c_v**beta),
        upper = max of the pressures (u0/u_star)**alpha and (v0/v_star)**beta,

    upper by the array arithmetic of record's u_env_max and v_env_max, so
    the data lie on their own envelope to the bit.  The window takes u_star,
    v_star from eq and alpha, beta from kin.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.size == 0 or v0.size == 0:
        raise ValueError("initial data must be nonempty")
    if np.min(u0) <= 0 or np.min(v0) <= 0:
        raise ValueError("initial data must be strictly positive")
    c_u = float(np.min(u0)) / eq.u_star
    c_v = float(np.min(v0)) / eq.v_star
    lower = min(c_u**kin.alpha, kin.kappa * c_v**kin.beta)
    upper = float(max(((u0 / eq.u_star) ** kin.alpha).max(), ((v0 / eq.v_star) ** kin.beta).max()))
    return ClampWindow(
        lower=lower, upper=upper, u_star=eq.u_star, v_star=eq.v_star, alpha=kin.alpha, beta=kin.beta
    )


def log_mean(a, b):
    """Logarithmic mean: (a-b)/(log a - log b), 0 if either argument is 0, a if a=b.

    Evaluated branchwise for uniform accuracy (a few ulps everywhere):

    * ridge, |a-b| <= 1e-8*max(a,b): the quotient cancels catastrophically,
      so use the expansion around the midpoint mbar = (a+b)/2 with
      r = (a-b)/(a+b):  LogMean = mbar * (1 - r**2/3 - 4*r**4/45 + O(r**6));
    * ratio at most 2: hi - lo is exact there, so (hi-lo)/log1p((hi-lo)/lo)
      carries no cancellation;
    * far apart: the plain quotient (hi-lo)/(log hi - log lo) is benign.

    Accepts scalars or arrays; negative, infinite or NaN input is rejected.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if not (np.all((a_arr >= 0) & (a_arr < np.inf)) and np.all((b_arr >= 0) & (b_arr < np.inf))):
        raise ValueError("log_mean requires finite nonnegative arguments")
    hi = np.maximum(a_arr, b_arr)
    lo = np.minimum(a_arr, b_arr)
    zero = lo == 0
    diff = hi - lo
    near = diff <= _LOG_MEAN_RIDGE * hi

    s = a_arr + b_arr
    r = np.where(s > 0, diff / np.where(s > 0, s, 1.0), 0.0)
    r2 = r * r
    series = 0.5 * s * (1.0 - r2 / 3.0 - 4.0 * r2 * r2 / 45.0)

    lo_safe = np.where(zero | near, 1.0, lo)
    hi_safe = np.where(zero | near, 2.0, hi)
    diff_safe = hi_safe - lo_safe
    close = hi_safe <= 2.0 * lo_safe
    ratio = diff_safe / np.where(close, lo_safe, 1.0)  # guarded against overflow
    denom = np.where(
        close,
        np.log1p(ratio),
        np.log(hi_safe) - np.log(lo_safe),
    )
    quot = diff_safe / denom

    out = np.where(zero, 0.0, np.where(near, series, quot))
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out


def rate(u, v, kin: Kinetics):
    """Mass-action rate density k*(u**alpha - kappa*v**beta) for nonnegative u, v.

    Negative arguments with fractional exponents are undefined here; use
    safe_rate for a total function.
    """
    return kin.k * (u**kin.alpha - kin.kappa * v**kin.beta)


def _positive_quadrant(u, v):
    """Mask of u > 0 and v > 0, and u, v with 1 outside it, where any power is defined."""
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    pos = (u_arr > 0) & (v_arr > 0)
    return pos, np.where(pos, u_arr, 1.0), np.where(pos, v_arr, 1.0)


def safe_rate(u, v, kin: Kinetics):
    """Rate guarded on the closed positive quadrant: 0 whenever u <= 0 or v <= 0.

    Two scalars give a float, anything else an array.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    pos = (u_arr > 0) & (v_arr > 0)
    if pos.all():
        out = rate(u_arr, v_arr, kin)
    else:
        out = np.where(pos, rate(np.where(pos, u_arr, 1.0), np.where(pos, v_arr, 1.0), kin), 0.0)
    return out if out.ndim else float(out)


def safe_rate_derivatives(u, v, kin: Kinetics):
    """Partial derivatives (d/du, d/dv) of safe_rate, 0 wherever the guard holds it at 0."""
    pos, u_safe, v_safe = _positive_quadrant(u, v)
    dr_du = np.where(pos, kin.k * kin.alpha * u_safe ** (kin.alpha - 1.0), 0.0)
    dr_dv = np.where(pos, -kin.k * kin.kappa * kin.beta * v_safe ** (kin.beta - 1.0), 0.0)
    return dr_du, dr_dv


def potential_rate(u, v, kin: Kinetics, eq: Equilibrium):
    """Rate in chemical-potential form, valid for strictly positive u, v:

        k * LogMean(u**alpha, kappa*v**beta)
          * (alpha*log(u/u_star) - beta*log(v/v_star)).

    Agrees with rate(u, v) to high relative accuracy; the two evaluations are
    kept independent so the identity can be tested.  Nonpositive, infinite
    or NaN input is rejected.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if not (np.all((u_arr > 0) & (u_arr < np.inf)) and np.all((v_arr > 0) & (v_arr < np.inf))):
        raise ValueError("potential_rate requires finite strictly positive concentrations")
    lam = log_mean(u_arr**kin.alpha, kin.kappa * v_arr**kin.beta)
    pot = kin.alpha * np.log(u_arr / eq.u_star) - kin.beta * np.log(v_arr / eq.v_star)
    out = kin.k * lam * pot
    if np.isscalar(u) and np.isscalar(v):
        return float(out)
    return out


def _clip(c, caps):
    """c as a float array, clipped into the closed interval caps = (lo, hi)."""
    return np.minimum(np.maximum(np.asarray(c, dtype=float), caps[0]), caps[1])


def clamp_state(u, v, window: ClampWindow):
    """Clamped pair (u_hat, v_hat) used as diffusion-law arguments.

    Each concentration is clamped so that its normalized pressure lies in
    [lower/2, 2*upper].  Nonpositive input falls on the lower cap; only
    comparisons against the precomputed caps are made, so fractional powers
    are never evaluated at negative arguments.  v may be None when only the
    bulk concentration is needed.
    """

    def clamp(c, caps):
        out = _clip(c, caps)
        return float(out) if np.isscalar(c) else out

    return clamp(u, window.u_caps), None if v is None else clamp(v, window.v_caps)


def _cross_derivatives(law, c, other):
    den = law.alpha * c + law.beta * other
    return -law.alpha * other / den**2, law.alpha * c / den**2


# Raw laws at already-clamped arguments, by kind: (value, derivatives).  The
# arguments are the bulk value c for bulk laws, the surface value c for
# single-argument surface laws, and the bulk trace c plus the surface value
# other for surface_cross; derivatives come in the same order.
_LAWS = {
    "power": (
        lambda law, c: c**law.param,
        lambda law, c: (law.param * c ** (law.param - 1.0),),
    ),
    "exponential": (
        lambda law, c: np.exp(law.param * c),
        lambda law, c: (law.param * np.exp(law.param * c),),
    ),
    "constant": (
        lambda law, c: np.full_like(c, law.param),
        lambda law, c: (np.zeros_like(c),),
    ),
    "surface_cross": (
        lambda law, c, other: other / (law.alpha * c + law.beta * other),
        _cross_derivatives,
    ),
}


def _clamped_law(law: DiffusionLaw, u, v, window: ClampWindow, derivatives: bool):
    """Evaluate a law at clamped arguments: mu, or (mu, dmu_du, dmu_dv).

    The derivatives are taken w.r.t. the raw values and carry the clamp chain
    rule, so they vanish wherever the clamp caps the argument; the one for a
    variable the law does not read is None.
    """
    if law.role == "bulk":
        args = ((u, window.u_caps),)
    elif v is None:
        raise ValueError("surface-role law requires the surface concentration")
    elif law.kind == "surface_cross":
        args = ((u, window.u_caps), (v, window.v_caps))
    else:
        args = ((v, window.v_caps),)
    args = [(np.asarray(x, dtype=float), caps) for x, caps in args]
    hats = [_clip(x, caps) for x, caps in args]
    value, slopes = _LAWS[law.kind]
    mu = value(law, *hats)
    if not derivatives:
        return mu
    grads = [
        np.where((x > lo) & (x < hi), slope, 0.0)
        for (x, (lo, hi)), slope in zip(args, slopes(law, *hats))
    ]
    if law.role == "bulk":
        return mu, grads[0], None
    if law.kind == "surface_cross":
        return mu, grads[0], grads[1]
    return mu, None, grads[0]


def diffusion_coefficient(law: DiffusionLaw, u, v, window: ClampWindow):
    """Coefficient evaluated at clamped arguments, total in (u, v).

    Bulk-role laws see the clamped bulk value; single-argument surface laws
    see the clamped surface value; surface_cross sees both.  Every
    surface-role law needs v and raises ValueError when it is None.  Scalar
    arguments give a float, arrays an array.
    """
    mu = _clamped_law(law, u, v, window, derivatives=False)
    return mu if np.ndim(mu) else float(mu)


def coefficient_and_derivatives(law: DiffusionLaw, u, v, window: ClampWindow):
    """Clamped coefficient plus its derivatives w.r.t. the raw cell values.

    Returns (mu, dmu_du, dmu_dv); the derivatives carry the clamp chain rule,
    i.e. they vanish wherever the clamp caps the argument.  dmu_dv is None
    for bulk-role laws; dmu_du is None for single-argument surface laws.
    """
    return _clamped_law(law, u, v, window, derivatives=True)


def coefficient_bounds(law: DiffusionLaw, window: ClampWindow) -> tuple[float, float]:
    """Extrema of the clamped coefficient over the whole window.

    Every supported law is monotone in each argument on the positive axis, so
    the extrema sit at the corners of the cap box.
    """
    u, v = np.meshgrid(window.u_caps, window.v_caps)
    mu = _clamped_law(law, u.ravel(), v.ravel(), window, derivatives=False)
    return float(np.min(mu)), float(np.max(mu))


def solve_equilibrium(
    kin: Kinetics,
    mass: float,
    omega_measure: float,
    gamma_measure: float,
) -> Equilibrium:
    """Unique positive equilibrium for a given conserved weighted mass.

    Solves g(v) = beta*|Omega|*kappa**(1/alpha)*v**(beta/alpha)
                  + alpha*|Gamma|*v - m = 0,
    which is strictly increasing from -m at v=0, by bisection on
    (0, m/(alpha*|Gamma|)] followed by a Newton polish, then recovers
    u_star = kappa**(1/alpha) * v_star**(beta/alpha).
    """
    if not (math.isfinite(mass) and mass > 0):
        raise ValueError(f"equilibrium requires positive finite mass, got {mass}")
    if not (_finite(omega_measure, gamma_measure) and omega_measure > 0 and gamma_measure > 0):
        raise ValueError("domain measures must be positive and finite")

    kroot = kin.kappa ** (1.0 / kin.alpha)
    expo = kin.beta / kin.alpha
    cb = kin.beta * omega_measure * kroot
    cg = kin.alpha * gamma_measure

    def g(v: float) -> float:
        return cb * v**expo + cg * v - mass

    def gprime(v: float) -> float:
        return cb * expo * v ** (expo - 1.0) + cg

    v_hi = mass / cg
    v_lo = 0.0  # g -> -mass as v -> 0+
    for _ in range(200):
        v_mid = 0.5 * (v_lo + v_hi)
        if g(v_mid) > 0:
            v_hi = v_mid
        else:
            v_lo = v_mid
        if v_hi - v_lo <= _BISECTION_TOL * v_hi:
            break
    v_star = 0.5 * (v_lo + v_hi)
    for _ in range(8):
        dv = g(v_star) / gprime(v_star)
        v_new = v_star - dv
        if v_new <= 0:
            break
        v_star = v_new
        if abs(dv) <= 1e-16 * v_star:
            break

    u_star = kroot * v_star**expo
    return Equilibrium(u_star=float(u_star), v_star=float(v_star), mass=float(mass))
