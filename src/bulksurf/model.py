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

Every public function of one or more concentrations returns a 0-d result as
a Python float and anything else as an array.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

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
    """Envelope window (lower, upper) on the normalized pressures.

    u is measured by (u/u_star)**alpha and v by (v/v_star)**beta, the one
    scale of every envelope quantity (see _pressure); the envelopes are
    lower <= p <= upper.  Concentrations fed to diffusion laws are clamped so
    that this pressure stays in [lower/2, 2*upper]; ``u_caps`` and ``v_caps``
    hold the matching concentration bounds.  The pressure range of the caps
    contains [lower, upper] for every alpha and beta, so the clamp is inert
    wherever both envelopes hold.
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


def _pressure(c, star, exponent):
    """Normalized pressure (c/star)**exponent, 0 where c <= 0: the window's one scale."""
    return (np.maximum(c, 0.0) / star) ** exponent


def window_from_initial_data(
    u0: np.ndarray,
    v0: np.ndarray,
    eq: Equilibrium,
    kin: Kinetics,
) -> ClampWindow:
    """Envelope window implied by strictly positive initial data.

    lower and upper are the least and the largest of the pressures
    (u0/u_star)**alpha and (v0/v_star)**beta, taken by the array arithmetic
    of record's envelope extrema, so the data lie on their own floor and
    ceiling to the bit.  The window takes u_star, v_star from eq and alpha,
    beta from kin.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.size == 0 or v0.size == 0:
        raise ValueError("initial data must be nonempty")
    if np.min(u0) <= 0 or np.min(v0) <= 0:
        raise ValueError("initial data must be strictly positive")
    p_u0 = _pressure(u0, eq.u_star, kin.alpha)
    p_v0 = _pressure(v0, eq.v_star, kin.beta)
    lower = float(min(p_u0.min(), p_v0.min()))
    upper = float(max(p_u0.max(), p_v0.max()))
    return ClampWindow(
        lower=lower, upper=upper, u_star=eq.u_star, v_star=eq.v_star, alpha=kin.alpha, beta=kin.beta
    )


def _float_if_0d(out):
    """out, or a Python float when out is 0-d: the one return rule of the public functions."""
    return out if np.ndim(out) else float(out)


def log_mean(a, b):
    """Logarithmic mean: (a-b)/(log a - log b), 0 if either argument is 0, a if a=b.

    With hi = max(a, b) and lo = min(a, b), evaluated branchwise for a few
    ulps everywhere:

    * ratio at most 2: hi - lo is exact there, so (hi-lo)/log1p((hi-lo)/lo)
      carries no cancellation, down to neighbouring floats;
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
    equal = hi == lo

    lo_safe = np.where(zero | equal, 1.0, lo)
    hi_safe = np.where(zero | equal, 2.0, hi)
    diff = hi_safe - lo_safe
    close = 0.5 * hi_safe <= lo_safe  # hi <= 2*lo, without overflow near the largest float
    ratio = diff / np.where(close, lo_safe, 1.0)  # guarded against overflow
    denom = np.where(close, np.log1p(ratio), np.log(hi_safe) - np.log(lo_safe))
    return _float_if_0d(np.where(zero, 0.0, np.where(equal, hi, diff / denom)))


def rate(u, v, kin: Kinetics):
    """Mass-action rate density k*(u**alpha - kappa*v**beta) for nonnegative u, v.

    Negative arguments with fractional exponents are undefined here; use
    safe_rate for a total function.
    """
    return _float_if_0d(kin.k * (u**kin.alpha - kin.kappa * v**kin.beta))


def _positive_quadrant(u, v):
    """Mask of u > 0 and v > 0, and u, v with 1 outside it, where any power is defined.

    When every entry is positive, u and v come back as the float arrays
    they are, uncopied.
    """
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    pos = (u_arr > 0) & (v_arr > 0)
    if pos.all():
        return pos, u_arr, v_arr
    return pos, np.where(pos, u_arr, 1.0), np.where(pos, v_arr, 1.0)


def safe_rate(u, v, kin: Kinetics):
    """Rate guarded on the closed positive quadrant: 0 whenever u <= 0 or v <= 0."""
    pos, u_safe, v_safe = _positive_quadrant(u, v)
    out = rate(u_safe, v_safe, kin)
    return out if pos.all() else _float_if_0d(np.where(pos, out, 0.0))


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
    return _float_if_0d(kin.k * lam * pot)


def _clip(c, caps):
    """c as a float array, clipped into the closed interval caps = (lo, hi)."""
    return np.minimum(np.maximum(np.asarray(c, dtype=float), caps[0]), caps[1])


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
    surface-role law needs v and raises ValueError when it is None.
    """
    return _float_if_0d(_clamped_law(law, u, v, window, derivatives=False))


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
    which is strictly increasing from -m at v=0, then recovers
    u_star = kappa**(1/alpha) * v_star**(beta/alpha).  Positive floats sort
    like their int64 bit patterns, so a bisection over the bits between 0.0
    and the largest float ends, after at most 63 halvings, at two adjacent
    floats with g(lo) <= 0 < g(hi); v_star is the one with the smaller |g|.
    g counts as positive where v**(beta/alpha) overflows.  Raises ValueError
    when v_star lies above the largest float, or when v_star or u_star is
    not a positive normal float.
    """
    if not (math.isfinite(mass) and mass > 0):
        raise ValueError(f"equilibrium requires positive finite mass, got {mass}")
    if not (_finite(omega_measure, gamma_measure) and omega_measure > 0 and gamma_measure > 0):
        raise ValueError("domain measures must be positive and finite")

    # Python floats, whose ** raises the OverflowError g catches where numpy's would warn
    alpha, beta, kappa, mass = (float(x) for x in (kin.alpha, kin.beta, kin.kappa, mass))
    kroot = kappa ** (1.0 / alpha)
    expo = beta / alpha
    cb = beta * float(omega_measure) * kroot
    cg = alpha * float(gamma_measure)

    def g(v: float) -> float:
        try:
            return cb * v**expo + cg * v - mass
        except OverflowError:  # v**expo beyond the float range: g is positive there
            return math.inf

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    if g(sys.float_info.max) < 0:
        raise ValueError("equilibrium v_star lies above the largest float")
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]  # g(0.0) = -m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if g(as_float(mid)) > 0:
            hi = mid
        else:
            lo = mid
    v_star = min(as_float(lo), as_float(hi), key=lambda v: abs(g(v)))
    _check_normal("v_star", v_star)

    u_star = kroot * v_star**expo  # g evaluated v_star**expo already; a product may be inf
    _check_normal("u_star", u_star)
    return Equilibrium(u_star=u_star, v_star=v_star, mass=mass)


def _check_normal(name: str, x: float) -> None:
    """Raise ValueError unless x is a positive normal float."""
    if not sys.float_info.min <= x < math.inf:
        raise ValueError(f"equilibrium {name} = {x} is not a positive normal float")
