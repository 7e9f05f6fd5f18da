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

BULK_KINDS = ("power", "exponential", "constant")  # the laws the bulk slot takes
SURFACE_KINDS = BULK_KINDS + ("surface_cross",)  # every law: the surface slot takes them all


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
           ((u, v) -> v / (alpha*u + beta*v), param unused).
    The slot decides what a law reads: c is u in the bulk slot and v in the
    surface slot; surface_cross reads the bulk trace and v, surface slot
    only, with alpha and beta from the window (see _clamped_law).
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"{self.kind!r} is not a diffusion law")
        if not _finite(self.param):
            raise ValueError(f"diffusion law parameter must be finite, got {self}")
        if self.kind == "constant" and self.param <= 0:
            raise ValueError(f"constant diffusion coefficient must be positive, got {self.param}")


def check_bulk_law(law: DiffusionLaw) -> None:
    """Raise ValueError if law cannot fill the bulk law slot: surface_cross, which needs v."""
    if law.kind == "surface_cross":
        raise ValueError(f"the bulk law slot has no surface concentration for {law}")


def power_law(gamma: float) -> DiffusionLaw:
    return DiffusionLaw(kind="power", param=gamma)


def exponential_law(delta: float) -> DiffusionLaw:
    return DiffusionLaw(kind="exponential", param=delta)


def constant_law(value: float) -> DiffusionLaw:
    return DiffusionLaw(kind="constant", param=value)


def surface_cross_law(kin: Kinetics) -> DiffusionLaw:
    """Cross-diffusion law v / (alpha*u + beta*v), alpha and beta read from the window."""
    return DiffusionLaw(kind="surface_cross")


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

    lower and upper are the least and the largest pressure of the data, by
    the _pressure call of record's envelope extrema, so the data lie on
    their own floor and ceiling to the bit.  u_star, v_star come from eq and
    alpha, beta from kin: the window is the copy of them that the clamp, the
    cross law and the envelope diagnostics read.
    """
    u0, v0 = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
    if u0.size == 0 or v0.size == 0:
        raise ValueError("initial data must be nonempty")
    if np.min(u0) <= 0 or np.min(v0) <= 0:
        raise ValueError("initial data must be strictly positive")
    p = (_pressure(u0, eq.u_star, kin.alpha), _pressure(v0, eq.v_star, kin.beta))
    lower, upper = float(min(x.min() for x in p)), float(max(x.max() for x in p))
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


def _cross_derivatives(p, c, other):
    den = p[0] * c + p[1] * other
    return -p[0] * other / den**2, p[0] * c / den**2


# Raw laws at already-clamped arguments, by kind: (value, derivatives).  p is
# a single-argument law's param, read at the value c its slot gives it, or
# the window's (alpha, beta) for surface_cross, which reads the bulk trace c
# and the surface value other.  Derivatives come in the same order.
_LAWS = {
    "power": (
        lambda p, c: c**p,
        lambda p, c: (p * c ** (p - 1.0),),
    ),
    "exponential": (
        lambda p, c: np.exp(p * c),
        lambda p, c: (p * np.exp(p * c),),
    ),
    "constant": (
        lambda p, c: np.full_like(c, p),
        lambda p, c: (np.zeros_like(c),),
    ),
    "surface_cross": (
        lambda p, c, other: other / (p[0] * c + p[1] * other),
        _cross_derivatives,
    ),
}


def _clamped_law(law: DiffusionLaw, u, v, window: ClampWindow, derivatives: bool):
    """Evaluate a law at clamped arguments: mu, or (mu, dmu_du, dmu_dv).

    v None is the bulk slot, where the law reads u.  Otherwise, the surface
    slot, a single-argument law reads v and surface_cross reads (u, v) with
    the window's alpha and beta.  The derivatives are taken w.r.t. the raw
    values and carry the clamp chain rule, so they vanish wherever the clamp
    caps the argument; the one for a variable the law does not read is None.
    """
    p = law.param
    if v is None:
        check_bulk_law(law)
        args = ((u, window.u_caps),)
    elif law.kind == "surface_cross":
        args = ((u, window.u_caps), (v, window.v_caps))
        p = (window.alpha, window.beta)
    else:
        args = ((v, window.v_caps),)
    args = [(np.asarray(x, dtype=float), caps) for x, caps in args]
    hats = [_clip(x, caps) for x, caps in args]
    value, slopes = _LAWS[law.kind]
    mu = value(p, *hats)
    if not derivatives:
        return mu
    grads = [
        np.where((x > lo) & (x < hi), slope, 0.0)
        for (x, (lo, hi)), slope in zip(args, slopes(p, *hats))
    ]
    if len(grads) == 2:
        return mu, grads[0], grads[1]
    return (mu, grads[0], None) if v is None else (mu, None, grads[0])


def diffusion_coefficient(law: DiffusionLaw, u, v, window: ClampWindow):
    """Coefficient evaluated at clamped arguments, total in (u, v).

    With v None (the bulk slot) the law sees the clamped u; with v given
    (the surface slot) a single-argument law sees the clamped v and
    surface_cross both.  surface_cross with v None raises ValueError.
    """
    return _float_if_0d(_clamped_law(law, u, v, window, derivatives=False))


def coefficient_and_derivatives(law: DiffusionLaw, u, v, window: ClampWindow):
    """Clamped coefficient plus its derivatives w.r.t. the raw cell values.

    Returns (mu, dmu_du, dmu_dv), read as diffusion_coefficient reads; the
    derivatives carry the clamp chain rule, i.e. they vanish wherever the
    clamp caps the argument, and the one of a variable the law does not
    read is None.
    """
    return _clamped_law(law, u, v, window, derivatives=True)


def coefficient_bounds(law: DiffusionLaw, window: ClampWindow) -> tuple[float, float]:
    """Extrema of the clamped coefficient over the whole window.

    Every supported law is monotone in each argument on the positive axis, so
    the extrema sit at the caps: a single-argument law's over u_caps, in the
    bulk slot, and surface_cross's at the corners of the cap box.
    """
    return _slot_bounds(law, window, law.kind == "surface_cross")


def _slot_bounds(law: DiffusionLaw, window: ClampWindow, surface: bool) -> tuple[float, float]:
    """Extrema of the clamped law at the cap box corners, in the surface or the bulk slot."""
    u, v = np.meshgrid(window.u_caps, window.v_caps)
    mu = _clamped_law(law, u.ravel(), v.ravel() if surface else None, window, derivatives=False)
    return float(np.min(mu)), float(np.max(mu))


def check_laws(bulk_law: DiffusionLaw, surf_law: DiffusionLaw, window: ClampWindow) -> None:
    """Raise ValueError naming the slot of a law not finite and > 0 over its slot's caps.

    The caps are u_caps for the bulk law, v_caps for a single-argument surface
    law and their box for surface_cross.  An exp or power that overflows or
    underflows there makes the clamp bound nothing.
    """
    for slot, law, surface in (("bulk_law", bulk_law, False), ("surface_law", surf_law, True)):
        with np.errstate(all="ignore"):  # the test below rejects what would warn
            lo, hi = _slot_bounds(law, window, surface)
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"bad value for {slot}: {law} spans [{lo:g}, {hi:g}] on the caps")


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
