"""Radial reduction of d-dimensional integrals, plus Gaussian closed forms.

A nonnegative radial function F(|x|) integrates over R^d as
omega_{d-1} * integral of F(r) r^{d-1} dr, which is the only high-d
integration strategy used here: the test functions are either radial or
live on low-dimensional grids (module grid).

The weighted norms of a Gaussian mixture F with positive coefficients need no
adaptive quadrature: an integer power F^p expands multinomially into Gaussians
with closed forms, and any other power takes a trapezoid rule in t = ln r on
exp(k t + p ln F(e^t)), placed by the terms' analytic peaks and halved until it
converges.  A weighted norm is returned as its log, (ln omega_{d-1} + ln I) / p,
so it is finite at any dimension and for norms beyond the largest float.
Power/log profiles are integrated in u = ln(1/r) by the tanh-sinh
(double-exponential) rule of Takahasi & Mori, its step halved until two sums
agree to 1e-10.  A Gaussian has no integral over a finite range here: its
integrals over R^d are the p = 1 norms.  Everything here needs numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .specialfn import (
    LOG_2, LOG_MAX, _check_dimension, _log_gamma_ratio, dimension_constants,
    log_gamma,
)

QUAD_RTOL = 1e-10
# below this a (subnormal) float carries less than QUAD_RTOL relative precision
LOG_TINY = math.log(2.0**-1074 / QUAD_RTOL)
TRAPEZOID_RTOL = 1e-13
# an integer power of a mixture is expanded while it has at most this many Gaussians
_MAX_EXPANSION = 1024
# the trapezoid rule's node budget at its finest step
_MAX_NODES = 2**17
# ln k! for k <= _MAX_EXPANSION, each math.log of the exact integer k!
_LOG_FACTORIAL = np.array([
    math.log(f) for f in itertools.accumulate(range(1, _MAX_EXPANSION + 1), operator.mul, initial=1)
])


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on (0, infinity).

    Either a Gaussian mixture sum_i c_i exp(-pi rate_i r^2) (``terms``; one finite
    nonzero c, or two or more positive ones), or a power/log profile
    r^alpha * ln(1/r)^beta supported on (0, 1/2] (``power_log`` = (alpha, beta)).
    """

    terms: tuple[tuple[float, float], ...] = field(default=())
    power_log: tuple[float, float] | None = None

    def __post_init__(self):
        if bool(self.terms) == (self.power_log is not None):
            raise ValueError("profile must have either Gaussian terms or a power_log term")
        for _, rate in self.terms:
            if not rate > 0:
                raise ValueError(f"gaussian_rate must be positive, got {rate}")
        coefs = [coef for coef, _ in self.terms]
        # the mixture norms' trapezoid rule converges geometrically only while F > 0
        if len(coefs) > 1 and not all(0 < coef < math.inf for coef in coefs):
            raise ValueError(f"a Gaussian mixture needs finite positive coefficients, got {coefs}")
        if len(coefs) == 1 and not 0 < abs(coefs[0]) < math.inf:
            raise ValueError(f"a Gaussian needs a finite nonzero coefficient, got {coefs[0]}")

    @property
    def is_gaussian(self) -> bool:
        return bool(self.terms)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.is_gaussian:
            # each term in one scratch array, added into zeros: a term that underflows
            # adds -0.0 or +0.0 to +0.0, which leaves +0.0
            out, term = np.zeros_like(r), np.empty_like(r)
            with np.errstate(over="ignore"):  # an exponent of -inf is an exact 0
                for coef, rate in self.terms:
                    np.multiply(-math.pi * rate, r, out=term)
                    term *= r
                    np.exp(term, out=term)
                    term *= coef
                    out += term
            return out[()]  # a scalar for a scalar r
        alpha, beta = self.power_log
        if beta == 0.0:
            return r**alpha
        with np.errstate(divide="ignore"):
            return r**alpha * np.log(1.0 / r) ** beta


def gaussian_profile(rate: float = 1.0, coefficient: float = 1.0) -> RadialProfile:
    return RadialProfile(terms=((coefficient, rate),))


def _power_rate(*parts: float) -> float:
    """rate = sum(parts) of an integrand r^{rate-1} ln^beta(1/r), where a sum within
    rounding of 0 is the borderline 0 (the endpoint theta = d(1/2 - 1/p) lands there)."""
    rate = sum(parts)
    return 0.0 if abs(rate) <= 8 * sys.float_info.epsilon * sum(map(abs, parts)) else rate


def _check_power_integrability(rate: float, beta: float, lo: float, hi: float):
    # integrand r^{rate-1} ln^beta(1/r)
    if lo == 0.0 and not (rate > 0 or (rate == 0 and beta < -1)):
        raise ValueError(f"non-integrable singularity at r=0: r^{rate - 1} ln^{beta}(1/r)")
    if math.isinf(hi) and not (rate < 0 or (rate == 0 and beta < -1)):
        raise ValueError("integrand is not integrable at infinity")
    if hi == 1.0 and beta <= -1:
        raise ValueError(f"non-integrable singularity at r=1: ln^{beta}(1/r)")


# The tanh-sinh rule of Takahasi & Mori, Publ. RIMS 9 (1974) 721-741, on |t| <= _TS_WINDOW:
# there the nodes come within e^{-pi sinh 6} ~ 1e-275 of the interval's length of each end
_TS_WINDOW = 6
_TS_END = math.exp(-math.pi * math.sinh(_TS_WINDOW))
# steps 2^-level: the first sum compared is that of step 1/8 with that of 1/4, the last
# that of 1/512 (6145 nodes)
_TS_FIRST_LEVEL, _TS_LAST_LEVEL = 3, 9


@functools.cache
def _ts_nodes(level: int):
    """The nodes t of step 2^-level that a sum at that step evaluates: at _TS_FIRST_LEVEL
    all of them, the first n_coarse being those of the step twice as large, after it
    only the odd multiples of the step (n_coarse = 0).  Returned as read-only arrays of
    (distance to the nearer end, whether that end is the lower one, weight) per unit
    length of the interval, and n_coarse."""
    j = np.arange(-_TS_WINDOW * 2**level, _TS_WINDOW * 2**level + 1)
    odd = j % 2 == 1
    j = np.concatenate([j[~odd], j[odd]]) if level == _TS_FIRST_LEVEL else j[odd]
    t = j * 2.0**-level
    # x = mid + half tanh(s), s = (pi/2) sinh t; with e = exp(-2|s|) the distance to the
    # nearer end is length e / (1 + e) and dx/dt = length pi cosh t e / (1 + e)^2
    e = np.exp(-math.pi * np.abs(np.sinh(t)))
    arrays = e / (1.0 + e), t < 0, math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, int(np.count_nonzero(j % 2 == 0)))


def _quad(fn, lo: float, hi: float) -> float:
    """The integral of fn over the finite (lo, hi) by the tanh-sinh rule; fn maps an
    array of points to a new array of values.

    The nodes are placed by their distances from the nearer end, so a node near lo = 0
    is that distance itself, not lo + length rounded: an integrable u^beta singularity
    at either end is sampled down to _TS_END of the length from it.  The step halves
    from 1/4 until the sums of two successive steps agree to QUAD_RTOL relative to the
    finer one.  On an integrand analytic inside the interval, the rule's error falls
    like exp(-c / step) (Takahasi & Mori), so halving the step squares the relative
    error: the coarser sum's error is then the difference, at most QUAD_RTOL, and the
    accepted finer sum's about QUAD_RTOL^2, below the rounding of the sum.  What the
    window leaves out is the mass within _TS_END of the length from each end.  A sum
    that has not converged at step 2^-_TS_LAST_LEVEL raises.
    """
    length = hi - lo
    if not length > 0:
        return 0.0
    for level in range(_TS_FIRST_LEVEL, _TS_LAST_LEVEL + 1):
        dist, lower, weight, n_coarse = _ts_nodes(level)
        offset = length * dist
        terms = fn(np.where(lower, lo + offset, hi - offset))
        terms *= (length * 2.0**-level) * weight
        if n_coarse:
            total = 2.0 * float(terms[:n_coarse].sum())
        coarse, total = total, 0.5 * total + float(terms[n_coarse:].sum())
        if abs(total - coarse) <= QUAD_RTOL * abs(total):
            return total
    raise ValueError(
        f"the tanh-sinh rule on ({lo:g}, {hi:g}) did not converge to {QUAD_RTOL:g}"
    )


def radial_integral(profile: RadialProfile, d: int, lo: float, hi: float) -> float:
    """omega_{d-1} * integral over (lo, hi) of F(r) r^{d-1} dr for a power/log profile F."""
    if profile.is_gaussian:
        raise ValueError("radial_integral takes a power/log profile; a Gaussian's "
                         "integrals over R^d are radial_weighted_norm")
    _check_dimension(d)
    if lo < 0 or hi <= lo:
        raise ValueError(f"invalid radial range ({lo}, {hi})")
    geom = dimension_constants(d)
    omega = geom.sphere_area
    alpha, beta = profile.power_log
    if beta != 0.0 and hi > 1.0:
        raise ValueError("log-power profiles are only defined for r < 1")
    rate = _power_rate(alpha, d)
    _check_power_integrability(rate, beta, lo, hi)
    if beta == 0.0:
        if rate == 0.0:
            return omega * (math.log(hi) - math.log(lo))
        return omega * (hi**rate - (0.0 if lo == 0.0 else lo**rate)) / rate
    log_integral = _log_substituted_integral(rate, beta, lo, hi, geom.log_sphere_area)
    what = f"the integral of r^{rate - 1:g} ln^{beta:g}(1/r) over ({lo:g}, {hi:g})"
    return _exp_in_range(log_integral, what)


def _exp_in_range(log_value: float, what: str) -> float:
    """e^log_value, if that is a float carrying QUAD_RTOL relative precision; else a
    ValueError naming what."""
    if log_value >= LOG_MAX:
        raise ValueError(f"{what} exceeds the float range")
    if log_value < LOG_TINY:
        raise ValueError(
            f"{what} lies below the floats that carry {QUAD_RTOL:g} relative precision"
        )
    return math.exp(log_value)


def _log_substituted_integral(
    rate: float, beta: float, lo: float, hi: float, log_scale: float
) -> float:
    """log_scale plus ln of the integral over (lo, hi) of r^{rate-1} ln^beta(1/r) dr via
    u = ln(1/r), which turns the r = 0 log-singularity into the smooth e^{-rate u} u^beta
    on (ln(1/hi), ln(1/lo)).  Down to r = 0 that range is infinite and, at rate 0,
    holds its mass out at u ~ e^{1/|beta+1|}; so past u = 1 it goes on in
    t = ln u, over pieces of doubling width until one adds nothing.

    The integrand is exp(beta ln u - rate u - shift), where the shift (0 unless
    the integrand's peak passes e^700) keeps it inside the float range and is
    added back to the log.
    """
    u_lo = 0.0 if hi >= 1.0 else math.log(1.0 / hi)
    u_hi = math.inf if lo == 0.0 else math.log(1.0 / lo)
    integral = f"the integral of r^{rate - 1:g} ln^{beta:g}(1/r) over ({lo:g}, {hi:g})"
    # the log-integrand beta ln u - rate u peaks at an end or at u = beta/rate
    peaks = [u for u in (u_lo, u_hi, beta / rate if rate else 0.0)
             if u_lo <= u <= u_hi and 0 < u < math.inf]
    log_peak = max((beta * math.log(u) - rate * u for u in peaks), default=-math.inf)
    shift = max(0.0, log_peak - 700.0)
    if shift > 0.0 and beta <= 0.0 <= rate and u_lo > 0.0:
        # convex and falling from its peak at u_lo, the log-integrand lies above its
        # tangent there, so the integral is at least e^peak (1 - e^{-slope width}) / slope:
        # past the float range, quadrature of so narrow a peak is skipped
        slope = rate - beta / u_lo
        log_lower = (log_peak + log_scale - math.log(slope)
                     + math.log1p(-math.exp(-slope * (u_hi - u_lo))))
        if log_lower >= LOG_MAX:
            raise ValueError(f"{integral} exceeds the float range")

    def integrand(u):
        return np.exp(beta * np.log(u) - rate * u - shift)

    def log_integrand(t):
        # e^t overflows past t = 709, where any rate > 0 has long underflowed the integrand
        return np.exp((beta + 1.0) * t - rate * np.exp(np.minimum(t, 709.0)) - shift)

    if u_hi < math.inf:
        total = _quad(integrand, u_lo, u_hi)
    else:
        total, piece = _quad(integrand, u_lo, max(u_lo, 1.0)), math.inf
        t, width = math.log(max(u_lo, 1.0)), 1.0
        while piece > 1e-17 * total:
            piece = _quad(log_integrand, t, t + width)
            total, t, width = total + piece, t + width, 2.0 * width
    if u_lo == 0.0 and beta < 0.0:
        # the rule samples u^beta from u = _TS_END times its first interval's length on;
        # the mass below that, u^{beta+1} / (beta+1) e^{-shift}, it leaves out
        edge = _TS_END * min(u_hi, 1.0)
        if edge ** (beta + 1.0) / (beta + 1.0) * math.exp(-shift) > QUAD_RTOL * total:
            raise ValueError(f"{integral} is too close to the non-integrable ln^-1(1/r) at r=1")
    return (math.log(total) if total > 0.0 else -math.inf) + shift + log_scale


def _logsumexp(x):
    """ln sum_i exp(x_i) along the first axis."""
    top = x.max(axis=0)
    return top + np.log(np.exp(x - top).sum(axis=0))


def _log_mixture_moment(terms, k: float, p: float) -> float:
    """ln of the integral over (0, inf) of r^{k-1} F(r)^p dr, F = sum_i c_i exp(-pi a_i r^2)
    with every c_i > 0, without adaptive quadrature.

    An integer p expands F^p multinomially into Gaussians, each with the closed form
    Gamma(k/2) / (2 (pi rate)^{k/2}), while that takes at most _MAX_EXPANSION terms; the
    terms are positive, so their log-sum-exp cancels nothing.  Any other p takes the
    trapezoid rule in t = ln r on exp(L(t)), L(t) = k t + p ln F(e^t) with ln F a
    log-sum-exp over the terms.  L is analytic and falls off exponentially on both sides,
    so the rule converges geometrically: its step starts at the single-term peak width
    1/sqrt(-L'') = 1/sqrt(2k) over sqrt 2 and halves until two successive sums agree to
    TRAPEZOID_RTOL, or to the rounding that L's own terms carry if that is larger.
    """
    log_c = np.log([coef for coef, _ in terms])
    rates = np.array([rate for _, rate in terms])
    half = 0.5 * k
    if p == int(p) and (p + 1) ** (len(terms) - 1) <= _MAX_EXPANSION:
        n = int(p)
        # every (n_1, ..., n_m) >= 0 with sum n, the last one fixed by the others
        head = np.indices((n + 1,) * (len(terms) - 1)).reshape(len(terms) - 1, -1).T
        head = head[head.sum(axis=1) <= n]
        powers = np.column_stack([head, n - head.sum(axis=1)])
        log_terms = (
            _LOG_FACTORIAL[n] - _LOG_FACTORIAL[powers].sum(axis=1)
            + powers @ log_c - half * np.log(math.pi * (powers @ rates))
        )
        return float(_logsumexp(log_terms)) + log_gamma(half) - LOG_2

    # Term i alone peaks at t_i = ln(k / (2 pi p a_i)) / 2.  The mixture has
    # L'(t) = k - 2 pi p r^2 abar(r), with abar(r) a weighted mean of the rates, so L
    # rises below min t_i and falls above max t_i at least as fast as a single term of
    # the largest (smallest) rate: by (k/2) u^2 / (2 + u), u = 2 (min t_i - t), below
    # and by k (t - max t_i)^2 above.  Past lo and hi it lies 75 under L(min t_i) and
    # L(max t_i), so 75 under its peak.
    peaks = 0.5 * np.log(k / (2.0 * math.pi * p * rates))
    y = 150.0 / k
    lo = float(peaks.min()) - 0.25 * (y + math.sqrt(y * (y + 8.0)))
    hi = float(peaks.max()) + math.sqrt(0.5 * y)
    step = 0.5 / math.sqrt(k)
    count = math.ceil((hi - lo) / step) + 1
    if count > _MAX_NODES // 4:
        raise ValueError(
            f"the integrand r^{k - 1:g} F(r)^{p:g} peaks too narrowly for the "
            f"{_MAX_NODES}-node trapezoid rule"
        )

    def parts(t):
        with np.errstate(over="ignore"):  # an exponent of -inf is an exact 0
            return k * t, p * _logsumexp(log_c[:, None] - math.pi * rates[:, None] * np.exp(2.0 * t))

    nodes = lo + step * np.arange(count)
    power, log_mix = parts(nodes)
    values = power + log_mix
    shift = float(values.max())
    rtol = max(TRAPEZOID_RTOL, sys.float_info.epsilon * float((abs(power) + abs(log_mix)).max()))
    total = step * float(np.exp(values - shift).sum())
    while True:
        mids = nodes + 0.5 * step
        power, log_mix = parts(mids)
        refined = 0.5 * total + 0.5 * step * float(np.exp(power + log_mix - shift).sum())
        if abs(refined - total) <= rtol * refined:
            return shift + math.log(refined)
        if 2 * nodes.size > _MAX_NODES:
            raise ValueError(
                f"the trapezoid rule for r^{k - 1:g} F(r)^{p:g} did not converge "
                f"in {_MAX_NODES} nodes"
            )
        nodes, step, total = np.concatenate([nodes, mids]), 0.5 * step, refined


def radial_weighted_norm(
    profile: RadialProfile, d: int, p: float, weight_exponent: float
) -> float:
    """ln of (omega_{d-1} * integral of r^{p*w} F(r)^p r^{d-1} dr)^{1/p}.

    weight_exponent 0 gives ln ||f||_p; weight_exponent 1 with exponent p gives
    ln V_p(f)^{1/p}.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if weight_exponent < 0:
        raise ValueError("weight_exponent must be nonnegative")
    geom = dimension_constants(d)
    k = p * weight_exponent + d  # integrand behaves like r^{k-1} near 0
    if profile.is_gaussian:
        if len(profile.terms) == 1:
            coef, rate = profile.terms[0]
            half = 0.5 * k
            log_integral = (
                p * math.log(abs(coef)) + log_gamma(half)
                - half * math.log(math.pi * p * rate) - LOG_2
            )
        else:
            log_integral = _log_mixture_moment(profile.terms, k, p)
        return (geom.log_sphere_area + log_integral) / p
    alpha, beta = profile.power_log
    # F^p shifts the exponents: the integrand is r^{k + p alpha - 1} ln^{p beta}(1/r)
    rate = _power_rate(p * weight_exponent, d, p * alpha)
    _check_power_integrability(rate, p * beta, 0.0, 0.5)
    return _log_substituted_integral(rate, p * beta, 0.0, 0.5, geom.log_sphere_area) / p


def gaussian_log_product(d: int, p: float) -> float:
    """ln of V_p(g)/||g||_p^p * V_p(g^)/||g^||_p^p for the standard Gaussian.

    The standard Gaussian is self-dual, so the product is the square of one
    ratio: (pi p)^{-p} * (Gamma((p+d)/2) / Gamma(d/2))^2.
    """
    _check_dimension(d)
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    x, a = 0.5 * d, 0.5 * p
    log_product = 2.0 * _log_gamma_ratio(x, a) - p * math.log(math.pi * p)
    if math.isfinite(log_product):
        return log_product
    # from p ~ 2.5e305 on the ratio or p ln(pi p) leaves the floats: Stirling for
    # Gamma(x + a), summed per unit p, where p ln(pi p) leaves -ln(2 pi) - 1
    log_2pi = math.log(2.0 * math.pi)
    return p * (
        math.log1p(x / a) - log_2pi - 1.0
        + ((x - 0.5) * math.log(x + a) - x + 0.5 * log_2pi - log_gamma(x)) / a
    )


def gaussian_uncertainty_product(d: int, p: float) -> float:
    """The Gaussian uncertainty product itself, exp of gaussian_log_product; a product
    outside the normal floats raises, naming its log."""
    log_product = gaussian_log_product(d, p)
    product = math.exp(log_product) if log_product < LOG_MAX else math.inf
    if not sys.float_info.min <= product < math.inf:
        raise ValueError(
            f"the Gaussian uncertainty product at d={d}, p={p:g} is outside the normal "
            f"float range: ln product = {log_product:.6g}"
        )
    return product
