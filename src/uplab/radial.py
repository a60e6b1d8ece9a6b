"""Radial reduction of d-dimensional integrals, plus Gaussian closed forms.

A nonnegative radial function F(|x|) integrates over R^d as
omega_{d-1} * integral of F(r) r^{d-1} dr, which is the only high-d
integration strategy used here: the test functions are either radial or
live on low-dimensional grids (module grid).

A Gaussian mixture F holds each term's coefficient as its log, so the
coefficients are positive and may lie beyond the floats (g_c's c^{-+d/2} at
large d).  Its weighted norms, radial_weighted_norm, need no adaptive
quadrature: an integer power F^p expands multinomially into Gaussians with
closed forms, and any other power takes a trapezoid rule in t = ln r on
exp(k t + p ln F(e^t)), placed by the terms' analytic peaks and halved until it
converges.  The Cowling-Price endpoint's |x|^{-d} ln^beta(1/|x|) has one entry
point, radial_integral, over a range inside [0, 1): in u = ln(1/r) the
tanh-sinh (double-exponential) rule of Takahasi & Mori, its step halved until
two sums agree to 1e-10.  Both return logs, (ln omega_{d-1} + ln I) / p and
ln omega_{d-1} + ln I, finite at any dimension and for integrals beyond the
floats either way.  Everything here needs numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .specialfn import (
    LOG_2, LOG_MAX, _check_dimension, _log_gamma_ratio, dimension_constants,
    log_gamma,
)

QUAD_RTOL = 1e-10
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
    """A Gaussian mixture sum_i exp(ln c_i - pi rate_i r^2) on (0, infinity), held as its
    ``terms``, the pairs (ln c_i, rate_i): each coefficient c_i is positive and may lie
    beyond the floats."""

    terms: tuple[tuple[float, float], ...]
    is_gaussian = True  # every profile is a mixture; the benchmark's tracer reads this

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a Gaussian mixture needs at least one term")
        for log_c, rate in self.terms:
            if not (math.isfinite(log_c) and rate > 0):
                raise ValueError(
                    f"a Gaussian term needs a finite ln c and a positive rate, got {(log_c, rate)}"
                )

    def __call__(self, r):
        """The mixture's samples at r."""
        r = np.asarray(r, dtype=float)
        # each term in one scratch array, added into zeros
        out, term = np.zeros_like(r), np.empty_like(r)
        # an exponent of -inf is an exact 0, and a sample beyond the floats inf
        with np.errstate(over="ignore"):
            for log_c, rate in self.terms:
                np.multiply(-math.pi * rate, r, out=term)
                term *= r
                term += log_c
                np.exp(term, out=term)
                out += term
        return out[()]  # a scalar for a scalar r


def gaussian_profile(rate: float = 1.0) -> RadialProfile:
    return RadialProfile(terms=((0.0, rate),))


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


def radial_integral(beta: float, d: int, lo: float, hi: float) -> float:
    """ln of omega_{d-1} * integral over (lo, hi) of r^{-1} ln^beta(1/r) dr, the mass of
    |x|^{-d} ln^beta(1/|x|) over lo < |x| < hi, for 0 <= lo < hi < 1.

    u = ln(1/r) turns the integrand into u^beta on (ln(1/hi), ln(1/lo)), for the
    tanh-sinh rule.  Down to r = 0 that range is infinite and holds its mass out at
    u ~ e^{1/|beta+1|}; so past u = 1 it goes on in t = ln u, over pieces of doubling
    width until one adds nothing.  The integrand is exp(beta ln u - shift), where the
    shift (0 unless its peak passes e^700) keeps it inside the floats and is added back
    to the log.
    """
    if not 0 <= lo < hi < 1:
        raise ValueError(f"invalid radial range ({lo}, {hi}): it must lie inside [0, 1)")
    if lo == 0.0 and not beta < -1:
        raise ValueError(f"non-integrable singularity at r=0: r^-1 ln^{beta:g}(1/r)")
    log_scale = dimension_constants(d).log_sphere_area
    u_lo = -math.log(hi)  # not ln(1/hi): 1/r is inf for a subnormal r
    u_hi = math.inf if lo == 0.0 else -math.log(lo)
    # the log-integrand beta ln u peaks at an end
    log_peak = max(beta * math.log(u) for u in (u_lo, u_hi) if u < math.inf)
    shift = max(0.0, log_peak - 700.0)

    def integrand(u):
        return np.exp(beta * np.log(u) - shift)

    def log_integrand(t):
        return np.exp((beta + 1.0) * t - shift)

    if u_hi < math.inf:
        total = _quad(integrand, u_lo, u_hi)
    else:
        total, piece = _quad(integrand, u_lo, max(u_lo, 1.0)), math.inf
        t, width = math.log(max(u_lo, 1.0)), 1.0
        while piece > 1e-17 * total:
            piece = _quad(log_integrand, t, t + width)
            total, t, width = total + piece, t + width, 2.0 * width
    return (math.log(total) if total > 0.0 else -math.inf) + shift + log_scale


def _logsumexp(x):
    """ln sum_i exp(x_i) along the first axis."""
    top = x.max(axis=0)
    return top + np.log(np.exp(x - top).sum(axis=0))


def _log_mixture_moment(terms, k: float, p: float) -> float:
    """ln of the integral over (0, inf) of r^{k-1} F(r)^p dr, F = sum_i c_i exp(-pi a_i r^2)
    given as the terms (ln c_i, a_i), without adaptive quadrature: every c_i is positive,
    and only its log enters, so c_i itself may lie beyond the floats.

    An integer p expands F^p multinomially into Gaussians, each with the closed form
    Gamma(k/2) / (2 (pi rate)^{k/2}), while that takes at most _MAX_EXPANSION terms; the
    terms are positive, so their log-sum-exp cancels nothing.  Any other p takes the
    trapezoid rule in t = ln r on exp(L(t)), L(t) = k t + p ln F(e^t) with ln F a
    log-sum-exp over the terms.  L is analytic and falls off exponentially on both sides,
    so the rule converges geometrically: its step starts at the single-term peak width
    1/sqrt(-L'') = 1/sqrt(2k) over sqrt 2 and halves until two successive sums agree to
    TRAPEZOID_RTOL, or to the rounding that L's own terms carry if that is larger.
    """
    log_c = np.array([lc for lc, _ in terms])
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
    peaks = 0.5 * (math.log(k) - math.log(2.0 * math.pi) - math.log(p) - np.log(rates))
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
    """ln of (omega_{d-1} * integral of r^{p*w} F(r)^p r^{d-1} dr)^{1/p} for a Gaussian
    mixture F.

    weight_exponent 0 gives ln ||f||_p; weight_exponent 1 with exponent p gives
    ln V_p(f)^{1/p}.  A weight p*w that k = p*w + d loses to rounding raises.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if weight_exponent < 0:
        raise ValueError("weight_exponent must be nonnegative")
    geom = dimension_constants(d)
    weight = p * weight_exponent
    k = weight + d  # the integrand behaves like r^{k-1} near 0
    # an error e in k moves ln I by about e ln(k) / 2: refuse one above 1e-6 of the
    # weight, or of 1 for a weight below 1, where it no longer matters
    if abs((k - d) - weight) > 1e-6 * max(weight, 1.0):
        raise ValueError(f"the weight p*w={weight:g} is lost to rounding in p*w + d at d={d:.6g}")
    if len(profile.terms) == 1:
        log_c, rate = profile.terms[0]
        half = 0.5 * k
        log_integral = p * log_c + log_gamma(half) - half * math.log(math.pi * p * rate) - LOG_2
    else:
        log_integral = _log_mixture_moment(profile.terms, k, p)
    return (geom.log_sphere_area + log_integral) / p


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
