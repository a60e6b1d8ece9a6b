"""Radial reduction of d-dimensional integrals, plus Gaussian closed forms.

A nonnegative radial function F(|x|) integrates over R^d as omega_{d-1} * integral
of F(r) r^{d-1} dr, the only high-d integration strategy here: the test functions
are radial or live on low-dimensional grids (module grid).

A Gaussian mixture F holds its coefficients as logs, positive and possibly beyond the
floats (g_c's c^{-+d/2} at large d).  One kernel, _log_moments, takes the log mass of
r^{k-1} F(r)^p and the log mean of r^m under it without adaptive quadrature (an integer
power F^p expands into Gaussians, any other takes a trapezoid rule in ln r): the mass
gives the weighted norms (radial_weighted_norm), the mean the uncertainty ratio
V_p(F) / ||F||_p^p (log_moment_ratio, for the Gaussian and g_c alike).  The endpoint's
|x|^{-d} ln^beta(1/|x|) (radial_integral) is, in u = ln(1/r), the integral of u^beta in
closed form.  All return logs, finite at any dimension and beyond the floats.
Everything here needs numpy alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .specialfn import (LOG_2, _check_dimension, _log_gamma_ratios, _stirling_tail,
                        dimension_constants, log_gamma)

TRAPEZOID_RTOL = 1e-13
# an integer power of a mixture is expanded while it has at most this many Gaussians
_MAX_EXPANSION = 1024
# (p, number of terms) whose multinomial tables are kept, each at most 96 KiB
_MULTINOMIAL_CACHE_SIZE = 32
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


def _log_u_integral(beta: float, lo: float, hi: float) -> float:
    """ln of the integral over (lo, hi) of r^{-1} ln^beta(1/r) dr, 0 <= lo < hi < 1: in
    u = ln(1/r), of u^beta, whose antiderivative ln u (beta = -1) or u^{beta+1} / (beta+1)
    is formed in logs, so no power of u leaves the floats.  ln(u_hi / u_lo) is log1p of
    ln(hi / lo) / u_lo, that ln taken from the exact hi - lo where hi < 2 lo; the larger
    power is factored out of the difference of two, leaving -expm1 of a negative number."""
    if not 0 <= lo < hi < 1:
        raise ValueError(f"invalid radial range ({lo}, {hi}): it must lie inside [0, 1)")
    if lo == 0.0 and not beta < -1:
        raise ValueError(f"non-integrable singularity at r=0: r^-1 ln^{beta:g}(1/r)")
    u_lo = -math.log(hi)  # not ln(1/hi): 1/r is inf for a subnormal r
    if lo == 0.0:
        return (beta + 1.0) * math.log(u_lo) - math.log(-beta - 1.0)
    log_hi_lo = math.log1p((hi - lo) / lo) if hi < 2.0 * lo else -math.log(lo) - u_lo
    spread = math.log1p(log_hi_lo / u_lo)
    if beta == -1.0:
        return math.log(spread)
    b = beta + 1.0
    return (b * (math.log(u_lo) + (spread if b > 0 else 0.0)) - math.log(abs(b))
            + math.log(-math.expm1(-abs(b) * spread)))


def radial_integral(beta: float, d: int, lo: float, hi: float) -> float:
    """ln of the mass of |x|^{-d} ln^beta(1/|x|) over 0 <= lo < |x| < hi < 1."""
    return _log_u_integral(beta, lo, hi) + dimension_constants(d).log_sphere_area


def _logsumexp(x):
    """ln sum_i exp(x_i) along the first axis."""
    top = x.max(axis=0)
    return top + np.log(np.exp(x - top).sum(axis=0))


@functools.lru_cache(maxsize=_MULTINOMIAL_CACHE_SIZE)
def _multinomial(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (n_1, ..., n_m) >= 0 with sum n, the last fixed by the others, one row each,
    and ln n! / (n_1! ... n_m!) of each row: read-only, built once per (n, m)."""
    head = np.indices((n + 1,) * (m - 1)).reshape(m - 1, -1).T
    head = head[head.sum(axis=1) <= n]
    powers = np.column_stack([head, n - head.sum(axis=1)])
    log_multinomial = _LOG_FACTORIAL[n] - _LOG_FACTORIAL[powers].sum(axis=1)
    for array in (powers, log_multinomial):
        array.setflags(write=False)
    return powers, log_multinomial


def _expansion(terms, p: float):
    """F^p as its Gaussians, (ln coefficient, rate) arrays, for an integer p whose
    multinomial expansion has at most _MAX_EXPANSION terms; else None."""
    if not (p == int(p) and (p + 1) ** (len(terms) - 1) <= _MAX_EXPANSION):
        return None
    powers, log_multinomial = _multinomial(int(p), len(terms))
    log_c, rates = np.array(terms).T
    with np.errstate(over="ignore"):  # a coefficient's log beyond the floats is +-inf
        return log_multinomial + powers @ log_c, powers @ rates


def _log_trapezoid(terms, k: float, p: float, ref: int, moments):
    """For each m in moments, ln of the integral of r^{k+m-1} F(r)^p dr less
    k t_ref + p (ln c_ref - u_ref) + m t_ref, by the trapezoid rule in tau = ln r - t_ref.

    The exponent is (k + m) tau + p ln sum_i e^{e_i}, e_i = ln c_i - ln c_ref + u_ref -
    u_i e^{2 tau} with u_i = pi a_i e^{2 t_ref}, u_ref = k / (2p); the dominant term takes
    -u_ref expm1(2 tau), so no O(k ln k) number is rounded near the peak.  Analytic and
    falling off exponentially, it converges geometrically.  Term i alone peaks at
    ln(a_ref / a_i) / 2 + ln(1 + m/k) / 2; past the extreme peaks the mixture falls at
    least as fast as one term, by (k/2) u^2 / (2 + u), u = 2 (min tau_i - tau), below and
    k (tau - max tau_i)^2 above, so it lies 75 under its peak past lo and hi.  The step
    starts at the peak width 1/sqrt(2k) over sqrt 2 and halves until each sum agrees with
    the last to TRAPEZOID_RTOL, or to the exponent's rounding if larger.  The moments
    share their nodes, so a node's rounding enters each alike, unless that needs more
    than _MAX_NODES / 4 nodes.
    """
    log_c_ref, rate_ref = terms[ref]
    u_ref = 0.5 * k / p
    others = [(lc - log_c_ref + u_ref, math.log(u_ref) + math.log(rate) - math.log(rate_ref))
              for lc, rate in terms if rate != rate_ref]
    peaks = [0.5 * (math.log(rate_ref) - math.log(rate)) for _, rate in terms]

    def log_density(tau):  # k tau and p ln sum_i e^{e_i}
        two_tau = 2.0 * tau
        with np.errstate(over="ignore"):  # an exponent of -inf is an exact 0
            rows = [-u_ref * np.expm1(two_tau)]
            rows += [offset - np.exp(log_u + two_tau) for offset, log_u in others]
            return k * tau, p * functools.reduce(np.logaddexp, rows)

    def span(m):
        y, centre = 150.0 / (k + m), 0.5 * math.log1p(m / k)
        return (centre + min(peaks) - 0.25 * (y + math.sqrt(y * (y + 8.0))),
                centre + max(peaks) + math.sqrt(0.5 * y), 0.5 / math.sqrt(k + m))

    def sums(lo, hi, step, ms):
        integrand = f"r^{k + max(ms) - 1:g} F(r)^{p:g}"
        if not (hi - lo) / step < _MAX_NODES // 4:
            raise ValueError(f"the integrand {integrand} peaks too narrowly for the "
                             f"{_MAX_NODES}-node trapezoid rule")
        nodes = lo + step * np.arange(math.ceil((hi - lo) / step) + 1)
        power, log_mix = log_density(nodes)
        size = float((abs(power) + abs(log_mix)).max()) + max(ms) * float(abs(nodes).max())
        rtol = max(TRAPEZOID_RTOL, sys.float_info.epsilon * size)
        exponents = [power + log_mix + m * nodes if m else power + log_mix for m in ms]
        shifts = [float(x.max()) for x in exponents]
        totals = [step * float(np.exp(x - s).sum()) for x, s in zip(exponents, shifts)]
        while True:
            mids = nodes + 0.5 * step
            power, log_mix = log_density(mids)
            values = power + log_mix
            refined = [0.5 * total + 0.5 * step
                       * float(np.exp((values + m * mids if m else values) - s).sum())
                       for m, s, total in zip(ms, shifts, totals)]
            if all(abs(r - t) <= rtol * r for r, t in zip(refined, totals)):
                return [s + math.log(r) for s, r in zip(shifts, refined)]
            if 2 * nodes.size > _MAX_NODES:
                raise ValueError(f"the trapezoid rule for {integrand} did not converge in "
                                 f"{_MAX_NODES} nodes")
            nodes, step, totals = np.concatenate([nodes, mids]), 0.5 * step, refined

    spans = [span(m) for m in moments]
    lo, hi, step = min(s[0] for s in spans), max(s[1] for s in spans), min(s[2] for s in spans)
    if len(moments) == 1 or (hi - lo) / step < _MAX_NODES // 4:
        return sums(lo, hi, step, moments)
    return [sums(*s, (m,))[0] for s, m in zip(spans, moments)]


def _log_one_term_ratios(xs, a: float, rate: float) -> list[float]:
    """ln Gamma(x + a) - ln Gamma(x) - a ln(2 pi a rate) for each x of xs, the log mean of
    r^{2a} under r^{2x-1} e^{-2 pi a rate r^2}; from a ~ 2.5e305 on, where that leaves the
    floats, by Stirling's formula for Gamma(x + a) summed per unit a."""
    log_scale = a * math.log(math.pi * (2.0 * a) * rate)
    log_2pi = math.log(2.0 * math.pi)
    return [r if math.isfinite(r := log_ratio - log_scale) else a * (
        math.log1p(x / a) - log_2pi - 1.0 - math.log(rate)
        + ((x - 0.5) * math.log(x + a) - x + 0.5 * log_2pi - log_gamma(x)) / a)
        for x, log_ratio in zip(xs, _log_gamma_ratios(xs, a))]


def _log_moments(terms, k: float, p: float, m: float = 0.0) -> tuple[float, float]:
    """The log mass, ln of the integral of r^{k-1} F(r)^p dr for the mixture F of these terms,
    and the log mean of r^m under that density, one quotient: no two logs of size (k/2) ln k
    are subtracted, and m = 0 (a mean of 1) does no work for it.  One term c e^{-pi a r^2}
    has the mass c^p Gamma(k/2) / (2 (pi p a)^{k/2}).  An integer p expands F^p into
    Gaussians G_j of masses Gamma(k/2) / (2 (pi R_j)^{k/2}), whose mean of (pi R_j)^{-m/2}
    times the Gamma quotient is the mean.  Any other p takes _log_trapezoid about the
    dominant term, whose r^{k-1} (c e^{-pi a r^2})^p has the largest integral and peaks at
    ln r = t_ref, pi a r^2 = k / (2p); the mean is e^{m t_ref} times the quotient of its sums
    with and without r^m.  Where m t_ref is infinite, the mass is left NaN.  Terms of one
    rate are first merged into one, ln c the logaddexp of theirs: g_1 is the Gaussian."""
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    merged = {}
    for log_c, rate in terms:
        merged[rate] = float(np.logaddexp(merged[rate], log_c)) if rate in merged else log_c
    terms = [(log_c, rate) for rate, log_c in merged.items()]
    half, a = 0.5 * k, 0.5 * m
    try:  # the closed forms' mass factor; no mean needs it
        log_gamma_half = log_gamma(half)
    except OverflowError:  # from k ~ 5.1e305 on; the one-term mass takes Stirling's series
        log_gamma_half = math.inf
    if len(terms) == 1:
        log_c, rate = terms[0]
        if math.isfinite(log_gamma_half):
            log_gamma_scaled = log_gamma_half - half * math.log(math.pi * p * rate)
        else:  # Stirling's series, its (k/2) ln(k/2) and (k/2) ln(pi p a) in one log
            log_gamma_scaled = (half * (math.log(half / (math.pi * p * rate)) - 1.0)
                                - 0.5 * math.log(half / (2.0 * math.pi)) + _stirling_tail(half))
        log_mass = p * log_c + log_gamma_scaled - LOG_2
        # rate * (p / m) is rate itself at m = p
        return log_mass, _log_one_term_ratios((half,), a, rate * (p / m))[0] if m else 0.0
    if (expansion := _expansion(terms, p)) is not None:
        log_coef, rates = expansion
        # a log mass beyond the floats (k ~ 1e308) gives a NaN mean, which the callers refuse
        with np.errstate(over="ignore", invalid="ignore"):
            log_pi_rates = np.log(math.pi * rates)
            log_masses = log_coef - half * log_pi_rates  # less ln Gamma(k/2) / 2
            log_mass = float(_logsumexp(log_masses)) + log_gamma_half - LOG_2
            if not m:
                return log_mass, 0.0
            # ref has the largest mass times (pi R_j)^{-m/2}; equal rates give a mean of 1
            ref = int(np.argmax(log_masses - a * log_pi_rates))
            shifted = log_masses - log_masses[ref]
            log_mean = (_logsumexp(shifted - a * (log_pi_rates - log_pi_rates[ref]))
                        - _logsumexp(shifted))
        return log_mass, (_log_gamma_ratios((half,), a)[0]
                          - a * math.log(math.pi * float(rates[ref])) + float(log_mean))
    ref = max(range(len(terms)), key=lambda i: p * terms[i][0] - half * math.log(terms[i][1]))
    log_c_ref, rate = terms[ref]
    quotient = k / (2.0 * math.pi * p * rate)  # one rounded log: k t_ref is O(k ln k)
    two_t_ref = (math.log(quotient) if 0.0 < quotient < math.inf else
                 math.log(k) - math.log(2.0 * math.pi) - math.log(p) - math.log(rate))
    scale = a * two_t_ref  # m t_ref, which the quotient of the sums cannot undo if infinite
    if not math.isfinite(scale):
        return math.nan, scale
    log_sums = _log_trapezoid(terms, k, p, ref, (0.0, m) if m else (0.0,))
    log_mass = half * (two_t_ref - 1.0) + p * log_c_ref + log_sums[0]
    return log_mass, scale + log_sums[1] - log_sums[0] if m else 0.0


def radial_weighted_norm(
    profile: RadialProfile, d: int, p: float, weight_exponent: float
) -> float:
    """ln of (omega_{d-1} * integral of r^{p*w} F(r)^p r^{d-1} dr)^{1/p} for a Gaussian
    mixture F: _log_moments' mass at k = p*w + d.  weight_exponent 0 gives ln ||f||_p, and
    1 gives ln V_p(f)^{1/p}.  A weight p*w that k loses to rounding raises, as does a mass
    with no finite log."""
    if weight_exponent < 0:
        raise ValueError("weight_exponent must be nonnegative")
    geom = dimension_constants(d)
    weight = p * weight_exponent
    k = weight + d  # the integrand behaves like r^{k-1} near 0
    # an error e in k moves ln I by about e ln(k) / 2: refuse one above 1e-6 of the
    # weight, or of 1 for a weight below 1, where it no longer matters
    if abs((k - d) - weight) > 1e-6 * max(weight, 1.0):
        raise ValueError(f"the weight p*w={weight:g} is lost to rounding in p*w + d at d={d:.6g}")
    log_mass, _ = _log_moments(profile.terms, k, p)
    if not math.isfinite(log_mass):
        raise ValueError(f"the integral of r^{k - 1:g} F(r)^{p:g} has no finite log: {log_mass}")
    return (geom.log_sphere_area + log_mass) / p


def log_moment_ratio(profile: RadialProfile, d: int, p: float) -> float:
    """ln of V_p(F) / ||F||_p^p for a Gaussian mixture F on R^d, the log mean of r^p under
    the density r^{d-1} F(r)^p (_log_moments at k = d, m = p): omega_{d-1} and F's scale
    cancel before any rounding, so it is no difference of two logs of size (d/2) ln d."""
    _check_dimension(d)
    return _log_moments(profile.terms, float(d), p, p)[1]


def gaussian_log_products(ds, p: float) -> list[float]:
    """ln of V_p(g)/||g||_p^p * V_p(g^)/||g^||_p^p for the standard Gaussian g over the
    dimensions ds, self-dual: twice its log_moment_ratio, the one-term ratio at rate 1.  A
    log beyond the floats raises."""
    _check_dimension(*ds)
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    log_products = [2.0 * r for r in _log_one_term_ratios([0.5 * d for d in ds], 0.5 * p, 1.0)]
    if not all(map(math.isfinite, log_products)):
        d, log_product = next(pair for pair in zip(ds, log_products) if not math.isfinite(pair[1]))
        raise ValueError(f"the Gaussian uncertainty product at d={d}, p={p:g} has no finite "
                         f"log: ln product = {log_product:.6g}")
    return log_products


def gaussian_log_product(d: int, p: float) -> float:
    """gaussian_log_products at the one dimension d."""
    return gaussian_log_products((d,), p)[0]
