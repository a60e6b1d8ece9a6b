"""Radial reduction of d-dimensional integrals, plus Gaussian closed forms.

A nonnegative radial function F(|x|) integrates over R^d as
omega_{d-1} * integral of F(r) r^{d-1} dr, which is the only high-d
integration strategy used here: the test functions are either radial or
live on low-dimensional grids (module grid).

Gaussian mixtures get a closed-form incomplete-Gamma fast path; everything
else goes through adaptive quadrature at 1e-10 relative tolerance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .specialfn import dimension_constants, log_gamma

QUAD_RTOL = 1e-10


@dataclass(frozen=True)
class RadialProfile:
    """A radial function on (0, infinity).

    Either a Gaussian mixture sum_i c_i exp(-pi rate_i r^2) (``terms``), or a
    power/log profile r^alpha * ln(1/r)^beta supported on (0, 1/2]
    (``power_log`` = (alpha, beta)).
    """

    terms: tuple[tuple[float, float], ...] = field(default=())
    power_log: tuple[float, float] | None = None

    def __post_init__(self):
        if bool(self.terms) == (self.power_log is not None):
            raise ValueError("profile must have either Gaussian terms or a power_log term")
        for _, rate in self.terms:
            if not rate > 0:
                raise ValueError(f"gaussian_rate must be positive, got {rate}")

    @property
    def is_gaussian(self) -> bool:
        return bool(self.terms)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.is_gaussian:
            out = np.zeros_like(r)
            for coef, rate in self.terms:
                out = out + coef * np.exp(-math.pi * rate * r * r)
            return out
        alpha, beta = self.power_log
        if beta == 0.0:
            return r**alpha
        with np.errstate(divide="ignore"):
            return r**alpha * np.log(1.0 / r) ** beta


def gaussian_profile(rate: float = 1.0, coefficient: float = 1.0) -> RadialProfile:
    return RadialProfile(terms=((coefficient, rate),))


def _gaussian_radial_moment(rate: float, k: int, lo: float, hi: float) -> float:
    """integral over (lo, hi) of exp(-pi*rate*r^2) r^{k-1} dr, closed form."""
    half = 0.5 * k
    scale = math.exp(log_gamma(half) - half * math.log(math.pi * rate)) / 2.0
    p_hi = 1.0 if math.isinf(hi) else special.gammainc(half, math.pi * rate * hi * hi)
    p_lo = special.gammainc(half, math.pi * rate * lo * lo)
    return scale * (p_hi - p_lo)


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


def _quad(fn, lo: float, hi: float, points=()) -> float:
    """Adaptive quadrature on (lo, hi), hi possibly infinite."""
    pts = sorted({p for p in points if lo < p < hi})
    edges = [lo, *pts, hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = integrate.quad(fn, a, b, epsabs=0.0, epsrel=QUAD_RTOL, limit=200)
        total += val
    return total


def radial_integral(profile: RadialProfile, d: int, lo: float, hi: float) -> float:
    """omega_{d-1} * integral over (lo, hi) of F(r) r^{d-1} dr."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if lo < 0 or hi <= lo:
        raise ValueError(f"invalid radial range ({lo}, {hi})")
    omega = dimension_constants(d).sphere_area
    if profile.is_gaussian:
        return omega * sum(
            coef * _gaussian_radial_moment(rate, d, lo, hi) for coef, rate in profile.terms
        )
    alpha, beta = profile.power_log
    if beta != 0.0 and hi > 1.0:
        raise ValueError("log-power profiles are only defined for r < 1")
    rate = _power_rate(alpha, d)
    _check_power_integrability(rate, beta, lo, hi)
    if beta == 0.0:
        if rate == 0.0:
            return omega * (math.log(hi) - math.log(lo))
        return omega * (hi**rate - (0.0 if lo == 0.0 else lo**rate)) / rate
    return omega * _log_substituted_integral(rate, beta, lo, hi)


def _log_substituted_integral(rate: float, beta: float, lo: float, hi: float) -> float:
    """integral over (lo, hi) of r^{rate-1} ln^beta(1/r) dr via u = ln(1/r), which
    turns the r = 0 log-singularity into the smooth e^{-rate u} u^beta on
    (ln(1/hi), ln(1/lo)).  Down to r = 0 that range is infinite and, at rate 0,
    holds its mass out at u ~ e^{1/|beta+1|}; so past u = 1 it goes on in
    t = ln u, over pieces of doubling width until one adds nothing.
    """
    u_lo = 0.0 if hi >= 1.0 else math.log(1.0 / hi)
    u_hi = math.inf if lo == 0.0 else math.log(1.0 / lo)

    def integrand(u):
        return math.exp(-rate * u) * u**beta if u > 0 else 0.0

    def log_integrand(t):
        # e^t overflows past t = 709, where any rate > 0 has long underflowed the integrand
        return math.exp((beta + 1.0) * t - rate * math.exp(min(t, 709.0)))

    if u_hi < math.inf:
        return _quad(integrand, u_lo, u_hi)
    total, piece = _quad(integrand, u_lo, max(u_lo, 1.0)), math.inf
    t, width = math.log(max(u_lo, 1.0)), 1.0
    while piece > 1e-17 * total:
        piece = _quad(log_integrand, t, t + width)
        total, t, width = total + piece, t + width, 2.0 * width
    return total


def _gaussian_scales(profile: RadialProfile):
    return tuple(1.0 / math.sqrt(rate) for _, rate in profile.terms)


def radial_weighted_norm(
    profile: RadialProfile, d: int, p: float, weight_exponent: float
) -> float:
    """(omega_{d-1} * integral of r^{p*w} F(r)^p r^{d-1} dr)^{1/p}.

    weight_exponent 0 gives ||f||_p; weight_exponent 1 with exponent p gives
    the p-th moment V_p(f)^{1/p}.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if weight_exponent < 0:
        raise ValueError("weight_exponent must be nonnegative")
    omega = dimension_constants(d).sphere_area
    k = p * weight_exponent + d  # integrand behaves like r^{k-1} near 0
    if profile.is_gaussian:
        if len(profile.terms) == 1:
            coef, rate = profile.terms[0]
            half = 0.5 * k
            moment = math.exp(log_gamma(half) - half * math.log(math.pi * p * rate)) / 2.0
            return (omega * abs(coef) ** p * moment) ** (1.0 / p)

        def integrand(r):
            # log domain: r^(k-1) alone overflows at large r and k
            mix = sum(coef * math.exp(-math.pi * rate * r * r) for coef, rate in profile.terms)
            if mix == 0.0:
                return 0.0
            return math.exp((k - 1.0) * math.log(r) + p * math.log(abs(mix)))

        total = _quad(integrand, 0.0, math.inf, points=_gaussian_scales(profile))
        return (omega * total) ** (1.0 / p)
    alpha, beta = profile.power_log
    # F^p shifts the exponents: the integrand is r^{k + p alpha - 1} ln^{p beta}(1/r)
    rate = _power_rate(p * weight_exponent, d, p * alpha)
    _check_power_integrability(rate, p * beta, 0.0, 0.5)
    total = _log_substituted_integral(rate, p * beta, 0.0, 0.5)
    return (omega * total) ** (1.0 / p)


def gaussian_log_product(d: int, p: float) -> float:
    """ln of V_p(g)/||g||_p^p * V_p(g^)/||g^||_p^p for the standard Gaussian.

    The standard Gaussian is self-dual, so the product is the square of one
    ratio: (pi p)^{-p} * (Gamma((p+d)/2) / Gamma(d/2))^2.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    return (
        -p * math.log(math.pi * p)
        + 2.0 * (log_gamma(0.5 * (p + d)) - log_gamma(0.5 * d))
    )


def gaussian_uncertainty_product(d: int, p: float) -> float:
    """The Gaussian uncertainty product itself, exp of gaussian_log_product."""
    return math.exp(gaussian_log_product(d, p))
