"""Log-domain Gamma machinery and sphere/ball geometric constants.

Everything downstream (parameter selection, Gaussian closed forms, dimension
sweeps) consumes Gamma quotients that overflow in linear arithmetic near
d ~ 170, so all quantities here are carried as natural logs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)
LOG_MAX = math.log(sys.float_info.max)
LOG_MIN = math.log(sys.float_info.min)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


# from x = 256 on (d = 512 for x = d/2) ln Gamma(x + a) - ln Gamma(x) is taken from
# Stirling's series: the difference of two lgamma values errs by up to the ulps of
# ln Gamma(x), about 1e-12 at x = 256 and 1e-6 at x = 5e9.  Below it the difference
# is kept, and with it the bits of every golden sweep row (d <= 500)
_STIRLING_MIN = 256.0


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), to 1e-20 for z >= _STIRLING_MIN."""
    inv = 1.0 / z
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))


def _log_gamma_ratio(x: float, a: float) -> float:
    """ln Gamma(x + a) - ln Gamma(x) for x > 0 and a >= 0; inf where it leaves the floats.

    Below _STIRLING_MIN it is the difference of the two log_gamma values; from there
    Stirling's series gives (x - 1/2) ln(1 + a/x) + a ln(x + a) - a plus the difference of
    the series' tails, whose terms are no larger than a ln(x + a).
    """
    if x < _STIRLING_MIN:
        try:
            return log_gamma(x + a) - log_gamma(x)
        except OverflowError:  # ln Gamma(x + a) beyond the floats, ln Gamma(x) < 1200
            return math.inf
    return ((x - 0.5) * math.log1p(a / x) + a * math.log(x + a) - a
            + _stirling_tail(x + a) - _stirling_tail(x))


@dataclass(frozen=True)
class DimensionConstants:
    """Geometric constants of the unit sphere/ball in R^d, in log domain.

    log_sphere_area is ln of the surface area of S^{d-1}
    (omega_{d-1} = 2 pi^{d/2} / Gamma(d/2)); log_ball_volume is ln of the
    unit-ball volume (v_d = pi^{d/2} / Gamma(d/2 + 1)).
    """

    d: int
    log_sphere_area: float
    log_ball_volume: float

    @property
    def sphere_area(self) -> float:
        return math.exp(self.log_sphere_area)

    @property
    def ball_volume(self) -> float:
        return math.exp(self.log_ball_volume)


def _check_dimension(d: int) -> None:
    """Reject a dimension below 1, or beyond the floats, where d / 2 raises OverflowError."""
    if not 1 <= d <= sys.float_info.max:
        raise ValueError(f"dimension must be >= 1 and at most {sys.float_info.max:.4g}, got {d}")


def dimension_constants(d: int) -> DimensionConstants:
    """Sphere area and ball volume for dimension d >= 1."""
    _check_dimension(d)
    half = 0.5 * d
    log_area = LOG_2 + half * LOG_PI - log_gamma(half)
    log_vol = half * LOG_PI - log_gamma(half + 1.0)
    return DimensionConstants(d=d, log_sphere_area=log_area, log_ball_volume=log_vol)

