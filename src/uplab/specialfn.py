"""Log-domain Gamma machinery and sphere/ball geometric constants.

Everything downstream (parameter selection, Gaussian closed forms, dimension
sweeps) consumes Gamma quotients that overflow in linear arithmetic near
d ~ 170, so all quantities here are carried as natural logs.  Each is one loop over many
dimensions that calls math.lgamma directly; dimension_constants reads its one d from it.
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


def _log_gamma_ratios(xs, a: float) -> list[float]:
    """ln Gamma(x + a) - ln Gamma(x) for each x > 0 of xs, a >= 0; inf beyond the floats.

    Below _STIRLING_MIN it is the difference of the two lgamma values; from there
    Stirling's series gives (x - 1/2) ln(1 + a/x) + a ln(x + a) - a plus the difference of
    the series' tails, whose terms are no larger than a ln(x + a).
    """
    ratios = []
    for x in xs:
        try:
            ratios.append(math.lgamma(x + a) - math.lgamma(x) if x < _STIRLING_MIN else
                          (x - 0.5) * math.log1p(a / x) + a * math.log(x + a) - a
                          + _stirling_tail(x + a) - _stirling_tail(x))
        except OverflowError:  # ln Gamma(x + a) beyond the floats, ln Gamma(x) < 1200
            ratios.append(math.inf)
    return ratios


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


def _check_dimension(*ds) -> None:
    """Reject a dimension of ds below 1, or beyond the floats, where d / 2 raises OverflowError."""
    for d in (min(ds), max(ds)) if ds else ():
        if not 1 <= d <= sys.float_info.max:
            raise ValueError(f"dimension must be >= 1 and at most {sys.float_info.max:.4g}, "
                             f"got {d}")


def dimension_logs(ds) -> tuple[list[float], list[float]]:
    """The columns ln omega_{d-1} and ln v_d over the dimensions ds, each d >= 1: the one
    place they are computed, for a sweep's column and dimension_constants' one d alike."""
    _check_dimension(*ds)
    log_areas, log_volumes = [], []
    for d in ds:
        half = 0.5 * d
        try:
            log_areas.append(LOG_2 + half * LOG_PI - math.lgamma(half))
            log_volumes.append(half * LOG_PI - math.lgamma(half + 1.0))
        except OverflowError:  # ln Gamma(d/2) passes the largest float from d ~ 5.1e305 on
            raise ValueError(f"ln Gamma(d/2) at d={d:.4g} exceeds the float range") from None
    return log_areas, log_volumes


def dimension_constants(d: int) -> DimensionConstants:
    """Sphere area and ball volume for dimension d >= 1."""
    (log_area,), (log_vol,) = dimension_logs((d,))
    return DimensionConstants(d=d, log_sphere_area=log_area, log_ball_volume=log_vol)
