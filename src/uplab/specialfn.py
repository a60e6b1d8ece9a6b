"""Log-domain Gamma machinery and sphere/ball geometric constants.

Everything downstream (parameter selection, Gaussian closed forms, dimension
sweeps) consumes Gamma quotients that overflow in linear arithmetic near
d ~ 170, so all quantities here are carried as natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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


def dimension_constants(d: int) -> DimensionConstants:
    """Sphere area and ball volume for dimension d >= 1."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    half = 0.5 * d
    log_area = LOG_2 + half * LOG_PI - log_gamma(half)
    log_vol = half * LOG_PI - log_gamma(half + 1.0)
    return DimensionConstants(d=d, log_sphere_area=log_area, log_ball_volume=log_vol)

