"""Parameter-selection procedures and their certified method lower bounds.

Three families of choices are implemented:

* the L^2 choices a = 2(d+1)/(d+3), r = (d+3)/(d+1), s = (d+3)/2 with the
  half-mass normalization (c_d^d v_d)^{1/s} = 1/2,
* the L^p choices a = p(d+eps)/(d+eps+p) for an admissible eps,
* the Cowling-Price choices built from a window parameter delta.

All free choices (eps for 2 < p, delta) use the midpoint of their admissible
window so results are deterministic.  Constants that span hundreds of orders
of magnitude for large d (c_d, omega_{d-1}, the certified bounds) are carried
as natural logs and only exponentiated at the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specialfn import LOG_2, _check_dimension, dimension_constants

EQ_TOL = 1e-12


@dataclass(frozen=True)
class WigdersonParams:
    """Exponent/threshold bundle certifying an uncertainty lower bound at (d, p).

    c_d and bound duplicate log_c_d / log_bound in linear scale; for small d
    they are computed by direct arithmetic (exact for the power-of-two values
    of the one-dimensional case), for large d by exponentiating the logs.
    log_sphere_area is ln omega_{d-1}, from the same constants as log_c_d.
    """

    d: int
    p: float
    epsilon: float
    a: float
    r: float
    s: float
    log_c_d: float
    log_bound: float
    c_d: float
    bound: float
    log_sphere_area: float


@dataclass(frozen=True)
class CowlingPriceParams:
    """Full exponent bundle for a feasible Cowling-Price tuple (d, p, q, theta, phi)."""

    d: int
    p: float
    q: float
    theta: float
    phi: float
    delta: float
    epsilon: float
    epsilon_tilde: float
    a: float
    r: float
    s: float
    b: float
    r1: float
    s1: float
    b_tilde: float
    r1_tilde: float
    s1_tilde: float
    log_c_d: float
    log_bound: float


def _log_c_d(d: int, log_ball_volume: float, s: float) -> float:
    # half-mass normalization (c_d^d v_d)^{1/s} = 1/2
    return (-s * LOG_2 - log_ball_volume) / d


def _ball_volumes(d_max: int) -> list[float]:
    # v_d = (2 pi / d) v_{d-2} from v_0 = 1 and v_1 = 2 (exact), stable until underflow
    volumes = [1.0, 2.0]
    for d in range(2, d_max + 1):
        volumes.append(volumes[d - 2] * (2.0 * math.pi / d))
    return volumes


_BALL_VOLUMES = _ball_volumes(400)


def _at(d: int, columns, *args) -> tuple[float, ...]:
    """Row d of columns(ds, log_areas, log_volumes, *args), from dimension_constants(d)."""
    geom = dimension_constants(d)
    return next(zip(*columns((d,), (geom.log_sphere_area,), (geom.log_ball_volume,), *args)))


def l2_columns(ds, log_areas, log_volumes) -> tuple[tuple[float, ...], ...]:
    """The L^2 closed forms over the dimensions ds, from their ln omega_{d-1} and ln v_d
    columns (specialfn.dimension_logs): one column for each of WigdersonParams' fields
    after d, p and epsilon, (a, r, s, log_c_d, log_bound, c_d, bound, log_sphere_area)."""
    log_16th, rows = math.log(1.0 / 16.0), []
    for d, log_omega, log_vol in zip(ds, log_areas, log_volumes):
        a = 2.0 * (d + 1) / (d + 3)
        r = (d + 3) / (d + 1)
        s = (d + 3) / 2.0
        c_lin = bound_lin = math.nan  # linear while v_d is a positive float
        if d < len(_BALL_VOLUMES) and (v := _BALL_VOLUMES[d]) > 0:
            c_lin = (0.5**s / v) ** (1.0 / d)
        if 0 < c_lin < math.inf:
            log_c = math.log(c_lin)
            omega_sq = (d * v) ** 2
            if 0 < omega_sq < math.inf:
                bound_lin = (1.0 / 16.0) * (c_lin * c_lin / omega_sq) ** (2.0 / (d + 1))
        if 0 < bound_lin < math.inf:
            log_bound = math.log(bound_lin)
        else:  # the log path, from the log path's ln c_d
            log_c_d = _log_c_d(d, log_vol, s)
            log_bound = log_16th + (2.0 / (d + 1)) * 2.0 * (log_c_d - log_omega)
            bound_lin = math.exp(log_bound)
            if not 0 < c_lin < math.inf:
                log_c, c_lin = log_c_d, math.exp(log_c_d)
        rows.append((a, r, s, log_c, log_bound, c_lin, bound_lin, log_omega))
    return tuple(zip(*rows))


def l2_params(d: int) -> WigdersonParams:
    """The L^2 parameter bundle for dimension d (epsilon = 1 implicitly)."""
    return WigdersonParams(d, 2.0, 1.0, *_at(d, l2_columns))


def _critical_exponent(d: int) -> float:
    """2d/(d-1) for d > 1, as 2 times the quotient: 2d itself overflows from d ~ 9e307."""
    return 2.0 * (d / (d - 1))


def lp_regime(d: int, p: float) -> str:
    """Classify p against the critical exponent 2d/(d-1)."""
    _check_dimension(d)
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if d == 1:
        return "subcritical"
    crit = _critical_exponent(d)
    if abs(p - crit) <= EQ_TOL * crit:
        return "critical"
    return "subcritical" if p < crit else "supercritical"


def lp_epsilon(d: int, p: float) -> float:
    """An admissible epsilon for the L^p parameter choice at (d, p)."""
    if lp_regime(d, p) != "subcritical":
        crit = _critical_exponent(d)
        raise ValueError(
            f"p must satisfy 1 < p < 2d/(d-1) = {crit:g} for d={d}, got p={p}"
        )
    if p <= 2:
        return p / (p - 1.0)
    lower = max(0.0, (d + p - d * p) / (p - 1.0))
    upper = (2.0 * d - p * (d - 1)) / (p - 2.0)
    if not upper > lower:
        raise ValueError(f"empty epsilon window for d={d}, p={p}")
    return 0.5 * (lower + upper)


def lp_columns(ds, log_areas, log_volumes, p: float, eps: float) -> tuple[tuple[float, ...], ...]:
    """The L^p closed forms over the dimensions ds at p, for an eps admissible at each d, in
    l2_columns' order and from the same constants."""
    log_quarter, log_eps, rows = math.log(0.25), math.log(eps), []
    for d, log_omega, log_vol in zip(ds, log_areas, log_volumes):
        a = p * (d + eps) / (d + eps + p)
        r = p / a
        s = (d + eps + p) / p
        log_c = _log_c_d(d, log_vol, s)
        log_bound = log_quarter + 2.0 * (r - 1.0) * (log_eps + eps * log_c - LOG_2 - log_omega)
        rows.append((a, r, s, log_c, log_bound, math.exp(log_c), math.exp(log_bound), log_omega))
    return tuple(zip(*rows))


def lp_params(d: int, p: float) -> WigdersonParams:
    """The L^p parameter bundle for (d, p) in the subcritical range."""
    eps = lp_epsilon(d, p)
    return WigdersonParams(d, p, eps, *_at(d, lp_columns, p, eps))


def primary_up_admissible(a: float, p: float) -> bool:
    """True iff (a, p) satisfies 1 < a < p and 1/a + 1/p >= 1."""
    return 1.0 < a < p and 1.0 / a + 1.0 / p >= 1.0


def cp_classify(d: int, p: float, q: float, theta: float, phi: float) -> str:
    """feasible / endpoint / violated by theta/d against 1/2 - 1/p (phi follows by
    homogeneity); the tolerance is relative, so p <= 2 and theta > 0 is never endpoint."""
    _check_dimension(d)
    if not (1 < p < math.inf and 1 < q < math.inf and 0 < theta < math.inf and 0 < phi < math.inf):
        raise ValueError("require 1 < p, q < inf and 0 < theta, phi < inf")
    if abs(1.0 / q + phi / d - 1.0 / p - theta / d) > EQ_TOL:
        raise ValueError(
            "homogeneity 1/q + phi/d = 1/p + theta/d fails; no classification applies"
        )
    lhs, rhs = theta / d, 0.5 - 1.0 / p
    if abs(lhs - rhs) <= EQ_TOL * max(abs(lhs), abs(rhs)):
        return "endpoint"
    return "feasible" if lhs > rhs else "violated"


def cp_feasible(d: int, p: float, q: float, theta: float, phi: float) -> bool:
    """True iff (d, p, q, theta, phi) admits a Cowling-Price inequality."""
    try:
        return cp_classify(d, p, q, theta, phi) == "feasible"
    except ValueError:
        return False


def cp_delta(d: int, p: float, q: float, theta: float, phi: float) -> float:
    """The window-midpoint delta for a feasible Cowling-Price tuple, whose window is
    empty only where rounding closes it."""
    base = 1.0 + d / (phi * q)
    lower = base - (1.0 - 1.0 / p) * base * d / theta
    candidates = [base, 1.0 + d / (theta * p)]
    if p >= 2:
        candidates.append(base - (0.5 - 1.0 / p) * base * d / theta)
    upper = min(candidates)
    lower = max(0.0, lower)
    if not upper > lower:
        raise ValueError(
            f"the delta window for (d={d}, p={p}, q={q}, theta={theta}, phi={phi}) is lost "
            "to rounding: theta and phi are too large against d"
        )
    return 0.5 * (lower + upper)


def cp_params(d: int, p: float, q: float, theta: float, phi: float) -> CowlingPriceParams:
    """The full Cowling-Price parameter bundle for a feasible tuple."""
    if cp_classify(d, p, q, theta, phi) != "feasible":
        raise ValueError(
            f"(d={d}, p={p}, q={q}, theta={theta}, phi={phi}) is not feasible"
        )
    delta = cp_delta(d, p, q, theta, phi)
    eps = d * delta * phi * q / (d + phi * q - delta * phi * q)
    eps_t = d * delta * theta * p / (d + theta * p - delta * theta * p)
    a = p / (1.0 + p * theta / (d + eps))
    r, r1, r1_t = 2.0 / a, p / a, q / a
    for name, value in (("r = 2/a", r), ("r1 = p/a", r1), ("r1_tilde = q/a", r1_t)):
        if value == 1.0:
            raise ValueError(f"the exponent {name} rounds to 1 at a={a!r}, so its conjugate "
                             f"is 1/0: theta={theta:g} is too small against d + epsilon")
    if not all(math.isfinite(x) for x in (delta, eps, eps_t)):
        raise ValueError(f"(d={d}, p={p}, q={q}, theta={theta}, phi={phi}) gives delta={delta:g}, "
                         f"epsilon={eps:g}, epsilon_tilde={eps_t:g}: theta and phi are too small "
                         "against d for finite parameters")
    s, s1, s1_t = r / (r - 1.0), r1 / (r1 - 1.0), r1_t / (r1_t - 1.0)
    b = theta * p / r1
    b_t = phi * q / r1_t
    geom = dimension_constants(d)
    log_c = _log_c_d(d, geom.log_ball_volume, s)
    log_omega = geom.log_sphere_area
    log_bound = (1.0 / (a * s1)) * (
        math.log(eps) + eps * log_c - s1 * LOG_2 - log_omega
    ) + (1.0 / (a * s1_t)) * (
        math.log(eps_t) + eps_t * log_c - s1_t * LOG_2 - log_omega
    )
    return CowlingPriceParams(
        d=d, p=p, q=q, theta=theta, phi=phi,
        delta=delta, epsilon=eps, epsilon_tilde=eps_t,
        a=a, r=r, s=s,
        b=b, r1=r1, s1=s1,
        b_tilde=b_t, r1_tilde=r1_t, s1_tilde=s1_t,
        log_c_d=log_c, log_bound=log_bound,
    )


def log_threshold(log_norm_a: float, log_norm_p: float, params: WigdersonParams) -> float:
    """ln of the half-mass radius T = c_d (||f||_a / ||f||_p)^{(d+eps)/d}, from the norms' logs."""
    if not (math.isfinite(log_norm_a) and math.isfinite(log_norm_p)):
        raise ValueError("norms must be positive and finite (f = 0 is excluded)")
    expo = (params.d + params.epsilon) / params.d
    return params.log_c_d + expo * (log_norm_a - log_norm_p)
