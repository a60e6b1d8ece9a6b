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


def _log_c_d(d: int, s: float) -> float:
    # half-mass normalization (c_d^d v_d)^{1/s} = 1/2
    geom = dimension_constants(d)
    return (-s * LOG_2 - geom.log_ball_volume) / d


def _ball_volumes(d_max: int) -> list[float]:
    # v_d = (2 pi / d) v_{d-2} from v_0 = 1 and v_1 = 2 (exact), stable until underflow
    volumes = [1.0, 2.0]
    for d in range(2, d_max + 1):
        volumes.append(volumes[d - 2] * (2.0 * math.pi / d))
    return volumes


_BALL_VOLUMES = _ball_volumes(400)


def l2_params(d: int) -> WigdersonParams:
    """The L^2 parameter bundle for dimension d (epsilon = 1 implicitly)."""
    _check_dimension(d)
    a = 2.0 * (d + 1) / (d + 3)
    r = (d + 3) / (d + 1)
    s = (d + 3) / 2.0
    geom = dimension_constants(d)
    log_c = _log_c_d(d, s)
    log_bound = math.log(1.0 / 16.0) + (2.0 / (d + 1)) * 2.0 * (log_c - geom.log_sphere_area)
    v = _BALL_VOLUMES[d] if d < len(_BALL_VOLUMES) else math.inf  # inf: the log path
    c_lin = (0.5**s / v) ** (1.0 / d) if 0 < v < math.inf else math.nan
    bound_lin = math.nan
    if math.isfinite(c_lin) and c_lin > 0:
        log_c = math.log(c_lin)
        omega_sq = (d * v) ** 2
        if omega_sq > 0 and math.isfinite(omega_sq):
            bound_lin = (1.0 / 16.0) * (c_lin * c_lin / omega_sq) ** (2.0 / (d + 1))
    else:
        c_lin = math.exp(log_c)
    if math.isfinite(bound_lin) and bound_lin > 0:
        log_bound = math.log(bound_lin)
    else:
        bound_lin = math.exp(log_bound)
    return WigdersonParams(
        d=d, p=2.0, epsilon=1.0, a=a, r=r, s=s,
        log_c_d=log_c, log_bound=log_bound, c_d=c_lin, bound=bound_lin,
    )


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


def lp_params(d: int, p: float) -> WigdersonParams:
    """The L^p parameter bundle for (d, p) in the subcritical range."""
    eps = lp_epsilon(d, p)
    a = p * (d + eps) / (d + eps + p)
    r = p / a
    s = (d + eps + p) / p
    geom = dimension_constants(d)
    log_c = _log_c_d(d, s)
    log_bound = math.log(0.25) + 2.0 * (r - 1.0) * (
        math.log(eps) + eps * log_c - LOG_2 - geom.log_sphere_area
    )
    return WigdersonParams(
        d=d, p=p, epsilon=eps, a=a, r=r, s=s,
        log_c_d=log_c, log_bound=log_bound,
        c_d=math.exp(log_c), bound=math.exp(log_bound),
    )


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
    """The window-midpoint delta for a feasible Cowling-Price tuple."""
    base = 1.0 + d / (phi * q)
    lower = base - (1.0 - 1.0 / p) * base * d / theta
    candidates = [base, 1.0 + d / (theta * p)]
    if p >= 2:
        candidates.append(base - (0.5 - 1.0 / p) * base * d / theta)
    upper = min(candidates)
    lower = max(0.0, lower)
    if not upper > lower:
        raise ValueError(
            f"empty delta window for (d={d}, p={p}, q={q}, theta={theta}, phi={phi}); "
            "tuple is not feasible"
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
    r = 2.0 / a
    s = r / (r - 1.0)
    r1 = p / a
    s1 = r1 / (r1 - 1.0)
    b = theta * p / r1
    r1_t = q / a
    s1_t = r1_t / (r1_t - 1.0)
    b_t = phi * q / r1_t
    geom = dimension_constants(d)
    log_c = _log_c_d(d, s)
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
