"""End-to-end experiments: dimension and two-scale sweeps, per-function
inequality chains, and the Cowling-Price trichotomy pipeline.

Every pass/fail rule lives here; the CLI only maps a verdict to an exit code.
Sweeps are deterministic and emit one row per dimension; summaries report the
first dimension d0 from which every flag holds and least-squares slopes of
ln(bound) against ln(d) (window start 50 avoids small-d transients).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import counterexamples as cx
from .grid import (
    DEFAULT_SPECS,
    GridFunction,
    _ball_sum,
    _beside,
    _boundary_ratio,
    _bump_terms,
    _fourier_pass,
    _require_decay,
    _row_blocks,
    _separable_norms,
    _two_at_once,
    default_spec,
    fourier_weighted_norm,
    grid_weighted_norm,
    random_bump,
)
from .params import (
    cp_classify,
    cp_params,
    l2_params,
    log_threshold,
    lp_params,
)
from .radial import (RadialProfile, _log_u_integral, gaussian_log_product, gaussian_profile,
                     radial_weighted_norm)
from .specialfn import LOG_2, LOG_MAX

SLACK_TOL = 1e-6
SLOPE_RTOL = 0.1
SLOPE_FIT_MIN_D = 50
ENDPOINT_DELTAS = (1e-3, 1e-6, 1e-12, 1e-24)


@dataclass(frozen=True)
class SweepRow:
    d: int
    p: float
    method_log_bound: float
    gaussian_log_product: float
    claimed_floor_log: float
    flags: dict[str, bool]

    @property
    def satisfied(self) -> bool:
        return all(self.flags.values())


def fit_log_slope(ds, log_vals) -> float | None:
    """OLS slope of log_vals against ln(d) over d >= SLOPE_FIT_MIN_D; None below two such d."""
    ds = np.asarray(ds, dtype=float)
    log_vals = np.asarray(log_vals, dtype=float)
    mask = ds >= SLOPE_FIT_MIN_D
    if mask.sum() < 2:
        return None
    coeffs = np.polyfit(np.log(ds[mask]), log_vals[mask], 1)
    return float(coeffs[0])


def _sweep(p: float, d_max: int, bundle, flags) -> list[SweepRow]:
    """Rows d = 1..d_max at exponent p: bundle(d)'s method bound, the Gaussian product, and
    the (claimed floor log, flags) pair of flags(d, params, gauss_log)."""
    if not 1 <= d_max <= 1000:
        raise ValueError(f"d_max must be 1..1000, got {d_max}")
    rows = []
    for d in range(1, d_max + 1):
        params = bundle(d)
        gauss_log = gaussian_log_product(d, p)
        floor_log, row_flags = flags(d, params, gauss_log)
        rows.append(SweepRow(d, p, params.log_bound, gauss_log, floor_log, row_flags))
    return rows


def heisenberg_sweep(d_max: int) -> list[SweepRow]:
    """Method bound vs the sharp Gaussian value d^2/(16 pi^2) for d = 1..d_max; flags: floor
    1e-10 d^2 <= bound <= Gaussian value, quotient (c_d / omega_{d-1})^{2/(d+1)} >= 1e-5 d."""
    def flags(d, params, gauss_log):
        floor_log = 2.0 * math.log(d) - 10.0 * math.log(10.0)
        quotient_log = (2.0 / (d + 1)) * (params.log_c_d - params.log_sphere_area)
        return floor_log, {
            "floor": params.log_bound >= floor_log,
            "below_sharp": params.log_bound <= gauss_log,
            "quotient": quotient_log >= math.log(d) - 5.0 * math.log(10.0),
        }

    return _sweep(2.0, d_max, l2_params, flags)


def stable_onset(rows: list[SweepRow]) -> int | None:
    """Smallest d0 such that every row with d >= d0 satisfies all flags."""
    d0 = None
    for row in reversed(rows):
        if row.satisfied:
            d0 = row.d
        else:
            break
    return d0


def heisenberg_summary(rows: list[SweepRow]) -> dict:
    # pass reflects the inequality flags only; the slope is a diagnostic of
    # the fit window and converges to 2 from above as d_max grows
    d0 = stable_onset(rows)
    slope = fit_log_slope([r.d for r in rows], [r.method_log_bound for r in rows])
    ok = d0 is not None and d0 <= 10
    return {"d0": d0, "slope": slope, "pass": ok}


def lp_sweep(p: float, d_max: int) -> list[SweepRow]:
    """Method and Gaussian bounds for d = 1..d_max at fixed p in (1, 2]; flags: bound <=
    Gaussian value, and beyond d = 50 bound >= C d^p with C calibrated at d = 50."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must satisfy 1 < p <= 2 for the growth sweep, got {p}")
    c1_log = lp_params(50, p).log_bound - p * math.log(50.0) if d_max >= 50 else -math.inf

    def flags(d, params, gauss_log):
        floor_log = c1_log + p * math.log(d)
        row_flags = {"below_sharp": params.log_bound <= gauss_log}
        if d > 50:  # then d_max > 50: the constant is calibrated
            row_flags["floor"] = params.log_bound >= floor_log - SLACK_TOL
        return floor_log, row_flags

    return _sweep(p, d_max, lambda d: lp_params(d, p), flags)


def lp_summary(rows: list[SweepRow], p: float) -> dict:
    ds = [r.d for r in rows]
    slope_method = fit_log_slope(ds, [r.method_log_bound for r in rows])
    slope_gauss = fit_log_slope(ds, [r.gaussian_log_product for r in rows])
    ok = all(r.satisfied for r in rows)
    return {
        "slope_method": slope_method,
        "slope_gaussian": slope_gauss,
        "p": p,
        "pass": ok,
    }


def sharpness_summary(d: int, p: float, c_values: list[float]) -> dict:
    """Two-scale collapse: the g_c products decrease and end below 10% of the first,
    judged on their logs."""
    log_products = cx.gc_infimum_sweep(d, p, c_values)
    decreasing = all(b < a for a, b in zip(log_products, log_products[1:]))
    collapsed = log_products[-1] < log_products[0] - math.log(10.0)
    return {
        "d": d,
        "p": p,
        "c_values": c_values,
        "log_products": log_products,
        "decreasing": decreasing,
        "collapsed": collapsed,
        "pass": decreasing and collapsed,
    }


# ---------------------------------------------------------------------------
# Per-function inequality chain


@dataclass(frozen=True)
class Check:
    """One inequality between a measured lhs and a bound rhs, both held as natural logs."""

    name: str
    log_lhs: float
    log_rhs: float
    passed: bool

    @property
    def slack(self) -> float:
        """lhs / rhs - 1, infinite where lhs / rhs leaves the floats."""
        gap = self.log_lhs - self.log_rhs
        return math.expm1(gap) if gap < LOG_MAX else math.inf


def _measured(name: str, log_lhs: float, log_rhs: float) -> None:
    """A check passes or fails only on measured values: a NaN side, or a bound of 0
    or infinity, which any lhs meets or misses by definition, raises instead."""
    if math.isnan(log_lhs) or not math.isfinite(log_rhs):
        raise ValueError(f"check {name} has no measured value: "
                         f"ln lhs={log_lhs:g}, ln rhs={log_rhs:g}")


def _at_least(name: str, log_lhs: float, log_rhs: float) -> Check:
    """lhs >= rhs, up to the relative slack tolerance SLACK_TOL."""
    _measured(name, log_lhs, log_rhs)
    return Check(name, log_lhs, log_rhs, log_lhs >= log_rhs + math.log1p(-SLACK_TOL))


def _at_most(name: str, log_lhs: float, log_rhs: float) -> Check:
    """lhs <= rhs, up to the relative slack tolerance SLACK_TOL."""
    _measured(name, log_lhs, log_rhs)
    return Check(name, log_lhs, log_rhs, log_lhs <= log_rhs + math.log1p(SLACK_TOL))


def _log(x: float) -> float:
    """ln x of a measured norm or sum, -inf for 0."""
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class ChainReport:
    d: int
    p: float
    log_threshold: float
    links: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(link.passed for link in self.links)


def function_chain_check(f: GridFunction, d: int, p: float) -> ChainReport:
    """Verify every link of the method on one concrete function.

    Links: half-mass split at the threshold radius, the tail Hoelder step, the
    per-function moment inequality, the primary uncertainty quotient, and the
    final certified product bound.  The first two read the tail's a-mass as the
    grid's less the ball |x| <= T; by Hoelder T <= 2 c_d L < sqrt(d) L (c_d < 0.4),
    so no ball holds the grid.  The last two take norms of f^ from fourier_weighted_norm:
    for a Gaussian, g_c or random bump sampled by grid, which carry their 1-D factors,
    they are streamed by blocks of the dual grid from the factors' transforms; bare
    samples go through fourier_transform.  On a grid of several blocks with two usable
    CPUs the streamed norms of f^ run on a thread while this one takes the x-side norms
    and the tail, then the boundary guard, as fourier_weighted_norm would.
    """
    if f.spec.d != d:
        raise ValueError(f"grid dimension {f.spec.d} does not match d={d}")
    params = l2_params(d) if p == 2.0 else lp_params(d, p)
    a, eps, r, s = params.a, params.epsilon, params.r, params.s
    log_omega = params.log_sphere_area

    terms = [(a, 0.0), (p, 0.0), (p, 1.0)]
    at_once = f._terms is not None and _two_at_once(f.spec)
    with _beside(_fourier_pass(f.spec, f._terms, terms) if at_once else None) as hat_norms:
        norm_a, norm_p, moment_root = grid_weighted_norm(f, terms)
        if norm_p == 0.0:
            raise ValueError("chain check is undefined for the zero function")
        if moment_root == 0.0:
            raise ValueError(
                f"the grid does not resolve f: V_p(f) measures 0 at spacing {f.spec.spacing:g}"
            )
        log_norm_a, log_norm_p = _log(norm_a), _log(norm_p)
        log_moment = p * math.log(moment_root)  # ln V_p(f)
        log_t = log_threshold(log_norm_a, log_norm_p, params)
        # the tail |x| > T is the a-mass less the ball |x| <= T; a share rounded to 1 leaves none
        log_ball = (_log(_ball_sum(f.spec, f.values, a, math.exp(log_t)))
                    + d * math.log(f.spec.spacing))
        share = math.exp(log_ball - a * log_norm_a)  # the ball's share of the a-mass, in logs
        log_tail = a * log_norm_a + math.log1p(-share) if share < 1.0 else -math.inf

        links = [_at_least("half_mass", log_tail, a * log_norm_a - LOG_2)]

        log_tail_rhs = (1.0 / s) * (log_omega - math.log(eps) - eps * log_t) + log_moment / r
        links.append(_at_most("tail_hoelder", log_tail, log_tail_rhs))

        log_per_fn = log_moment - p * log_norm_p
        log_per_fn_rhs = (
            -LOG_2
            + (r - 1.0) * (math.log(eps) + eps * params.log_c_d - LOG_2 - log_omega)
            + p * (1.0 + eps / d) * (log_norm_a - log_norm_p)
        )
        links.append(_at_least("per_function", log_per_fn, log_per_fn_rhs))

        if hat_norms is None:
            hat_a, hat_p, hat_moment_root = fourier_weighted_norm(f, terms)
        else:  # fourier_weighted_norm's guard, then the norms of f^ from the thread
            _require_decay(_boundary_ratio(f.spec, f.values))
            hat_a, hat_p, hat_moment_root = hat_norms()
    log_hat_a, log_hat_p = _log(hat_a), _log(hat_p)
    log_quotient = log_norm_a + log_hat_a - log_norm_p - log_hat_p
    links.append(_at_least("primary_up", log_quotient, 0.0))

    log_product = log_per_fn + p * (_log(hat_moment_root) - log_hat_p)
    links.append(_at_least("certified_product", log_product, params.log_bound))

    return ChainReport(d=d, p=p, log_threshold=log_t, links=tuple(links))


# ---------------------------------------------------------------------------
# Cowling-Price trichotomy


def rs_predicted_slope(d: int, p: float, theta: float) -> float:
    """Growth slope d/2 - d/p - theta of the signed-translate schedule."""
    return 0.5 * d - d / p - theta


def _slope_agrees(measured: float, predicted: float) -> bool:
    """A measured growth slope confirms the prediction within SLOPE_RTOL."""
    return abs(measured - predicted) <= SLOPE_RTOL * abs(predicted)


def rs_check(d: int, k_max: int, p: float, theta: float) -> dict:
    """Slope summary of the growth ratios of levels 1..k_max of one translate family."""
    if not 2 <= k_max <= 4:  # the slope fit needs levels 1 and 2
        raise ValueError(f"k-max must be 2..4, got {k_max}")
    measured = cx.rs_slope(cx.rs_level(d, k_max), p, theta)  # which checks d, p and theta
    predicted = rs_predicted_slope(d, p, theta)
    # its roundings err by at most 3 ulps of d/2 + d/p + |theta|: a smaller one may be 0
    if abs(predicted) <= 4.0 * math.ulp(0.5 * d + d / p + abs(theta)):
        raise ValueError(f"the predicted slope d/2 - d/p - theta = {predicted:.3g} at d={d}, "
                         f"p={p:g}, theta={theta:g} is 0 within rounding: no slope confirms it")
    return {
        "d": d,
        "k_max": k_max,
        "p": p,
        "theta": theta,
        "predicted_slope": predicted,
        "measured_slope": measured,
        "pass": _slope_agrees(measured, predicted),
    }


@dataclass(frozen=True)
class CPReport:
    d: int
    p: float
    q: float
    theta: float
    phi: float
    classification: str
    functions: tuple[Check, ...] = ()
    predicted_slope: float | None = None
    measured_slope: float | None = None
    log_tail_masses: tuple[float, ...] = ()
    log_weighted_mass: float | None = None
    log_bound: float | None = None
    # the tail masses' logs less ln omega_{d-1}, which rounds their steps away from d ~ 1e9
    log_tail_integrals: tuple[float, ...] = field(default=(), repr=False)

    @property
    def passed(self) -> bool:
        if self.classification == "feasible":
            return all(fr.passed for fr in self.functions)
        if self.classification == "violated":
            if self.measured_slope is None:
                # no translate-family measurement at d >= 3 yet
                return self.predicted_slope is not None and self.predicted_slope > 0
            return _slope_agrees(self.measured_slope, self.predicted_slope)
        return self.tails_diverge and self.weighted_mass_finite

    @property
    def tail_masses(self) -> tuple[float, ...]:
        return tuple(math.exp(log_mass) for log_mass in self.log_tail_masses)

    @property
    def tails_diverge(self) -> bool:
        """The tail masses at ENDPOINT_DELTAS, successive squares, over omega_{d-1} grow by
        equal positive steps (ln 2 each, within SLACK_TOL relative): ln ln(1/delta)
        diverges.  The steps are taken as logs, ln m_{j+1} + ln(1 - m_j / m_{j+1})."""
        logs = np.array(self.log_tail_integrals, dtype=float)
        if len(logs) != len(ENDPOINT_DELTAS):
            return False
        with np.errstate(divide="ignore", invalid="ignore"):  # NaN or -inf steps fail below
            rises = np.diff(logs)
            log_steps = logs[1:] + np.log1p(-np.exp(-rises))
        return bool(rises.min() > 0 and np.ptp(log_steps) <= -math.log1p(-SLACK_TOL))

    @property
    def weighted_mass_finite(self) -> bool:
        """The endpoint weighted mass was measured, finite and positive."""
        return self.log_weighted_mass is not None and math.isfinite(self.log_weighted_mass)

    @property
    def holds(self) -> bool:
        """The inequality holds: feasible and verified (violated/endpoint never hold)."""
        return self.classification == "feasible" and self.passed


def _cp_radial_result(
    name: str, profile: RadialProfile, d, p, q, theta, phi, log_bound
) -> Check:
    # self-dual profiles only: both sides of the product use the same profile
    log_x = radial_weighted_norm(profile, d, p, theta)
    log_xi = log_x if (q, phi) == (p, theta) else radial_weighted_norm(profile, d, q, phi)
    log_rhs = log_bound + 2.0 * radial_weighted_norm(profile, d, 2.0, 0.0)
    return _at_least(name, log_x + log_xi, log_rhs)


def cp_check(
    d: int,
    p: float,
    q: float,
    theta: float,
    phi: float,
    seed: int = 0,
) -> CPReport:
    """Classify a Cowling-Price tuple and run the matching verification.

    feasible  -> certify the inequality on {gaussian, g_2, g_4} and, where a
                 grid exists (d <= 3), a random bump; on the 64^3 grid its x-side
                 norms and boundary guard are streamed from its factors, no grid
                 built, and the norms of its transform run beside them on a thread
                 where two CPUs are usable;
    violated  -> compare the predicted growth slope of the signed-translate
                 counterexample schedule with the one measured on grids
                 for d <= 2;
    endpoint  -> the logs of the endpoint singularity's L^2 tail masses at
                 ENDPOINT_DELTAS and of its weighted mass, exact integrals in closed
                 form, finite at any d and p (judged by CPReport.tails_diverge and
                 weighted_mass_finite).
    """
    classification = cp_classify(d, p, q, theta, phi)

    if classification == "feasible":
        bundle = cp_params(d, p, q, theta, phi)
        log_bound = bundle.log_bound
        results = [
            _cp_radial_result("gaussian", gaussian_profile(), d, p, q, theta, phi, log_bound),
            _cp_radial_result("g_2", cx.gc_profile(2.0, d), d, p, q, theta, phi, log_bound),
            _cp_radial_result("g_4", cx.gc_profile(4.0, d), d, p, q, theta, phi, log_bound),
        ]
        if d in DEFAULT_SPECS:  # the random bump needs a grid
            spec, terms = default_spec(d), [(p, theta), (2.0, 0.0)]
            if len(_row_blocks(spec)) == 1:
                bump = random_bump(spec, seed)
                weighted, l2 = grid_weighted_norm(bump, terms)
                _require_decay(_boundary_ratio(spec, bump.values))  # fourier_weighted_norm's steps
                pair, bump = bump._terms, None
                (hat_weighted,) = _fourier_pass(spec, pair, [(q, phi)])()
            else:  # the x side streamed from the factors, no grid built, f^ beside it
                pair = _bump_terms(spec, seed)
                xi_side = _fourier_pass(spec, pair, [(q, phi)])
                with _beside(xi_side if _two_at_once(spec) else None) as hat_norms:
                    (weighted, l2), ratio = _separable_norms(spec, *pair, terms)
                    _require_decay(ratio)
                    (hat_weighted,) = (hat_norms or xi_side)()
            results.append(_at_least(
                "random_bump", _log(weighted) + _log(hat_weighted), log_bound + 2.0 * _log(l2)
            ))
        return CPReport(
            d=d, p=p, q=q, theta=theta, phi=phi,
            classification=classification,
            functions=tuple(results),
            log_bound=log_bound,
        )

    if classification == "violated":
        measured = None
        if d <= 2:
            measured = cx.rs_slope(cx.rs_level(d, 3), p, theta)
        return CPReport(
            d=d, p=p, q=q, theta=theta, phi=phi,
            classification=classification,
            predicted_slope=rs_predicted_slope(d, p, theta),
            measured_slope=measured,
        )

    return CPReport(
        d=d, p=p, q=q, theta=theta, phi=phi,
        classification=classification,
        log_tail_masses=tuple(cx.endpoint_tail_mass(delta, d) for delta in ENDPOINT_DELTAS),
        log_tail_integrals=tuple(_log_u_integral(-1.0, delta, 0.5) for delta in ENDPOINT_DELTAS),
        log_weighted_mass=cx.endpoint_weighted_mass(d, p),
    )


# ---------------------------------------------------------------------------
# Output


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    """One line a row, as csv.writer writes it: no cell (ints, .17g floats, True/False or
    empty) needs quoting, and lines end in CRLF."""
    flag_names = sorted({name for row in rows for name in row.flags})
    lines = [",".join(["d", "p", "method_log_bound", "gaussian_log_product", "claimed_floor_log"]
                      + flag_names)]
    for row in rows:
        lines.append(",".join(
            [str(row.d), f"{row.p:.17g}", f"{row.method_log_bound:.17g}",
             f"{row.gaussian_log_product:.17g}", f"{row.claimed_floor_log:.17g}"]
            + [str(row.flags.get(name, "")) for name in flag_names]
        ))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
