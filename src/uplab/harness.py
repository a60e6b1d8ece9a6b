"""End-to-end experiments: dimension and two-scale sweeps, per-function
inequality chains, and the Cowling-Price trichotomy pipeline.

Every pass/fail rule lives here, each verdict a Check but for the sweeps' flag columns;
the CLI only maps a verdict to an exit code.
A sweep is columns over its dimensions (a Sweep), each closed form one call that loops over
them, with no bundle or record per d: the sphere and ball constants, the method's closed
forms and the Gaussian product; then the claimed floor and one bool-or-None column per flag.
Summaries report the first dimension d0 from which every flag holds and least-squares slopes
of ln(bound) against ln(d) (window start 50 avoids small-d transients).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, field, fields

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
    WigdersonParams,
    cp_classify,
    cp_params,
    l2_columns,
    l2_params,
    log_threshold,
    lp_columns,
    lp_epsilon,
    lp_params,
)
from .radial import (RadialProfile, _log_u_integral, gaussian_log_products, gaussian_profile,
                     radial_weighted_norm)
from .specialfn import LOG_2, LOG_MAX, dimension_logs

SLACK_TOL = 1e-6
SLOPE_RTOL = 0.1
SLOPE_FIT_MIN_D = 50
ENDPOINT_DELTAS = (1e-3, 1e-6, 1e-12, 1e-24)


@dataclass(frozen=True)
class Sweep:
    """A dimension sweep at exponent p as columns, one entry per d of the d column: ln of
    the method's bound, of the Gaussian product and of the claimed floor, and one column
    per flag, True or False where the flag is tested at that d and None where it is not."""

    p: float
    d: tuple[int, ...]
    method_log_bound: tuple[float, ...]
    gaussian_log_product: tuple[float, ...]
    claimed_floor_log: tuple[float, ...]
    flags: dict[str, tuple[bool | None, ...]]

    @property
    def satisfied(self) -> tuple[bool, ...]:
        """Per d: every flag tested at d holds."""
        return tuple(False not in at_d for at_d in zip(*self.flags.values()))


def fit_log_slope(ds, log_vals) -> float | None:
    """OLS slope of log_vals against ln(d) over d >= SLOPE_FIT_MIN_D; None below two such d."""
    ds = np.asarray(ds, dtype=float)
    log_vals = np.asarray(log_vals, dtype=float)
    mask = ds >= SLOPE_FIT_MIN_D
    if mask.sum() < 2:
        return None
    return float(np.polyfit(np.log(ds[mask]), log_vals[mask], 1)[0])


# the names of the closed-form columns of params.l2_columns and lp_columns, in their order
_LOG_FIELDS = tuple(f.name for f in fields(WigdersonParams))[3:]


def _dimensions(d_max) -> range:
    """d = 1..d_max of a public sweep, for an integer d_max in 1..1000."""
    if isinstance(d_max, bool) or not isinstance(d_max, int):
        raise ValueError(f"d_max must be an integer 1..1000, got {d_max!r}")
    if not 1 <= d_max <= 1000:
        raise ValueError(f"d_max must be 1..1000, got {d_max}")
    return range(1, d_max + 1)


def _sweep(p: float, ds, closed_forms, rule) -> Sweep:
    """The columns over the ascending integer dimensions ds (numpy's too, no bool) at p, each
    from one call: dimension_logs, closed_forms(ds, log_areas, log_volumes) and the Gaussian
    product.  rule(ds, columns, gauss) gives the claimed floor's and the flags' columns from
    the d column, the closed forms' columns by their _LOG_FIELDS name and the Gaussian's."""
    ds = tuple(ds)
    if not set(map(type, ds)) <= {int}:
        if bad := [d for d in ds if isinstance(d, bool) or not isinstance(d, numbers.Integral)]:
            raise ValueError(f"dimensions must be integers, got {bad[0]!r}")
        ds = tuple(map(int, ds))
    columns = dict(zip(_LOG_FIELDS, closed_forms(ds, *dimension_logs(ds))))
    gauss = tuple(gaussian_log_products(ds, p))
    floor, flags = rule(ds, columns, gauss)
    return Sweep(p, ds, columns["log_bound"], gauss, tuple(floor), flags)


def heisenberg_sweep(d_max: int) -> Sweep:
    """Method bound vs the sharp Gaussian value d^2/(16 pi^2) for d = 1..d_max; flags: floor
    1e-10 d^2 <= bound <= Gaussian value, quotient (c_d / omega_{d-1})^{2/(d+1)} >= 1e-5 d."""
    return _heisenberg_sweep(_dimensions(d_max))


def _heisenberg_sweep(ds) -> Sweep:
    def rule(ds, columns, gauss):
        bounds, log_ds = columns["log_bound"], [math.log(d) for d in ds]
        floor_shift, quotient_shift = 10.0 * math.log(10.0), 5.0 * math.log(10.0)
        floor = [2.0 * log_d - floor_shift for log_d in log_ds]
        quotient = [(2.0 / (d + 1)) * (log_c - log_omega) >= log_d - quotient_shift
                    for d, log_d, log_c, log_omega in zip(ds, log_ds, columns["log_c_d"],
                                                          columns["log_sphere_area"])]
        return floor, {
            "floor": tuple(map(operator.ge, bounds, floor)),
            "below_sharp": tuple(map(operator.le, bounds, gauss)),
            "quotient": tuple(quotient),
        }

    return _sweep(2.0, ds, l2_columns, rule)


def stable_onset(sweep: Sweep) -> int | None:
    """Smallest d0 of the d column such that every d >= d0 satisfies all flags."""
    d0 = None
    for d, ok in zip(reversed(sweep.d), reversed(sweep.satisfied)):
        if not ok:
            break
        d0 = d
    return d0


def heisenberg_summary(sweep: Sweep) -> dict:
    # pass reflects the inequality flags only; the slope is a diagnostic of
    # the fit window and converges to 2 from above as d_max grows
    d0 = stable_onset(sweep)
    return {"d0": d0, "slope": fit_log_slope(sweep.d, sweep.method_log_bound),
            "pass": d0 is not None and d0 <= 10}


def lp_sweep(p: float, d_max: int) -> Sweep:
    """Method and Gaussian bounds for d = 1..d_max at fixed p in (1, 2]; flags: bound <=
    Gaussian value, and beyond d = 50 bound >= C d^p with C calibrated at d = 50."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must satisfy 1 < p <= 2 for the growth sweep, got {p}")
    return _lp_sweep(p, _dimensions(d_max))


def _lp_sweep(p: float, ds) -> Sweep:
    c1_log = lp_params(50, p).log_bound - p * math.log(50.0) if ds[-1] >= 50 else -math.inf
    eps = lp_epsilon(ds[-1], p)  # p/(p - 1) at every d, for p <= 2

    def rule(ds, columns, gauss):
        bounds = columns["log_bound"]
        floor = [c1_log + p * math.log(d) for d in ds]
        flags = {"below_sharp": tuple(map(operator.le, bounds, gauss))}
        if ds[-1] > 50:  # then the constant is calibrated
            flags["floor"] = tuple(b >= f - SLACK_TOL if d > 50 else None
                                   for d, b, f in zip(ds, bounds, floor))
        return floor, flags

    return _sweep(p, ds, lambda ds, *logs: lp_columns(ds, *logs, p, eps), rule)


def lp_summary(sweep: Sweep, p: float) -> dict:
    return {"slope_method": fit_log_slope(sweep.d, sweep.method_log_bound),
            "slope_gaussian": fit_log_slope(sweep.d, sweep.gaussian_log_product),
            "p": p, "pass": all(sweep.satisfied)}


def sharpness_summary(d: int, p: float, c_values: list[float]) -> dict:
    """Two-scale collapse, judged on the logs of the g_c products: each is below the one
    before it (decreasing_c=<c>), and the last is below 10% of the first (collapsed)."""
    if len(c_values) < 2:
        raise ValueError(f"the sharpness sweep compares at least two c values, got {c_values}")
    log_products = cx.gc_infimum_sweep(d, p, c_values)
    steps = [_measured(f"decreasing_c={c:g}", b, a, "<")
             for c, a, b in zip(c_values[1:], log_products, log_products[1:])]
    collapse = _measured("collapsed", log_products[-1], log_products[0], "<", -math.log(10.0))
    return {"d": d, "p": p, "c_values": c_values, "log_products": log_products,
            "checks": steps + [collapse], "decreasing": all(step.passed for step in steps),
            "collapsed": collapse.passed, "pass": all(c.passed for c in steps + [collapse])}


# ---------------------------------------------------------------------------
# Per-function inequality chain


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class Check:
    """One relation between a measured lhs and a bound rhs, both held as natural logs:
    passed is relation(log_lhs, log_rhs + tol), tol the allowance in ln units.  An
    infinite log_rhs marks a verdict that rests on no measurement."""

    name: str
    log_lhs: float
    log_rhs: float
    relation: str
    tol: float = 0.0
    passed: bool = field(init=False)

    def __post_init__(self):
        passed = _RELATIONS[self.relation](self.log_lhs, self.log_rhs + self.tol)
        object.__setattr__(self, "passed", bool(passed))

    @property
    def slack(self) -> float:
        """lhs / rhs - 1, infinite where lhs / rhs leaves the floats."""
        gap = self.log_lhs - self.log_rhs
        return math.expm1(gap) if gap < LOG_MAX else math.inf


def _measured(name: str, log_lhs: float, log_rhs: float, relation: str, tol=0.0) -> Check:
    """A check that passes or fails only on measured values: a NaN side, or a bound of 0
    or infinity, which any lhs meets or misses by definition, raises instead."""
    if math.isnan(log_lhs) or not math.isfinite(log_rhs):
        raise ValueError(f"check {name} has no measured value: "
                         f"ln lhs={log_lhs:g}, ln rhs={log_rhs:g}")
    return Check(name, log_lhs, log_rhs, relation, tol)


def _at_least(name: str, log_lhs: float, log_rhs: float) -> Check:
    """lhs >= rhs, up to the relative slack tolerance SLACK_TOL."""
    return _measured(name, log_lhs, log_rhs, ">=", math.log1p(-SLACK_TOL))


def _at_most(name: str, log_lhs: float, log_rhs: float) -> Check:
    """lhs <= rhs, up to the relative slack tolerance SLACK_TOL."""
    return _measured(name, log_lhs, log_rhs, "<=", math.log1p(SLACK_TOL))


def _log(x: float) -> float:
    """ln x of a measured norm, sum or gap, -inf for 0 and NaN for NaN."""
    return math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan


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


def _slope_check(measured: float, predicted: float) -> Check:
    """A measured growth slope confirms the prediction within SLOPE_RTOL, in logs:
    ln|measured - predicted| <= ln(SLOPE_RTOL |predicted|)."""
    return _measured("slope", _log(abs(measured - predicted)),
                     _log(SLOPE_RTOL * abs(predicted)), "<=")


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
    slope = _slope_check(measured, predicted)
    return {"d": d, "k_max": k_max, "p": p, "theta": theta, "predicted_slope": predicted,
            "measured_slope": measured, "checks": [slope], "pass": slope.passed}


@dataclass(frozen=True)
class CPReport:
    d: int
    p: float
    q: float
    theta: float
    phi: float
    classification: str
    # every check of the report, whatever its classification
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
        """Every check holds; a report with no checks has no verdict."""
        return bool(self.functions) and all(check.passed for check in self.functions)

    @property
    def tail_masses(self) -> tuple[float, ...]:
        return tuple(math.exp(log_mass) for log_mass in self.log_tail_masses)

    @property
    def holds(self) -> bool:
        """The inequality holds: feasible and verified (violated/endpoint never hold)."""
        return self.classification == "feasible" and self.passed


def _endpoint_checks(log_tail_integrals, log_weighted_mass: float) -> tuple[Check, ...]:
    """The tail masses at ENDPOINT_DELTAS, successive squares, over omega_{d-1} rise
    (tails_rise) by equal steps, ln 2 each within SLACK_TOL relative (tail_steps): ln
    ln(1/delta) diverges.  The steps are taken as logs, ln m_{j+1} + ln(1 - m_j / m_{j+1}).
    The weighted mass, a closed form, is finite: |ln mass| < inf (weighted_mass)."""
    logs = np.array(log_tail_integrals, dtype=float)
    if len(logs) != len(ENDPOINT_DELTAS):
        raise ValueError(f"check tails_rise has no measured value: {len(logs)} tail masses")
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN or -inf steps raise below
        rises = np.diff(logs)
        spread = np.ptp(logs[1:] + np.log1p(-np.exp(-rises)))
    return (_measured("tails_rise", float(rises.min()), 0.0, ">"),
            _measured("tail_steps", float(spread), 0.0, "<=", -math.log1p(-SLACK_TOL)),
            Check("weighted_mass", abs(log_weighted_mass), math.inf, "<"))


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
                 for d <= 2 (slope); at d >= 3 no family is measured, and the
                 check ln predicted > -inf (predicted_slope) has an infinite bound;
    endpoint  -> the logs of the endpoint singularity's L^2 tail masses at
                 ENDPOINT_DELTAS and of its weighted mass, exact integrals in closed
                 form, finite at any d and p (judged by _endpoint_checks).
    """
    classification = cp_classify(d, p, q, theta, phi)
    head = dict(d=d, p=p, q=q, theta=theta, phi=phi, classification=classification)

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
        return CPReport(**head, functions=tuple(results), log_bound=log_bound)

    if classification == "violated":
        predicted, measured = rs_predicted_slope(d, p, theta), None
        if d <= 2:
            measured = cx.rs_slope(cx.rs_level(d, 3), p, theta)
            check = _slope_check(measured, predicted)
        else:  # no translate-family measurement at d >= 3 yet
            check = Check("predicted_slope", _log(predicted), -math.inf, ">")
        return CPReport(**head, functions=(check,), predicted_slope=predicted,
                        measured_slope=measured)

    log_integrals = tuple(_log_u_integral(-1.0, delta, 0.5) for delta in ENDPOINT_DELTAS)
    log_weighted_mass = cx.endpoint_weighted_mass(d, p)
    return CPReport(
        **head,
        functions=_endpoint_checks(log_integrals, log_weighted_mass),
        log_tail_masses=tuple(cx.endpoint_tail_mass(delta, d) for delta in ENDPOINT_DELTAS),
        log_weighted_mass=log_weighted_mass,
        log_tail_integrals=log_integrals,
    )


# ---------------------------------------------------------------------------
# Output


def write_sweep_csv(sweep: Sweep, path) -> None:
    """One line a d, as csv.writer writes it: no cell (ints, .17g floats, True/False or
    empty) needs quoting, and lines end in CRLF."""
    names = sorted(sweep.flags)
    flags = [["" if flag is None else flag for flag in sweep.flags[name]] for name in names]
    line = "%d," + "%.17g" % sweep.p + ",%.17g,%.17g,%.17g" + ",%s" * len(names) + "\r\n"
    text = "".join(line % row for row in zip(sweep.d, sweep.method_log_bound,
                                              sweep.gaussian_log_product,
                                              sweep.claimed_floor_log, *flags))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["d", "p", "method_log_bound", "gaussian_log_product",
                           "claimed_floor_log"] + names) + "\r\n" + text)


def _strict(value):
    """value for strict JSON: a Check as its dict, a non-finite float as "inf", "-inf", "nan"."""
    if isinstance(value, Check):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def write_summary_json(summary: dict, path) -> None:
    """The report as strict JSON (RFC 8259): no NaN or Infinity, as _strict writes them."""
    with open(path, "w") as fh:
        json.dump(_strict(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
