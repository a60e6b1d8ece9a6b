"""End-to-end experiments: dimension and two-scale sweeps, per-function
inequality chains, and the Cowling-Price trichotomy pipeline.

Every pass/fail rule lives here; the CLI only maps a verdict to an exit code.
Sweeps are deterministic and emit one row per dimension; summaries report the
first dimension d0 from which every flag holds and least-squares slopes of
ln(bound) against ln(d) (window start 50 avoids small-d transients).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import counterexamples as cx
from .grid import (
    DEFAULT_SPECS,
    GridFunction,
    _require_decay,
    _transform_rows,
    _weighted_norms,
    _weighted_sums,
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
from .radial import RadialProfile, gaussian_log_product, gaussian_profile, radial_weighted_norm
from .specialfn import LOG_2, LOG_MAX, dimension_constants

SLACK_TOL = 1e-6
SLOPE_RTOL = 0.1
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


def fit_log_slope(ds, log_vals, lo: int = 50) -> float:
    """OLS slope of log_vals against ln(d) restricted to d >= lo."""
    ds = np.asarray(ds, dtype=float)
    log_vals = np.asarray(log_vals, dtype=float)
    mask = ds >= lo
    if mask.sum() < 2:
        raise ValueError(f"need at least two dimensions >= {lo} for a slope fit")
    coeffs = np.polyfit(np.log(ds[mask]), log_vals[mask], 1)
    return float(coeffs[0])


def _slope_or_none(ds, log_vals) -> float | None:
    """fit_log_slope, or None when the sweep is too short for the fit window."""
    try:
        return fit_log_slope(ds, log_vals)
    except ValueError:
        return None


def heisenberg_sweep(d_max: int) -> list[SweepRow]:
    """Method bound vs the sharp Gaussian value d^2/(16 pi^2) for d = 1..d_max."""
    if not 1 <= d_max <= 1000:
        raise ValueError(f"d_max must be 1..1000, got {d_max}")
    rows = []
    for d in range(1, d_max + 1):
        params = l2_params(d)
        gauss_log = gaussian_log_product(d, 2.0)
        floor_log = 2.0 * math.log(d) - 10.0 * math.log(10.0)
        quotient_log = (2.0 / (d + 1)) * (
            params.log_c_d - dimension_constants(d).log_sphere_area
        )
        flags = {
            "floor": params.log_bound >= floor_log,
            "below_sharp": params.log_bound <= gauss_log,
            "quotient": quotient_log >= math.log(d) - 5.0 * math.log(10.0),
        }
        rows.append(
            SweepRow(
                d=d,
                p=2.0,
                method_log_bound=params.log_bound,
                gaussian_log_product=gauss_log,
                claimed_floor_log=floor_log,
                flags=flags,
            )
        )
    return rows


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
    slope = _slope_or_none([r.d for r in rows], [r.method_log_bound for r in rows])
    ok = d0 is not None and d0 <= 10
    return {"d0": d0, "slope": slope, "pass": ok}


def lp_sweep(p: float, d_max: int) -> list[SweepRow]:
    """Method and Gaussian bounds across dimensions at fixed p in (1, 2]."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must satisfy 1 < p <= 2 for the growth sweep, got {p}")
    if not 1 <= d_max <= 1000:
        raise ValueError(f"d_max must be 1..1000, got {d_max}")
    # floor constant calibrated at d = 50, then tested beyond
    c1_log = None
    if d_max >= 50:
        c1_log = lp_params(50, p).log_bound - p * math.log(50.0)
    rows = []
    for d in range(1, d_max + 1):
        params = lp_params(d, p)
        gauss_log = gaussian_log_product(d, p)
        floor_log = (c1_log + p * math.log(d)) if c1_log is not None else -math.inf
        flags = {"below_sharp": params.log_bound <= gauss_log}
        if c1_log is not None and d > 50:
            flags["floor"] = params.log_bound >= floor_log - SLACK_TOL
        rows.append(
            SweepRow(
                d=d,
                p=p,
                method_log_bound=params.log_bound,
                gaussian_log_product=gauss_log,
                claimed_floor_log=floor_log,
                flags=flags,
            )
        )
    return rows


def lp_summary(rows: list[SweepRow], p: float) -> dict:
    ds = [r.d for r in rows]
    slope_method = _slope_or_none(ds, [r.method_log_bound for r in rows])
    slope_gauss = _slope_or_none(ds, [r.gaussian_log_product for r in rows])
    ok = all(r.satisfied for r in rows)
    return {
        "slope_method": slope_method,
        "slope_gaussian": slope_gauss,
        "p": p,
        "pass": ok,
    }


def sharpness_summary(d: int, p: float, c_values: list[float]) -> dict:
    """Two-scale collapse: g_c products decrease and end below 10% of the first."""
    products = cx.gc_infimum_sweep(d, p, c_values)
    decreasing = all(b < a for a, b in zip(products, products[1:]))
    collapsed = products[-1] < 0.1 * products[0]
    return {
        "d": d,
        "p": p,
        "c_values": c_values,
        "products": products,
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
    final certified product bound.  The last two take norms of f^ from
    fourier_weighted_norm: for a Gaussian, g_c or random bump sampled by grid, which
    carry their 1-D factors, they are streamed by blocks of the dual grid from the
    factors' transforms; bare samples go through fourier_transform.
    """
    if f.spec.d != d:
        raise ValueError(f"grid dimension {f.spec.d} does not match d={d}")
    params = l2_params(d) if p == 2.0 else lp_params(d, p)
    a, eps, r, s = params.a, params.epsilon, params.r, params.s
    geom = dimension_constants(d)
    log_omega = geom.log_sphere_area

    norm_a, norm_p, moment_root = grid_weighted_norm(f, [(a, 0.0), (p, 0.0), (p, 1.0)])
    if norm_p == 0.0:
        raise ValueError("chain check is undefined for the zero function")
    if moment_root == 0.0:
        raise ValueError(
            f"the grid does not resolve f: V_p(f) measures 0 at spacing {f.spec.spacing:g}"
        )
    log_norm_a, log_norm_p = _log(norm_a), _log(norm_p)
    log_moment = p * math.log(moment_root)  # ln V_p(f)
    log_t = log_threshold(log_norm_a, log_norm_p, params)
    # T itself is only the radius floor of the tail: no sample lies beyond a T past the floats
    t_radius = math.exp(log_t) if log_t < LOG_MAX else math.inf
    (tail_sum,) = _weighted_sums(f.spec, f.values, [(a, 0.0)], radius_floor=t_radius)
    log_tail = _log(tail_sum) + d * math.log(f.spec.spacing)

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

    hat_a, hat_p, hat_moment_root = fourier_weighted_norm(f, [(a, 0.0), (p, 0.0), (p, 1.0)])
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
    return predicted == 0 or abs(measured - predicted) <= SLOPE_RTOL * abs(predicted)


def rs_check(d: int, k_max: int, p: float, theta: float) -> tuple[dict, cx.RSFamily]:
    """Slope summary of the translate families of levels 0..k_max, and the top family."""
    if not 1 <= k_max <= 4:
        raise ValueError(f"k-max must be 1..4, got {k_max}")
    base = cx.rs_base(d)
    families = [cx.rs_level(base, d, k) for k in range(k_max + 1)]
    measured = cx.rs_slope(families, p, theta)
    predicted = rs_predicted_slope(d, p, theta)
    summary = {
        "d": d,
        "k_max": k_max,
        "p": p,
        "theta": theta,
        "predicted_slope": predicted,
        "measured_slope": measured,
        "pass": _slope_agrees(measured, predicted),
    }
    return summary, families[-1]


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
    tail_masses: tuple[float, ...] = ()
    weighted_mass: float | None = None
    log_bound: float | None = None

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
    def tails_diverge(self) -> bool:
        """The tail masses at ENDPOINT_DELTAS, successive squares, grow by equal positive
        steps (omega_{d-1} ln 2 each, within SLACK_TOL relative): ln ln(1/delta) diverges."""
        steps = np.diff(self.tail_masses)
        return bool(len(steps) == len(ENDPOINT_DELTAS) - 1
                    and steps.min() > 0 and np.ptp(steps) <= SLACK_TOL * steps.max())

    @property
    def weighted_mass_finite(self) -> bool:
        """The endpoint weighted mass was measured, finite and positive."""
        return self.weighted_mass is not None and 0 < self.weighted_mass < math.inf

    @property
    def holds(self) -> bool:
        """The inequality holds: feasible and verified (violated/endpoint never hold)."""
        return self.classification == "feasible" and self.passed


def _cp_radial_result(
    name: str, profile: RadialProfile, d, p, q, theta, phi, log_bound
) -> Check:
    # self-dual profiles only: both sides of the product use the same profile
    log_lhs = (
        radial_weighted_norm(profile, d, p, theta)
        + radial_weighted_norm(profile, d, q, phi)
    )
    log_rhs = log_bound + 2.0 * radial_weighted_norm(profile, d, 2.0, 0.0)
    return _at_least(name, log_lhs, log_rhs)


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
                 grid exists (d <= 3), a random bump;
    violated  -> compare the predicted growth slope of the signed-translate
                 counterexample schedule with the one measured on grids
                 for d <= 2;
    endpoint  -> measure the endpoint singularity's L^2 tail masses at
                 ENDPOINT_DELTAS and its weighted mass by radial quadrature
                 (judged by CPReport.tails_diverge and weighted_mass_finite).
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
            spec = default_spec(d)
            bump = random_bump(spec, seed)
            weighted, l2 = grid_weighted_norm(bump, [(p, theta), (2.0, 0.0)])
            # fourier_weighted_norm's steps, the samples freed first: one grid at a time
            _require_decay(spec, bump.values)
            pair, bump = bump._terms, None
            (hat_weighted,) = _weighted_norms(spec.dual(), _transform_rows(spec, *pair), [(q, phi)])
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
            measured = rs_check(d, 3, p, theta)[0]["measured_slope"]
        return CPReport(
            d=d, p=p, q=q, theta=theta, phi=phi,
            classification=classification,
            predicted_slope=rs_predicted_slope(d, p, theta),
            measured_slope=measured,
        )

    tails = tuple(cx.endpoint_tail_mass(delta, d) for delta in ENDPOINT_DELTAS)
    weighted = cx.endpoint_weighted_mass(d, p)
    return CPReport(
        d=d, p=p, q=q, theta=theta, phi=phi,
        classification=classification,
        tail_masses=tails,
        weighted_mass=weighted,
    )


# ---------------------------------------------------------------------------
# Output


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    flag_names = sorted({name for row in rows for name in row.flags})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["d", "p", "method_log_bound", "gaussian_log_product", "claimed_floor_log"]
            + flag_names
        )
        for row in rows:
            writer.writerow(
                [
                    row.d,
                    f"{row.p:.17g}",
                    f"{row.method_log_bound:.17g}",
                    f"{row.gaussian_log_product:.17g}",
                    f"{row.claimed_floor_log:.17g}",
                ]
                + [str(row.flags.get(name, "")) for name in flag_names]
            )


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
