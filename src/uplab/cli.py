"""Command-line surface for the uncertainty-principle experiments.

Exit codes: 0 when every checked inequality holds, 1 when a check fails,
2 on usage errors.  CSV output uses '.' decimals and 17 significant digits
so runs are reproducible across platforms.  A check's sides are held as logs
and printed as numbers while they are normal floats, else as e^<ln>.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import counterexamples as cx
from . import harness
from .grid import default_spec, gaussian_grid_function, random_bump, sample, write_grid_csv
from .radial import gaussian_uncertainty_product
from .specialfn import LOG_MAX, LOG_MIN

USAGE_ERROR = 2


def _slope_text(slope: float | None) -> str:
    return "None" if slope is None else f"{slope:.4f}"


def _side_text(log_value: float) -> str:
    """A check side from its log: the number while it is a normal float, else e^<ln>."""
    if LOG_MIN <= log_value < LOG_MAX:
        return f"{math.exp(log_value):.6e}"
    return f"e^{log_value:.9g}"


def _cmd_heisenberg(args) -> int:
    rows = harness.heisenberg_sweep(args.d_max)
    summary = harness.heisenberg_summary(rows)
    if args.out:
        if args.format == "csv":
            harness.write_sweep_csv(rows, args.out)
        else:
            harness.write_summary_json(summary, args.out)
    print(f"heisenberg sweep d=1..{args.d_max}: d0={summary['d0']} "
          f"slope={summary['slope']} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_lp(args) -> int:
    rows = harness.lp_sweep(args.p, args.d_max)
    summary = harness.lp_summary(rows, args.p)
    if args.out:
        if args.format == "csv":
            harness.write_sweep_csv(rows, args.out)
        else:
            harness.write_summary_json(summary, args.out)
    print(f"lp sweep p={args.p} d=1..{args.d_max}: "
          f"slope_method={_slope_text(summary['slope_method'])} "
          f"slope_gaussian={_slope_text(summary['slope_gaussian'])} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_sharpness(args) -> int:
    c_values = [float(c) for c in args.c_list.split(",")]
    summary = harness.sharpness_summary(args.d, args.p, c_values)
    if args.out:
        harness.write_summary_json(summary, args.out)
    for c, val in zip(c_values, summary["products"]):
        print(f"c={c:<8g} product={val:.17g}")
    print(f"sharpness sweep: decreasing={summary['decreasing']} "
          f"collapsed={summary['collapsed']}")
    return 0 if summary["pass"] else 1


def _cmd_rudin_shapiro(args) -> int:
    summary, top = harness.rs_check(args.d, args.k_max, args.p, args.theta)
    if args.out:
        harness.write_summary_json(summary, args.out)
    if args.export_dir:
        out_dir = Path(args.export_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(len(top.signs)):
            write_grid_csv(top.member(i), out_dir / f"member_{i + 1}_level_{top.k}.csv")
    print(f"rudin-shapiro d={args.d} k<={args.k_max}: "
          f"predicted slope={summary['predicted_slope']:.4f} "
          f"measured={summary['measured_slope']:.4f} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_cowling_price(args) -> int:
    report = harness.cp_check(
        args.d, args.p, args.q, args.theta, args.phi, seed=args.seed
    )
    print(f"classification: {report.classification}")
    if report.classification == "feasible":
        for fr in report.functions:
            print(f"  {fr.name:<12} slack={fr.slack:.6e} pass={fr.passed}")
    elif report.classification == "violated":
        print(f"  predicted growth slope {report.predicted_slope:.4f} "
              f"(measured {report.measured_slope})")
    else:
        print(f"  tail masses {['%.6f' % t for t in report.tail_masses]} "
              f"pass={report.tails_diverge}")
        print(f"  endpoint weighted mass {report.weighted_mass:.6f} "
              f"pass={report.weighted_mass_finite}")
    if args.out:
        harness.write_summary_json(
            {"classification": report.classification, "pass": report.passed}, args.out
        )
    return 0 if report.holds else 1


def _cmd_gaussian(args) -> int:
    value = gaussian_uncertainty_product(args.d, args.p)
    print(f"{value:.17g}")
    return 0


def _cmd_chain(args) -> int:
    spec = default_spec(args.d, n=args.n, half_width=args.L)
    if args.function == "gaussian":
        f = gaussian_grid_function(spec)
    elif args.function == "gc":
        profile = cx.gc_profile(args.c, args.d)
        f = sample(lambda *mesh: profile((sum(m * m for m in mesh)) ** 0.5), spec)
    else:
        f = random_bump(spec, seed=args.seed)
    report = harness.function_chain_check(f, args.d, args.p)
    for link in report.links:
        print(f"  {link.name:<18} lhs={_side_text(link.log_lhs)} rhs={_side_text(link.log_rhs)} "
              f"slack={link.slack:+.3e} pass={link.passed}")
    if args.out:
        harness.write_summary_json(
            {
                "d": args.d,
                "p": args.p,
                "log_threshold": report.log_threshold,
                "links": [asdict(link) for link in report.links],
                "pass": report.passed,
            },
            args.out,
        )
    print(f"chain check d={args.d} p={args.p}: pass={report.passed}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uplab",
        description="Numerical experiments on Heisenberg-type uncertainty principles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser(
        "heisenberg",
        help="dimension sweep of the certified quadratic lower bound (sharp value d^2/(16 pi^2))",
    )
    p_h.add_argument("--d-max", type=int, default=500)
    p_h.add_argument("--out", type=str, default=None)
    p_h.add_argument("--format", choices=["csv", "json"], default="csv")
    p_h.set_defaults(func=_cmd_heisenberg)

    p_lp = sub.add_parser(
        "lp", help="growth sweep of the p-th moment bound (growth d^p for fixed 1 < p <= 2)"
    )
    p_lp.add_argument("--p", type=float, required=True)
    p_lp.add_argument("--d-max", type=int, default=500)
    p_lp.add_argument("--out", type=str, default=None)
    p_lp.add_argument("--format", choices=["csv", "json"], default="csv")
    p_lp.set_defaults(func=_cmd_lp)

    p_sh = sub.add_parser(
        "sharpness",
        help="supercritical collapse of the uncertainty product along the two-scale family",
    )
    p_sh.add_argument("--d", type=int, required=True)
    p_sh.add_argument("--p", type=float, required=True)
    p_sh.add_argument("--c-list", type=str, default="1,2,4,8,16,32")
    p_sh.add_argument("--out", type=str, default=None)
    p_sh.set_defaults(func=_cmd_sharpness)

    p_rs = sub.add_parser(
        "rudin-shapiro",
        help="signed-translate counterexample growth for strict condition violations",
    )
    p_rs.add_argument("--d", type=int, choices=[1, 2], default=2)
    p_rs.add_argument("--k-max", type=int, default=3)
    p_rs.add_argument("--p", type=float, default=8.0)
    p_rs.add_argument("--theta", type=float, default=0.1)
    p_rs.add_argument("--out", type=str, default=None)
    p_rs.add_argument("--export-dir", type=str, default=None)
    p_rs.set_defaults(func=_cmd_rudin_shapiro)

    p_cp = sub.add_parser(
        "cowling-price",
        help="weighted-norm product trichotomy: feasible / endpoint / violated",
    )
    p_cp.add_argument("--d", type=int, required=True)
    p_cp.add_argument("--p", type=float, required=True)
    p_cp.add_argument("--q", type=float, required=True)
    p_cp.add_argument("--theta", type=float, required=True)
    p_cp.add_argument("--phi", type=float, required=True)
    p_cp.add_argument("--seed", type=int, default=0)
    p_cp.add_argument("--out", type=str, default=None)
    p_cp.set_defaults(func=_cmd_cowling_price)

    p_g = sub.add_parser(
        "gaussian", help="closed-form Gaussian uncertainty product (the sharp reference)"
    )
    p_g.add_argument("--d", type=int, required=True)
    p_g.add_argument("--p", type=float, default=2.0)
    p_g.set_defaults(func=_cmd_gaussian)

    p_ch = sub.add_parser(
        "chain", help="verify every inequality link of the method on one test function"
    )
    p_ch.add_argument("--d", type=int, choices=[1, 2, 3], required=True)
    p_ch.add_argument("--p", type=float, default=2.0)
    p_ch.add_argument("--function", choices=["gaussian", "gc", "bump"], default="gaussian")
    p_ch.add_argument("--c", type=float, default=2.0)
    p_ch.add_argument("--seed", type=int, default=0)
    p_ch.add_argument("--n", type=int, default=None)
    p_ch.add_argument("--L", type=float, default=None)
    p_ch.add_argument("--out", type=str, default=None)
    p_ch.set_defaults(func=_cmd_chain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
