"""Command-line surface for the uncertainty-principle experiments.

Exit codes: 0 when every checked inequality holds, 1 when a check fails,
2 on usage errors, argparse's among them.  CSV output uses '.' decimals and 17
significant digits so runs are reproducible across platforms; JSON reports are strict, a
non-finite number written as the string "inf", "-inf" or "nan".  A check's sides, the
endpoint masses and the uncertainty products are held as logs and printed as numbers
while they are normal floats, else as e^<ln>; a slack beyond the floats prints as lhs / rhs,
e^<ln lhs - ln rhs>.  stderr holds one line: the usage error (error: ...), else one
line per warning raised; -h prints help and exits 0.  main(argv) returns the exit
code; it parses an argv that starts with a subcommand's name with a parser that
holds that subcommand only.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

from . import counterexamples as cx
from . import harness
from .grid import (default_spec, gaussian_grid_function, gaussian_mixture_grid_function,
                   random_bump, write_grid_csv)
from .radial import gaussian_log_product
from .specialfn import LOG_MAX, LOG_MIN

USAGE_ERROR = 2


def _slope_text(slope: float | None) -> str:
    return "None" if slope is None else f"{slope:.4f}"


def _side_text(log_value: float, spec: str = ".6e") -> str:
    """A value from its log: the number in spec while it is a normal float, else e^<ln>."""
    if LOG_MIN <= log_value < LOG_MAX:
        return format(math.exp(log_value), spec)
    return f"e^{log_value:.9g}"


def _slack_text(check: harness.Check, spec: str) -> str:
    """The slack lhs / rhs - 1 in spec, or lhs / rhs itself where the slack is beyond
    the floats."""
    if math.isfinite(check.slack):
        return format(check.slack, spec)
    return _side_text(check.log_lhs - check.log_rhs)


def _write_sweep(args, sweep: harness.Sweep, summary: dict) -> None:
    if args.out and args.format == "csv":
        harness.write_sweep_csv(sweep, args.out)
    elif args.out:
        harness.write_summary_json(summary, args.out)


def _cmd_heisenberg(args) -> int:
    sweep = harness.heisenberg_sweep(args.d_max)
    summary = harness.heisenberg_summary(sweep)
    _write_sweep(args, sweep, summary)
    print(f"heisenberg sweep d=1..{args.d_max}: d0={summary['d0']} "
          f"slope={summary['slope']} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_lp(args) -> int:
    sweep = harness.lp_sweep(args.p, args.d_max)
    summary = harness.lp_summary(sweep, args.p)
    _write_sweep(args, sweep, summary)
    print(f"lp sweep p={args.p} d=1..{args.d_max}: "
          f"slope_method={_slope_text(summary['slope_method'])} "
          f"slope_gaussian={_slope_text(summary['slope_gaussian'])} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_sharpness(args) -> int:
    try:
        c_values = [float(c) for c in args.c_list.split(",")]
    except ValueError:
        raise ValueError(f"--c-list takes comma-separated numbers, got {args.c_list!r}") from None
    summary = harness.sharpness_summary(args.d, args.p, c_values)
    if args.out:
        harness.write_summary_json(summary, args.out)
    for c, log_product in zip(c_values, summary["log_products"]):
        print(f"c={c:<8g} product={_side_text(log_product, '.17g')}")
    print(f"sharpness sweep: decreasing={summary['decreasing']} "
          f"collapsed={summary['collapsed']}")
    return 0 if summary["pass"] else 1


def _cmd_rudin_shapiro(args) -> int:
    summary = harness.rs_check(args.d, args.k_max, args.p, args.theta)
    if args.out:
        harness.write_summary_json(summary, args.out)
    if args.export_dir:
        out_dir = Path(args.export_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        top = cx.rs_level(args.d, args.k_max)
        for i in range(2**top.d):
            write_grid_csv(top.member(i), out_dir / f"member_{i + 1}_level_{top.k}.csv")
    print(f"rudin-shapiro d={args.d} k<={args.k_max}: "
          f"predicted slope={summary['predicted_slope']:.4f} "
          f"measured={summary['measured_slope']:.4f} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def _cmd_cowling_price(args) -> int:
    report = harness.cp_check(
        args.d, args.p, args.q, args.theta, args.phi, seed=args.seed
    )
    summary = {"d": args.d, "p": args.p, "q": args.q, "theta": args.theta, "phi": args.phi,
               "seed": args.seed, "classification": report.classification,
               "checks": report.functions, "pass": report.passed, "holds": report.holds}
    print(f"classification: {report.classification}")
    if report.classification == "feasible":
        for fr in report.functions:
            print(f"  {fr.name:<12} slack={_slack_text(fr, '.6e')} pass={fr.passed}")
    elif report.classification == "violated":
        print(f"  predicted growth slope {report.predicted_slope:.4f} "
              f"(measured {report.measured_slope})")
        summary.update(predicted_slope=report.predicted_slope,
                       measured_slope=report.measured_slope)
    else:
        rise, steps, weighted = report.functions
        masses = ", ".join(map(_side_text, report.log_tail_masses))
        print(f"  tail masses [{masses}] pass={rise.passed and steps.passed}")
        masses = ", ".join(map(_side_text, report.log_tail_integrals))
        print(f"  tail masses over omega_{{d-1}} [{masses}]")
        print(f"  endpoint weighted mass {_side_text(report.log_weighted_mass)} "
              f"pass={weighted.passed}")
        summary["log_tail_masses"] = report.log_tail_masses
    if args.out:
        harness.write_summary_json(summary, args.out)
    return 0 if report.holds else 1


def _cmd_gaussian(args) -> int:
    print(_side_text(gaussian_log_product(args.d, args.p), ".17g"))
    return 0


def _cmd_chain(args) -> int:
    spec = default_spec(args.d, n=args.n, half_width=args.L)
    if args.function == "gaussian":
        f = gaussian_grid_function(spec)
    elif args.function == "gc":
        f = gaussian_mixture_grid_function(spec, cx.gc_profile(args.c, args.d).terms)
    else:
        f = random_bump(spec, seed=args.seed)
    report = harness.function_chain_check(f, args.d, args.p)
    for link in report.links:
        print(f"  {link.name:<18} lhs={_side_text(link.log_lhs)} rhs={_side_text(link.log_rhs)} "
              f"slack={_slack_text(link, '+.3e')} pass={link.passed}")
    if args.out:
        harness.write_summary_json({"d": args.d, "p": args.p, "log_threshold": report.log_threshold,
                                    "links": report.links, "pass": report.passed}, args.out)
    print(f"chain check d={args.d} p={args.p}: pass={report.passed}")
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ValueError, so that main prints them
    as its one error line and returns 2; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


_OUT = {"type": str, "default": None}
_FORMAT = {"choices": ["csv", "json"], "default": "csv"}
_REQUIRED_FLOAT = {"type": float, "required": True}

# each subcommand, in the order -h lists them: its help, its handler and its flags with
# their add_argument keywords
_SUBCOMMANDS = {
    "heisenberg": (
        "dimension sweep of the certified quadratic lower bound (sharp value d^2/(16 pi^2))",
        _cmd_heisenberg,
        {"--d-max": {"type": int, "default": 500}, "--out": _OUT, "--format": _FORMAT}),
    "lp": (
        "growth sweep of the p-th moment bound (growth d^p for fixed 1 < p <= 2)", _cmd_lp,
        {"--p": _REQUIRED_FLOAT, "--d-max": {"type": int, "default": 500}, "--out": _OUT,
         "--format": _FORMAT}),
    "sharpness": (
        "supercritical collapse of the uncertainty product along the two-scale family",
        _cmd_sharpness,
        {"--d": {"type": int, "required": True}, "--p": _REQUIRED_FLOAT,
         "--c-list": {"type": str, "default": "1,2,4,8,16,32"}, "--out": _OUT}),
    "rudin-shapiro": (
        "signed-translate counterexample growth for strict condition violations",
        _cmd_rudin_shapiro,
        {"--d": {"type": int, "choices": [1, 2], "default": 2},
         "--k-max": {"type": int, "default": 3}, "--p": {"type": float, "default": 8.0},
         "--theta": {"type": float, "default": 0.1}, "--out": _OUT, "--export-dir": _OUT}),
    "cowling-price": (
        "weighted-norm product trichotomy: feasible / endpoint / violated", _cmd_cowling_price,
        {"--d": {"type": int, "required": True}, "--p": _REQUIRED_FLOAT, "--q": _REQUIRED_FLOAT,
         "--theta": _REQUIRED_FLOAT, "--phi": _REQUIRED_FLOAT,
         "--seed": {"type": int, "default": 0}, "--out": _OUT}),
    "gaussian": (
        "closed-form Gaussian uncertainty product (the sharp reference)", _cmd_gaussian,
        {"--d": {"type": int, "required": True}, "--p": {"type": float, "default": 2.0}}),
    "chain": (
        "verify every inequality link of the method on one test function", _cmd_chain,
        {"--d": {"type": int, "choices": [1, 2, 3], "required": True},
         "--p": {"type": float, "default": 2.0},
         "--function": {"choices": ["gaussian", "gc", "bump"], "default": "gaussian"},
         "--c": {"type": float, "default": 2.0}, "--seed": {"type": int, "default": 0},
         "--n": {"type": int, "default": None}, "--L": {"type": float, "default": None},
         "--out": _OUT}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser for the uplab command line.  Given a subcommand's name, the parser
    knows that subcommand only; it parses an argv that starts with the name as the
    full parser does, and builds one subparser instead of all of them."""
    parser = _Parser(
        prog="uplab",
        description="Numerical experiments on Heisenberg-type uncertainty principles",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags) in _SUBCOMMANDS.items():
        if command in (None, name):
            subparser = sub.add_parser(name, help=help_text)
            for flag, keywords in flags.items():
                subparser.add_argument(flag, **keywords)
            subparser.set_defaults(func=func)
    return parser


def _named_command(argv) -> str | None:
    """The subcommand argv starts with, or None (-h, an unknown name, no argument)."""
    argv = sys.argv[1:] if argv is None else argv
    return argv[0] if argv and argv[0] in _SUBCOMMANDS else None


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = build_parser(_named_command(argv)).parse_args(argv)
            if getattr(args, "seed", 0) < 0:  # whatever the classification or --function
                raise ValueError(f"seed must be nonnegative, got {args.seed}")
            code = args.func(args)
        except (ValueError, OSError) as exc:
            # the error is the outcome; the warnings on the way to it are not printed
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
