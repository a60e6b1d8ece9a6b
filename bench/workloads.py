"""The benchmark's workloads.  Each is a list of operations; one operation is
one verdict (one Cowling-Price tuple, one README command, one chain check).

Operations look uplab functions up through their module at call time, so a
traced pass sees the tracer's wrappers.  Checks compare with closed forms
written here and call no uplab function, so they stay out of the trace.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from uplab import cli, grid, harness
from uplab import counterexamples as cx

SLACK_TOL = 1e-6
ENDPOINT_DELTAS = (1e-3, 1e-6, 1e-12, 1e-24)
HEISENBERG_ROWS = 500


@dataclass(frozen=True)
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right, else the reason


# ---------------------------------------------------------------------------
# trichotomy: the acceptance-9 golden table plus three feasible reproducers


def _phi_for(d, p, q, theta):
    return theta + d * (1.0 / p - 1.0 / q)


def golden_table() -> list[tuple]:
    """The 50 (d, p, q, theta, phi, expected class) tuples of acceptance 9."""
    table = []
    for d, p, th in [
        (1, 2.0, 1.0), (1, 2.0, 0.5), (1, 3.0, 0.5), (1, 4.0, 0.3), (1, 1.5, 0.25),
        (2, 2.0, 1.5), (2, 2.0, 0.75), (2, 3.0, 0.5), (2, 1.25, 0.2), (3, 2.0, 2.0),
        (3, 2.0, 1.0), (3, 2.5, 0.5),
    ]:
        table.append((d, p, p, th, th, "feasible"))
    for d, p, q, th in [
        (1, 4.0, 2.0, 0.5), (1, 2.0, 3.0, 0.4), (2, 3.0, 1.5, 1.0), (2, 2.0, 4.0, 0.8),
        (3, 2.0, 2.5, 1.2), (1, 1.5, 2.5, 0.6), (2, 4.0, 2.0, 0.8), (3, 3.0, 2.0, 1.0),
    ]:
        table.append((d, p, q, th, _phi_for(d, p, q, th), "feasible"))
    for d, p in [
        (1, 4.0), (1, 3.0), (1, 8.0), (1, 2.5), (1, 6.0),
        (2, 4.0), (2, 3.0), (2, 8.0), (2, 2.5), (3, 4.0),
        (3, 3.0), (3, 6.0), (2, 6.0), (1, 5.0), (3, 8.0),
    ]:
        th = d * (0.5 - 1.0 / p)
        table.append((d, p, p, th, th, "endpoint"))
    for d, p, th in [
        (1, 4.0, 0.1), (1, 8.0, 0.2), (1, 3.0, 0.05), (1, 6.0, 0.25), (1, 5.0, 0.15),
        (2, 8.0, 0.1), (2, 4.0, 0.3), (2, 6.0, 0.5), (2, 3.0, 0.2), (2, 8.0, 0.5),
        (2, 5.0, 0.4), (3, 4.0, 0.5), (3, 8.0, 1.0), (3, 6.0, 0.8), (3, 3.0, 0.3),
    ]:
        table.append((d, p, p, th, th, "violated"))
    return table


# Valid feasible tuples that crash at the time this benchmark was written
# (OverflowError, KeyError: 4, and a misrouted endpoint ValueError).  They stay
# in the workload so that the crashes count as failed operations.
REPRODUCERS = [
    (40, 2.0, 2.0, 30.0, 30.0, "feasible"),
    (4, 2.0, 2.0, 3.0, 3.0, "feasible"),
    (1, 2.0, 2.0, 1e-13, 1e-13, "feasible"),
]


def _sphere_area(d: int) -> float:
    return 2.0 * math.exp(0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


def _check_cp(expected: str, d: int):
    def check(report) -> str | None:
        if report.classification != expected:
            return f"classified {report.classification}, expected {expected}"
        if not report.passed:
            return "passed is False"
        if expected == "feasible":
            worst = min(fr.slack for fr in report.functions)
            if worst < -SLACK_TOL:
                return f"slack {worst:.3e} below -{SLACK_TOL}"
        elif expected == "endpoint":
            if len(report.tail_masses) != len(ENDPOINT_DELTAS):
                return f"{len(report.tail_masses)} tail masses"
            omega = _sphere_area(d)
            for delta, mass in zip(ENDPOINT_DELTAS, report.tail_masses):
                closed = omega * (math.log(math.log(1.0 / delta)) - math.log(math.log(2.0)))
                if abs(mass - closed) > 1e-8:
                    return f"tail mass {mass!r} at delta={delta}, closed form {closed!r}"
        return None

    return check


def trichotomy(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for d, p, q, theta, phi, expected in golden_table() + REPRODUCERS:
        bump_seed = rng.randrange(2**31)
        ops.append(Operation(
            name=f"cp d={d} p={p:g} q={q:g} theta={theta:g} phi={phi:g}",
            run=lambda t=(d, p, q, theta, phi), s=bump_seed: harness.cp_check(*t, seed=s),
            check=_check_cp(expected, d),
        ))
    return ops


# ---------------------------------------------------------------------------
# cli_readme: the seven README commands, in process


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue()


def _check_flags(*names: str):
    """Exit code 0, and every printed ``name=...`` flag reads True."""
    pattern = re.compile(rf"\b({'|'.join(names)})=(\w+)")

    def check(result) -> str | None:
        code, text = result
        if code != 0:
            return f"exit code {code}"
        flags = pattern.findall(text)
        if {name for name, _ in flags} != set(names) or any(v != "True" for _, v in flags):
            return f"flags {flags}"
        return None

    return check


_check_passes = _check_flags("pass")


def _check_heisenberg(csv_path: Path):
    def check(result) -> str | None:
        problem = _check_passes(result)
        if problem:
            return problem
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != HEISENBERG_ROWS:
            return f"{len(rows)} CSV rows, expected {HEISENBERG_ROWS}"
        flags = [k for k in rows[0] if k not in
                 ("d", "p", "method_log_bound", "gaussian_log_product", "claimed_floor_log")]
        if not flags or any(row[k] != "True" for row in rows for k in flags):
            return "a CSV flag is not True"
        return None

    return check


def _check_gaussian(result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    exact = 9.0 / (16.0 * math.pi**2)  # d^2/(16 pi^2) at d=3, p=2
    value = float(text.strip())
    if abs(value - exact) > 1e-12 * exact:
        return f"gaussian product {value!r}, expected {exact!r}"
    return None


def cli_readme(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    cp_seed, chain_seed = (str(rng.randrange(2**31)) for _ in range(2))
    csv_path = workdir / "sweep.csv"
    commands = [
        (["heisenberg", "--d-max", str(HEISENBERG_ROWS), "--out", str(csv_path)],
         _check_heisenberg(csv_path)),
        (["lp", "--p", "1.5", "--d-max", "500"], _check_passes),
        (["sharpness", "--d", "2", "--p", "5", "--c-list", "1,2,4,8"],
         _check_flags("decreasing", "collapsed")),
        (["rudin-shapiro", "--d", "2", "--k-max", "3"], _check_passes),
        (["cowling-price", "--d", "1", "--p", "2", "--q", "2", "--theta", "1", "--phi", "1",
          "--seed", cp_seed], _check_passes),
        (["gaussian", "--d", "3", "--p", "2"], _check_gaussian),
        (["chain", "--d", "1", "--p", "2", "--function", "bump", "--seed", chain_seed],
         _check_passes),
    ]
    return [
        Operation(name=argv[0], run=lambda a=argv: _run_cli(a), check=check)
        for argv, check in commands
    ]


# ---------------------------------------------------------------------------
# grid_chain: chain checks on default grids, no radial quadrature


def _g2(d: int):
    profile = cx.gc_profile(2.0, d)
    return grid.sample(
        lambda *mesh: profile(np.sqrt(sum(m * m for m in mesh))), grid.default_spec(d)
    )


def _check_chain(report) -> str | None:
    if len(report.links) != 5:
        return f"{len(report.links)} chain links"
    if not report.passed:
        return "failed links " + ",".join(link.name for link in report.links if not link.passed)
    return None


def grid_chain(seed: int, workdir: Path) -> list[Operation]:
    rng = random.Random(seed)
    ops = []
    for d in (1, 2, 3):
        for p in (2.0, 1.5):
            bump_seed = rng.randrange(2**31)
            makers = {
                "gaussian": lambda d=d: grid.gaussian_grid_function(grid.default_spec(d)),
                "g_2": lambda d=d: _g2(d),
                "bump": lambda d=d, s=bump_seed: grid.random_bump(grid.default_spec(d), seed=s),
            }
            for fname, make in makers.items():
                ops.append(Operation(
                    name=f"chain d={d} p={p:g} {fname}",
                    run=lambda make=make, d=d, p=p: harness.function_chain_check(make(), d, p),
                    check=_check_chain,
                ))
    return ops


WORKLOADS = {"trichotomy": trichotomy, "cli_readme": cli_readme, "grid_chain": grid_chain}
