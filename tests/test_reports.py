"""Report golden gate: the repr of every Cowling-Price report on the 50 golden
tuples and of 18 chain reports, compared with tests/golden/reports.txt.

A repr prints every float with the shortest digits that read back to the
same double, so a report keeps its bits exactly when its line is unchanged.
A change that moves digits on purpose re-records the file:

    PYTHONPATH=src:tests python -c "import test_reports; test_reports.record()"

A failure lists every moved line with the largest change among its printed floats.
"""

import functools
import math
import operator
import re
import warnings
from pathlib import Path

import numpy as np

from test_acceptance import _golden_table
from uplab import counterexamples as cx
from uplab import harness
from uplab.grid import default_spec, gaussian_grid_function, random_bump, sample

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.txt"
# a float as repr prints it: digits with a point or an exponent, inf or nan
_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]\d+)?|\d+e[-+]\d+|inf)|nan")


def _g2(d):
    profile = cx.gc_profile(2.0, d)
    return sample(lambda *mesh: profile(np.sqrt(sum(m * m for m in mesh))), default_spec(d))


@functools.cache
def reports() -> tuple:
    """The 50 golden tuples' reports (bump seed = row index), then the chains at
    d = 1..3 and p = 2, 1.5 on the Gaussian, g_2 and a seeded bump, as (prefix, report)."""
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (d, p, q, theta, phi, _) in enumerate(_golden_table()):
            out.append(("", harness.cp_check(d, p, q, theta, phi, seed=i)))
        for d in (1, 2, 3):
            for p in (2.0, 1.5):
                functions = {
                    "gaussian": gaussian_grid_function(default_spec(d)),
                    "g_2": _g2(d),
                    "bump": random_bump(default_spec(d), seed=10 * d + int(p == 1.5)),
                }
                for name, f in functions.items():
                    out.append((f"{name} ", harness.function_chain_check(f, d, p)))
    return tuple(out)


def transcript() -> str:
    """One line per report of reports(): its prefix and its repr."""
    return "".join(f"{prefix}{report!r}\n" for prefix, report in reports())


def record() -> None:
    reports.cache_clear()
    GOLDEN.write_text(transcript())


def test_reports_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    actual = transcript().splitlines()
    assert len(actual) == len(expected) == 68
    moved = moved_lines(expected, actual)
    assert not moved, f"{len(moved)} reports moved:\n" + "\n".join(moved)


def moved_lines(expected, actual) -> list[str]:
    """One entry per line that differs: its number, its largest |delta| among the printed
    floats (inf where the text around them differs) and its start."""
    moved = []
    for number, (old, new) in enumerate(zip(expected, actual), 1):
        if old == new:
            continue
        delta = math.inf
        if _FLOAT.sub("#", old) == _FLOAT.sub("#", new):
            delta = max(0.0 if a == b else abs(float(a) - float(b))
                        for a, b in zip(_FLOAT.findall(old), _FLOAT.findall(new)))
        moved.append(f"line {number}: max |delta| = {delta:.2g}  {old[:72]}")
    return moved


# ---------------------------------------------------------------------------
# The verdict record: every verdict is a Check whose passed its fields recompute

_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt}
# the verdicts that rest on no measurement, marked by an infinite bound
UNMEASURED = {"predicted_slope", "weighted_mass"}


def verdicts() -> list[tuple[bool, tuple]]:
    """(pass, checks) of the 68 golden reports, the README commands' verdicts and the
    endpoint reports at d = 2e9, 1e18 and 1e100."""
    out = [(report.passed, getattr(report, "functions", None) or report.links)
           for _, report in reports()]
    for summary in (harness.sharpness_summary(2, 5.0, [1.0, 2.0, 4.0, 8.0]),
                    harness.rs_check(2, 3, 8.0, 0.1)):
        out.append((summary["pass"], tuple(summary["checks"])))
    for report in [harness.cp_check(1, 2.0, 2.0, 1.0, 1.0, seed=0)] + [
            harness.cp_check(d, 4.0, 4.0, d / 4, d / 4) for d in (2 * 10**9, 10**18, 10**100)]:
        out.append((report.passed, report.functions))
    chain = harness.function_chain_check(random_bump(default_spec(1), seed=7), 1, 2.0)
    out.append((chain.passed, chain.links))
    return out


def test_every_check_passes_by_its_relation():
    checks = [check for _, checks in verdicts() for check in checks]
    # golden: 20 feasible reports of 4 checks, 15 endpoint of 3, 15 violated of 1 and
    # 18 chains of 5; then sharpness, rudin-shapiro, cowling-price, 3 endpoints, chain
    assert len(checks) == 20 * 4 + 15 * 3 + 15 + 18 * 5 + 4 + 1 + 4 + 3 * 3 + 5
    for check in checks:
        expected = _RELATIONS[check.relation](check.log_lhs, check.log_rhs + check.tol)
        assert check.passed is expected, check
        assert math.isinf(check.log_rhs) is (check.name in UNMEASURED), check
        assert math.isfinite(check.tol), check


def test_each_pass_is_all_of_its_checks():
    for passed, checks in verdicts():
        assert checks and passed is all(check.passed for check in checks), checks
