"""Report golden gate: the repr of every Cowling-Price report on the 50 golden
tuples and of 18 chain reports, compared with tests/golden/reports.txt.

A repr prints every float with the shortest digits that read back to the
same double, so a report keeps its bits exactly when its line is unchanged.
A change that moves digits on purpose re-records the file:

    PYTHONPATH=src:tests python -c "import test_reports; test_reports.record()"

A failure lists every moved line with the largest change among its printed floats.
"""

import math
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


def transcript() -> str:
    """One line per report: the 50 golden tuples (bump seed = row index), then the
    chains at d = 1..3 and p = 2, 1.5 on the Gaussian, g_2 and a seeded bump."""
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (d, p, q, theta, phi, _) in enumerate(_golden_table()):
            lines.append(repr(harness.cp_check(d, p, q, theta, phi, seed=i)))
        for d in (1, 2, 3):
            for p in (2.0, 1.5):
                functions = {
                    "gaussian": gaussian_grid_function(default_spec(d)),
                    "g_2": _g2(d),
                    "bump": random_bump(default_spec(d), seed=10 * d + int(p == 1.5)),
                }
                for name, f in functions.items():
                    lines.append(f"{name} {harness.function_chain_check(f, d, p)!r}")
    return "".join(line + "\n" for line in lines)


def record() -> None:
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
