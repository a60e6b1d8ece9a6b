"""Report golden gate: the repr of every Cowling-Price report on the 50 golden
tuples and of 18 chain reports, compared with tests/golden/reports.txt.

A repr prints every float with the shortest digits that read back to the
same double, so a report keeps its bits exactly when its line is unchanged.
A change that moves digits on purpose re-records the file:

    PYTHONPATH=src:tests python -c "import test_reports; test_reports.record()"
"""

import warnings
from pathlib import Path

import numpy as np

from test_acceptance import _golden_table
from uplab import counterexamples as cx
from uplab import harness
from uplab.grid import default_spec, gaussian_grid_function, random_bump, sample

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.txt"


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
    moved = [(old, new) for old, new in zip(expected, actual) if old != new]
    assert not moved, f"{len(moved)} reports moved, first: {moved[0]}"
