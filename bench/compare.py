"""Compare two sets of benchmark result records, workload by workload.

A set is a directory of the JSON records bench/run.py writes, one per run.
For each workload and metric the report gives both sets' medians and
quartiles.  End-to-end metrics also get a verdict under their bound from
BENCHMARK.json (B is the candidate, A the reference):

* ``worse`` / ``better``: B's median differs from A's by more than the bound;
* ``unchanged``: the medians differ by no more than the bound;
* ``unresolved``: a set's quartile spread, as a share of its median, is wider
  than the bound, and the runs do not separate (every run of B better, or
  every run worse, than every run of A).

Per-layer metrics have no bound; the report gives their ratio B/A.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*_trace[01].json")):
        record = json.loads(path.read_text())
        runs[record["meta"]["workload"], record["meta"]["trace"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """B's change against A as a share of A's median (positive is worse), and the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return change, "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return change, "worse"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "unchanged"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def report(dir_a: Path, dir_b: Path, spec: dict) -> str:
    runs_a, runs_b = load(dir_a), load(dir_b)
    kinds = [(0, spec["end_to_end"]), (1, spec["per_layer"])]
    lines = [f"A = {dir_a}", f"B = {dir_b}"]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in kinds:
            a, b = runs_a.get((workload, trace)), runs_b.get((workload, trace))
            if not a or not b:
                continue
            lines.append(f"\n{workload} (trace {trace}): failed/attempted "
                         f"A {sum(r['failed'] for r in a)}/{sum(r['attempted'] for r in a)}, "
                         f"B {sum(r['failed'] for r in b)}/{sum(r['attempted'] for r in b)}")
            for m in metrics:
                va = [r["metrics"][m["name"]]["value"] for r in a]
                vb = [r["metrics"][m["name"]]["value"] for r in b]
                if "bound" in m:
                    change, word = verdict(va, vb, m["better"], m["bound"])
                    tail = f"{change:+.1%} (bound {m['bound']:.0%}) {word}"
                else:
                    med_a = statistics.median(va)
                    tail = f"B/A {statistics.median(vb) / med_a:.3f}" if med_a else "B/A -"
                lines.append(f"  {m['name']:<42} {m['unit']:<6} A {_fmt(va)} | B {_fmt(vb)} | {tail}")
    return "\n".join(lines)
