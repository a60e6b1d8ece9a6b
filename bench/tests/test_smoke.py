"""Smoke test of the benchmark: each workload at minimum length, traced and
untraced, prints every metric with its unit.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ["trichotomy", "cli_readme", "grid_chain"]
END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "success_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "counterexamples.rs_level.calls": "count",
    "counterexamples.rs_level.self_s": "s",
    "counterexamples.rs_level.distinct_ratio": "ratio",
    "counterexamples.rs_base.self_s": "s",
    "counterexamples.rs_slope.self_s": "s",
    "counterexamples.gc.self_s": "s",
    "counterexamples.endpoint.self_s": "s",
    "radial.weighted_norm.calls": "count",
    "radial.weighted_norm.self_s": "s",
    "radial.quadrature_share": "ratio",
    "radial.other.self_s": "s",
    "grid.fft.calls": "count",
    "grid.fft.self_s": "s",
    "grid.fft.points": "count",
    "grid.fft.bytes_computed": "B",
    "grid.norm.calls": "count",
    "grid.norm.self_s": "s",
    "grid.norm.points": "count",
    "grid.sample.self_s": "s",
    "grid.other.self_s": "s",
    "params.calls": "count",
    "params.self_s": "s",
    "specialfn.calls": "count",
    "specialfn.self_s": "s",
    "harness.calls": "count",
    "harness.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
}


def _run(bench_dir: Path, workload: str, trace: int, out_dir: Path):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_these_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_run_prints_every_metric(workload, trace, expected, tmp_path):
    proc = _run(BENCH, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    record = json.loads((tmp_path / f"{workload}_seed1_trace{trace}.json").read_text())
    assert record["meta"]["workload"] == workload
    assert record["meta"]["thread_pins"]["OMP_NUM_THREADS"] == "1"
    if trace:
        assert (tmp_path / f"{workload}_seed1_spans.jsonl").stat().st_size > 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path / "bench", "grid_chain", 0, tmp_path / "out")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_sees_calls_across_modules():
    from uplab import grid, harness

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation(0, "chain"):
            harness.function_chain_check(grid.gaussian_grid_function(grid.default_spec(1)), 1, 2.0)
        with tracer.operation(1, "feasible"):
            harness.cp_check(1, 2.0, 2.0, 1.0, 1.0)
        with tracer.operation(2, "violated"):
            harness.cp_check(1, 4.0, 4.0, 0.1, 0.1)
    finally:
        tracer.uninstall()
    assert not hasattr(harness.grid_weighted_norm, "__wrapped__")
    spans = tracer.spans
    norm_parents = {spans[s.parent].name for s in spans if s.name == "grid.grid_weighted_norm"}
    assert {"harness.function_chain_check", "harness.cp_check",
            "counterexamples.rs_level", "counterexamples.rs_growth_ratio"} <= norm_parents
    radial_parents = {spans[s.parent].name for s in spans if s.name == "radial.radial_weighted_norm"}
    assert radial_parents == {"harness.cp_check"}
    selfs = tracing.self_times(spans)
    assert all(t >= 0 for t in selfs)
    chain = [s.name for s in spans].index("harness.function_chain_check")
    assert selfs[chain] < spans[chain].end - spans[chain].start


@pytest.mark.parametrize("a, b, better, word", [
    ([10, 10.1, 9.9, 10], [10.2, 10.1, 10, 10.1], "lower", "unchanged"),
    ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "lower", "worse"),
    ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "higher", "better"),
    ([5, 10, 15, 10], [6, 11, 14, 9], "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, word):
    assert compare.verdict(a, b, better, 0.1)[1] == word
