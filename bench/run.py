"""Run one uplab benchmark workload and print its result as the last line.

    python3 bench/run.py --workload trichotomy --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --compare RESULTS_A RESULTS_B

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (meta block, failures, sample counts) goes to ``--out-dir``, and a
traced run also writes its spans there.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# Every thread pool numpy and scipy may start is held to one thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# A bare import varies by a third between fresh interpreters, so set-up time
# is the median of several.
SETUP_SAMPLES = 7
# cli_readme makes about 10^4 spans a pass; five traced passes bound the span file
TRACED_PASSES = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["trichotomy", "cli_readme", "grid_chain"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", type=Path, default=BENCH / "results")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("RESULTS_A", "RESULTS_B"),
                        help="compare two directories of result records and exit")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    return args


def measure_setup(speed) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import uplab and warm it up,
    raw and scaled to the nominal host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        k = speed.tick(force=True)
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(BENCH / "warmup.py")], check=True,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        speed.tick(force=True)
        scaled.append(raw[-1] / speed.factor(k))
    return raw, scaled


class Outcomes:
    """Time and verdict of every attempt at every operation in a run."""

    def __init__(self, ops):
        self.names = [op.name for op in ops]
        self.elapsed: list[list[float]] = [[] for _ in ops]
        self.ref_index: list[list[int]] = [[] for _ in ops]  # host-speed sample before each attempt
        self.ever_failed = [False] * len(ops)
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.wrong = 0

    def record(self, i: int, elapsed: float, problem: str | None, raised: bool, k: int) -> None:
        self.elapsed[i].append(elapsed)
        self.ref_index[i].append(k)
        if problem:
            self.failed += 1
            self.wrong += not raised
            self.ever_failed[i] = True
            self.failures.setdefault(self.names[i], problem)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.elapsed))

    def scaled(self, speed) -> list[list[float]]:
        """Every attempt's time at the nominal host speed."""
        return [[t / speed.factor(k) for t, k in zip(ts, ks)]
                for ts, ks in zip(self.elapsed, self.ref_index)]


def run_pass(ops, outcomes: Outcomes, first_op: int, tracer=None, speed=None) -> float:
    """One pass over the operations; returns its wall time."""
    start = time.perf_counter()
    for i, op in enumerate(ops):
        k = speed.tick() if speed else 0
        scope = tracer.operation(first_op + i, op.name) if tracer else contextlib.nullcontext()
        raised = False
        t0 = time.perf_counter()
        try:
            with scope:
                out = op.run()
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            elapsed = time.perf_counter() - t0
            raised, problem = True, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            problem = op.check(out)
        outcomes.record(i, elapsed, problem, raised, k)
    return time.perf_counter() - start


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def meta(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def end_to_end(outcomes: Outcomes, op_times: list[list[float]], setup: list[float]) -> dict[str, float]:
    """An operation's latency is its median attempt, infinite if it ever failed."""
    medians = [statistics.median(t) for t in op_times]
    latencies = [math.inf if bad else t for t, bad in zip(medians, outcomes.ever_failed)]
    ok = sum(not math.isinf(t) for t in latencies)
    return {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": ok / sum(medians),
        "verdict_p50_ms": 1e3 * nearest_rank(latencies, 0.50),
        "verdict_p90_ms": 1e3 * nearest_rank(latencies, 0.90),
        "success_frac": 1.0 - outcomes.failed / outcomes.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args, spec: dict) -> int:
    os.environ.update(THREAD_PINS)  # before numpy is imported
    if not (SRC / "uplab" / "__init__.py").is_file():
        print(f"error: no uplab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import tracing
    import warmup
    import workloads

    speed = None if args.trace else hostspeed.HostSpeed()
    setup_raw, setup = measure_setup(speed) if speed else ([], [])
    warmup.warm_up()
    warnings.simplefilter("ignore")  # as in acceptance 9: boundary-ratio warnings
    args.out_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    pass_of_op: dict[int, int] = {}
    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        ops = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        outcomes = Outcomes(ops)
        start = time.perf_counter()
        passes = 0
        while passes < 1 + args.trace or time.perf_counter() - start < args.seconds:
            first_op = passes * len(ops)
            if tracer and passes % 2 and len(traced) < TRACED_PASSES:
                pass_of_op.update((first_op + i, passes) for i in range(len(ops)))
                tracer.install()
                try:
                    traced.append(run_pass(ops, outcomes, first_op, tracer))
                finally:
                    tracer.uninstall()
            else:
                untraced.append(run_pass(ops, outcomes, first_op, speed=speed))
            passes += 1
        if speed:
            speed.tick(force=True)  # closes the last interval

    if tracer:
        values = tracing.layer_metrics(tracer.spans, pass_of_op)
        values["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        listed = spec["per_layer"]
        tracer.write_jsonl(args.out_dir / f"{args.workload}_seed{args.seed}_spans.jsonl")
    else:
        values = end_to_end(outcomes, outcomes.scaled(speed), setup)
        raw_values = end_to_end(outcomes, outcomes.elapsed, setup_raw)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "meta": meta(args),
        "failed_frac": outcomes.failed / outcomes.attempted,
        "operations_per_pass": len(ops),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "setup_samples_s": setup_raw,
        "failures": outcomes.failures,
        "op_elapsed_s": dict(zip(outcomes.names, outcomes.elapsed)),
        "all_values": values,
    }
    if speed:
        record["unscaled_values"] = raw_values
        record["host_reference_s"] = speed.samples
    out = args.out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, problem in outcomes.failures.items():
        print(f"failed: {name}: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.compare:
        import compare

        print(compare.report(*args.compare, spec))
        return 0
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
