"""What the benchmark in bench/ reads of uplab, in tier-1.

bench/tracing.py notes each call's arguments (a mixture's ``is_gaussian`` and
``terms``, a translate family's ``d`` and ``k``, a grid function's ``values``)
and bench/workloads.py checks each verdict against closed forms.  A few
operations of the trichotomy and grid_chain workloads, and every operation of
cli_readme, run here under the tracer, so a change in src/ that breaks one
fails this test, not only the benchmark.
"""

import collections
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

from uplab import grid  # noqa: E402

# one feasible, two violated (d = 1, 2) and one endpoint tuple, a d = 1 and a d = 3 chain
# check, and the seven README commands: the violated ones build translate families, the
# sweeps read their constants as columns, one call each
README_OPERATIONS = ["heisenberg", "lp", "sharpness", "rudin-shapiro", "cowling-price",
                     "gaussian", "chain"]
OPERATIONS = [
    "cp d=1 p=2 q=3 theta=0.4 phi=0.566667",
    "cp d=1 p=3 q=3 theta=0.05 phi=0.05",
    "cp d=2 p=8 q=8 theta=0.1 phi=0.1",
    "cp d=1 p=4 q=4 theta=0.25 phi=0.25",
    "chain d=1 p=2 gaussian",
    "chain d=3 p=1.5 bump",
    *README_OPERATIONS,
]
CHAIN_OPERATIONS = ["chain d=1 p=2 gaussian", "chain d=3 p=1.5 bump"]


def _operations(tmp_path):
    return {op.name: op for workload in (workloads.trichotomy, workloads.grid_chain,
                                         workloads.cli_readme) for op in workload(1, tmp_path)}


def test_traced_operations_pass_their_checks(tmp_path):
    ops = _operations(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, name in enumerate(OPERATIONS):
            with tracer.operation(i, name):
                result = ops[name].run()
            assert ops[name].check(result) is None, name
    finally:
        tracer.uninstall()
    values = tracing.pass_layer_values(tracer.spans, tracing.self_times(tracer.spans))
    # every note was taken: the mixtures' terms, the families' (d, k), the grids' sizes
    assert values["radial.quadrature_share"] > 0
    assert values["counterexamples.rs_level.distinct_ratio"] > 0
    assert values["grid.norm.points"] > 0
    assert values["counterexamples.endpoint.calls"] == 5
    # a sweep builds no sphere/ball constants but the lp floor's calibration at d = 50, and
    # each of its columns is one traced call; the calibration reads one row of them
    spans = {name: collections.Counter(span.name for span in tracer.spans if span.op == i)
             for i, name in enumerate(OPERATIONS)}
    layers = ("specialfn.dimension_constants", "specialfn.dimension_logs", "params.l2_columns",
              "params.lp_columns", "radial.gaussian_log_products")
    assert [spans["heisenberg"][layer] for layer in layers] == [0, 1, 1, 0, 1]
    assert [spans["lp"][layer] for layer in layers] == [1, 2, 0, 2, 1]
    # each README command builds its parser through the traced cli.build_parser
    for name in ("cli.main", "cli.build_parser"):
        assert sum(span.name == name for span in tracer.spans) == len(README_OPERATIONS)
    # the chain's x-side norms stay a traced grid_weighted_norm call under it
    chains = {i for i, span in enumerate(tracer.spans)
              if span.name == "harness.function_chain_check"}
    assert any(span.name == "grid.grid_weighted_norm" and span.parent in chains
               for span in tracer.spans)


def test_chain_makes_one_blocked_pass_per_side(tmp_path, monkeypatch):
    # the x-side norms and the norms of f^; the ball reads its box, not the grid
    calls, sums = [], grid._weighted_sums

    def counted(*args, **kwargs):
        calls.append(args[0])
        return sums(*args, **kwargs)

    monkeypatch.setattr(grid, "_weighted_sums", counted)
    ops = _operations(tmp_path)
    for name in CHAIN_OPERATIONS:
        calls.clear()
        assert ops[name].check(ops[name].run()) is None, name
        assert len(calls) == 2, name
