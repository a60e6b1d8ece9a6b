"""In-memory spans around every public function of every ``uplab`` module.

``Tracer.install`` replaces each public function with a wrapper that records
a span (name, start, end, parent span, operation id).  uplab modules import
each other's functions by name (``from .grid import grid_weighted_norm`` in
``harness``), so the wrapper is bound in every namespace that holds the
function, not only in the defining module; otherwise a call from one layer
into another would go unmeasured.  ``uninstall`` puts the originals back.

Spans stay in memory until the run ends.  A layer's self time is the length
of its spans minus the part of each span that child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
from dataclasses import asdict, dataclass
from time import perf_counter

MODULES = ("specialfn", "params", "radial", "grid", "counterexamples", "harness", "cli")

# Layers that split a module; a public function not listed here belongs to
# the layer named after its module.
LAYER_OF = {
    "radial.radial_weighted_norm": "radial.weighted_norm",
    "grid.fourier_transform": "grid.fft",
    "grid.grid_weighted_norm": "grid.norm",
    "grid.sample": "grid.sample",
    "grid.random_bump": "grid.sample",
    "grid.gaussian_grid_function": "grid.sample",
    "grid.default_spec": "grid.sample",
    "counterexamples.rs_level": "counterexamples.rs_level",
    "counterexamples.rs_base": "counterexamples.rs_base",
    "counterexamples.rs_base_bump_1d": "counterexamples.rs_base",
    "counterexamples.sign_matrix": "counterexamples.rs_base",
    "counterexamples.rs_slope": "counterexamples.rs_slope",
    "counterexamples.rs_growth_ratio": "counterexamples.rs_slope",
    "counterexamples.gc_profile": "counterexamples.gc",
    "counterexamples.gc_uncertainty_ratio": "counterexamples.gc",
    "counterexamples.gc_infimum_sweep": "counterexamples.gc",
    "counterexamples.h_bound": "counterexamples.gc",
    "counterexamples.alpha_exponent": "counterexamples.gc",
    "counterexamples.endpoint_tail_mass": "counterexamples.endpoint",
    "counterexamples.endpoint_weighted_mass": "counterexamples.endpoint",
}
SPLIT_MODULES = {"radial", "grid", "counterexamples"}
LAYERS = sorted(
    set(LAYER_OF.values())
    | {f"{m}.other" for m in SPLIT_MODULES}
    | {m for m in MODULES if m not in SPLIT_MODULES}
)

FFT_BYTES_PER_POINT = 32  # one complex128 read and one written per sample


def layer_of(span_name: str) -> str:
    module = span_name.split(".", 1)[0]
    default = f"{module}.other" if module in SPLIT_MODULES else module
    return LAYER_OF.get(span_name, default)


# What a span records about its call's arguments, for the layers that need it.
NOTES = {
    "counterexamples.rs_level": lambda args: [args["d"], args["k"]],
    "radial.radial_weighted_norm": lambda args: not (
        args["profile"].is_gaussian and len(args["profile"].terms) == 1
    ),
    "grid.fourier_transform": lambda args: int(args["f"].values.size),
    "grid.grid_weighted_norm": lambda args: int(args["f"].values.size),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root span
    op: int
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[dict, str, object]] = []

    def _open(self, name: str, note=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._op, note))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = perf_counter()

    def _wrap(self, name: str, fn):
        note_of = NOTES.get(name)
        signature = inspect.signature(fn) if note_of else None

        def traced(*args, **kwargs):
            note = note_of(signature.bind(*args, **kwargs).arguments) if note_of else None
            index = self._open(name, note)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, op: int, name: str):
        """Root span of one benchmark operation; layer spans inside it carry ``op``."""
        self._op = op
        index = self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(index)
            self._op = -1

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("uplab")
        modules = [importlib.import_module(f"uplab.{m}") for m in MODULES]
        namespaces = [vars(package)] + [vars(m) for m in modules]
        for module, short in zip(modules, MODULES):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{fn.__name__}", fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._saved.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._saved):
            ns[key] = fn
        self._saved.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for k in sorted(kids, key=lambda j: spans[j].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def pass_layer_values(spans: list[Span], selfs: list[float]) -> dict[str, float]:
    """Per-layer counts and self times over the spans of one pass."""
    values: dict[str, float] = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("calls", "self_s")}
    values.update({"grid.fft.points": 0, "grid.fft.bytes_computed": 0, "grid.norm.points": 0})
    rs_keys, quad_calls = set(), 0
    for span, self_s in zip(spans, selfs):
        if span.name.startswith("op."):
            continue
        layer = layer_of(span.name)
        values[f"{layer}.calls"] += 1
        values[f"{layer}.self_s"] += self_s
        if span.name == "counterexamples.rs_level":
            rs_keys.add(tuple(span.note))
        elif span.name == "radial.radial_weighted_norm":
            quad_calls += span.note
        elif span.name == "grid.fourier_transform":
            values["grid.fft.points"] += span.note
            values["grid.fft.bytes_computed"] += FFT_BYTES_PER_POINT * span.note
        elif span.name == "grid.grid_weighted_norm":
            values["grid.norm.points"] += span.note
    rs_calls = values["counterexamples.rs_level.calls"]
    values["counterexamples.rs_level.distinct_ratio"] = len(rs_keys) / rs_calls if rs_calls else 0.0
    wn_calls = values["radial.weighted_norm.calls"]
    values["radial.quadrature_share"] = quad_calls / wn_calls if wn_calls else 0.0
    return values


def layer_metrics(spans: list[Span], pass_of_op: dict[int, int]) -> dict[str, float]:
    """Median over traced passes of each per-pass layer value."""
    selfs = self_times(spans)
    by_pass: dict[int, tuple[list[Span], list[float]]] = {}
    for span, self_s in zip(spans, selfs):
        group = by_pass.setdefault(pass_of_op[span.op], ([], []))
        group[0].append(span)
        group[1].append(self_s)
    per_pass = [pass_layer_values(s, t) for s, t in by_pass.values()]
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
