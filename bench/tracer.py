"""Spans around the pipeline's layers, recorded from outside the program.

The tracer wraps the public names that ``multibump.pipeline`` calls.  Every
``multibump`` module that binds one of those names gets the wrapper, so
calls made inside a layer are spans too: ``assess_admissibility`` evaluates
the weight on its coarse level, and ``verify_solution_file`` rebuilds the
grid.  Spans stay in memory for one operation.  A layer's time is its self
time: the span's duration minus the durations of its direct child spans.
The operation itself is the root span, so the self times of all layers plus
``pipeline.self_s`` add up to the traced operation.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Name called by multibump.pipeline -> per-layer metric prefix.
LAYERS = {
    "build_grid": "grid.build",
    "assess_admissibility": "weights.admissibility",
    "evaluate_weight": "weights.evaluate",
    "detect_zero_set": "weights.zero_set",
    "decompose_components": "topology.decompose",
    "dirichlet_lambda1": "spectral.lambda1",
    "assemble_energy": "energy.assemble",
    "minimize_energy": "energy.minimize",
    "enumerate_all": "composition.enumerate",
    "MultiBumpSolution.field": "composition.field",
    "check_conclusions": "verify.check",
    "write_solution_csv": "pipeline.write_csv",
    "write_outputs": "pipeline.write_report",
    "read_solution_csv": "pipeline.read_csv",
    "verify_solution_file": "pipeline.verify_file",
}
ROOT = "pipeline"

# Every per-layer metric of one operation, with its unit.
COUNTERS = {
    "energy.iterations": "count",
    "energy.unknowns": "count",
    "spectral.iterations": "count",
    "spectral.rayleigh_residual_max": "ratio",
    "weights.evaluate_calls": "count",
    "verify.calls": "count",
    "topology.chi": "count",
    "pipeline.csv_bytes": "bytes",
}
OPERATION_METRICS = {
    **{f"{prefix}_s": "s" for prefix in LAYERS.values()},
    f"{ROOT}.self_s": "s",
    **COUNTERS,
}
# What a traced run reports: medians over its traced operations, plus the
# traced operation's wall time, the tracing overhead against the untraced
# operations of the same run, and the share of it the self times cover.
PER_LAYER = {**OPERATION_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s",
             "trace.coverage": "ratio"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records the spans and counters of one operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, function):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._end(index)
            self._count(name, args, kwargs, result)
            return result
        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        counts = self.counts
        if name == "minimize_energy":
            counts["energy.iterations"] += result.iterations
        elif name == "assemble_energy":
            counts["energy.unknowns"] += result.size
        elif name == "dirichlet_lambda1":
            counts["spectral.iterations"] += result.iterations
            counts["spectral.rayleigh_residual_max"] = max(
                counts["spectral.rayleigh_residual_max"], result.rayleigh_residual)
        elif name == "evaluate_weight":
            counts["weights.evaluate_calls"] += 1
        elif name == "check_conclusions":
            counts["verify.calls"] += 1
        elif name == "decompose_components":
            counts["topology.chi"] = result.chi
        elif name == "write_solution_csv":
            path = args[0] if args else kwargs["path"]
            counts["pipeline.csv_bytes"] += os.path.getsize(path)

    def _patch(self) -> list[tuple[object, str, object]]:
        """Wrap every binding of every layer; return what to restore."""
        from multibump import pipeline
        modules = [module for name, module in sys.modules.items()
                   if name.split(".")[0] == "multibump"]
        patches = []
        for name in LAYERS:
            if name == "MultiBumpSolution.field":
                owner = pipeline.MultiBumpSolution
                bindings = [(owner, "field", owner.field)]
            else:
                original = getattr(pipeline, name)
                bindings = [(module, name, original) for module in modules
                            if getattr(module, name, None) is original]
            for owner, attr, original in bindings:
                setattr(owner, attr, self._wrap(name, original))
            patches.extend(bindings)
        return patches

    @contextmanager
    def operation(self):
        """Trace one operation: wrap the layers, open the root span, unwrap."""
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        patches = self._patch()
        root = self._begin(ROOT)
        try:
            yield
        finally:
            self._end(root)
            for owner, attr, original in patches:
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Self time per layer and the counters of the last operation."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.end - span.start
        values = dict.fromkeys(OPERATION_METRICS, 0.0)
        for span, child_time in zip(self.spans, children):
            prefix = ROOT if span.name == ROOT else LAYERS[span.name]
            key = f"{prefix}.self_s" if span.name == ROOT else f"{prefix}_s"
            values[key] += span.end - span.start - child_time
        values.update(self.counts)
        return values
