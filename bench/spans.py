"""Per-layer tracing from outside the program.

:func:`install` replaces each public function of a layer, at the name its
caller looks it up by, with a wrapper that records a span: name, start,
end, parent span and operation id. Spans are kept in memory and reduced
to the per-layer metrics when the run ends. A span's self time is its
duration minus the time its child spans cover; every operation is one
root span, so the self times of an operation's spans add up to its
traced time. Nothing is recorded outside an operation.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# (metric, unit, what is summed, span or counter, denominator). What is
# summed is "time" (the spans' inclusive durations), "self" (their self
# time), "calls" (how many there were) or "counter" (a count kept by a
# wrapper). The denominator is "window" (windows the operations
# completed), "forward" (windows passed forward, one model.forward call
# each: on train_pinned these include the validation windows), "batch"
# (Adam steps), "call" (calls of that span) or "op" (timed operations).
LAYER_METRICS = [
    ("autodiff.backward_ms", "ms", "time", "autodiff.backward", "window"),
    ("autodiff.ops_per_window", "count", "counter", "autodiff.ops", "window"),
    ("autodiff.tape_records_per_window", "count", "counter", "autodiff.tape_records", "window"),
    ("model.forward_ms", "ms", "time", "model.forward", "forward"),
    ("model.forward_calls_per_op", "count", "calls", "model.forward", "op"),
    ("model.encode_ms", "ms", "time", "model.encode", "forward"),
    ("model.temporal_attention_ms", "ms", "time", "model.temporal_attention", "forward"),
    ("model.spatial_attention_ms", "ms", "time", "model.spatial_attention", "forward"),
    ("model.graph_conv_ms", "ms", "time", "model.graph_conv", "forward"),
    ("model.gated_conv_ms", "ms", "time", "model.gated_conv", "forward"),
    ("training.adam_step_ms", "ms", "time", "training.adam_step", "batch"),
    ("data.hide_observed_ms", "ms", "time", "data.hide_observed", "batch"),
    ("training.validate_ms", "ms", "time", "training.validate", "call"),
    ("data.load_series_ms", "ms", "time", "data.load_series", "call"),
    ("data.save_series_ms", "ms", "time", "data.save_series", "call"),
    ("data.load_mask_ms", "ms", "time", "data.load_mask", "call"),
    ("data.make_windows_ms", "ms", "time", "data.make_windows", "call"),
    ("model.load_checkpoint_ms", "ms", "time", "model.load_checkpoint", "call"),
    ("graph.build_basis_ms", "ms", "time", "graph.build_basis", "call"),
    ("graph.load_adjacency_ms", "ms", "time", "graph.load_adjacency", "call"),
    ("evaluation.knn_ms", "ms", "time", "evaluation.knn", "window"),
    ("evaluation.mean_ms", "ms", "time", "evaluation.mean", "window"),
    ("evaluation.pooled_metrics_ms", "ms", "time", "evaluation.pooled_metrics", "call"),
    ("cli.self_ms", "ms", "self", "cli.main", "op"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self.ops = 0

    @contextlib.contextmanager
    def operation(self):
        """One timed operation: the root span of everything it calls."""
        self._op = self.ops
        self.ops += 1
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def span(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` made in an operation."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            if self._op is None:
                return original(*args, **kwargs)
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        setattr(owner, attr, spanned)

    def count(self, owner, attr: str, name: str, amount=lambda result: 1) -> None:
        """Add ``amount(result)`` to counter ``name`` on every call in an operation."""
        original = getattr(owner, attr)
        bound = isinstance(vars(owner).get(attr), classmethod)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if self._op is not None:
                self.counts[name] += amount(result)
            return result

        setattr(owner, attr, staticmethod(counted) if bound else counted)

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Inclusive time, self time and calls per span name, over all operations."""
        covered: defaultdict = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        total, own, calls = Counter(), Counter(), Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - covered[index]
            calls[name] += 1
        return total, own, calls

    def layer_metrics(self, windows: int) -> dict[str, dict]:
        """The per-layer metrics over all operations, ``windows`` being the
        number of windows the operations completed."""
        total, own, calls = self.self_times()
        per = {"window": windows, "forward": calls["model.forward"],
               "batch": calls["training.adam_step"], "op": self.ops}
        summed = {"time": total, "self": own, "calls": calls, "counter": self.counts}
        metrics = {}
        for metric, unit, what, source, denominator in LAYER_METRICS:
            amount = summed[what][source] * (1000.0 if unit == "ms" else 1)
            base = calls[source] if denominator == "call" else per[denominator]
            metrics[metric] = {"value": amount / base if base else 0.0, "unit": unit}
        return metrics


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers use."""
    from maginet import autodiff, cli, data, evaluation, model, training

    for owner, attr, name in [
        (cli, "main", "cli.main"),
        (data, "load_series_csv", "data.load_series"),
        (data, "save_series_csv", "data.save_series"),
        (data, "load_mask_csv", "data.load_mask"),
        (data, "make_windows", "data.make_windows"),
        (training, "hide_observed", "data.hide_observed"),
        (cli, "load_adjacency", "graph.load_adjacency"),
        (model, "build_basis", "graph.build_basis"),
        (cli, "load_checkpoint", "model.load_checkpoint"),
        (model, "forward", "model.forward"),
        (model, "amst_encode", "model.encode"),
        (model, "temporal_attention", "model.temporal_attention"),
        (model, "spatial_attention", "model.spatial_attention"),
        (model, "graph_conv", "model.graph_conv"),
        (model, "gated_temporal_conv", "model.gated_conv"),
        (training, "train_model", "training.train_model"),
        (training, "evaluate_model", "training.validate"),
        (training.Adam, "step", "training.adam_step"),
        (autodiff.Tensor, "backward", "autodiff.backward"),
        (evaluation, "mean_baseline", "evaluation.mean"),
        (evaluation, "knn_baseline", "evaluation.knn"),
        (evaluation, "pooled_metrics", "evaluation.pooled_metrics"),
    ]:
        tracer.span(owner, attr, name)
    tracer.count(autodiff, "_record", "autodiff.ops")
    tracer.count(autodiff.Tape, "trace", "autodiff.tape_records", lambda tape: len(tape.records))
