"""Outside-in timing of popformer's public functions.

The benchmark never edits the program. Before an operation it swaps a module
or class attribute for a wrapper, and afterwards it puts the original back.
Two kinds of wrapper exist:

* :class:`Clock` stamps the start of a call made exactly once per iteration
  (a generation or an optimizer step). It is cheap enough for the untraced run,
  which reports the end-to-end metrics.
* :class:`Tracer` records a span (name, start, end, parent) around every call
  of the names in :data:`SPANS` and bumps the counters in :data:`COUNT_METRICS`.
  It runs only in traced operations, which report the per-layer metrics.

A layer's self time is its span's duration minus the durations of its child
spans. Calls are strictly nested on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

perf_counter = time.perf_counter

# (target, time metric, whether calls are counted). A target is
# "module:attribute" or "module:Class.method". The span is named after the
# metric without its last part, and its calls metric is "<span>.calls". Every
# time metric is a self time in ms per operation; the .fwd_ms and .ms suffixes
# only say what the span covers.
SPANS = (
    ("popformer.core:evaluate", "core.evaluate.self_ms", True),
    ("popformer.core:Problem.evaluate_solution", "problems.evaluate_solution.self_ms", True),
    ("popformer.moea:fast_nondominated_sort", "moea.nondominated_sort.self_ms", True),
    ("popformer.moea:crowding_distance", "moea.crowding_distance.self_ms", False),
    ("popformer.moea:nsga2_select", "moea.nsga2_select.self_ms", False),
    ("popformer.moea:sbx_pm_offspring", "moea.variation.self_ms", False),
    ("popformer.moea:cso_step", "moea.cso_step.self_ms", False),
    ("popformer.nn.tensor:Tape.backward", "nn.backward.self_ms", False),
    ("popformer.nn.optim:Adam.step", "nn.adam.self_ms", False),
    ("popformer.model:PopulationTransformer.embed", "model.embed.fwd_ms", False),
    ("popformer.model:PopulationTransformer.head_activations", "model.head.fwd_ms", False),
    ("popformer.model:PopulationTransformer.generate", "model.generate.self_ms", False),
    ("popformer.model:PopulationTransformer.forced_loss", "model.forced_loss.fwd_ms", False),
    ("popformer.model:load_checkpoint", "model.load_checkpoint.ms", False),
    ("popformer.model:save_checkpoint", "model.save_checkpoint.ms", False),
    ("popformer.dataset:TrajectoryDataset.load", "dataset.load.ms", False),
    ("popformer.dataset:TrajectoryPair.from_populations", "dataset.pair_build.self_ms", True),
    ("popformer.pipeline:finetune_step", "pipeline.finetune_step.self_ms", False),
    ("popformer.pipeline:pretrain", "pipeline.pretrain.self_ms", False),
    ("popformer.metrics:igd", "metrics.igd.self_ms", True),
    ("popformer.metrics:wilcoxon_rank_sum", "metrics.rank_sum.self_ms", True),
    ("popformer.bench:summarize", "bench.summarize.ms", False),
    ("popformer.bench:emit_report", "bench.emit_report.ms", False),
)


def span_name(metric: str) -> str:
    return metric.rsplit(".", 1)[0]


# Per-block forward spans: each call is named after the model block whose
# parameters it receives, found through named_parameters() prefixes.
BLOCK_SPANS = (
    ("popformer.nn.layers:multi_head_attention", 3, "q"),
    ("popformer.nn.layers:mlp_block", 1, "inner"),
)
MODEL_LAYERS = 2  # ModelConfig().layers, the configuration every workload uses
BLOCK_METRICS = tuple(
    [f"model.encoder.{i}.{part}.fwd_ms" for i in range(MODEL_LAYERS) for part in ("attn", "mlp")]
    + [f"model.decoder.{i}.{part}.fwd_ms" for i in range(MODEL_LAYERS)
       for part in ("self_attn", "cross_attn", "mlp")]
)

# Bumped by counter-only wrappers, which add no span, so their time stays
# with the caller.
COUNT_METRICS = ("core.solutions_built", "nn.matmul.calls", "nn.matmul.gflop",
                 "nn.tape.nodes", "model.decode.calls", "model.decode.rows")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for _, metric, counted in SPANS:
        out.append((metric, "ms", "lower"))
        if counted:
            out.append((f"{span_name(metric)}.calls", "count", "lower"))
    out += [(name, "ms", "lower") for name in BLOCK_METRICS]
    units = {"nn.matmul.gflop": "GFLOP"}
    out += [(name, units.get(name, "count"), "lower") for name in COUNT_METRICS]
    out += [("model.decode.useful_frac", "frac", "higher"),
            ("unattributed.self_ms", "ms", "lower"),
            ("trace.wall_ms", "ms", "lower"),
            ("trace.overhead_ms", "ms", "lower"),
            ("trace.missing_names", "count", "lower")]
    return out


class Patcher:
    """Replaces attributes with wrappers and restores them in reverse order.

    A module-level function is replaced in every loaded popformer module that
    holds it, so ``from .x import f`` bindings are wrapped too. A target that
    no longer exists is recorded in ``missing`` and skipped.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def wrap(self, target: str, make_wrapper) -> None:
        module_name, _, path = target.partition(":")
        owner = sys.modules.get(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            self.missing.add(target)
            return
        if inspect.isclass(owner):
            raw = owner.__dict__.get(attr)
            if raw is None:
                self.missing.add(target)
                return
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(owner, attr, new)
            return
        current = getattr(owner, attr, None)
        if current is None:
            self.missing.add(target)
            return
        new = make_wrapper(current)
        for mod in [m for name, m in sys.modules.items() if name.startswith("popformer")]:
            for name, value in list(vars(mod).items()):
                if value is current:
                    self._set(mod, name, new)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Clock:
    """Start times of once-per-iteration calls, grouped into runs.

    An iteration's time is the gap between consecutive stamps of one run.
    """

    def __init__(self):
        self.runs: list[list[float]] = []

    def new_run(self) -> None:
        self.runs.append([])

    def install(self, patcher: Patcher, boundaries, delimiter: str | None) -> None:
        def stamp(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.runs[-1].append(perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        def delimit(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.new_run()
                return fn(*args, **kwargs)
            return wrapper

        for target in boundaries:
            patcher.wrap(target, stamp)
        if delimiter:
            patcher.wrap(delimiter, delimit)

    def intervals_ms(self) -> list[float]:
        return [(b - a) * 1e3 for run in self.runs for a, b in zip(run, run[1:])]


class Tracer:
    """Spans and counters for traced operations, kept in memory until the end."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._blocks: dict[int, tuple[object, str]] = {}
        self._in_decode_step = False

    def begin_op(self, op: int) -> None:
        self.op = op
        self._blocks.clear()

    def _span(self, name_of, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self, patcher: Patcher) -> None:
        counts = self.counts
        for target, metric, _ in SPANS:
            patcher.wrap(target, lambda fn, n=span_name(metric): self._span(lambda a, k: n, fn))
        for target, index, first in BLOCK_SPANS:
            def block_name(args, kwargs, index=index, first=first):
                params = args[index] if len(args) > index else kwargs.get("p")
                entry = self._blocks.get(id(getattr(getattr(params, first, None), "w", None)))
                return entry[1] if entry else None
            patcher.wrap(target, lambda fn, f=block_name: self._span(f, fn))

        def solution(args, kwargs):
            counts["core.solutions_built"] += 1

        def tape_nodes(args, kwargs):
            counts["nn.tape.nodes"] += len(args[0])

        def matmul(args, kwargs):
            a, b = args[0], args[1]
            counts["nn.matmul.calls"] += 1
            counts["nn.matmul.gflop"] += 2.0 * a.data.size * b.data.shape[-1] * 1e-9

        def decode(args, kwargs):
            rows = args[1].shape[0]
            counts["model.decode.calls"] += 1
            counts["model.decode.rows"] += rows
            counts["decode.useful_rows"] += 1 if self._in_decode_step else rows

        def register(model):
            for name, tensor in model.named_parameters():
                for suffix in (".q.w", ".inner.w"):
                    if name.endswith(suffix):
                        self._blocks[id(tensor)] = (tensor, f"model.{name[: -len(suffix)]}")

        def init_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(model, *args, **kwargs):
                fn(model, *args, **kwargs)
                register(model)
            return wrapper

        def decode_step_wrapper(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._in_decode_step = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._in_decode_step = False
            return wrapper

        for target, on_call in (
            ("popformer.core:Solution.__post_init__", solution),
            ("popformer.nn.tensor:Tape.backward", tape_nodes),
            ("popformer.nn.tensor:matmul", matmul),
            ("popformer.model:PopulationTransformer.decode", decode),
        ):
            patcher.wrap(target, lambda fn, c=on_call: self._counter(fn, c))
        patcher.wrap("popformer.model:PopulationTransformer.decode_step", decode_step_wrapper)
        patcher.wrap("popformer.model:PopulationTransformer.__init__", init_wrapper)

    def self_ms(self) -> Counter:
        """Total self time in ms per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def metrics(self, traced_walls_ms: list[float], untraced_walls_ms: list[float],
                missing: set[str]) -> dict[str, float]:
        """Per-layer metrics as means over the traced operations."""
        n_ops = len(traced_walls_ms)
        totals = self.self_ms()
        out: dict[str, float] = {}
        calls = Counter(rec[0] for rec in self.spans)
        for _, metric, counted in SPANS:
            out[metric] = totals[span_name(metric)] / n_ops
            if counted:
                out[f"{span_name(metric)}.calls"] = calls[span_name(metric)] / n_ops
        for metric in BLOCK_METRICS:
            out[metric] = totals[span_name(metric)] / n_ops
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / n_ops
        rows = self.counts["model.decode.rows"]
        out["model.decode.useful_frac"] = self.counts["decode.useful_rows"] / rows if rows else 0.0
        wall = sum(traced_walls_ms) / n_ops
        out["unattributed.self_ms"] = wall - sum(totals.values()) / n_ops
        out["trace.wall_ms"] = wall
        out["trace.overhead_ms"] = wall - sum(untraced_walls_ms) / len(untraced_walls_ms)
        out["trace.missing_names"] = float(len(missing))
        return out
