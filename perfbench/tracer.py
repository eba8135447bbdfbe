"""In-memory span tracer that wraps dfqgame's public functions from outside.

A `Tracer` patches each target attribute where its callers look it up: a
function imported into another module's namespace (``nets.fake_quantize``,
``game.game_value``) is patched in that namespace, and methods are patched
on their class. Each call of a wrapped function records one span
``[name, start, end, parent]``; count-only targets bump a counter instead.
Work done only for the ratios (hashing weight arrays, walking a graph
before its backward sweep) runs off the span clock: its duration is
subtracted from every timestamp taken after it.

Spans stay in memory until the run ends; `layer_metrics` turns them and the
counters into the per-layer metrics. Leaving the `with` block restores
every patched attribute.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import time

from dfqgame import adapt, cli, engine, game, nets, quant, xp

# Span targets of an end-to-end run: one call each (plus the optimizer
# steps, which give the pretraining step count), so they cost microseconds.
TIMED = (
    ("cli.command", cli, "cmd_train"),
    ("cli.command", cli, "cmd_quantize_eval"),
    ("nets.pretrain_p", nets, "pretrain_p"),
    ("game.run_game", game, "run_game"),
    ("engine.adam_step", engine.AdamState, "step"),
)

# Span targets of a traced run, in addition to TIMED.
TRACED = TIMED + (
    ("engine.backward", engine.Tensor, "backward"),
    ("engine.sgd_step", engine.SgdNesterovState, "step"),
    ("quant.fake_quantize", quant, "fake_quantize"),
    ("quant.fake_quantize", nets, "fake_quantize"),
    ("nets.p_forward", nets.MLP, "forward"),
    ("nets.q_forward", nets.QuantizedMLP, "forward"),
    ("nets.g_forward", nets.Generator, "forward"),
    ("nets.accuracy", nets, "accuracy"),
    ("nets.accuracy", game, "accuracy"),
    ("nets.save_checkpoint", nets, "save_checkpoint"),
    ("adapt.game_value", adapt, "game_value"),
    ("adapt.game_value", game, "game_value"),
    ("adapt.distributions", adapt, "disagreement_distribution"),
    ("adapt.distributions", adapt, "agreement_distribution"),
    ("adapt.distributions", game, "disagreement_distribution"),
    ("adapt.distributions", game, "agreement_distribution"),
    ("adapt.entropy", adapt, "info_entropy"),
    ("adapt.entropy", adapt, "normalize_entropy"),
    ("adapt.entropy", game, "info_entropy"),
    ("adapt.entropy", game, "normalize_entropy"),
    ("game.probe", game, "probe_game_value"),
    ("game.max_step", game, "maximization_step"),
    ("game.generator_loss", game, "generator_loss"),
    ("game.min_step", game, "minimization_step"),
    ("game.draw_batch", game, "draw_batch"),
    ("xp.synth_dataset", xp, "synth_dataset"),
    ("xp.emit_metrics", xp, "emit_metrics"),
    ("xp.run_experiment", xp, "run_experiment"),
    ("cli.load_config", cli, "load_config"),
    ("cli.main", cli, "main"),
)

# Per-layer metrics: (name, unit, better). Span metrics end in .calls,
# .self_s, .p50_ms or .p99_ms; the rest are counters or ratios.
LAYER_METRICS = (
    ("engine.tensors_created", "count", "lower"),
    ("engine.graph_nodes_built", "count", "lower"),
    ("engine.graph_nodes_swept", "count", "lower"),
    ("engine.graph_use_ratio", "ratio", "higher"),
    ("engine.backward.calls", "count", "lower"),
    ("engine.backward.self_s", "s", "lower"),
    ("engine.matmul.calls", "count", "lower"),
    ("engine.matmul.flops", "flop", "lower"),
    ("engine.adam_step.calls", "count", "lower"),
    ("engine.adam_step.self_s", "s", "lower"),
    ("engine.sgd_step.calls", "count", "lower"),
    ("engine.sgd_step.self_s", "s", "lower"),
    ("quant.fake_quantize.calls", "count", "lower"),
    ("quant.fake_quantize.self_s", "s", "lower"),
    ("quant.fake_quantize.elems", "count", "lower"),
    ("quant.weight_requant_useful_ratio", "ratio", "higher"),
) + tuple(
    (f"nets.{net}_forward.{m}", unit, "lower")
    for net in ("p", "q", "g")
    for m, unit in (("calls", "count"), ("self_s", "s"),
                    ("p50_ms", "ms"), ("p99_ms", "ms"))
) + (
    ("nets.pretrain_p.self_s", "s", "lower"),
    ("nets.accuracy.calls", "count", "lower"),
    ("nets.accuracy.self_s", "s", "lower"),
    ("nets.save_checkpoint.self_s", "s", "lower"),
    ("nets.checkpoint_bytes", "B", "lower"),
    ("adapt.game_value.calls", "count", "lower"),
    ("adapt.game_value.self_s", "s", "lower"),
    ("adapt.distributions.self_s", "s", "lower"),
    ("adapt.entropy.self_s", "s", "lower"),
    ("game.probe.calls", "count", "lower"),
    ("game.probe.self_s", "s", "lower"),
    ("game.probe.p50_ms", "ms", "lower"),
    ("game.probe.p99_ms", "ms", "lower"),
    ("game.probe_repeat_ratio", "ratio", "lower"),
    ("game.max_step.calls", "count", "lower"),
    ("game.max_step.self_s", "s", "lower"),
    ("game.max_step.p50_ms", "ms", "lower"),
    ("game.max_step.p99_ms", "ms", "lower"),
    ("game.generator_loss.self_s", "s", "lower"),
    ("game.min_step.calls", "count", "lower"),
    ("game.min_step.self_s", "s", "lower"),
    ("game.min_step.p50_ms", "ms", "lower"),
    ("game.min_step.p99_ms", "ms", "lower"),
    ("game.draw_batch.self_s", "s", "lower"),
    ("game.run_game.self_s", "s", "lower"),
    ("xp.synth_dataset.self_s", "s", "lower"),
    ("xp.emit_metrics.self_s", "s", "lower"),
    ("xp.metrics_bytes", "B", "lower"),
    ("xp.run_experiment.self_s", "s", "lower"),
    ("cli.load_config.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _digest(arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """Context manager that patches dfqgame for the duration of a run.

    An end-to-end run (`traced=False`) spans only the TIMED targets. A
    traced run spans the TRACED targets and also installs the count-only
    wrappers and the ratio hooks. `spans` holds ``[name, start, end,
    parent_index]`` lists and `counts` the counters, filled in place.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._excluded = 0.0
        self._saved: list[tuple] = []
        self._weights: dict[int, tuple] = {}   # id -> (tensor, last digest)
        self._last_probe: bytes | None = None

    # -- clock -----------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def _off_clock(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        self._excluded += time.perf_counter() - t0

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = self._hooks() if self.traced else {}
        try:
            for name, owner, attr in TRACED if self.traced else TIMED:
                before, after = hooks.get((owner, attr), (None, None))
                self._patch(owner, attr, functools.partial(
                    self._span, name, before=before, after=after))
            if self.traced:
                self._patch(engine.Tensor, "__init__", self._count_init)
                self._patch(engine.Tensor, "_result", self._count_result)
                self._patch(engine.Tensor, "matmul", self._count_matmul)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            wrapped = staticmethod(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _span(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._off_clock(before, args)
            index = len(spans)
            spans.append([name, self.now(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = self.now()
                stack.pop()
            if after is not None:
                self._off_clock(after, args, result)
            return result

        return wrapper

    # -- count-only wrappers ----------------------------------------------

    def _count_init(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._bump("engine.tensors_created")
            fn(*args, **kwargs)
        return wrapper

    def _count_result(self, fn):
        @functools.wraps(fn)
        def wrapper(data, parents, backward):
            out = fn(data, parents, backward)
            if out._parents:
                self._bump("engine.graph_nodes_built")
            return out
        return wrapper

    def _count_matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            out = fn(a, b)
            m, k = a.data.shape
            self._bump("engine.matmul.calls")
            self._bump("engine.matmul.flops", 2 * m * k * out.data.shape[1])
            return out
        return wrapper

    # -- ratio hooks (run off the span clock) ------------------------------

    def _hooks(self) -> dict:
        def graph_swept(args):
            # Interior nodes the sweep will visit: the same walk as
            # Tensor.backward, counting nodes that carry a backward closure.
            seen, stack, swept = set(), [args[0]], 0
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                swept += node._backward is not None
                stack.extend(p for p in node._parents if p.requires_grad)
            self._bump("engine.graph_nodes_swept", swept)

        def register_q_weights(args):
            q = args[0]
            for t in [aff.weight for aff, _ in q.blocks] + [q.head.weight]:
                self._weights.setdefault(id(t), (t, None))

        def requant(args):
            theta = args[0]
            self._bump("quant.fake_quantize.elems", theta.data.size)
            entry = self._weights.get(id(theta))
            if entry is not None:
                digest = _digest([theta.data])
                self._bump("quant.weight_calls")
                if digest != entry[1]:
                    self._bump("quant.weight_changed")
                self._weights[id(theta)] = (theta, digest)

        def fq_node(args, out):
            if out._parents:
                self._bump("engine.graph_nodes_built")

        def probe_repeat(args):
            g, q = args[0], args[2]
            digest = _digest(t.data for t in g.parameters() + q.parameters())
            if digest == self._last_probe:
                self._bump("game.probe_repeats")
            self._last_probe = digest

        def file_bytes(key):
            def after(args, result):
                self._bump(key, os.path.getsize(args[1]))
            return after

        return {
            (engine.Tensor, "backward"): (graph_swept, None),
            (nets.QuantizedMLP, "forward"): (register_q_weights, None),
            (quant, "fake_quantize"): (requant, fq_node),
            (nets, "fake_quantize"): (requant, fq_node),
            (game, "probe_game_value"): (probe_repeat, None),
            (nets, "save_checkpoint"): (None, file_bytes("nets.checkpoint_bytes")),
            (xp, "emit_metrics"): (None, file_bytes("xp.metrics_bytes")),
        }


# -- aggregation --------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def span_stats(spans) -> dict[str, dict]:
    """name -> calls, self_s and per-call inclusive durations."""
    stats: dict[str, dict] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        s["calls"] += 1
        s["self_s"] += own
        s["durations"].append(end - start)
    return stats


# A ratio metric: (numerator counter, base counter).
RATIOS = {
    "engine.graph_use_ratio": ("engine.graph_nodes_swept", "engine.graph_nodes_built"),
    "quant.weight_requant_useful_ratio": ("quant.weight_changed", "quant.weight_calls"),
    "game.probe_repeat_ratio": ("game.probe_repeats", "game.probe.calls"),
}


def layer_metrics(spans, counts) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values of one traced run, except
    trace.overhead_ratio, plus the names of metrics the run never
    exercised (they read 0)."""
    flat = dict(counts)
    for span, s in span_stats(spans).items():
        flat[f"{span}.calls"] = s["calls"]
        flat[f"{span}.self_s"] = s["self_s"]
        flat[f"{span}.p50_ms"] = 1e3 * percentile(s["durations"], 50)
        flat[f"{span}.p99_ms"] = 1e3 * percentile(s["durations"], 99)
    values, absent = {}, []
    for name, _, _ in LAYER_METRICS:
        if name in RATIOS:
            num, base = (flat.get(key, 0) for key in RATIOS[name])
            values[name] = num / base if base else 0.0
            if not base:
                absent.append(name)
        elif name in flat:
            values[name] = flat[name]
        elif name != "trace.overhead_ratio":
            values[name] = 0
            absent.append(name)
    return values, absent
