"""Spans around classvoice's public functions, recorded from outside the package.

``instrument(tracer)`` replaces the public callables of each layer with
wrappers for the duration of a ``with`` block and puts the originals back
afterwards. Each wrapper records a span (name, start, end, parent span);
a span's self time is its duration minus the time its child spans cover.
``layer_metrics`` turns the spans and counters into the per-layer figures
of BENCHMARK.json, each normalised by the unit of work its name states.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from time import perf_counter

import numpy as np

from classvoice import autodiff, model, simulate, streaming, training

MODEL_SPANS = ("encode", "bottleneck", "extract", "conv_block", "classify")
# the ops MultiScaleTCN calls as ad.*; conv1d is split by its groups argument
FORWARD_OPS = ("prelu", "cumulative_layer_norm", "matmul", "linear", "add", "concat", "tmean", "relu", "sigmoid")
CONV_KINDS = ("pointwise", "depthwise")
# bound by name in classvoice.training, so wrapped there
STEP_OPS = ("backward", "adam_step", "zero_grads", "binary_cross_entropy")


class Tracer:
    """Spans in memory, per-name totals, and named counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._child_s: list[float] = []

    def add(self, counter: str, value: float):
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def current(self) -> str:
        return self.spans[self._open[-1]][0] if self._open else ""

    def call(self, name: str, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            children = self._child_s.pop()
            span = self.spans[index]
            span[1], span[2] = start, end
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - children
            if self._child_s:
                self._child_s[-1] += end - start

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def seconds(self, name: str, self_time: bool = False) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2 if self_time else 1]

    def write_spans(self, path):
        """One JSON array per line: name, start s, end s, parent line (-1 for a root)."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _conv_name(args, kwargs) -> str:
    groups = kwargs.get("groups", args[4] if len(args) > 4 else 1)
    return f"autodiff.conv1d_{'pointwise' if groups == 1 else 'depthwise'}"


def _conv_flops(tracer, name, args, kwargs, out):
    # 2 flops per multiply-add: output elements x input channels per group x taps
    _, cin_per_group, taps = args[1].shape
    tracer.add(name + ".flop", 2.0 * out.size * cin_per_group * taps)


def _count_windows(tracer, name, args, kwargs, out):
    audio = np.asarray(args[1])
    tracer.add("model.windows", 1 if audio.ndim == 1 else audio.shape[0])


def _count_decisions(tracer, name, args, kwargs, out):
    tracer.add("streaming.decisions", len(out))


def _count_file_bytes(tracer, name, args, kwargs, out):
    tracer.add(name + ".bytes", os.path.getsize(args[0]))


def _from_model(tracer) -> bool:
    return tracer.current().startswith("model.")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    patches = []

    def wrap(owner, attr, name, *, span=True, when=None, after=None):
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if when is not None and not when(tracer):
                return original(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            if span:
                out = tracer.call(label, original, args, kwargs)
            else:
                out = original(*args, **kwargs)
            if after is not None:
                after(tracer, label, args, kwargs, out)
            return out

        patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    for method in MODEL_SPANS:
        wrap(model.MultiScaleTCN, method, f"model.{method}")
    wrap(model.MultiScaleTCN, "window_probs", "model.window_probs", span=False, after=_count_windows)
    wrap(autodiff, "conv1d", _conv_name, when=_from_model, after=_conv_flops)
    for op in FORWARD_OPS:
        wrap(autodiff, op, f"autodiff.{op}", when=_from_model)
    for op in STEP_OPS:
        wrap(training, op, f"autodiff.{op}")
    wrap(streaming.StreamingSession, "feed", "streaming.feed", after=_count_decisions)
    wrap(training, "infer_offline", "streaming.infer_offline")
    for fn in ("load_sample", "train", "evaluate"):
        wrap(training, fn, f"training.{fn}")
    wrap(training, "read_wav", "wavio.read_wav", after=_count_file_bytes)
    wrap(simulate, "read_wav", "wavio.read_wav", after=_count_file_bytes)
    wrap(simulate, "write_wav", "wavio.write_wav", after=_count_file_bytes)
    wrap(simulate, "image_source_rir", "simulate.image_source_rir")
    wrap(simulate.RirCache, "get", "simulate.rir_cache")
    for fn in ("render_utterance", "make_sample", "generate_dataset"):
        wrap(simulate, fn, f"simulate.{fn}")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Every per-layer figure, as name -> (value, unit); 0 where a layer did no work."""
    t = tracer
    windows = t.counters.get("model.windows", 0.0)
    steps = t.calls("autodiff.adam_step")
    decisions = t.counters.get("streaming.decisions", 0.0)
    samples = t.calls("simulate.make_sample")
    out: dict[str, tuple[float, str]] = {}

    def per_call_ms(name, self_time=False):
        return _ratio(1e3 * t.seconds(name, self_time), t.calls(name))

    for span in MODEL_SPANS:
        out[f"model.{span}.self_ms"] = (_ratio(1e3 * t.seconds(f"model.{span}", True), windows), "ms/win")
    for kind in CONV_KINDS:
        name = f"autodiff.conv1d_{kind}"
        out[name + ".ms"] = (_ratio(1e3 * t.seconds(name), windows), "ms/win")
        out[name + ".calls"] = (_ratio(t.calls(name), windows), "calls/win")
        out[name + ".gflop"] = (_ratio(1e-9 * t.counters.get(name + ".flop", 0.0), windows), "GFLOP_calc/win")
    for op in FORWARD_OPS:
        out[f"autodiff.{op}.ms"] = (_ratio(1e3 * t.seconds(f"autodiff.{op}"), windows), "ms/win")
    for op in STEP_OPS:
        out[f"autodiff.{op}.ms"] = (_ratio(1e3 * t.seconds(f"autodiff.{op}"), steps), "ms/step")
    out["streaming.feed.self_ms"] = (_ratio(1e3 * t.seconds("streaming.feed", True), decisions), "ms/decision")
    out["streaming.decisions"] = (decisions, "count")
    out["streaming.infer_offline.ms"] = (per_call_ms("streaming.infer_offline"), "ms/call")
    out["training.load_sample.ms"] = (per_call_ms("training.load_sample"), "ms/call")
    for fn in ("train", "evaluate"):
        out[f"training.{fn}.self_s"] = (_ratio(t.seconds(f"training.{fn}", True), t.calls(f"training.{fn}")), "s/call")
    rir_calls = t.calls("simulate.image_source_rir")
    requests = t.calls("simulate.rir_cache")
    out["simulate.image_source_rir.ms"] = (per_call_ms("simulate.image_source_rir"), "ms/call")
    out["simulate.image_source_rir.calls"] = (_ratio(rir_calls, samples), "calls/sample")
    out["simulate.rir_cache.requests"] = (_ratio(requests, samples), "requests/sample")
    out["simulate.rir_cache.hit_ratio"] = (1.0 - rir_calls / requests if requests else 0.0, "ratio")
    for fn in ("render_utterance", "make_sample"):
        out[f"simulate.{fn}.self_ms"] = (per_call_ms(f"simulate.{fn}", True), "ms/call")
    for fn in ("write_wav", "read_wav"):
        name = f"wavio.{fn}"
        out[name + ".ms"] = (per_call_ms(name), "ms/call")
        out[name + ".bytes"] = (_ratio(t.counters.get(name + ".bytes", 0.0), t.calls(name)), "bytes/call")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
