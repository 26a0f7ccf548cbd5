"""Sliding-window inference: one four-category decision per hop.

Each decision classifies a 3 s window and is tagged to the window's
middle frame. Offline inference covers the whole file (slots whose
centered window would cross an audio boundary replicate the nearest
valid window's decision); streaming inference emits decisions
incrementally once the first full window has arrived, so per-decision
latency is half a window plus compute.

Decision slots live on the absolute grid i*hop samples, which makes
streaming and offline timestamps identical. One streaming session is
single-threaded and stateful; any number of sessions, in any threads, may
share one checkpoint or model, because each runs a frozen view of it (see
``resolve_model``) that builds no graph.

Offline inference classifies its windows as batches of ``BATCH_WINDOWS``,
one batch per usable core at a time, with BLAS pinned to one thread
meanwhile (``cores.map_in_order``). Each window's probabilities come from
the same batch on any core count, so the decisions do not depend on it.
A streaming session classifies one window at a time, on its own thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cores import map_in_order
from .model import Category, Checkpoint, MultiScaleTCN, decode

WINDOW_SECONDS = 3.0  # analysis window length, for training and inference alike
HOP_SECONDS = 0.1  # decision hop
# the most windows one no-grad forward call takes, in offline inference and
# validation, which run one such batch per core at a time. At the paper size
# such a forward runs faster per window at 8 than at 32 (134-147 against
# 228-239 ms, 2 cores, OpenBLAS). Training micro-batches, also one per core,
# take training.MICRO_BATCH_WINDOWS (4) instead: offline inference with 4
# windows per batch took 441 against 369 ms at reduced_config() on 12 s
BATCH_WINDOWS = 8


class AudioTooShortError(ValueError):
    """The audio is shorter than one analysis window."""


class SessionClosedError(RuntimeError):
    """feed() was called after close()."""


@dataclass(frozen=True)
class Decision:
    timestamp: float  # seconds; the tagged window-middle time of this slot
    category: Category
    probs: np.ndarray  # (assistant, expert)

    def line(self) -> str:
        return f"{self.timestamp:.6f},{self.category.value},{self.probs[0]:.6f},{self.probs[1]:.6f}"


@dataclass
class DecisionTrack:
    """An ordered sequence of per-hop decisions."""

    hop_seconds: float
    decisions: list[Decision] = field(default_factory=list)

    def __len__(self):
        return len(self.decisions)

    def to_lines(self) -> list[str]:
        return [d.line() for d in self.decisions]


def resolve_model(checkpoint) -> MultiScaleTCN:
    """A frozen model for inference, from a Checkpoint or a model.

    A Checkpoint gives its ``build_model()``. A model none of whose
    parameters requires grad is returned as is. A trainable model gives a
    view built by the same path as ``build_model``: tensors without
    ``requires_grad`` over the model's own arrays, so running it builds no
    graph and leaves the given model trainable.
    """
    if isinstance(checkpoint, Checkpoint):
        return checkpoint.build_model()
    if not isinstance(checkpoint, MultiScaleTCN):
        raise TypeError(f"expected a Checkpoint or model, got {type(checkpoint).__name__}")
    if not any(p.requires_grad for p in checkpoint.params.values()):
        return checkpoint
    arrays = {name: p.data for name, p in checkpoint.params.items()}
    return MultiScaleTCN._frozen(checkpoint.config, arrays, checkpoint.dtype)


def hop_samples(hop_seconds: float, fs: int) -> int:
    """The hop in whole samples at ``fs``; ValueError naming the hop unless it is finite and rounds to >= 1 sample."""
    samples = hop_seconds * fs
    hop = round(samples) if math.isfinite(samples) else 0
    if hop < 1:
        raise ValueError(f"hop of {hop_seconds!r} s is not a positive whole number of samples at {fs} Hz")
    return hop


def _window_geometry(config, hop_seconds: float):
    fs = config.sample_rate
    win = round(WINDOW_SECONDS * fs)
    hop = hop_samples(hop_seconds, fs)
    if win < config.frame_len:
        raise ValueError(
            f"window of {WINDOW_SECONDS} s is shorter than one encoder frame ({config.frame_len} samples)"
        )
    return fs, win, hop, win // 2


def _classify_windows(model: MultiScaleTCN, audio: np.ndarray, centers, win: int):
    """Probabilities for the windows centered at ``centers`` (absolute samples).

    The windows run as batches of at most ``BATCH_WINDOWS``, one batch per
    core at a time (``cores.map_in_order``).
    """
    half = win // 2
    centers = list(centers)
    groups = [centers[start : start + BATCH_WINDOWS] for start in range(0, len(centers), BATCH_WINDOWS)]

    def classify(group):
        return model.window_probs(np.stack([audio[c - half : c - half + win] for c in group])).data

    probs = {}
    for group, out in zip(groups, map_in_order(classify, groups)):
        probs.update(zip(group, out))
    return probs


def infer_offline(audio, checkpoint, hop_seconds: float = HOP_SECONDS) -> DecisionTrack:
    """One decision per hop slot over the entire file.

    Produces ceil(duration/hop) decisions at timestamps i*hop. Slots
    whose centered window would cross an audio boundary take the nearest
    valid window's decision.
    """
    model = resolve_model(checkpoint)
    fs, win, hop, half = _window_geometry(model.config, hop_seconds)
    audio = np.asarray(audio, dtype=np.float32)
    s = len(audio)
    if s < win:
        raise AudioTooShortError(f"audio is {s} samples, shorter than one {win}-sample window")

    n_slots = -(-s // hop)  # ceil
    lo, hi = half, s - win + half
    centers = [min(max(i * hop, lo), hi) for i in range(n_slots)]
    probs = _classify_windows(model, audio, sorted(set(centers)), win)

    track = DecisionTrack(hop_seconds=hop / fs)
    for i, c in enumerate(centers):
        p = probs[c]
        track.decisions.append(
            Decision(timestamp=(i * hop) / fs, category=decode(p, model.config.threshold), probs=p)
        )
    return track


class StreamingSession:
    """Rolling-window inference over an incrementally fed signal.

    Decisions appear on the same i*hop grid as infer_offline; the first
    one is emitted once the first full window has arrived, tagged to
    that window's middle time.
    """

    def __init__(self, checkpoint, hop_seconds: float = HOP_SECONDS):
        self.model = resolve_model(checkpoint)
        self.fs, self.win, self.hop, self.half = _window_geometry(self.model.config, hop_seconds)
        self.track = DecisionTrack(hop_seconds=self.hop / self.fs)
        # first slot on the i*hop grid whose centered window fits
        self._next_slot = -(-self.half // self.hop)
        self._buffer = np.zeros(0, dtype=np.float32)
        self._buffer_start = 0  # absolute index of buffer[0]
        self._received = 0
        self._closed = False

    def feed(self, samples) -> list[Decision]:
        """Append samples; return the decisions that became available."""
        if self._closed:
            raise SessionClosedError("cannot feed a closed streaming session")
        samples = np.asarray(samples, dtype=np.float32).reshape(-1)
        self._buffer = np.concatenate([self._buffer, samples])
        self._received += len(samples)
        emitted = []
        while True:
            center = self._next_slot * self.hop
            start = center - self.half
            if start + self.win > self._received:
                break
            rel = start - self._buffer_start
            window = self._buffer[rel : rel + self.win]
            p = self.model.window_probs(window).data
            decision = Decision(
                timestamp=center / self.fs,
                category=decode(p, self.model.config.threshold),
                probs=p,
            )
            self.track.decisions.append(decision)
            emitted.append(decision)
            self._next_slot += 1
            # a hop longer than the window can put the next window past what has arrived
            keep_from = min(self._next_slot * self.hop - self.half, self._received)
            if keep_from > self._buffer_start:
                self._buffer = self._buffer[keep_from - self._buffer_start :]
                self._buffer_start = keep_from
        return emitted

    def close(self) -> DecisionTrack:
        self._closed = True
        return self.track


def infer_streaming(frames, checkpoint, hop_seconds: float = HOP_SECONDS) -> DecisionTrack:
    """Run a streaming session over an iterable of sample chunks.

    Raises AudioTooShortError when the chunks end before the first full
    window, as infer_offline does.
    """
    session = StreamingSession(checkpoint, hop_seconds)
    for chunk in frames:
        session.feed(chunk)
    track = session.close()
    if not track.decisions:
        raise AudioTooShortError(
            f"audio is {session._received} samples, too short for the first {session.win}-sample window"
        )
    return track


def decisions_to_segments(track: DecisionTrack) -> list[tuple[float, float, Category]]:
    """Merge consecutive identical decisions into (start_s, end_s, category) runs.

    Slot i covers [t_i, t_i + hop); the output tiles the track's span
    with no gaps or overlaps.
    """
    if not track.decisions:
        raise ValueError("cannot segment an empty decision track")
    segments = []
    run_start = track.decisions[0].timestamp
    run_cat = track.decisions[0].category
    for d in track.decisions[1:]:
        if d.category is not run_cat:
            segments.append((run_start, d.timestamp, run_cat))
            run_start = d.timestamp
            run_cat = d.category
    segments.append((run_start, track.decisions[-1].timestamp + track.hop_seconds, run_cat))
    return segments


def segments_to_lines(segments) -> list[str]:
    return [f"{start:.6f},{end:.6f},{cat.value}" for start, end, cat in segments]
