"""Training loop (Adam + exponential LR decay + early stopping) and evaluation.

Training iterates 3 s windows cut from 12 s labeled samples; each
window's target is the category at its middle sample (half-open segment
boundaries, so a center exactly on a boundary belongs to the later
segment). The loss is the class-summed binary cross-entropy of the two
sigmoid outputs, averaged over the batch. Early stopping requires a
strict decrease of the validation loss to reset its patience counter,
and the returned checkpoint is the best-validation one.

Each Adam batch of ``TrainConfig.batch_size`` windows runs as
micro-batches of at most ``MICRO_BATCH_WINDOWS`` (4) windows, one per
usable core at a time (``cores.map_in_order``), with BLAS pinned to one
thread throughout. Each micro-batch builds and consumes a graph of its
own, and their gradients add up, in micro-batch order, in the parameters'
``grad``: the effective batch, and so the recipe, is unchanged, while one
small graph per core is alive at a time. The micro-batch size is fixed
and BLAS runs one thread whatever the core count, so the gradient bits do
not depend on the core count either; a GEMM split over 2 BLAS threads
gives other bits than one thread at ``reduced_config()``. Validation runs
in batches of ``streaming.BATCH_WINDOWS`` windows, without a graph, one
batch per usable core at a time; the batch losses are summed in batch
order. So ``history.csv`` and the checkpoint do not depend on the core
count.

Evaluation scores sliding-window decisions against the ground-truth
segment at each decision timestamp, one-vs-rest per category.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import cores
from .autodiff import AdamState, NonFiniteError, _accum, adam_step, backward, binary_cross_entropy, exp_lr_schedule, zero_grads
from .model import CATEGORY_ORDER, Category, Checkpoint, ModelConfig, MultiScaleTCN
from .simulate import LabeledSample
from .streaming import BATCH_WINDOWS, HOP_SECONDS, _window_geometry, infer_offline, resolve_model
from .wavio import read_wav


class TrainingDivergedError(RuntimeError):
    """A NaN or Inf appeared in a training or validation pass; names the epoch, window and lr."""


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe.

    epochs: maximum epoch count. patience: epochs without a strict
    validation-loss decrease before stopping early; a patience of at
    least ``epochs`` never stops early. lr_start/lr_end:
    learning rate at the first epoch and reached at the last, decayed
    exponentially in between. batch_size: windows per Adam step.
    window_hop_seconds: stride between the training windows, each
    ``streaming.WINDOW_SECONDS`` long, cut from each sample. seed: model
    initialisation and shuffling seed.

    The default lr (1e-5 decaying to 1e-8) does not learn at small sizes.
    With the learning gate's small config and data
    (``gates/test_learning.py``, 30 epochs), the best validation loss
    only moves from 1.383 to 1.379 and Assistant recall is 0, while the
    gate's 1e-3 to 1e-4 reaches >= 85% recall and precision in every
    category. The defaults are kept because the paper states no learning
    rate to replace them with.
    """

    epochs: int = 150
    patience: int = 10
    lr_start: float = 1e-5
    lr_end: float = 1e-8
    batch_size: int = 32
    window_hop_seconds: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int and type(value) is not int:  # a bool is an int to isinstance
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be positive, got {self.patience}")
        for name in ("lr_start", "lr_end"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # also false for NaN
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 < self.window_hop_seconds < math.inf:  # also false for NaN
            raise ValueError(f"window_hop_seconds must be finite and positive, got {self.window_hop_seconds!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    lr: float

    def line(self) -> str:
        return f"{self.epoch},{self.train_loss:.8g},{self.valid_loss:.8g},{self.lr:.8g}"


HISTORY_HEADER = "epoch,train_loss,valid_loss,lr"


# ---------------------------------------------------------------------------
# manifests and samples


@dataclass(frozen=True)
class SampleRecord:
    wav: Path
    labels: Path
    sample_rate: int
    peak_scale: float = 1.0
    scene: dict | None = None


def _lines(path) -> list[tuple[int, str]]:
    """(line number, line) of each non-blank line of a UTF-8 text file; ValueError naming it otherwise."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    return [(ln, line) for ln, line in enumerate(text.splitlines(), start=1) if line.strip()]


def read_manifest(path) -> list[SampleRecord]:
    """Parse a JSONL manifest, paths relative to it; raises ValueError naming the file and line."""
    path = Path(path)
    base = path.parent
    records = []
    for ln, line in _lines(path):
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
            raise ValueError(f"{path}:{ln}: invalid manifest record ({exc})") from None
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{ln}: manifest record must be a JSON object, got {line.strip()!r}")
        for key in ("wav", "labels"):
            if not isinstance(rec.get(key), str):
                raise ValueError(f"{path}:{ln}: manifest record needs a {key!r} path string")
        sample_rate, peak_scale = rec.get("sample_rate", 16000), rec.get("peak_scale", 1.0)
        if type(sample_rate) is not int or sample_rate < 1:  # a bool is an int to isinstance
            raise ValueError(f"{path}:{ln}: invalid manifest record (sample_rate {sample_rate!r} is not a positive integer)")
        if type(peak_scale) not in (int, float) or not 0 < peak_scale < math.inf:  # also false for NaN
            raise ValueError(f"{path}:{ln}: invalid manifest record (peak_scale {peak_scale!r} is not finite and positive)")
        records.append(
            SampleRecord(
                wav=base / rec["wav"],
                labels=base / rec["labels"],
                sample_rate=sample_rate,
                peak_scale=float(peak_scale),
                scene=rec.get("scene"),
            )
        )
    if not records:
        raise ValueError(f"{path}: manifest is empty")
    return records


def parse_labels(path) -> list[tuple[Category, int, int]]:
    """Parse a ``start,end,category`` label sidecar; raises ValueError naming the file and line."""
    segments = []
    for ln, line in _lines(path):
        try:
            start, end, code = line.split(",")
            segments.append((Category(code), int(start), int(end)))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: expected 'start,end,category', got {line!r} ({exc})") from exc
    return segments


def load_sample(record: SampleRecord) -> LabeledSample:
    wav = read_wav(record.wav)
    if wav.sample_rate != record.sample_rate:
        raise ValueError(
            f"{record.wav}: sample rate {wav.sample_rate} does not match manifest ({record.sample_rate})"
        )
    segments = parse_labels(record.labels)
    try:
        return LabeledSample(audio=wav.samples, segments=segments, sample_rate=wav.sample_rate, peak_scale=record.peak_scale)
    except ValueError as exc:  # the labels do not tile the 12 s of audio
        raise ValueError(f"{record.labels}: {exc} (audio {record.wav})") from None


def _samples(manifest, fs: int, owner: str):
    """Load a manifest's samples in turn; ValueError names a wav whose declared rate is not ``fs``."""
    for record in read_manifest(manifest):
        if record.sample_rate != fs:
            raise ValueError(f"{record.wav}: sample rate {record.sample_rate} does not match {owner} ({fs})")
        yield load_sample(record)


# ---------------------------------------------------------------------------
# window targets


def window_label(sample: LabeledSample, center: int) -> np.ndarray:
    """(assistant_bit, expert_bit) of the category at the window's middle sample.

    Segment intervals are half-open, so a center exactly on a boundary
    takes the later segment's label. A center outside the audio raises
    ValueError.
    """
    cat = sample.category_at(center)
    return np.array([cat.assistant_bit, cat.expert_bit], dtype=np.float32)


def _window_centers(n_samples: int, win: int, hop: int) -> list[int]:
    half = win // 2
    last = n_samples - win + half
    return list(range(half, last + 1, hop))


@dataclass
class _WindowSet:
    """Flattened (sample, center) index over a list of loaded samples."""

    samples: list[LabeledSample]
    windows: list[tuple[int, int]]  # (sample index, center sample)
    win: int

    @classmethod
    def build(cls, samples, win, hop):
        windows = [
            (i, c) for i, s in enumerate(samples) for c in _window_centers(len(s.audio), win, hop)
        ]
        return cls(samples=samples, windows=windows, win=win)

    def batch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        half = self.win // 2
        xs = np.empty((len(indices), self.win), dtype=np.float32)
        ys = np.empty((len(indices), 2), dtype=np.float32)
        for row, wi in enumerate(indices):
            si, center = self.windows[wi]
            sample = self.samples[si]
            xs[row] = sample.audio[center - half : center - half + self.win]
            ys[row] = window_label(sample, center)
        return xs, ys


def _mean_loss(model: MultiScaleTCN, window_set: _WindowSet) -> float:
    """The mean BCE over the set, its batches of ``BATCH_WINDOWS`` run one per core and summed in order."""
    frozen = resolve_model(model)
    n = len(window_set.windows)

    def loss_sum(indices) -> float:
        xs, ys = window_set.batch(indices)
        return binary_cross_entropy(frozen.window_probs(xs), ys).item() * len(xs)

    batches = [range(start, min(start + BATCH_WINDOWS, n)) for start in range(0, n, BATCH_WINDOWS)]
    return sum(cores.map_in_order(loss_sum, batches)) / n


# ---------------------------------------------------------------------------
# training


# windows per training micro-batch: fixed, so the gradient bits do not depend
# on the core count; two 4-window graphs hold what one 8-window graph did
MICRO_BATCH_WINDOWS = 4


def batch_gradients(model: MultiScaleTCN, xs: np.ndarray, ys: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The mean loss of a batch of windows and its gradient, one array per parameter.

    The windows run in micro-batches of at most ``MICRO_BATCH_WINDOWS``,
    one per usable core at a time, with BLAS pinned to one thread (when
    ``cores`` finds the pin; without it they run on this thread). Each
    micro-batch's loss is its row-summed BCE over the whole batch's row
    count, so the micro-batch gradients add up to the batch gradient with
    no rescaling. They are added into the parameters' ``grad`` in
    micro-batch order whichever core computed them, so the loss and the
    gradient bits do not depend on the core count. A parameter the loss
    does not reach gets zeros. Raises TrainingDivergedError, naming the
    windows of the earliest failing micro-batch, when a forward meets a
    NaN or Inf.
    """
    rows = len(xs)
    params = model.parameters()
    zero_grads(params)
    lock = threading.Lock()
    waiting: dict[int, list] = {}  # finished micro-batches whose gradients are not yet added
    added = 0

    def micro_batch(start):
        nonlocal added
        stop = min(start + MICRO_BATCH_WINDOWS, rows)
        try:
            view = model.trainable_view()
            loss = binary_cross_entropy(view.window_probs(xs[start:stop]), ys[start:stop], rows)
        except NonFiniteError:
            raise TrainingDivergedError(f"non-finite training forward on windows {start}..{stop - 1}") from None
        backward(loss)
        # added in micro-batch order as soon as every earlier one is, so only
        # the micro-batches that finished ahead of a slower one wait
        with lock:
            waiting[start] = [p.grad for p in view.parameters()]
            while added in waiting:
                for p, g in zip(params, waiting.pop(added)):
                    if g is not None:
                        _accum(p, g)
                added += MICRO_BATCH_WINDOWS
        return loss.item()

    with cores.one_blas_thread():
        total = sum(cores.map_in_order(micro_batch, range(0, rows, MICRO_BATCH_WINDOWS)))
    return total, [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]


def train(
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_manifest,
    valid_manifest,
    log=None,
) -> tuple[Checkpoint, list[EpochStats]]:
    """Train from scratch; returns (best-validation checkpoint, history).

    Stops early once the validation loss has not strictly decreased for
    ``patience`` consecutive epochs. ``log`` is an optional callable
    receiving one EpochStats per epoch.
    """
    fs, win, hop, _ = _window_geometry(model_config, train_config.window_hop_seconds)
    train_samples = list(_samples(train_manifest, fs, "model"))
    valid_samples = list(_samples(valid_manifest, fs, "model"))
    train_set = _WindowSet.build(train_samples, win, hop)
    valid_set = _WindowSet.build(valid_samples, win, hop)
    if not train_set.windows or not valid_set.windows:
        raise ValueError("train and validation sets must both contain at least one window")

    model = MultiScaleTCN(model_config, seed=train_config.seed)
    params = model.parameters()
    state = AdamState.for_params(params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 1]))

    history: list[EpochStats] = []
    best_loss = np.inf
    best = None
    best_epoch = -1
    bad_epochs = 0

    for epoch in range(train_config.epochs):
        lr = exp_lr_schedule(epoch, train_config.epochs, train_config.lr_start, train_config.lr_end)
        order = shuffle_rng.permutation(len(train_set.windows))
        total = 0.0
        for start in range(0, len(order), train_config.batch_size):
            batch_idx = order[start : start + train_config.batch_size]
            xs, ys = train_set.batch(batch_idx)
            try:
                value, grads = batch_gradients(model, xs, ys)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"{exc} of the batch at epoch {epoch}, window {start} (lr={lr:g})") from None
            adam_step(params, grads, state, lr)
            total += value * len(xs)
        train_loss = total / len(train_set.windows)
        try:
            valid_loss = _mean_loss(model, valid_set)
        except NonFiniteError:
            raise TrainingDivergedError(f"non-finite validation forward at epoch {epoch} (lr={lr:g})") from None
        stats = EpochStats(epoch=epoch, train_loss=train_loss, valid_loss=valid_loss, lr=lr)
        history.append(stats)
        if log is not None:
            log(stats)
        if valid_loss < best_loss:
            best_loss = valid_loss
            best_epoch = epoch
            best = Checkpoint.from_model(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= train_config.patience:
                break

    best.metadata = {"best_epoch": best_epoch, "best_valid_loss": float(best_loss), "epochs_run": len(history)}
    return best, history


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalReport:
    """Per-category recall/precision (percent) plus the 4x4 confusion matrix."""

    confusion: np.ndarray  # [true, pred] in CATEGORY_ORDER
    decisions: int = 0

    def recall(self, category: Category) -> float | None:
        i = CATEGORY_ORDER.index(category)
        denom = self.confusion[i, :].sum()
        return 100.0 * self.confusion[i, i] / denom if denom else None

    def precision(self, category: Category) -> float | None:
        i = CATEGORY_ORDER.index(category)
        denom = self.confusion[:, i].sum()
        return 100.0 * self.confusion[i, i] / denom if denom else None

    def render_text(self) -> str:
        def fmt(v):
            return "    —" if v is None else f"{v:5.2f}"

        lines = [f"{'Category':<12} {'Rec. (%)':>9} {'Pre. (%)':>9}"]
        for cat in CATEGORY_ORDER:
            name = f"{cat.name.capitalize()} ({cat.value})"
            lines.append(f"{name:<12} {fmt(self.recall(cat)):>9} {fmt(self.precision(cat)):>9}")
        lines.append(f"decisions scored: {self.decisions}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "decisions": int(self.decisions),
            "confusion": {
                t.value: {p.value: int(self.confusion[i, j]) for j, p in enumerate(CATEGORY_ORDER)}
                for i, t in enumerate(CATEGORY_ORDER)
            },
            "per_class": {
                c.value: {"recall": self.recall(c), "precision": self.precision(c)}
                for c in CATEGORY_ORDER
            },
        }


def evaluate(checkpoint: Checkpoint, test_manifest, hop_seconds: float = HOP_SECONDS) -> EvalReport:
    """Score sliding-window decisions against ground truth at each timestamp."""
    model = resolve_model(checkpoint)
    fs = model.config.sample_rate
    confusion = np.zeros((4, 4), dtype=np.int64)
    total = 0
    for sample in _samples(test_manifest, fs, "checkpoint"):
        track = infer_offline(sample.audio, model, hop_seconds=hop_seconds)
        for d in track.decisions:
            truth = sample.category_at(int(round(d.timestamp * fs)))
            confusion[CATEGORY_ORDER.index(truth), CATEGORY_ORDER.index(d.category)] += 1
            total += 1
    return EvalReport(confusion=confusion, decisions=total)
