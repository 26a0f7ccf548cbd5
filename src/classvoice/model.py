"""The voice-detection network: encoder, bottleneck, dilated conv blocks, classifier.

A learned filterbank encoder turns raw audio into a non-negative feature
map. A normalized 1x1 bottleneck compresses channels, then stacks of
dilated depthwise-separable convolution blocks (dilations 1, 2, 4, ...
per repeat) produce one skip output each. The classifier reads the time
mean of all skip outputs concatenated (repeat-major, block-minor), the
multi-scale feature, and emits per-class probabilities for the assistant
and expert voices. Per-class thresholding yields one of four categories.
The network is causal, so that a live lesson can be monitored: as in causal
Conv-TasNet (Luo & Mesgarani, arXiv:1809.07454), its layer norms are
cumulative (cLN) and its depthwise convs pad on the left only, so each
frame depends only on the frames up to it, and one network serves
training, recordings and live streams.

Where pooling happens: each block's skip output is a 1x1 conv of its
normalised activations, and a 1x1 conv is linear, so
mean_t(W·y_t + b) = W·mean_t(y_t) + b. Each block therefore pools its
normalised activations over time first and applies the skip conv to one
column; the per-frame skip maps are never built, and the function
computed is the same up to float rounding. Outputs nothing reads are
skipped: the final block's residual conv, and in last_layer mode every
skip conv but the final block's. Their parameters stay in the layout.

The layout is written once, in ``_param_shapes``: every parameter's name
and shape in creation order (encoder, bottleneck, blocks
repeat-major/block-minor, classifier). ``MultiScaleTCN`` initialises from
it (weights uniform(-1, 1) / sqrt(fan_in), drawn in table order; norm gains
1, PReLU slopes 0.25, biases 0), ``param_count`` sums it, and checkpoints
are checked against it on load and on ``Checkpoint.build_model``, which
wraps the stored arrays without drawing an initialisation.

The weights are held once. Nothing writes into a parameter array: the
optimizer step binds each parameter to a new array. So a model, its
``Checkpoint.from_model`` snapshots and the models built from a checkpoint
share one copy of each array. ``save_checkpoint`` writes the arrays'
buffers as they are, and ``load_checkpoint`` reads the payload once into
one aligned, read-only buffer that the loaded tensors view.

Each block's two PReLU -> cLN pairs are one op each
(``ad.cumulative_layer_norm`` with the PReLU slope), and each cLN output
is released (``ad.release``) once its forward readers have run: the
bottleneck norm's after the bottleneck conv, a block's norm1 output after
the depthwise conv, and its norm2 output after the residual conv and the
pooling. Backward rebuilds a released output from the norm's input, bit
for bit. The encoder's GEMM output is released after the ReLU, whose
backward reads its own output's mask. So a training graph holds two
block-wide activations per block: the 1x1 in-conv and the depthwise
outputs, which the norms read. In ``reduced_config()`` a 4-window
micro-batch's graph holds 17 [64, 4, 599] arrays after the forward, where
holding the GEMM output took 18, holding the norm outputs 35 and separate
PReLU ops 51; its forward + backward peaks at 20.5 MB (tracemalloc), not
31.0 MB. At paper size the peak is 370.7 MB, not 609.1 MB. A frozen
forward builds no graph, so it releases nothing.

A frozen model (``build_model``, or ``streaming.resolve_model`` of a
trainable one) builds no graph and can serve concurrent inference from
many threads. Likewise, each ``trainable_view`` records a graph and
gradients of its own, so training runs its micro-batches on many threads;
only the optimizer step rebinds parameters, on one thread.

A frozen model also runs one window on several cores, as contiguous time
chunks, one per core, about one layer apart (``window_probs``). Chunk i
takes from chunk i-1, as each of its causal ops reaches it, that op's
carry: the bottleneck's and each block's two cLNs' step count and channel
sum and square sum prefixes, each depthwise conv's last (K-1)*dilation
input frames, and each block's pooling so far (``_Chunk.pool``), which
continues ``tmean``'s block-ordered time sum. The probabilities are the
whole window's, bit for bit.
"""

from __future__ import annotations

import copy
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from . import autodiff as ad
from . import cores
from .autodiff import NonFiniteError, ShapeError, Tensor

CHECKPOINT_MAGIC = b"CVCHKPT1"
CHECKPOINT_VERSION = 1

FEATURES_MODES = ("multiscale", "last_layer")
NUM_CLASSES = 2  # classifier outputs: P(assistant), P(expert), each its own sigmoid


class Category(Enum):
    """One of the four frame categories, coded as "<assistant_bit><expert_bit>"."""

    BACKGROUND = "00"
    EXPERT = "01"
    ASSISTANT = "10"
    MIXTURE = "11"

    @property
    def assistant_bit(self) -> int:
        return int(self.value[0])

    @property
    def expert_bit(self) -> int:
        return int(self.value[1])

    @classmethod
    def from_bits(cls, assistant: bool, expert: bool) -> "Category":
        return cls(f"{int(bool(assistant))}{int(bool(expert))}")

    def __str__(self):
        return self.value


CATEGORY_ORDER = (Category.BACKGROUND, Category.EXPERT, Category.ASSISTANT, Category.MIXTURE)


@dataclass(frozen=True)
class ModelConfig:
    """Every knob of the network, plus decisions the architecture needs.

    frame_len/frame_stride: encoder segment length and hop in samples.
    enc_channels: encoder filter count. bottleneck_channels: channels on
    the bottleneck/residual path. skip_channels: channels of each skip
    output. block_channels: channels inside a conv block. kernel_size:
    depthwise kernel width. blocks_per_repeat: dilations run 2^0 ..
    2^(blocks_per_repeat-1). repeats: how many times the stack repeats.
    hidden1/hidden2: classifier hidden sizes. threshold: per-class
    decision threshold. sample_rate: audio sample rate in Hz.
    features_mode: "multiscale" concatenates all skip outputs,
    "last_layer" keeps only the final block's (plain-TCN ablation).
    """

    frame_len: int = 160
    frame_stride: int = 80
    enc_channels: int = 512
    bottleneck_channels: int = 128
    skip_channels: int = 128
    block_channels: int = 512
    kernel_size: int = 3
    blocks_per_repeat: int = 8
    repeats: int = 3
    hidden1: int = 2048
    hidden2: int = 2048
    threshold: float = 0.5
    sample_rate: int = 16000
    features_mode: str = "multiscale"

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            # every integer field counts something; a bool is an int to isinstance
            if type(f.default) is int and (type(v) is not int or v < 1):
                raise ValueError(f"{f.name} must be a positive integer, got {v!r}")
        if self.frame_stride > self.frame_len:
            raise ValueError(
                f"frame_stride ({self.frame_stride}) must not exceed frame_len ({self.frame_len})"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.features_mode not in FEATURES_MODES:
            raise ValueError(f"features_mode must be one of {FEATURES_MODES}, got {self.features_mode!r}")

    @property
    def classifier_input_dim(self) -> int:
        if self.features_mode == "last_layer":
            return self.skip_channels
        return self.blocks_per_repeat * self.repeats * self.skip_channels

    def to_dict(self) -> dict:
        return asdict(self)


def receptive_field(config: ModelConfig) -> int:
    """Frames of input that can influence one extractor output frame."""
    k, m, r = config.kernel_size, config.blocks_per_repeat, config.repeats
    return 1 + r * (k - 1) * (2**m - 1)


def _param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in creation order: the network's one layout table."""
    c = config
    table = [("encoder.weight", (c.enc_channels, c.frame_len))]

    def norm(prefix, channels):
        table.extend([(prefix + ".gain", (channels, 1)), (prefix + ".bias", (channels, 1))])

    def conv(prefix, c_out, c_in, taps=1):
        table.extend([(prefix + ".weight", (c_out, c_in, taps)), (prefix + ".bias", (c_out,))])

    def linear(prefix, c_out, c_in):
        table.extend([(prefix + ".weight", (c_out, c_in)), (prefix + ".bias", (c_out,))])

    norm("bottleneck.norm", c.enc_channels)
    conv("bottleneck.conv", c.bottleneck_channels, c.enc_channels)
    for r in range(c.repeats):
        for m in range(c.blocks_per_repeat):
            pre = f"block.{r}.{m}"
            conv(f"{pre}.in_conv", c.block_channels, c.bottleneck_channels)
            table.append((f"{pre}.prelu1.alpha", (1,)))
            norm(f"{pre}.norm1", c.block_channels)
            conv(f"{pre}.dw_conv", c.block_channels, 1, c.kernel_size)
            table.append((f"{pre}.prelu2.alpha", (1,)))
            norm(f"{pre}.norm2", c.block_channels)
            conv(f"{pre}.res_conv", c.bottleneck_channels, c.block_channels)
            conv(f"{pre}.skip_conv", c.skip_channels, c.block_channels)
    linear("classifier.fc1", c.hidden1, c.classifier_input_dim)
    linear("classifier.fc2", c.hidden2, c.hidden1)
    linear("classifier.fc3", NUM_CLASSES, c.hidden2)
    return table


# initial value of each non-weight parameter, by the last component of its name
_FILL = {"gain": 1.0, "alpha": 0.25, "bias": 0.0}
# at most this many float64 values of a weight are drawn at once (8 MB); the
# draws run in the same order and round the same way whatever the size
_INIT_CHUNK = 1 << 20


def _check_layout(config: ModelConfig, shapes: dict) -> dict[str, tuple[int, ...]]:
    """Raise ValueError unless ``shapes`` (name -> shape) is exactly the config's table; return the table."""
    expected = dict(_param_shapes(config))
    if expected.keys() != shapes.keys():
        missing = sorted(expected.keys() - shapes.keys())
        extra = sorted(shapes.keys() - expected.keys())
        raise ValueError(f"checkpoint/config mismatch: missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if tuple(shapes[name]) != shape:
            raise ValueError(f"tensor {name} has shape {tuple(shapes[name])}, expected {shape}")
    return expected


def param_count(config: ModelConfig) -> int:
    """Exact trainable-scalar count, summed over the layout table."""
    return sum(math.prod(shape) for _, shape in _param_shapes(config))


def decode(probs, threshold: float) -> Category:
    """Threshold the (assistant, expert) probabilities into a Category."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    if probs.shape != (2,):
        raise ShapeError(f"decode expects two class probabilities, got shape {probs.shape}")
    return Category.from_bits(probs[0] > threshold, probs[1] > threshold)


class MultiScaleTCN:
    """The network, holding named parameter tensors in layout-table order.

    ``MultiScaleTCN(config, seed)`` draws fresh trainable weights;
    ``Checkpoint.build_model`` and ``streaming.resolve_model`` wrap given
    arrays in frozen tensors instead.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        for name, shape in _param_shapes(config):
            kind = name.rsplit(".", 1)[1]
            if kind == "weight":
                data = np.empty(shape, dtype)
                row = math.prod(shape[1:])
                step = max(1, _INIT_CHUNK // row)
                for start in range(0, shape[0], step):
                    # the float64 draw and scale, one bounded chunk of rows at a time
                    chunk = rng.uniform(-1.0, 1.0, size=(min(step, shape[0] - start),) + shape[1:])
                    chunk *= row**-0.5
                    data[start : start + step] = chunk
                    del chunk  # freed before the next chunk is drawn
            else:
                data = np.full(shape, _FILL[kind], dtype)
            self.params[name] = Tensor(data, requires_grad=True, dtype=dtype)

    @classmethod
    def _frozen(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "MultiScaleTCN":
        """A model over the given arrays, shared, not copied, through tensors without ``requires_grad``.

        Names and shapes must match the config's layout table and every
        value must be finite; otherwise ValueError names the tensor. The
        model's dtype is the arrays'.
        """
        model = cls.__new__(cls)
        model.config = config
        model.params = {}
        layout = _check_layout(config, {n: a.shape for n, a in arrays.items()})
        model.dtype = arrays["encoder.weight"].dtype
        for name in layout:
            try:
                model.params[name] = Tensor(arrays[name], dtype=arrays[name].dtype)
            except NonFiniteError:
                raise ValueError(f"tensor {name} contains non-finite values") from None
        return model

    # -- parameter access -------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def trainable_view(self) -> "MultiScaleTCN":
        """This model's arrays, shared, not copied, through fresh tensors with ``requires_grad``.

        A forward and ``backward`` through the view record a graph and
        leave gradients of its own, so several views of one model can
        train at once. A non-finite value raises NonFiniteError.
        """
        view = copy.copy(self)
        view.params = {name: Tensor(p.data, requires_grad=True, dtype=p.dtype) for name, p in self.params.items()}
        return view

    # -- forward pieces ----------------------------------------------------

    def _norm(self, x: Tensor, prefix: str, alpha: Tensor | None = None, carry: "_Chunk | None" = None) -> Tensor:
        """The cLN ``prefix`` of x, or of PReLU(x) at slope ``alpha`` (see ``ad.cumulative_layer_norm``).

        Only a time chunk passes ``carry``; a whole window calls ``_norm(x, prefix, alpha)``.
        """
        return ad.cumulative_layer_norm(x, self.params[prefix + ".gain"], self.params[prefix + ".bias"], alpha, carry)

    def encode(self, audio) -> Tensor:
        """Frame audio into overlapping segments and apply the ReLU filterbank.

        audio is [S] or [B, S] raw samples; output is [enc_channels, T], or
        channel-major [enc_channels, B, T] for a batch, with
        T = (S - frame_len)//frame_stride + 1, elementwise non-negative. The
        encoder has no bias term.
        """
        c = self.config
        audio = np.asarray(audio, dtype=self.dtype)
        if audio.ndim not in (1, 2):
            raise ShapeError(f"encode expects [S] or [B, S] audio, got shape {audio.shape}")
        s = audio.shape[-1]
        if s < c.frame_len:
            raise ShapeError(
                f"audio has {s} samples but the encoder needs at least frame_len={c.frame_len}"
            )
        frames = np.lib.stride_tricks.sliding_window_view(audio, c.frame_len, axis=-1)
        frames = frames[..., :: c.frame_stride, :]  # [B, T, L] or [T, L]
        frames = np.ascontiguousarray(np.moveaxis(frames, -1, 0))  # [L, B, T] or [L, T]
        gemm = ad.matmul(self.params["encoder.weight"], Tensor(frames, dtype=self.dtype))
        out = ad.relu(gemm)
        ad.release(gemm)  # read by the ReLU only, whose backward reads its own output's mask
        return out

    def bottleneck(self, w: Tensor, chunk: "_Chunk | None" = None) -> Tensor:
        """Layer-normalize and compress encoder channels with a 1x1 conv.

        w is [enc_channels, T] or [enc_channels, B, T]; the output is
        [bottleneck_channels, T] or [bottleneck_channels, B, T]. Given a
        ``chunk`` (see ``window_probs``), w is that time chunk of a window.
        """
        c = self.config
        if w.shape[0] != c.enc_channels:
            raise ShapeError(
                f"bottleneck expects {c.enc_channels} channels, got {w.shape[0]}"
            )
        x = self._norm(w, "bottleneck.norm", carry=chunk)
        out = ad.conv1d(x, self.params["bottleneck.conv.weight"], self.params["bottleneck.conv.bias"])
        ad.release(x)  # read by the conv only: a training backward rebuilds it
        return out

    def conv_block(
        self, x: Tensor, repeat_idx: int, block_idx: int, chunk: "_Chunk | None" = None
    ) -> tuple[Tensor | None, Tensor | None]:
        """One dilated depthwise-separable block at dilation 2**block_idx.

        x is [bottleneck_channels, T] or [bottleneck_channels, B, T].
        Returns (residual_out, skip_mean). residual_out = x + res_conv(h)
        has x's shape (the causal depthwise conv keeps T fixed). skip_mean
        is the time mean of the per-frame skip map skip_conv(h),
        [skip_channels] or [skip_channels, B]: the conv is linear, so it
        runs on mean_t of the normalised h and the per-frame map is never
        built. Outputs nothing reads are not computed: residual_out is None
        for the final block, and skip_mean is None for the other blocks in
        last_layer mode.

        Given a ``chunk`` (see ``window_probs``), x is that time chunk of
        a window, and skip_mean, the whole window's, is None in every chunk
        but the last.
        """
        c = self.config
        if x.shape[0] != c.bottleneck_channels:
            raise ShapeError(
                f"conv block expects {c.bottleneck_channels} channels, got {x.shape[0]}"
            )
        pre = f"block.{repeat_idx}.{block_idx}"
        dilation = 2**block_idx
        h = ad.conv1d(x, self.params[f"{pre}.in_conv.weight"], self.params[f"{pre}.in_conv.bias"])
        normed = self._norm(h, f"{pre}.norm1", self.params[f"{pre}.prelu1.alpha"], carry=chunk)
        h = ad.conv1d(
            normed,
            self.params[f"{pre}.dw_conv.weight"],
            self.params[f"{pre}.dw_conv.bias"],
            dilation=dilation,
            groups=c.block_channels,
            carry=chunk,
        )
        ad.release(normed)
        h = self._norm(h, f"{pre}.norm2", self.params[f"{pre}.prelu2.alpha"], carry=chunk)
        final = (repeat_idx, block_idx) == (c.repeats - 1, c.blocks_per_repeat - 1)
        res = skip = None
        if not final:
            res = ad.add(x, ad.conv1d(h, self.params[f"{pre}.res_conv.weight"], self.params[f"{pre}.res_conv.bias"]))
        if final or c.features_mode == "multiscale":
            # the skip conv of the [C, 1] (or [C, B, 1]) time mean; the outer tmean drops that unit time axis
            pooled = ad.tmean(h, keepdims=True) if chunk is None else chunk.pool(h)
            if pooled is not None:
                skip_conv = ad.conv1d(pooled, self.params[f"{pre}.skip_conv.weight"], self.params[f"{pre}.skip_conv.bias"])
                skip = ad.tmean(skip_conv)
        ad.release(h)
        return res, skip

    def extract(self, x: Tensor, chunk: "_Chunk | None" = None) -> Tensor | None:
        """Run all blocks, threading the residual path; gather the pooled skip outputs.

        x is [bottleneck_channels, T] or [bottleneck_channels, B, T].
        Returns the [classifier_input_dim] feature, or [B,
        classifier_input_dim] rows for a batch: multiscale mode
        concatenates every block's skip_mean in (repeat, block) order,
        last_layer mode returns only the final block's. This equals the
        time mean of the concatenated per-frame skip maps, which is what
        the classifier reads. Given a ``chunk`` (see ``window_probs``), x
        is that time chunk of a window, and the window's feature is None
        in every chunk but the last.
        """
        c = self.config
        pooled = []
        cur = x
        for r in range(c.repeats):
            for m in range(c.blocks_per_repeat):
                cur, skip = self.conv_block(cur, r, m, chunk)
                if skip is not None:
                    pooled.append(skip)
        if not pooled:  # a chunk before the window's last
            return None
        features = ad.concat(pooled)  # [D] or [D, B]
        return features if features.ndim == 1 else ad.transpose(features)

    def classify(self, features: Tensor) -> Tensor:
        """Run the three linear layers on the time-pooled features from ``extract``.

        features is [classifier_input_dim] or [B, classifier_input_dim].
        Output is the per-class probability vector (assistant, expert),
        two independent sigmoids, each in (0, 1), so all four categories
        can be decoded. The features are time means of the skip maps, so
        every frame of the window counts equally.
        """
        c = self.config
        if features.shape[-1] != c.classifier_input_dim:
            raise ShapeError(
                f"classifier expects {c.classifier_input_dim} pooled feature channels, got {features.shape[-1]}"
            )
        h = ad.relu(ad.linear(features, self.params["classifier.fc1.weight"], self.params["classifier.fc1.bias"]))
        h = ad.relu(ad.linear(h, self.params["classifier.fc2.weight"], self.params["classifier.fc2.bias"]))
        logits = ad.linear(h, self.params["classifier.fc3.weight"], self.params["classifier.fc3.bias"])
        return ad.sigmoid(logits)

    def window_probs(self, audio) -> Tensor:
        """Full pipeline for one analysis window, [S] -> [2], or a batch of windows, [B, S] -> [B, 2].

        In between, a batch runs channel-major ([C, B, T], see ``autodiff``)
        until ``extract`` hands the classifier one row per window.

        A frozen model (no parameter requires grad) runs one window on
        every usable core (``cores.usable_workers()``): its T frames are
        cut into contiguous time chunks, one per worker (``_time_chunks``),
        that run through ``cores.map_in_order`` as a wavefront. Each chunk
        runs ``encode``, ``bottleneck`` and ``extract`` on its own frames.
        The network is causal, so all that chunk i needs from the frames
        before it is each causal op's state at chunk i-1's last frame, its
        carry (see ``ad.Carry``): each cLN's step count and channel sum and
        square sum prefixes, and each depthwise conv's last (K-1)*dilation
        input frames. Chunk i takes each carry once chunk i-1 has posted it,
        so the chunks run about one layer apart. The pooled features need
        every frame, so the chunks hand their pooling on too (``_Chunk.pool``,
        the ``ad.time_sum`` so far) and the last chunk runs the skip convs and
        the classifier. Chunk 0 never waits, and ``map_in_order`` starts the
        chunks in order, so the call finishes however the chunks land on
        threads. Every GEMM of the call, from the encoder's to the
        classifier's, runs in a chunk, so BLAS is held at one thread for all
        of them (see ``cores``). Each chunk's columns, and the probabilities,
        are the whole window's, bit for bit.

        A batch, a trainable model, a window too short to cut, one usable
        core, or a BLAS that cannot be pinned runs the window whole.
        """
        c = self.config
        audio = np.asarray(audio, dtype=self.dtype)
        frames = max(0, (audio.shape[-1] - c.frame_len) // c.frame_stride + 1) if audio.ndim else 0
        spans = _time_chunks(frames, cores.usable_workers(), c)
        if len(spans) == 1 or audio.ndim != 1 or any(p.requires_grad for p in self.params.values()):
            return self.classify(self.extract(self.bottleneck(self.encode(audio))))
        ready = threading.Condition()
        chunks = []
        for span in spans:
            chunks.append(_Chunk(span, frames, chunks[-1] if chunks else None, ready))
        return cores.map_in_order(lambda chunk: chunk.run(self, audio), chunks)[-1]


# a chunk starts at a multiple of this many frames. numpy's SIMD loops and
# BLAS's GEMM kernels take a row in blocks counted from its first column,
# and some compute a last, partial block otherwise than a whole one
# (OpenBLAS's float64 GEMM differs in the last bit). Cut at a multiple of
# 64, each column falls in the same kind of block as in the whole window.
_CHUNK_ALIGN = 64
# OpenBLAS runs a GEMM of at most 10^6 multiply-adds with small-matrix
# kernels (its x86-64 AVX-512 builds), whose last bit can differ from its
# large kernels' on the same column. A window is cut only where each
# chunk's pointwise GEMMs do 4x that, so they run the whole window's kernels.
_SMALL_GEMM = 1 << 22


def _time_chunks(frames: int, workers: int, config: ModelConfig) -> list[tuple[int, int]]:
    """The (start, end) frames of a window's time chunks: one per worker, as even as ``_CHUNK_ALIGN`` allows.

    Fewer chunks are cut when the narrowest would make a pointwise GEMM of
    at most ``_SMALL_GEMM`` multiply-adds; a window that cannot be cut in
    two is one chunk.
    """
    c = config
    per_frame = min(c.enc_channels * c.frame_len, c.bottleneck_channels * c.enc_channels, c.block_channels * c.bottleneck_channels)
    for count in range(workers, 1, -1):
        cuts = [round(frames * i / count / _CHUNK_ALIGN) * _CHUNK_ALIGN for i in range(count)] + [frames]
        narrowest = min(b - a for a, b in zip(cuts, cuts[1:]))
        if narrowest > 0 and narrowest * per_frame > _SMALL_GEMM:
            return list(zip(cuts, cuts[1:]))
    return [(0, frames)]


class _ChunkAbandoned(RuntimeError):
    """The chunk before this one failed, so this one cannot go on; the earlier chunk's error is raised."""


class _Chunk:
    """One time chunk of a frozen window: its frames, and the ``ad.Carry`` its causal ops take and post.

    Every chunk runs the same layers, so its causal ops take and post their
    carries in one order: the bottleneck's cLN, then per block norm1, the
    depthwise conv, norm2 and the pooling (``pool``). The k-th value a
    chunk takes is the k-th its predecessor posted, dropped once taken.
    The last chunk posts nothing.
    """

    def __init__(self, span, frames: int, before: "_Chunk | None", ready: threading.Condition):
        self.span, self.frames, self.before = span, frames, before
        self.last = span[1] == frames
        self._ready = ready  # one per window, shared by its chunks
        self._posted: list = []
        self._taken = 0
        self.failed = False

    def run(self, model: MultiScaleTCN, audio: np.ndarray) -> Tensor | None:
        """This chunk's part of ``model.window_probs(audio)``: the probabilities from the last chunk, else None."""
        c, (lo, hi) = model.config, self.span
        try:
            frames = model.encode(audio[lo * c.frame_stride : (hi - 1) * c.frame_stride + c.frame_len])
            features = model.extract(model.bottleneck(frames, self), self)
            return None if features is None else model.classify(features)
        except BaseException:
            with self._ready:
                self.failed = True
                self._ready.notify_all()
            raise

    def take(self):
        if self.before is None:
            return None
        before, k = self.before, self._taken
        self._taken += 1
        with self._ready:
            self._ready.wait_for(lambda: len(before._posted) > k or before.failed)
            if len(before._posted) <= k:
                raise _ChunkAbandoned(f"time chunk {before.span} failed before posting carry {k}")
            value, before._posted[k] = before._posted[k], None
        return value

    def post(self, state) -> None:
        if not self.last:
            with self._ready:
                self._posted.append(state)
                self._ready.notify_all()

    def pool(self, h: Tensor) -> Tensor | None:
        """The window's ``ad.tmean(h, keepdims=True)``, bit for bit, in the last chunk; None in the others.

        ``tmean`` sums each row in blocks of ``ad.TIME_BLOCK`` frames from
        the window's first (``ad.time_sum``). A chunk continues the chunks'
        total before it over the whole blocks it reaches and hands that on,
        with the columns of the block its end cuts; the last chunk sums the
        rest and divides by the window's frame count.
        """
        total, head = self.take() or (None, None)
        rows = h.data if head is None else np.concatenate([head, h.data], axis=-1)  # from a block's start
        if self.last:
            return Tensor(ad.time_sum(rows, total) / self.frames)
        whole = rows.shape[-1] - self.span[1] % ad.TIME_BLOCK
        self.post((ad.time_sum(rows[..., :whole], total), rows[..., whole:].copy()))
        return None


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    """A serialized parameter set: config + named float32 tensors + metadata."""

    config: ModelConfig
    params: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_model(cls, model: MultiScaleTCN, metadata: dict | None = None) -> "Checkpoint":
        """The model's parameters as float32 arrays; a float32 model's own arrays are shared, not copied.

        Nothing writes into a parameter array (``adam_step`` binds new
        ones), so later training leaves the checkpoint as it was taken.
        """
        params = {name: np.asarray(t.data, dtype="<f4") for name, t in model.params.items()}
        return cls(config=model.config, params=params, metadata=dict(metadata or {}))

    def build_model(self) -> MultiScaleTCN:
        """A frozen float32 model sharing these arrays (float32 ones are not copied), checked against the layout."""
        return MultiScaleTCN._frozen(self.config, {n: a.astype(np.float32, copy=False) for n, a in self.params.items()})


def save_checkpoint(path, checkpoint: Checkpoint):
    """Write the documented binary container (header JSON + raw LE float32), one array buffer at a time."""
    tensors = []
    offset = 0
    for name, arr in checkpoint.params.items():
        nbytes = 4 * arr.size
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": checkpoint.config.to_dict(),
        "metadata": checkpoint.metadata,
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        for arr in checkpoint.params.values():
            f.write(np.ascontiguousarray(arr, dtype="<f4"))


_HEADER_KEYS = {"format_version": int, "config": dict, "metadata": dict, "tensors": list}
_TENSOR_KEYS = {"name": str, "shape": list, "offset": int, "nbytes": int}


def _require(record, keys: dict, what: str):
    if type(record) is not dict:
        raise ValueError(f"{what} is not a JSON object")
    for key, kind in keys.items():
        if type(record.get(key)) is not kind:
            raise ValueError(f"{what} has no {kind.__name__} {key!r}")


def _read_checkpoint(f, size: int) -> Checkpoint:
    """Checkpoint from an open file of ``size`` bytes; ValueError (without the path) for any malformed field.

    The header is read and checked first. The payload is then read once
    into one aligned, read-only float32 buffer, and every tensor is a view
    into it.
    """
    start = len(CHECKPOINT_MAGIC) + 8
    head = f.read(start)
    magic = head[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file (bad magic {magic!r})")
    if len(head) < start:
        raise ValueError("file ends inside the header length")
    header_len = int.from_bytes(head[len(CHECKPOINT_MAGIC) :], "little")
    if header_len > size - start:
        raise ValueError(f"header length {header_len} exceeds the {size - start} bytes after it")
    payload = start + header_len
    try:
        header = json.loads(f.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an over-long integer, deep nesting
        raise ValueError(f"header is not UTF-8 JSON ({exc})") from None
    if type(header) is dict and header.get("format_version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported format version {header.get('format_version')}")
    _require(header, _HEADER_KEYS, "header")
    shapes, offset = {}, 0
    for spec in header["tensors"]:
        _require(spec, _TENSOR_KEYS, "tensor entry")
        name, shape = spec["name"], spec["shape"]
        if name in shapes:
            raise ValueError(f"tensor {name} is listed twice")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"tensor {name} has shape {shape}, not a list of non-negative integers")
        need = 4 * math.prod(shape)
        if spec["nbytes"] != need:
            raise ValueError(f"tensor {name} has nbytes {spec['nbytes']}, but shape {shape} needs {need}")
        if spec["offset"] != offset:
            raise ValueError(f"tensor {name} starts at payload byte {spec['offset']}, expected {offset}")
        shapes[name] = tuple(shape)
        offset += spec["nbytes"]
    if offset != size - payload:
        raise ValueError(f"tensors cover {offset} payload bytes, but the file holds {size - payload}")
    known = {item.name for item in fields(ModelConfig)}
    for key in header["config"]:
        if key not in known:
            raise ValueError(f"unknown model config key '{key}'")
    try:
        config = ModelConfig(**header["config"])
    except TypeError as exc:  # a value of the wrong type, e.g. a string threshold
        raise ValueError(f"bad model config: {exc}") from None
    blocks = config.repeats * config.blocks_per_repeat
    if blocks > len(shapes):  # bounds the table built below by the file's size
        raise ValueError(f"config declares {blocks} conv blocks but the file holds {len(shapes)} tensors")
    _check_layout(config, shapes)
    # numpy's own allocation, so every tensor (at a multiple of 4 bytes) is aligned
    values = np.empty(offset // 4, "<f4")
    got = f.readinto(values)
    if got != offset:
        raise ValueError(f"payload ends after {got} of {offset} bytes")
    values.flags.writeable = False
    params = {
        spec["name"]: values[spec["offset"] // 4 : (spec["offset"] + spec["nbytes"]) // 4].reshape(spec["shape"])
        for spec in header["tensors"]
    }
    return Checkpoint(config=config, params=params, metadata=header["metadata"])


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; every malformed file raises ValueError("<path>: ...").

    The tensors are read-only views into one buffer that holds the payload.
    """
    with open(path, "rb") as f:
        try:
            return _read_checkpoint(f, os.fstat(f.fileno()).st_size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def reduced_config(**overrides) -> ModelConfig:
    """A small configuration for quick experiments and tests."""
    base = dict(
        enc_channels=64,
        bottleneck_channels=32,
        block_channels=64,
        skip_channels=32,
        blocks_per_repeat=4,
        repeats=2,
        hidden1=128,
        hidden2=128,
    )
    base.update(overrides)
    return ModelConfig(**base)
