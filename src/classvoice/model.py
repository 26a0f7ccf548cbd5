"""The voice-detection network: encoder, bottleneck, dilated conv blocks, classifier.

A learned filterbank encoder turns raw audio into a non-negative feature
map. A normalized 1x1 bottleneck compresses channels, then stacks of
dilated depthwise-separable convolution blocks (dilations 1, 2, 4, ...
per repeat) produce one skip output each. All skip outputs are
concatenated (repeat-major, block-minor) into the multi-scale feature
used by a three-layer classifier, which emits per-class probabilities
for the assistant and expert voices. Per-class thresholding yields one
of four categories.

A frozen model (``streaming.resolve_model``) builds no graph and can
serve concurrent inference from many threads; training mutates parameters
single-threaded.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

CHECKPOINT_MAGIC = b"CVCHKPT1"
CHECKPOINT_VERSION = 1

NORM_MODES = ("gLN", "cLN", "none")
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
    norm_mode: gLN | cLN | none ("none" exists for
    receptive-field locality tests; the layer norms have global reach).
    causal: left-only padding (pairs with cLN) vs symmetric (pairs with
    gLN). features_mode: "multiscale" concatenates all skip outputs,
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
    norm_mode: str = "cLN"
    causal: bool = True
    features_mode: str = "multiscale"

    def __post_init__(self):
        for name in (
            "frame_len",
            "frame_stride",
            "enc_channels",
            "bottleneck_channels",
            "skip_channels",
            "block_channels",
            "kernel_size",
            "blocks_per_repeat",
            "repeats",
            "hidden1",
            "hidden2",
            "sample_rate",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.frame_stride > self.frame_len:
            raise ValueError(
                f"frame_stride ({self.frame_stride}) must not exceed frame_len ({self.frame_len})"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.norm_mode not in NORM_MODES:
            raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")
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


def _norm_params(config: ModelConfig, channels: int) -> int:
    return 0 if config.norm_mode == "none" else 2 * channels


def param_count(config: ModelConfig) -> int:
    """Exact trainable-scalar count; matches runtime enumeration exactly."""
    n, l = config.enc_channels, config.frame_len
    e, p, h, k = (
        config.bottleneck_channels,
        config.skip_channels,
        config.block_channels,
        config.kernel_size,
    )
    total = n * l  # encoder basis, no bias
    total += _norm_params(config, n) + e * n + e  # bottleneck norm + 1x1 conv
    per_block = (
        (h * e + h)  # 1x1 in
        + 1  # prelu1
        + _norm_params(config, h)
        + (h * k + h)  # depthwise
        + 1  # prelu2
        + _norm_params(config, h)
        + (e * h + e)  # 1x1 residual
        + (p * h + p)  # 1x1 skip
    )
    total += per_block * config.blocks_per_repeat * config.repeats
    d = config.classifier_input_dim
    total += config.hidden1 * d + config.hidden1
    total += config.hidden2 * config.hidden1 + config.hidden2
    total += NUM_CLASSES * config.hidden2 + NUM_CLASSES
    return total


def decode(probs, threshold: float) -> Category:
    """Threshold the (assistant, expert) probabilities into a Category."""
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    if probs.shape != (2,):
        raise ShapeError(f"decode expects two class probabilities, got shape {probs.shape}")
    return Category.from_bits(probs[0] > threshold, probs[1] > threshold)


class MultiScaleTCN:
    """The network, holding named parameter tensors.

    Parameters are created in a fixed order (encoder, bottleneck, blocks
    repeat-major/block-minor, classifier) so checkpoints and skip
    concatenation are stable across runs.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        c = config

        def weight(name, shape, fan_in):
            data = rng.uniform(-1.0, 1.0, size=shape) * fan_in**-0.5
            self.params[name] = Tensor(data.astype(dtype), requires_grad=True, dtype=dtype)

        def zeros(name, shape):
            self.params[name] = Tensor(np.zeros(shape, dtype), requires_grad=True, dtype=dtype)

        def const(name, shape, value):
            self.params[name] = Tensor(np.full(shape, value, dtype), requires_grad=True, dtype=dtype)

        def norm(prefix, channels):
            if c.norm_mode != "none":
                const(prefix + ".gain", (channels, 1), 1.0)
                zeros(prefix + ".bias", (channels, 1))

        weight("encoder.weight", (c.enc_channels, c.frame_len), c.frame_len)
        norm("bottleneck.norm", c.enc_channels)
        weight("bottleneck.conv.weight", (c.bottleneck_channels, c.enc_channels, 1), c.enc_channels)
        zeros("bottleneck.conv.bias", (c.bottleneck_channels,))
        for r in range(c.repeats):
            for m in range(c.blocks_per_repeat):
                pre = f"block.{r}.{m}"
                weight(f"{pre}.in_conv.weight", (c.block_channels, c.bottleneck_channels, 1), c.bottleneck_channels)
                zeros(f"{pre}.in_conv.bias", (c.block_channels,))
                const(f"{pre}.prelu1.alpha", (1,), 0.25)
                norm(f"{pre}.norm1", c.block_channels)
                weight(f"{pre}.dw_conv.weight", (c.block_channels, 1, c.kernel_size), c.kernel_size)
                zeros(f"{pre}.dw_conv.bias", (c.block_channels,))
                const(f"{pre}.prelu2.alpha", (1,), 0.25)
                norm(f"{pre}.norm2", c.block_channels)
                weight(f"{pre}.res_conv.weight", (c.bottleneck_channels, c.block_channels, 1), c.block_channels)
                zeros(f"{pre}.res_conv.bias", (c.bottleneck_channels,))
                weight(f"{pre}.skip_conv.weight", (c.skip_channels, c.block_channels, 1), c.block_channels)
                zeros(f"{pre}.skip_conv.bias", (c.skip_channels,))
        d = c.classifier_input_dim
        weight("classifier.fc1.weight", (c.hidden1, d), d)
        zeros("classifier.fc1.bias", (c.hidden1,))
        weight("classifier.fc2.weight", (c.hidden2, c.hidden1), c.hidden1)
        zeros("classifier.fc2.bias", (c.hidden2,))
        weight("classifier.fc3.weight", (NUM_CLASSES, c.hidden2), c.hidden2)
        zeros("classifier.fc3.bias", (NUM_CLASSES,))

    # -- parameter access -------------------------------------------------

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- forward pieces ----------------------------------------------------

    def _norm(self, x: Tensor, prefix: str) -> Tensor:
        mode = self.config.norm_mode
        if mode == "none":
            return x
        fn = ad.global_layer_norm if mode == "gLN" else ad.cumulative_layer_norm
        return fn(x, self.params[prefix + ".gain"], self.params[prefix + ".bias"])

    def encode(self, audio) -> Tensor:
        """Frame audio into overlapping segments and apply the ReLU filterbank.

        audio is [S] or [B, S] raw samples; output is [enc_channels, T]
        (or batched) with T = (S - frame_len)//frame_stride + 1, elementwise
        non-negative. The encoder has no bias term.
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
        frames = frames[..., :: c.frame_stride, :]  # [..., T, L]
        frames = np.ascontiguousarray(np.swapaxes(frames, -1, -2))  # [..., L, T]
        return ad.relu(ad.matmul(self.params["encoder.weight"], Tensor(frames, dtype=self.dtype)))

    def bottleneck(self, w: Tensor) -> Tensor:
        """Layer-normalize and compress encoder channels with a 1x1 conv."""
        c = self.config
        if w.shape[-2] != c.enc_channels:
            raise ShapeError(
                f"bottleneck expects {c.enc_channels} channels, got {w.shape[-2]}"
            )
        x = self._norm(w, "bottleneck.norm")
        return ad.conv1d(x, self.params["bottleneck.conv.weight"], self.params["bottleneck.conv.bias"])

    def conv_block(self, x: Tensor, repeat_idx: int, block_idx: int) -> tuple[Tensor, Tensor]:
        """One dilated depthwise-separable block at dilation 2**block_idx.

        Returns (residual_out, skip_out): residual_out = x + residual
        branch, both with the input frame count (padding keeps T fixed:
        all-left when causal, symmetric otherwise).
        """
        c = self.config
        if x.shape[-2] != c.bottleneck_channels:
            raise ShapeError(
                f"conv block expects {c.bottleneck_channels} channels, got {x.shape[-2]}"
            )
        pre = f"block.{repeat_idx}.{block_idx}"
        dilation = 2**block_idx
        span = (c.kernel_size - 1) * dilation
        pad = (span, 0) if c.causal else (span // 2, span - span // 2)
        h = ad.conv1d(x, self.params[f"{pre}.in_conv.weight"], self.params[f"{pre}.in_conv.bias"])
        h = ad.prelu(h, self.params[f"{pre}.prelu1.alpha"])
        h = self._norm(h, f"{pre}.norm1")
        h = ad.conv1d(
            h,
            self.params[f"{pre}.dw_conv.weight"],
            self.params[f"{pre}.dw_conv.bias"],
            dilation=dilation,
            groups=c.block_channels,
            padding=pad,
        )
        h = ad.prelu(h, self.params[f"{pre}.prelu2.alpha"])
        h = self._norm(h, f"{pre}.norm2")
        res = ad.conv1d(h, self.params[f"{pre}.res_conv.weight"], self.params[f"{pre}.res_conv.bias"])
        skip = ad.conv1d(h, self.params[f"{pre}.skip_conv.weight"], self.params[f"{pre}.skip_conv.bias"])
        return ad.add(x, res), skip

    def extract(self, x: Tensor) -> Tensor:
        """Run all blocks, threading the residual path; gather skip outputs.

        Multiscale mode concatenates the skip outputs of every block along
        channels in (repeat, block) order; last_layer mode returns only the
        final block's skip output.
        """
        c = self.config
        skips = []
        cur = x
        for r in range(c.repeats):
            for m in range(c.blocks_per_repeat):
                cur, skip = self.conv_block(cur, r, m)
                skips.append(skip)
        if c.features_mode == "last_layer":
            return skips[-1]
        return ad.concat(skips, axis=-2)

    def classify(self, features: Tensor) -> Tensor:
        """Mean-pool features over time and run the three linear layers.

        Output is the per-class probability vector (assistant, expert),
        two independent sigmoids, each in (0, 1), so all four categories
        can be decoded. Pooling makes the window decision order-free in
        time.
        """
        c = self.config
        if features.shape[-2] != c.classifier_input_dim:
            raise ShapeError(
                f"classifier expects {c.classifier_input_dim} feature channels, got {features.shape[-2]}"
            )
        pooled = ad.tmean(features, axis=-1)
        h = ad.relu(ad.linear(pooled, self.params["classifier.fc1.weight"], self.params["classifier.fc1.bias"]))
        h = ad.relu(ad.linear(h, self.params["classifier.fc2.weight"], self.params["classifier.fc2.bias"]))
        logits = ad.linear(h, self.params["classifier.fc3.weight"], self.params["classifier.fc3.bias"])
        return ad.sigmoid(logits)

    def window_probs(self, audio) -> Tensor:
        """Full pipeline for one analysis window (or a batch of windows)."""
        return self.classify(self.extract(self.bottleneck(self.encode(audio))))


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
        params = {name: np.asarray(t.data, dtype="<f4").copy() for name, t in model.params.items()}
        return cls(config=model.config, params=params, metadata=dict(metadata or {}))

    def build_model(self) -> MultiScaleTCN:
        model = MultiScaleTCN(self.config)
        expected = set(model.params)
        got = set(self.params)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(f"checkpoint/config mismatch: missing {missing}, unexpected {extra}")
        for name, arr in self.params.items():
            slot = model.params[name]
            if tuple(arr.shape) != slot.shape:
                raise ValueError(f"tensor {name} has shape {arr.shape}, expected {slot.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"tensor {name} contains non-finite values")
            slot.data = arr.astype(np.float32).copy()
        return model


def save_checkpoint(path, checkpoint: Checkpoint):
    """Write the documented binary container (header JSON + raw LE float32)."""
    tensors = []
    offset = 0
    blobs = []
    for name, arr in checkpoint.params.items():
        blob = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
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
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        header_len = int.from_bytes(f.read(8), "little")
        header = json.loads(f.read(header_len).decode("utf-8"))
        if header.get("format_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported format version {header.get('format_version')}")
        payload = f.read()
    params = {}
    for spec in header["tensors"]:
        start, n = spec["offset"], spec["nbytes"]
        if start + n > len(payload):
            raise ValueError(f"{path}: truncated payload for tensor {spec['name']}")
        arr = np.frombuffer(payload[start : start + n], dtype="<f4").reshape(spec["shape"]).copy()
        params[spec["name"]] = arr
    known = {f.name for f in fields(ModelConfig)}
    for key in header["config"]:
        if key not in known:
            raise ValueError(f"{path}: unknown model config key '{key}'")
    config = ModelConfig(**header["config"])
    return Checkpoint(config=config, params=params, metadata=header["metadata"])


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
