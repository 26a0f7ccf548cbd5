"""Network architecture tests: shapes, causality, locality, decoding, checkpoints."""

import json
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classvoice.model

from classvoice import autodiff as ad
from classvoice.autodiff import ShapeError, Tensor
from classvoice.model import (
    CATEGORY_ORDER,
    NUM_CLASSES,
    Category,
    CHECKPOINT_MAGIC,
    Checkpoint,
    ModelConfig,
    MultiScaleTCN,
    decode,
    load_checkpoint,
    param_count,
    receptive_field,
    reduced_config,
    save_checkpoint,
)


def tiny_config(**over):
    base = dict(
        frame_len=16,
        frame_stride=8,
        enc_channels=6,
        bottleneck_channels=4,
        skip_channels=3,
        block_channels=5,
        kernel_size=3,
        blocks_per_repeat=2,
        repeats=2,
        hidden1=7,
        hidden2=6,
        sample_rate=800,
    )
    base.update(over)
    return ModelConfig(**base)


class TestModelConfig:
    def test_defaults_are_full_size(self):
        c = ModelConfig()
        assert (c.frame_len, c.enc_channels, c.bottleneck_channels) == (160, 512, 128)
        assert (c.block_channels, c.kernel_size, c.repeats, c.blocks_per_repeat) == (512, 3, 3, 8)
        assert (c.hidden1, c.hidden2, NUM_CLASSES) == (2048, 2048, 2)
        assert c.classifier_input_dim == 8 * 3 * 128 == 3072

    def test_validation(self):
        with pytest.raises(ValueError, match="frame_stride"):
            ModelConfig(frame_len=100, frame_stride=200)
        with pytest.raises(ValueError, match="threshold"):
            ModelConfig(threshold=1.5)
        with pytest.raises(TypeError, match="context"):  # the network is causal; no field picks it
            ModelConfig(context="window")
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(repeats=0)
        for name, value in (("repeats", True), ("hidden1", True), ("kernel_size", 3.0), ("sample_rate", "16000")):
            with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
                ModelConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, True])
    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig) if type(f.default) is int])
    def test_every_int_field_rejects_zero_and_bool_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer, got {value!r}$"):
            ModelConfig(**{name: value})

    def test_last_layer_input_dim(self):
        assert ModelConfig(features_mode="last_layer").classifier_input_dim == 128


class TestEncode:
    def test_frame_count_formula(self):
        model = MultiScaleTCN(ModelConfig(), seed=0)
        out = model.encode(np.zeros(48000, np.float32))
        assert out.shape == (512, 599)

    def test_single_frame(self):
        model = MultiScaleTCN(ModelConfig(), seed=0)
        assert model.encode(np.zeros(160, np.float32)).shape == (512, 1)

    def test_zero_audio_zero_features(self):
        model = MultiScaleTCN(tiny_config(), seed=1)
        out = model.encode(np.zeros(64, np.float32))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_too_short_names_minimum(self):
        model = MultiScaleTCN(tiny_config(), seed=1)
        with pytest.raises(ShapeError, match="frame_len=16"):
            model.encode(np.zeros(15, np.float32))

    def test_output_non_negative(self):
        model = MultiScaleTCN(tiny_config(), seed=2)
        rng = np.random.default_rng(0)
        out = model.encode(rng.standard_normal(160).astype(np.float32))
        assert np.all(out.data >= 0)

    def test_batched_matches_single(self):
        model = MultiScaleTCN(tiny_config(), seed=3)
        rng = np.random.default_rng(1)
        audio = rng.standard_normal((3, 80)).astype(np.float32)
        batched = model.encode(audio)  # [C, B, T]
        for i in range(3):
            np.testing.assert_allclose(batched.data[:, i], model.encode(audio[i]).data, atol=1e-6)


class TestBottleneck:
    def test_channel_compression_preserves_frames(self):
        model = MultiScaleTCN(tiny_config(), seed=4)
        w = model.encode(np.random.default_rng(2).standard_normal(160).astype(np.float32))
        out = model.bottleneck(w)
        assert out.shape == (4, w.shape[-1])

    @pytest.mark.parametrize("scale", [0.5, 2.0, 100.0])
    def test_scale_invariance(self, scale):
        model = MultiScaleTCN(tiny_config(), seed=5)
        rng = np.random.default_rng(3)
        w = np.abs(rng.standard_normal((6, 9))).astype(np.float32)
        a = model.bottleneck(Tensor(w)).data
        b = model.bottleneck(Tensor(scale * w)).data
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_channel_mismatch(self):
        model = MultiScaleTCN(tiny_config(), seed=5)
        with pytest.raises(ShapeError, match="channels"):
            model.bottleneck(Tensor(np.zeros((5, 4), np.float32)))

    def test_matches_op_composition(self):
        # the bottleneck is exactly norm -> 1x1 conv with the same parameters
        model = MultiScaleTCN(tiny_config(), seed=6)
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((6, 7)).astype(np.float32))
        expected = ad.conv1d(
            ad.cumulative_layer_norm(
                w, model.params["bottleneck.norm.gain"], model.params["bottleneck.norm.bias"]
            ),
            model.params["bottleneck.conv.weight"],
            model.params["bottleneck.conv.bias"],
        )
        np.testing.assert_array_equal(model.bottleneck(w).data, expected.data)


class TestConvBlock:
    def test_zero_weights_identity_residual(self):
        model = MultiScaleTCN(tiny_config(), seed=7)
        for name, p in model.params.items():
            if name.startswith("block.0.0."):
                p.data = np.zeros_like(p.data)
        skip_bias = np.linspace(1.0, 3.0, 3).astype(np.float32)
        model.params["block.0.0.skip_conv.bias"].data = skip_bias.copy()
        x = Tensor(np.random.default_rng(5).standard_normal((4, 9)).astype(np.float32))
        res, skip = model.conv_block(x, 0, 0)
        np.testing.assert_array_equal(res.data, x.data)
        np.testing.assert_allclose(skip.data, skip_bias)

    def test_causal_blocks_ignore_future(self):
        # the per-frame target is the residual stream; skip_mean pools every frame
        model = MultiScaleTCN(tiny_config(), seed=8)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 12)).astype(np.float32)
        res0, _ = model.conv_block(Tensor(x), 0, 1)
        for t in (3, 7, 10):
            x2 = x.copy()
            x2[:, t + 1 :] += 1.0
            res1, _ = model.conv_block(Tensor(x2), 0, 1)
            assert np.array_equal(res1.data[:, : t + 1], res0.data[:, : t + 1])
            assert not np.array_equal(res1.data, res0.data)

    def test_frame_count_preserved_all_dilations(self):
        model = MultiScaleTCN(tiny_config(blocks_per_repeat=4, repeats=1), seed=9)
        x = Tensor(np.random.default_rng(7).standard_normal((4, 11)).astype(np.float32))
        for m in range(4):
            res, skip = model.conv_block(x, 0, m)
            assert skip.shape == (3,)
            if m < 3:
                assert res.shape == (4, 11)
            else:  # the final block's residual output feeds nothing
                assert res is None

    def test_outputs_nothing_reads_are_not_computed(self, monkeypatch):
        model = MultiScaleTCN(tiny_config(features_mode="last_layer"), seed=9)
        names = {id(p): n for n, p in model.params.items()}
        convs = []
        real = ad.conv1d

        def counted(x, weight, *args, **kwargs):
            convs.append(names[id(weight)])
            return real(x, weight, *args, **kwargs)

        monkeypatch.setattr(ad, "conv1d", counted)
        x = Tensor(np.random.default_rng(7).standard_normal((4, 11)).astype(np.float32))
        assert model.conv_block(x, 0, 0)[1] is None  # last_layer: no skip before the final block
        assert model.conv_block(x, 1, 1)[0] is None  # the final block's residual feeds nothing
        assert convs == [
            "block.0.0.in_conv.weight",
            "block.0.0.dw_conv.weight",
            "block.0.0.res_conv.weight",
            "block.1.1.in_conv.weight",
            "block.1.1.dw_conv.weight",
            "block.1.1.skip_conv.weight",
        ]

    def test_paper_size_block_parameter_arithmetic(self):
        # weights+biases of one full-size block: (128*512+512) + (512*3+512)
        # + (512*128+128) + (512*128+128) = 199,424; +2 prelu alphas = 199,426;
        # norm gains/biases add 2*(2*512) = 2,048 on top
        convs = (128 * 512 + 512) + (512 * 3 + 512) + (512 * 128 + 128) + (512 * 128 + 128)
        assert convs + 2 == 199_426
        model = MultiScaleTCN(ModelConfig(), seed=0)
        block_total = sum(p.size for n, p in model.params.items() if n.startswith("block.0.0."))
        assert block_total == 199_426 + 2048


def without_norms(model):
    """The model with every layer norm replaced by the identity (a test fake).

    The layer norms pool statistics over the past, so a perturbed frame
    reaches every later frame; without them each frame sees only its
    receptive field. A norm that a block fuses with its PReLU keeps the
    PReLU.
    """
    model._norm = lambda x, prefix, alpha=None, carry=None: x if alpha is None else ad.prelu(x, alpha)
    return model


def residual_stream(cfg, x, seed):
    """The [C, T] residual stream after all of cfg's blocks, with the layer norms faked away.

    The final block's residual output is not computed, so the stack runs in
    a model with one more repeat, where none of cfg's blocks is the final one.
    """
    model = without_norms(MultiScaleTCN(replace(cfg, repeats=cfg.repeats + 1), seed=seed))
    cur = Tensor(x)
    for r in range(cfg.repeats):
        for m in range(cfg.blocks_per_repeat):
            cur, _ = model.conv_block(cur, r, m)
    return cur.data


class TestExtract:
    def test_multiscale_channel_count(self):
        model = MultiScaleTCN(tiny_config(), seed=10)
        x = Tensor(np.random.default_rng(8).standard_normal((4, 9)).astype(np.float32))
        out = model.extract(x)
        assert out.shape == (2 * 2 * 3,)
        batched = model.extract(Tensor(np.stack([x.data] * 2, axis=1)))  # [C, B, T] in, [B, D] out
        assert batched.shape == (2, 2 * 2 * 3)

    def test_single_block_equals_its_skip(self):
        model = MultiScaleTCN(tiny_config(blocks_per_repeat=1, repeats=1), seed=11)
        x = Tensor(np.random.default_rng(9).standard_normal((4, 9)).astype(np.float32))
        _, skip = model.conv_block(x, 0, 0)
        np.testing.assert_array_equal(model.extract(x).data, skip.data)

    def test_last_layer_mode(self):
        model = MultiScaleTCN(tiny_config(features_mode="last_layer"), seed=12)
        x = Tensor(np.random.default_rng(10).standard_normal((4, 9)).astype(np.float32))
        assert model.extract(x).shape == (3,)

    def test_locality_causal(self):
        cfg = tiny_config(
            bottleneck_channels=3,
            block_channels=4,
            skip_channels=2,
            blocks_per_repeat=3,
            repeats=2,
        )
        span = receptive_field(cfg) - 1
        t_len = span + 40
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, t_len)).astype(np.float32)
        base = residual_stream(cfg, x, seed=14)
        p = 10
        x2 = x.copy()
        x2[:, p] += 1.0
        out = residual_stream(cfg, x2, seed=14)
        diff = np.any(out != base, axis=0)
        touched = np.nonzero(diff)[0]
        assert touched.size > 0
        assert touched.min() >= p  # never before the perturbed frame
        assert touched.max() <= p + span


def one_block_model(seed, norms=True):
    """One block with a one-tap kernel, so every stage before the pooling acts frame by frame."""
    model = MultiScaleTCN(tiny_config(kernel_size=1, blocks_per_repeat=1, repeats=1), seed=seed)
    return model if norms else without_norms(model)


class TestClassify:
    def test_zero_final_layer_gives_half(self):
        model = MultiScaleTCN(tiny_config(), seed=15)
        model.params["classifier.fc3.weight"].data[...] = 0
        model.params["classifier.fc3.bias"].data[...] = 0
        feats = Tensor(np.random.default_rng(13).standard_normal(12).astype(np.float32))
        np.testing.assert_allclose(model.classify(feats).data, [0.5, 0.5])

    def test_single_frame_pooling_identity(self):
        # pooling happens in each block, before its skip conv: with a
        # one-tap kernel, a time-constant input pools to its own column
        for model in (one_block_model(16, norms=False), one_block_model(16)):
            col = np.random.default_rng(14).standard_normal((4, 1)).astype(np.float32)
            np.testing.assert_allclose(
                model.extract(Tensor(col)).data,
                model.extract(Tensor(np.tile(col, (1, 7)))).data,
                rtol=1e-5,
                atol=1e-6,
            )

    def test_permutation_invariance(self):
        # with a one-tap kernel and no norm statistics over time, the pooled feature is order-free in time
        model = one_block_model(17, norms=False)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 9)).astype(np.float32)
        perm = rng.permutation(9)
        a = model.extract(Tensor(x)).data
        b = model.extract(Tensor(x[:, perm])).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_channel_mismatch(self):
        model = MultiScaleTCN(tiny_config(), seed=18)
        with pytest.raises(ShapeError, match="feature channels"):
            model.classify(Tensor(np.zeros((5, 4), np.float32)))

    def test_probs_in_unit_interval(self):
        model = MultiScaleTCN(tiny_config(), seed=19)
        rng = np.random.default_rng(16)
        probs = model.window_probs(rng.standard_normal(160).astype(np.float32)).data
        assert probs.shape == (2,)
        assert np.all(probs > 0) and np.all(probs < 1)


class TestDecode:
    def test_quadrants(self):
        assert decode([0.8, 0.9], 0.5) is Category.MIXTURE
        assert decode([0.2, 0.3], 0.5) is Category.BACKGROUND
        assert decode([0.7, 0.2], 0.5) is Category.ASSISTANT
        assert decode([0.2, 0.7], 0.5) is Category.EXPERT

    def test_bijection_on_probability_grid(self):
        th = 0.5
        seen = {}
        grid = np.linspace(0.05, 0.95, 19)
        for pa in grid:
            for pe in grid:
                cat = decode([pa, pe], th)
                quadrant = (pa > th, pe > th)
                seen.setdefault(quadrant, set()).add(cat)
        assert len(seen) == 4
        cats = [next(iter(s)) for s in seen.values()]
        assert all(len(s) == 1 for s in seen.values())
        assert set(cats) == set(CATEGORY_ORDER)

    def test_category_codes(self):
        assert Category.from_bits(True, False).value == "10"
        assert Category.from_bits(False, True).value == "01"
        assert Category("11") is Category.MIXTURE
        assert Category.ASSISTANT.assistant_bit == 1
        assert Category.ASSISTANT.expert_bit == 0


class TestReceptiveFieldAndParamCount:
    def test_full_config_receptive_field(self):
        assert receptive_field(ModelConfig()) == 1 + 3 * 2 * 255 == 1531

    def test_small_cases(self):
        assert receptive_field(ModelConfig(kernel_size=3, blocks_per_repeat=1, repeats=1)) == 3
        assert receptive_field(ModelConfig(kernel_size=3, blocks_per_repeat=2, repeats=1)) == 7

    def test_encoder_only_count(self):
        assert ModelConfig().enc_channels * ModelConfig().frame_len == 81920

    def test_degenerate_all_ones_config(self):
        c = ModelConfig(
            frame_len=1,
            frame_stride=1,
            enc_channels=1,
            bottleneck_channels=1,
            skip_channels=1,
            block_channels=1,
            kernel_size=1,
            blocks_per_repeat=1,
            repeats=1,
            hidden1=1,
            hidden2=1,
        )
        # encoder 1; bottleneck norm 1+1, conv 1+1; block: in 1+1, prelu 1,
        # norm 1+1, dw 1+1, prelu 1, norm 1+1, res 1+1, skip 1+1;
        # classifier 1+1 + 1+1 + 2+2
        expected = 1 + (2 + 2) + (2 + 1 + 2 + 2 + 1 + 2 + 2 + 2) + (2 + 2 + 4)
        assert param_count(c) == expected
        assert sum(p.size for p in MultiScaleTCN(c, seed=0).parameters()) == expected

    @pytest.mark.parametrize(
        "cfg,expected",
        [
            (ModelConfig(), 15_477_938),
            (ModelConfig(features_mode="last_layer"), 9_448_626),
            (reduced_config(), 116_402),
        ],
        ids=["paper", "last_layer", "reduced"],
    )
    def test_pinned_counts(self, cfg, expected):
        assert param_count(cfg) == expected


def reference_init(config, seed=0, dtype=np.float32):
    """The parameter arrays of the per-layer initialisation the layout table replaced, frozen as a test oracle."""
    params = {}
    rng = np.random.default_rng(seed)
    c = config

    def weight(name, shape, fan_in):
        data = rng.uniform(-1.0, 1.0, size=shape) * fan_in**-0.5
        params[name] = data.astype(dtype)

    def zeros(name, shape):
        params[name] = np.zeros(shape, dtype)

    def const(name, shape, value):
        params[name] = np.full(shape, value, dtype)

    def norm(prefix, channels):
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
    return params


class TestInitParity:
    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(),
            reduced_config(),
            ModelConfig(features_mode="last_layer"),
        ],
        ids=["paper", "reduced", "last_layer"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_table_init_matches_reference(self, cfg, seed):
        model = MultiScaleTCN(cfg, seed=seed)
        expected = reference_init(cfg, seed=seed)
        assert list(model.params) == list(expected)
        for name, arr in expected.items():
            got = model.params[name]
            assert got.requires_grad and got.dtype == arr.dtype, name
            assert np.array_equal(got.data, arr), name


def reference_window_probs(model, audio, norms=True):
    """(probs, pooled features) of the per-frame forward that pooling-first replaced, frozen as a test oracle.

    Plain numpy in the model's dtype, written from the op definitions: every
    block builds its per-frame skip map skip_conv(norm2(h)); the maps are
    concatenated over channels and mean-pooled over time before the three
    linear layers. The final block's residual output is computed and unused.
    With norms=False every layer norm is the identity, as in without_norms.
    """
    c = model.config
    p = {name: t.data for name, t in model.params.items()}
    audio = np.asarray(audio, dtype=model.dtype)
    frames = np.lib.stride_tricks.sliding_window_view(audio, c.frame_len, axis=-1)[..., :: c.frame_stride, :]
    x = np.maximum(p["encoder.weight"] @ np.swapaxes(frames, -1, -2), 0)

    def norm(a, prefix):
        if not norms:
            return a
        counts = np.arange(1, a.shape[-1] + 1) * a.shape[-2]
        mu = np.cumsum(a.sum(axis=-2, keepdims=True), axis=-1) / counts
        var = np.maximum(np.cumsum((a * a).sum(axis=-2, keepdims=True), axis=-1) / counts - mu * mu, 0)
        return p[prefix + ".gain"] * (a - mu) / np.sqrt(var + 1e-8) + p[prefix + ".bias"]

    def pointwise(a, prefix):
        return p[prefix + ".weight"][:, :, 0] @ a + p[prefix + ".bias"][:, None]

    def depthwise(a, prefix, dilation, pad):
        w = p[prefix + ".weight"]
        ap = np.pad(a, [(0, 0)] * (a.ndim - 1) + [pad])
        t = a.shape[-1]
        out = sum(w[:, 0, k, None] * ap[..., k * dilation : k * dilation + t] for k in range(c.kernel_size))
        return out + p[prefix + ".bias"][:, None]

    def prelu(a, alpha):
        return np.where(a > 0, a, alpha[0] * a)

    x = pointwise(norm(x, "bottleneck.norm"), "bottleneck.conv")
    skips = []
    for r in range(c.repeats):
        for m in range(c.blocks_per_repeat):
            pre = f"block.{r}.{m}"
            pad = ((c.kernel_size - 1) * 2**m, 0)
            h = norm(prelu(pointwise(x, f"{pre}.in_conv"), p[f"{pre}.prelu1.alpha"]), f"{pre}.norm1")
            h = norm(prelu(depthwise(h, f"{pre}.dw_conv", 2**m, pad), p[f"{pre}.prelu2.alpha"]), f"{pre}.norm2")
            x = x + pointwise(h, f"{pre}.res_conv")
            skips.append(pointwise(h, f"{pre}.skip_conv"))
    features = skips[-1] if c.features_mode == "last_layer" else np.concatenate(skips, axis=-2)
    pooled = features.mean(axis=-1)
    h = np.maximum(pooled @ p["classifier.fc1.weight"].T + p["classifier.fc1.bias"], 0)
    h = np.maximum(h @ p["classifier.fc2.weight"].T + p["classifier.fc2.bias"], 0)
    logits = h @ p["classifier.fc3.weight"].T + p["classifier.fc3.bias"]
    return 1 / (1 + np.exp(-logits)), pooled


# (config, norms): the no_norm case fakes the layer norms away, so the
# pooling and 1x1 algebra is checked without any normalisation in between
PARITY_CONFIGS = [
    (ModelConfig(), True),
    (reduced_config(), True),
    (ModelConfig(), False),
    (ModelConfig(features_mode="last_layer"), True),
]


class TestPooledForwardParity:
    """The pooled, folded forward against the per-frame one; float64 catches algebra errors float32 would hide."""

    @pytest.mark.parametrize("cfg,norms", PARITY_CONFIGS, ids=["paper", "reduced", "no_norm", "last_layer"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-9)], ids=["float32", "float64"])
    def test_matches_reference(self, cfg, norms, dtype, tol):
        model = MultiScaleTCN(cfg, seed=3, dtype=dtype)
        if not norms:
            without_norms(model)
        for batch in (1, 4):
            rng = np.random.default_rng(batch)
            # 0.5 s (99 frames) keeps paper size cheap; the deep dilations then pad past the window
            audio = rng.uniform(-0.5, 0.5, (batch, 8000) if batch > 1 else 8000)
            want_probs, want_features = reference_window_probs(model, audio, norms)
            features = model.extract(model.bottleneck(model.encode(audio)))
            probs = model.window_probs(audio)
            assert probs.dtype == dtype and probs.shape == want_probs.shape
            np.testing.assert_allclose(features.data, want_features, rtol=0, atol=tol)
            np.testing.assert_allclose(probs.data, want_probs, rtol=0, atol=tol)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-9)], ids=["float32", "float64"])
    def test_full_window_at_paper_size(self, dtype, tol):
        model = MultiScaleTCN(ModelConfig(), seed=4, dtype=dtype)
        audio = np.random.default_rng(5).uniform(-0.5, 0.5, 48000)
        want_probs, want_features = reference_window_probs(model, audio)
        np.testing.assert_allclose(model.extract(model.bottleneck(model.encode(audio))).data, want_features, rtol=0, atol=tol)
        np.testing.assert_allclose(model.window_probs(audio).data, want_probs, rtol=0, atol=tol)


class TestEndToEndShapes:
    def test_frame_count_preserved_through_pipeline(self):
        model = MultiScaleTCN(tiny_config(), seed=21)
        audio = np.random.default_rng(18).standard_normal(200).astype(np.float32)
        w = model.encode(audio)
        t = w.shape[-1]
        b = model.bottleneck(w)
        assert b.shape[-1] == t
        res, _ = model.conv_block(b, 0, 0)
        assert res.shape == b.shape
        f = model.extract(b)
        assert f.shape == (model.config.classifier_input_dim,)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        model = MultiScaleTCN(tiny_config(), seed=22)
        ckpt = Checkpoint.from_model(model, metadata={"epoch": 3, "valid_loss": 0.25})
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.metadata == {"epoch": 3, "valid_loss": 0.25}
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    def test_byte_exact_round_trip(self, tmp_path):
        model = MultiScaleTCN(tiny_config(), seed=23)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, Checkpoint.from_model(model, metadata={"note": "x"}))
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_build_model_restores_forward(self, tmp_path):
        model = MultiScaleTCN(tiny_config(), seed=24)
        audio = np.random.default_rng(19).standard_normal(160).astype(np.float32)
        before = model.window_probs(audio).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint.from_model(model))
        rebuilt = load_checkpoint(path).build_model()
        np.testing.assert_array_equal(rebuilt.window_probs(audio).data, before)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_mismatched_names_rejected(self):
        model = MultiScaleTCN(tiny_config(), seed=25)
        ckpt = Checkpoint.from_model(model)
        del ckpt.params["encoder.weight"]
        with pytest.raises(ValueError, match="missing"):
            ckpt.build_model()

    def test_build_model_checks_shape_and_finiteness(self):
        ckpt = Checkpoint.from_model(MultiScaleTCN(tiny_config(), seed=25))
        ckpt.params["classifier.fc3.bias"] = np.zeros(3, np.float32)
        with pytest.raises(ValueError, match=r"classifier.fc3.bias has shape \(3,\), expected \(2,\)"):
            ckpt.build_model()
        ckpt.params["classifier.fc3.bias"] = np.array([0.0, np.nan], np.float32)
        with pytest.raises(ValueError, match="classifier.fc3.bias contains non-finite"):
            ckpt.build_model()

    def test_build_model_draws_no_initialisation(self, monkeypatch):
        source = MultiScaleTCN(tiny_config(), seed=26)
        ckpt = Checkpoint.from_model(source)
        audio = np.random.default_rng(21).standard_normal((2, 160)).astype(np.float32)
        before = source.window_probs(audio).data

        def no_rng(*args, **kwargs):
            raise AssertionError("build_model drew random numbers")

        monkeypatch.setattr(classvoice.model.np.random, "default_rng", no_rng)
        stored = {n: a.copy() for n, a in ckpt.params.items()}
        built = ckpt.build_model()
        assert list(built.params) == list(source.params)
        assert not any(p.requires_grad for p in built.parameters())
        np.testing.assert_array_equal(built.window_probs(audio).data, before)
        # shared: the model wraps the checkpoint's arrays, and running it writes nothing into them
        assert all(np.shares_memory(built.params[n].data, a) for n, a in ckpt.params.items())
        for name, arr in stored.items():
            np.testing.assert_array_equal(ckpt.params[name], arr)


def gradients(model):
    """The loss gradient of every parameter on two random windows (zeros where the loss does not reach)."""
    audio = np.random.default_rng(23).standard_normal((2, 160)).astype(np.float32)
    ad.backward(ad.binary_cross_entropy(model.window_probs(audio), np.array([[1.0, 0.0], [0.0, 1.0]])))
    return [np.zeros_like(p.data) if p.grad is None else p.grad for p in model.parameters()]


def train_one_step(model):
    params = model.parameters()
    ad.adam_step(params, gradients(model), ad.AdamState.for_params(params), lr=1e-2)


class TestSharedWeights:
    """One copy of the weights serves a model, its snapshots and the models built from checkpoints."""

    def test_checkpoint_is_unchanged_by_a_later_adam_step(self):
        model = MultiScaleTCN(tiny_config(), seed=28)
        ckpt = Checkpoint.from_model(model)
        assert all(np.shares_memory(ckpt.params[n], t.data) for n, t in model.params.items())
        stored = {n: a.copy() for n, a in ckpt.params.items()}
        train_one_step(model)
        assert not np.array_equal(model.params["encoder.weight"].data, stored["encoder.weight"])
        for name, arr in stored.items():
            np.testing.assert_array_equal(ckpt.params[name], arr)

    def test_adam_binds_new_arrays_with_the_in_place_bits(self):
        model = MultiScaleTCN(tiny_config(), seed=29)
        before = {n: t.data for n, t in model.params.items()}
        params = model.parameters()
        grads = gradients(model)
        # the update the in-place step subtracted, replayed on copies
        want = {}
        for (name, p), g in zip(model.params.items(), grads):
            m = (1.0 - ad.ADAM_BETA1) * g
            v = (1.0 - ad.ADAM_BETA2) * (g * g)
            want[name] = p.data.copy()
            want[name] -= 1e-2 * (m / (1.0 - ad.ADAM_BETA1)) / (np.sqrt(v / (1.0 - ad.ADAM_BETA2)) + ad.ADAM_EPSILON)
        ad.adam_step(params, grads, ad.AdamState.for_params(params), lr=1e-2)
        for name, p in model.params.items():
            assert not np.shares_memory(p.data, before[name]), name
            assert p.data.dtype == np.float32 and np.array_equal(p.data, want[name]), name

    def test_loaded_arrays_are_aligned_read_only_and_shared_by_build_model(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(tiny_config(), seed=30)))
        ckpt = load_checkpoint(path)
        for name, arr in ckpt.params.items():
            assert arr.dtype == np.float32 and arr.flags.aligned and not arr.flags.writeable, name
        built = ckpt.build_model()
        assert all(np.shares_memory(built.params[n].data, a) for n, a in ckpt.params.items())

    def test_a_loaded_checkpoint_trains_without_writing_into_its_arrays(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(tiny_config(), seed=31)))
        ckpt = load_checkpoint(path)
        view = ckpt.build_model().trainable_view()
        train_one_step(view)
        assert not np.array_equal(view.params["encoder.weight"].data, ckpt.params["encoder.weight"])
        for name, arr in load_checkpoint(path).params.items():
            np.testing.assert_array_equal(ckpt.params[name], arr)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw allocated above the start while fn ran)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    """At paper size, set-up holds one copy of the weights plus bounded scratch."""

    MB = 2**20
    PAYLOAD = 4 * param_count(ModelConfig())

    def test_init_peaks_within_16_mb_of_the_weights(self):
        model, peak = traced_peak(lambda: MultiScaleTCN(ModelConfig(), seed=1))
        assert sum(p.data.nbytes for p in model.parameters()) == self.PAYLOAD
        assert peak <= self.PAYLOAD + 16 * self.MB

    def test_save_streams_the_arrays(self, tmp_path):
        ckpt = Checkpoint.from_model(MultiScaleTCN(ModelConfig(), seed=1))
        largest = max(a.nbytes for a in ckpt.params.values())
        _, peak = traced_peak(lambda: save_checkpoint(tmp_path / "m.ckpt", ckpt))
        # the header only: no tensor's bytes are copied (the largest is 24 MiB)
        assert peak < min(self.MB, largest)

    def test_load_reads_the_payload_once(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(ModelConfig(), seed=1)))
        _, peak = traced_peak(lambda: load_checkpoint(path))
        assert peak <= self.PAYLOAD + self.MB

    def test_built_model_holds_the_payload_once(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(ModelConfig(), seed=1)))
        # wrapping the arrays checks each for NaN and Inf with no mask as large as the array
        _, peak = traced_peak(lambda: load_checkpoint(path).build_model())
        assert peak <= self.PAYLOAD + self.MB


def graph_tensors(loss):
    """Every tensor reachable from ``loss`` through ``_parents``, the loss included."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def micro_batch(cfg, windows, seed, dtype=np.float32, slope=0.25):
    """A trainable view of a fresh model with the given PReLU slope and random norm gains and biases, and the
    loss of ``windows`` random windows through it."""
    model = MultiScaleTCN(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, p in model.params.items():
        if name.endswith(".alpha"):
            p.data = np.full(p.shape, slope, dtype)
        elif name.endswith(".gain"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(dtype)
        elif ".norm" in name:
            p.data = rng.uniform(-0.2, 0.2, p.shape).astype(dtype)
    view = model.trainable_view()
    audio = rng.uniform(-0.5, 0.5, (windows, 3 * cfg.sample_rate)).astype(dtype)
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]] * windows)[:windows]
    return view, ad.binary_cross_entropy(view.window_probs(audio), labels)


class TestTrainingGraph:
    def test_a_block_holds_two_block_wide_activations(self):
        # reduced_config: enc_channels == block_channels, so the encoder's and bottleneck's outputs count too
        cfg = reduced_config()
        view = MultiScaleTCN(cfg, seed=32).trainable_view()
        audio = np.random.default_rng(33).uniform(-0.5, 0.5, (4, 3 * cfg.sample_rate)).astype(np.float32)
        loss = ad.binary_cross_entropy(view.window_probs(audio), np.array([[1.0, 0.0], [0.0, 1.0]] * 2))
        frames = (audio.shape[1] - cfg.frame_len) // cfg.frame_stride + 1
        wide = [t for t in graph_tensors(loss) if t._parents and t.shape == (cfg.block_channels, 4, frames)]
        held = [t for t in wide if t.data is not None]
        # per block the in_conv and depthwise outputs, which the norms read; then the encoder's ReLU output.
        # The norm outputs and the encoder's GEMM output are released once their forward readers have run,
        # and no PReLU output is a tensor: the norms apply PReLU themselves
        blocks = cfg.repeats * cfg.blocks_per_repeat
        assert len(held) == 2 * blocks + 1 == 17
        assert len(wide) - len(held) == 2 * blocks + 2  # each block's two norm outputs, the bottleneck norm's, the GEMM's

    def test_a_micro_batch_peaks_within_25_mb(self):
        cfg = reduced_config()
        view = MultiScaleTCN(cfg, seed=34).trainable_view()
        audio = np.random.default_rng(35).uniform(-0.5, 0.5, (4, 3 * cfg.sample_rate)).astype(np.float32)
        labels = np.array([[1.0, 0.0], [0.0, 1.0]] * 2)
        _, peak = traced_peak(lambda: ad.backward(ad.binary_cross_entropy(view.window_probs(audio), labels)))
        assert peak <= 25 * 2**20


class TestReleasedNormOutputs:
    """Releasing the cLN outputs changes no byte of the loss or of any gradient."""

    @staticmethod
    def loss_and_gradients(monkeypatch, release, cfg, windows, dtype, slope):
        with monkeypatch.context() as m:
            if not release:
                m.setattr(ad, "release", lambda t: None)
            view, loss = micro_batch(cfg, windows, seed=36, dtype=dtype, slope=slope)
            ad.backward(loss)
        return [loss.data.tobytes()] + [b"" if p.grad is None else p.grad.tobytes() for p in view.parameters()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.25, 1.7], ids=["max", "min"])
    @pytest.mark.parametrize("windows", [1, 4])
    def test_reduced_config_bit_exact(self, monkeypatch, dtype, slope, windows):
        runs = [self.loss_and_gradients(monkeypatch, release, reduced_config(), windows, dtype, slope) for release in (False, True)]
        assert runs[0] == runs[1]

    def test_paper_size_window_bit_exact(self, monkeypatch):
        runs = [self.loss_and_gradients(monkeypatch, release, ModelConfig(), 1, np.float32, 1.7) for release in (False, True)]
        assert runs[0] == runs[1]

    def test_a_frozen_forward_attaches_no_rebuild(self, monkeypatch):
        # wide enough that one window is cut into time chunks, given two usable cores
        cfg = reduced_config(enc_channels=256, bottleneck_channels=160, block_channels=256, blocks_per_repeat=3)
        frozen = Checkpoint.from_model(MultiScaleTCN(cfg, seed=37)).build_model()
        outputs = []

        def recorded(*args, **kwargs):
            outputs.append(norm(*args, **kwargs))
            return outputs[-1]

        norm = ad.cumulative_layer_norm
        monkeypatch.setattr(ad, "cumulative_layer_norm", recorded)
        audio = np.random.default_rng(38).uniform(-0.5, 0.5, (2, 3 * cfg.sample_rate)).astype(np.float32)
        frozen.window_probs(audio)
        frozen.window_probs(audio[0])
        assert outputs and all(t._rebuild is None and t.data is not None for t in outputs)


def write_raw(path, header, payload: bytes):
    text = json.dumps(header).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + payload)


def split(path):
    """(header dict, payload bytes) of a checkpoint file."""
    blob = path.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(blob[len(CHECKPOINT_MAGIC) : start], "little")
    return json.loads(blob[start:end]), blob[end:]


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(tiny_config(), seed=27), metadata={"n": 1}))
    return path


class TestMalformedCheckpoint:
    """Every malformed file raises ValueError starting with its path."""

    def rejects(self, path, match):
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_trailing_payload_bytes(self, tiny_ckpt, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(tiny_ckpt.read_bytes() + b"\x00\x00\x00\x00")
        self.rejects(path, "tensors cover .* payload bytes, but the file holds")

    def test_truncated_payload(self, tiny_ckpt, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(tiny_ckpt.read_bytes()[:-1])
        self.rejects(path, "payload bytes, but the file holds")

    def test_missing_tensors_key(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        del header["tensors"]
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, "header has no list 'tensors'")

    def test_tensor_entry_without_offset(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        del header["tensors"][0]["offset"]
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, "tensor entry has no int 'offset'")

    def test_header_length_beyond_file(self, tiny_ckpt, tmp_path):
        blob = tiny_ckpt.read_bytes()
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + (2**62).to_bytes(8, "little") + blob[len(CHECKPOINT_MAGIC) + 8 :])
        self.rejects(path, f"header length {2**62} exceeds")

    def test_file_ends_inside_header_length(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")
        self.rejects(path, "header length")

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + (3).to_bytes(8, "little") + b"{\xff}")
        self.rejects(path, "not UTF-8 JSON")

    def test_deeply_nested_header(self, tmp_path):
        # json's decoder recurses once per level and raises RecursionError, not ValueError
        header = b"[" * 100_000
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        self.rejects(path, "not UTF-8 JSON .*recursion")

    def test_shape_disagrees_with_nbytes(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        header["tensors"][0]["shape"] = [6, 8]
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, r"encoder.weight has nbytes 384, but shape \[6, 8\] needs 192")

    def test_overlapping_ranges(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        header["tensors"][1]["offset"] -= 4
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, "starts at payload byte")

    def test_wrong_shape_for_config(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        header["tensors"][0]["shape"] = [16, 6]  # same bytes, transposed
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, r"encoder.weight has shape \(16, 6\), expected \(6, 16\)")

    def test_names_disagree_with_config(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        header["tensors"][0]["name"] = "encoder.kernel"
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, r"missing \['encoder.weight'\], unexpected \['encoder.kernel'\]")

    def test_config_with_more_blocks_than_tensors(self, tiny_ckpt, tmp_path):
        header, payload = split(tiny_ckpt)
        header["config"]["repeats"] = 10**12
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, "conv blocks but the file holds")

    @pytest.mark.parametrize("key,value,match", [
        ("threshold", 1.5, "threshold must lie"),
        ("threshold", "high", "bad model config"),
        # the network left the config's context; a header that still has it is rejected, whatever its value
        *[("context", value, "unknown model config key 'context'") for value in ("window", "offline", "stream")],
        ("norm_mode", "cLN", "unknown model config key 'norm_mode'"),
        ("causal", True, "unknown model config key 'causal'"),
        ("repeats", True, "repeats must be a positive integer, got True"),
    ])
    def test_invalid_config_value(self, tiny_ckpt, tmp_path, key, value, match):
        header, payload = split(tiny_ckpt)
        header["config"][key] = value
        path = tmp_path / "c.ckpt"
        write_raw(path, header, payload)
        self.rejects(path, match)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_or_flipped_file_loads_or_names_the_path(self, tiny_ckpt, tmp_path_factory, data):
        blob = bytearray(tiny_ckpt.read_bytes())
        start = len(CHECKPOINT_MAGIC) + 8
        header_end = start + int.from_bytes(blob[len(CHECKPOINT_MAGIC) : start], "little")
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob)), label="length")]
        else:
            blob[data.draw(st.integers(0, header_end - 1), label="at")] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path_factory.mktemp("prop") / "c.ckpt"
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")


class TestGradientFlow:
    def test_training_signal_reaches_all_live_parameters(self):
        # the final block's residual output feeds nothing (only its skip is
        # consumed), so its residual conv is the one legitimately dead spot
        model = MultiScaleTCN(tiny_config(), seed=26)
        rng = np.random.default_rng(20)
        audio = rng.standard_normal((2, 80)).astype(np.float32)
        probs = model.window_probs(audio)
        loss = ad.binary_cross_entropy(probs, np.array([[1.0, 0.0], [0.0, 1.0]]))
        ad.backward(loss)
        last = f"block.{model.config.repeats - 1}.{model.config.blocks_per_repeat - 1}.res_conv"
        missing = [n for n, p in model.params.items() if p.grad is None]
        assert sorted(missing) == [f"{last}.bias", f"{last}.weight"]

    def test_last_layer_mode_reads_only_the_final_skip_conv(self):
        # skip convs whose pooled output nothing reads are not computed, so get no gradient
        model = MultiScaleTCN(tiny_config(features_mode="last_layer"), seed=27)
        audio = np.random.default_rng(22).standard_normal((2, 80)).astype(np.float32)
        ad.backward(ad.binary_cross_entropy(model.window_probs(audio), np.array([[1.0, 0.0], [0.0, 1.0]])))
        c = model.config
        blocks = [(r, m) for r in range(c.repeats) for m in range(c.blocks_per_repeat)]
        expected = [f"block.{r}.{m}.skip_conv.{k}" for r, m in blocks[:-1] for k in ("bias", "weight")]
        expected += [f"block.{r}.{m}.res_conv.{k}" for r, m in blocks[-1:] for k in ("bias", "weight")]
        assert sorted(n for n, p in model.params.items() if p.grad is None) == sorted(expected)
