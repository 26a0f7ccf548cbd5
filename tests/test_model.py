"""Network architecture tests: shapes, causality, locality, decoding, checkpoints."""

import numpy as np
import pytest

from classvoice import autodiff as ad
from classvoice.autodiff import ShapeError, Tensor
from classvoice.model import (
    CATEGORY_ORDER,
    NUM_CLASSES,
    Category,
    Checkpoint,
    ModelConfig,
    MultiScaleTCN,
    decode,
    load_checkpoint,
    param_count,
    receptive_field,
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
        with pytest.raises(ValueError, match="norm_mode"):
            ModelConfig(norm_mode="batch")
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(repeats=0)

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
        batched = model.encode(audio)
        for i in range(3):
            np.testing.assert_allclose(batched.data[i], model.encode(audio[i]).data, atol=1e-6)


class TestBottleneck:
    def test_channel_compression_preserves_frames(self):
        model = MultiScaleTCN(tiny_config(), seed=4)
        w = model.encode(np.random.default_rng(2).standard_normal(160).astype(np.float32))
        out = model.bottleneck(w)
        assert out.shape == (4, w.shape[-1])

    @pytest.mark.parametrize("scale", [0.5, 2.0, 100.0])
    def test_scale_invariance(self, scale):
        model = MultiScaleTCN(tiny_config(norm_mode="gLN", causal=False), seed=5)
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
        model = MultiScaleTCN(tiny_config(norm_mode="cLN"), seed=6)
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
        np.testing.assert_allclose(skip.data, np.tile(skip_bias[:, None], (1, 9)))

    def test_causal_blocks_ignore_future(self):
        model = MultiScaleTCN(tiny_config(norm_mode="none", causal=True), seed=8)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 12)).astype(np.float32)
        res0, skip0 = model.conv_block(Tensor(x), 0, 1)
        for t in (3, 7, 10):
            x2 = x.copy()
            x2[:, t + 1 :] += 1.0
            res1, skip1 = model.conv_block(Tensor(x2), 0, 1)
            assert np.array_equal(res1.data[:, : t + 1], res0.data[:, : t + 1])
            assert np.array_equal(skip1.data[:, : t + 1], skip0.data[:, : t + 1])

    def test_frame_count_preserved_all_dilations(self):
        for causal in (True, False):
            model = MultiScaleTCN(
                tiny_config(blocks_per_repeat=4, repeats=1, causal=causal), seed=9
            )
            x = Tensor(np.random.default_rng(7).standard_normal((4, 11)).astype(np.float32))
            for m in range(4):
                res, skip = model.conv_block(x, 0, m)
                assert res.shape == (4, 11)
                assert skip.shape == (3, 11)

    def test_paper_size_block_parameter_arithmetic(self):
        # weights+biases of one full-size block: (128*512+512) + (512*3+512)
        # + (512*128+128) + (512*128+128) = 199,424; +2 prelu alphas = 199,426;
        # norm gains/biases add 2*(2*512) = 2,048 on top
        convs = (128 * 512 + 512) + (512 * 3 + 512) + (512 * 128 + 128) + (512 * 128 + 128)
        assert convs + 2 == 199_426
        model = MultiScaleTCN(ModelConfig(), seed=0)
        block_total = sum(p.size for n, p in model.params.items() if n.startswith("block.0.0."))
        assert block_total == 199_426 + 2048


class TestExtract:
    def test_multiscale_channel_count(self):
        model = MultiScaleTCN(tiny_config(), seed=10)
        x = Tensor(np.random.default_rng(8).standard_normal((4, 9)).astype(np.float32))
        out = model.extract(x)
        assert out.shape == (2 * 2 * 3, 9)

    def test_single_block_equals_its_skip(self):
        model = MultiScaleTCN(tiny_config(blocks_per_repeat=1, repeats=1), seed=11)
        x = Tensor(np.random.default_rng(9).standard_normal((4, 9)).astype(np.float32))
        _, skip = model.conv_block(x, 0, 0)
        np.testing.assert_array_equal(model.extract(x).data, skip.data)

    def test_last_layer_mode(self):
        model = MultiScaleTCN(tiny_config(features_mode="last_layer"), seed=12)
        x = Tensor(np.random.default_rng(10).standard_normal((4, 9)).astype(np.float32))
        assert model.extract(x).shape == (3, 9)

    def test_locality_noncausal(self):
        # with norm disabled, a single perturbed frame can only reach
        # (receptive_field-1)/2 frames to each side
        cfg = tiny_config(
            enc_channels=6,
            bottleneck_channels=3,
            block_channels=4,
            skip_channels=2,
            blocks_per_repeat=3,
            repeats=2,
            norm_mode="none",
            causal=False,
        )
        half = (receptive_field(cfg) - 1) // 2
        t_len = 2 * half + 21
        rng = np.random.default_rng(11)
        model = MultiScaleTCN(cfg, seed=13)
        x = rng.standard_normal((3, t_len)).astype(np.float32)
        base = model.extract(Tensor(x)).data
        p = t_len // 2
        x2 = x.copy()
        x2[:, p] += 1.0
        out = model.extract(Tensor(x2)).data
        diff = np.any(out != base, axis=0)
        touched = np.nonzero(diff)[0]
        assert touched.size > 0
        assert touched.min() >= p - half
        assert touched.max() <= p + half

    def test_locality_causal(self):
        cfg = tiny_config(
            bottleneck_channels=3,
            block_channels=4,
            skip_channels=2,
            blocks_per_repeat=3,
            repeats=2,
            norm_mode="none",
            causal=True,
        )
        span = receptive_field(cfg) - 1
        t_len = span + 40
        rng = np.random.default_rng(12)
        model = MultiScaleTCN(cfg, seed=14)
        x = rng.standard_normal((3, t_len)).astype(np.float32)
        base = model.extract(Tensor(x)).data
        p = 10
        x2 = x.copy()
        x2[:, p] += 1.0
        out = model.extract(Tensor(x2)).data
        diff = np.any(out != base, axis=0)
        touched = np.nonzero(diff)[0]
        assert touched.size > 0
        assert touched.min() >= p  # never before the perturbed frame
        assert touched.max() <= p + span


class TestClassify:
    def test_zero_final_layer_gives_half(self):
        model = MultiScaleTCN(tiny_config(), seed=15)
        model.params["classifier.fc3.weight"].data[...] = 0
        model.params["classifier.fc3.bias"].data[...] = 0
        feats = Tensor(np.random.default_rng(13).standard_normal((12, 5)).astype(np.float32))
        np.testing.assert_allclose(model.classify(feats).data, [0.5, 0.5])

    def test_single_frame_pooling_identity(self):
        model = MultiScaleTCN(tiny_config(), seed=16)
        rng = np.random.default_rng(14)
        col = rng.standard_normal((12, 1)).astype(np.float32)
        np.testing.assert_allclose(
            model.classify(Tensor(col)).data,
            model.classify(Tensor(np.tile(col, (1, 7)))).data,
            rtol=1e-5,
            atol=1e-7,
        )

    def test_permutation_invariance(self):
        model = MultiScaleTCN(tiny_config(), seed=17)
        rng = np.random.default_rng(15)
        feats = rng.standard_normal((12, 9)).astype(np.float64)
        perm = rng.permutation(9)
        a = model.classify(Tensor(feats, dtype=np.float32)).data
        b = model.classify(Tensor(feats[:, perm], dtype=np.float32)).data
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
            norm_mode="none",
        )
        # encoder 1; bottleneck conv 1+1; block: in 1+1 +2 alphas + dw 1+1
        # + res 1+1 + skip 1+1; classifier 1+1 + 1+1 + 2+2
        expected = 1 + 2 + (2 + 1 + 2 + 1 + 2 + 2) + (2 + 2 + 4)
        assert param_count(c) == expected
        assert MultiScaleTCN(c, seed=0).param_count() == expected

    @pytest.mark.parametrize(
        "cfg",
        [
            ModelConfig(),
            ModelConfig(norm_mode="none"),
            ModelConfig(features_mode="last_layer"),
        ],
    )
    def test_formula_matches_enumeration(self, cfg):
        assert param_count(cfg) == MultiScaleTCN(cfg, seed=0).param_count()

    def test_tiny_formula_matches_enumeration(self):
        cfg = tiny_config()
        assert param_count(cfg) == MultiScaleTCN(cfg, seed=0).param_count()


class TestEndToEndShapes:
    def test_frame_count_preserved_through_pipeline(self):
        model = MultiScaleTCN(tiny_config(), seed=21)
        audio = np.random.default_rng(18).standard_normal(200).astype(np.float32)
        w = model.encode(audio)
        t = w.shape[-1]
        b = model.bottleneck(w)
        f = model.extract(b)
        assert b.shape[-1] == t
        assert f.shape[-1] == t
        assert f.shape[-2] == model.config.classifier_input_dim


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
