"""Training/eval tests: window labels, metrics oracle, early stopping, determinism."""

import json
import math
import re
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classvoice import autodiff as ad
from classvoice import cores, training
from classvoice.autodiff import AdamState, NonFiniteError, adam_step, binary_cross_entropy, zero_grads
from classvoice.model import CATEGORY_ORDER, Category, ModelConfig, MultiScaleTCN, reduced_config, save_checkpoint
from classvoice.simulate import SceneGrid, generate_dataset, Corpora, write_synthetic_corpus
from classvoice.training import (
    MICRO_BATCH_WINDOWS,
    EvalReport,
    TrainConfig,
    TrainingDivergedError,
    batch_gradients,
    evaluate,
    load_sample,
    parse_labels,
    read_manifest,
    train,
    window_label,
)

FS_TINY = 800


def tiny_model_config(**over):
    base = dict(
        frame_len=40,
        frame_stride=20,
        enc_channels=8,
        bottleneck_channels=4,
        skip_channels=4,
        block_channels=8,
        kernel_size=3,
        blocks_per_repeat=2,
        repeats=1,
        hidden1=8,
        hidden2=8,
        sample_rate=FS_TINY,
    )
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A 4/2/2-sample dataset at 800 Hz for fast training tests."""
    root = tmp_path_factory.mktemp("tinyds")
    write_synthetic_corpus(root / "e", count=2, seconds=4.0, sample_rate=FS_TINY, seed=1, f0_range=(90.0, 120.0))
    write_synthetic_corpus(root / "a", count=2, seconds=4.0, sample_rate=FS_TINY, seed=2, f0_range=(150.0, 200.0))
    write_synthetic_corpus(root / "n", count=2, seconds=4.0, sample_rate=FS_TINY, seed=3, kind="noise")
    corpora = Corpora.from_dirs(root / "e", root / "a", root / "n", sample_rate=FS_TINY)
    manifests = generate_dataset(corpora, SceneGrid(), (4, 2, 2), root / "ds", seed=5, sample_rate=FS_TINY)
    return manifests


class TestTrainConfig:
    def test_defaults_match_training_recipe(self):
        c = TrainConfig()
        assert (c.epochs, c.patience) == (150, 10)
        assert (c.lr_start, c.lr_end) == (1e-5, 1e-8)

    def test_validation(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(epochs=5, patience=5)
        with pytest.raises(ValueError, match="window_hop_seconds"):
            TrainConfig(window_hop_seconds=0)

    @pytest.mark.parametrize("hop", [-0.1, 0.0, 1e-9, math.nan, math.inf])
    def test_bad_window_hop_rejected_naming_it(self, tiny_dataset, hop):
        # TrainConfig rejects what is not finite and positive; train() what rounds below one sample
        with pytest.raises(ValueError, match=re.escape(repr(hop))):
            train(tiny_model_config(), TrainConfig(epochs=2, patience=1, window_hop_seconds=hop),
                  tiny_dataset["train"], tiny_dataset["valid"])

    @pytest.mark.parametrize("name,value", [
        ("batch_size", True), ("batch_size", 2.5), ("epochs", True), ("patience", 2.0), ("seed", False), ("seed", "0"),
    ])
    def test_integer_fields_reject_bools_and_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})

    # a negative seed would otherwise fail only once training seeds numpy, naming nothing
    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig) if type(f.default) is int])
    def test_every_int_field_rejects_bool_and_negative_by_name(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
            TrainConfig(**{name: True})
        with pytest.raises(ValueError, match=f"^{name} must .*, got -1$"):
            TrainConfig(**{name: -1})

    @pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["lr_start", "lr_end"])
    def test_learning_rates_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            TrainConfig(**{name: value})


class TestWindowLabel:
    def test_category_mapping(self, tiny_dataset):
        sample = load_sample(read_manifest(tiny_dataset["train"])[0])
        for cat, start, end in sample.segments:
            np.testing.assert_array_equal(
                window_label(sample, (start + end) // 2), [cat.assistant_bit, cat.expert_bit]
            )

    def test_boundary_belongs_to_later_segment(self, tiny_dataset):
        sample = load_sample(read_manifest(tiny_dataset["train"])[0])
        cat, boundary, _ = sample.segments[1]  # exactly on the first boundary
        np.testing.assert_array_equal(window_label(sample, boundary), [cat.assistant_bit, cat.expert_bit])

    def test_out_of_range_rejected(self, tiny_dataset):
        sample = load_sample(read_manifest(tiny_dataset["train"])[0])
        with pytest.raises(ValueError, match="outside"):
            window_label(sample, len(sample.audio))
        with pytest.raises(ValueError, match="outside"):
            window_label(sample, -1)


def precision_recall(preds, labels, category):
    """EvalReport's one-vs-rest precision and recall, as fractions, for paired decision lists."""
    confusion = np.zeros((4, 4), dtype=np.int64)
    for pred, truth in zip(preds, labels):
        confusion[CATEGORY_ORDER.index(truth), CATEGORY_ORDER.index(pred)] += 1
    report = EvalReport(confusion=confusion, decisions=len(preds))
    return tuple(None if v is None else v / 100.0 for v in (report.precision(category), report.recall(category)))


class TestPrecisionRecall:
    def test_hand_counted_example(self):
        a, e = Category.ASSISTANT, Category.EXPERT
        preds = [a, a, e]
        labels = [a, e, e]
        precision, recall = precision_recall(preds, labels, a)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(1.0)

    def test_perfect_predictions(self):
        rng = np.random.default_rng(0)
        labels = [CATEGORY_ORDER[i] for i in rng.integers(0, 4, size=50)]
        for cat in set(labels):
            precision, recall = precision_recall(labels, labels, cat)
            assert precision == 1.0 and recall == 1.0

    def test_matches_confusion_matrix_oracle(self):
        def oracle(preds, labels, cls):
            counts = {}
            for p, t in zip(preds, labels):
                counts[(t, p)] = counts.get((t, p), 0) + 1
            tp = counts.get((cls, cls), 0)
            fp = sum(v for (t, p), v in counts.items() if p is cls and t is not cls)
            fn = sum(v for (t, p), v in counts.items() if t is cls and p is not cls)
            return (
                tp / (tp + fp) if tp + fp else None,
                tp / (tp + fn) if tp + fn else None,
            )

        rng = np.random.default_rng(1)
        for case in range(100):
            n = int(rng.integers(1, 40))
            preds = [CATEGORY_ORDER[i] for i in rng.integers(0, 4, size=n)]
            labels = [CATEGORY_ORDER[i] for i in rng.integers(0, 4, size=n)]
            for cat in CATEGORY_ORDER:
                got, want = precision_recall(preds, labels, cat), oracle(preds, labels, cat)
                assert [g is None for g in got] == [w is None for w in want], f"case {case} class {cat}"
                assert [g for g in got if g is not None] == pytest.approx(
                    [w for w in want if w is not None], rel=1e-12
                ), f"case {case} class {cat}"

    def test_absent_class_is_none_not_zero(self):
        preds = [Category.BACKGROUND] * 4
        labels = [Category.BACKGROUND] * 4
        precision, recall = precision_recall(preds, labels, Category.MIXTURE)
        assert precision is None and recall is None


class TestMalformedInput:
    @pytest.mark.parametrize(
        "record,message",
        [
            ('{"labels": "x.labels"}', "needs a 'wav' path string"),
            ('{"wav": "x.wav"}', "needs a 'labels' path string"),
            ('["x.wav", "x.labels"]', "must be a JSON object"),
            ('{"wav": "x.wav", "labels": "x.labels", "sample_rate": "fast"}', "invalid manifest record"),
            ('{"wav": "x.wav", "labels": "x.labels", "sample_rate": true}', "sample_rate True is not a positive integer"),
            ('{"wav": "x.wav", "labels": "x.labels", "sample_rate": 0}', "sample_rate 0 is not a positive integer"),
            ('{"wav": "x.wav", "labels": "x.labels", "peak_scale": NaN}', "peak_scale nan is not finite and positive"),
            ('{"wav": "x.wav", "labels": "x.labels", "sample_rate": ' + "1" * 5000 + "}", "invalid manifest record"),
            ("[" * 100_000, "invalid manifest record"),
        ],
        ids=["no-wav", "no-labels", "not-an-object", "bad-sample-rate", "bool-sample-rate", "zero-sample-rate",
             "nan-peak-scale", "long-integer", "deep-nesting"],
    )
    def test_manifest_record_error_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "m.jsonl"
        path.write_text('{"wav": "a.wav", "labels": "a.labels"}\n\n' + record + "\n")
        with pytest.raises(ValueError, match=f"m.jsonl:3: .*{message}"):
            read_manifest(path)

    @pytest.mark.parametrize(
        "line", ["0,9600", "0,9600,01,extra", "0,9600,12", "zero,9600,01"], ids=["two-fields", "four-fields", "bad-category", "bad-start"]
    )
    def test_label_line_error_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "s.labels"
        path.write_text("0,9600,00\n" + line + "\n")
        with pytest.raises(ValueError, match=r"s\.labels:2: expected 'start,end,category'"):
            parse_labels(path)

    def test_labels_that_do_not_tile_the_audio_name_the_files(self, tiny_dataset, tmp_path):
        record = read_manifest(tiny_dataset["train"])[0]
        labels = tmp_path / "s.labels"
        labels.write_text("\n".join(record.labels.read_text().splitlines()[:3]) + "\n")
        with pytest.raises(ValueError, match="expected four segments, got 3") as info:
            load_sample(replace(record, labels=labels))
        assert str(info.value).startswith(f"{labels}: ") and str(record.wav) in str(info.value)


RECORD = {"wav": "a.wav", "labels": "a.labels", "sample_rate": 800, "peak_scale": 0.5}
ANY_JSON_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-5, 10**6), st.floats(), st.text(max_size=4))


class TestMalformedInputProperties:
    """Manifests and label files parse, or raise ValueError starting with their path."""

    @given(truncate=st.booleans(), length=st.integers(0, 10**3), at=st.integers(0, 10**3), mask=st.integers(1, 255))
    @settings(max_examples=200, deadline=None)
    def test_truncated_or_flipped_manifest_loads_or_names_the_file(self, tmp_path_factory, truncate, length, at, mask):
        blob = bytearray("".join(json.dumps(r) + "\n" for r in (RECORD, {**RECORD, "scene": {"t60": 0.4}})).encode())
        if truncate:
            blob = blob[: length % (len(blob) + 1)]
        else:
            blob[at % len(blob)] ^= mask
        path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
        path.write_bytes(bytes(blob))
        try:
            records = read_manifest(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(r.sample_rate >= 1 and 0 < r.peak_scale < math.inf for r in records)

    @given(sample_rate=ANY_JSON_SCALAR, peak_scale=ANY_JSON_SCALAR)
    @settings(max_examples=200, deadline=None)
    def test_numeric_fields_load_only_when_valid(self, tmp_path_factory, sample_rate, peak_scale):
        path = tmp_path_factory.mktemp("manifest") / "m.jsonl"
        path.write_text(json.dumps({**RECORD, "sample_rate": sample_rate, "peak_scale": peak_scale}) + "\n")
        rate_ok = type(sample_rate) is int and sample_rate > 0
        scale_ok = type(peak_scale) in (int, float) and 0 < peak_scale < math.inf
        if rate_ok and scale_ok:
            [record] = read_manifest(path)
            assert (record.sample_rate, record.peak_scale) == (sample_rate, peak_scale)
        else:
            with pytest.raises(ValueError) as info:
                read_manifest(path)
            assert str(info.value).startswith(f"{path}:1: invalid manifest record")

    @given(blob=st.binary(max_size=64) | st.text("0123456789,+- \n\r_", max_size=40).map(str.encode))
    @settings(max_examples=200, deadline=None)
    def test_any_labels_bytes_parse_or_name_the_file(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("labels") / "s.labels"
        path.write_bytes(blob)
        try:
            segments = parse_labels(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:")
        else:
            assert all(isinstance(c, Category) and type(a) is int and type(b) is int for c, a, b in segments)


class TestTrainLoop:
    # the exploding weights overflow float32, and numpy warns (overflow, or
    # invalid for inf - inf) before the op's output is rejected
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("batch_size,where", [
        (8, r"training forward on windows 0\.\.3 of the batch at epoch 0, window \d+"),  # a later step of epoch 0
        (128, "validation forward at epoch 0"),  # one step per epoch: validation is the next forward
    ], ids=["training", "validation"])
    def test_divergence_names_epoch_window_and_lr(self, tiny_dataset, batch_size, where):
        cfg = TrainConfig(epochs=3, patience=1, lr_start=1e38, lr_end=1e38, batch_size=batch_size)
        with pytest.raises(TrainingDivergedError, match=rf"^non-finite {where} \(lr=1e\+38\)$"):
            train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])

    def test_sample_rate_mismatch_names_the_wav(self, tiny_dataset):
        wav = read_manifest(tiny_dataset["train"])[0].wav
        with pytest.raises(ValueError, match=rf"^{re.escape(str(wav))}: sample rate 800 does not match model \(16000\)$"):
            train(tiny_model_config(sample_rate=16000), TrainConfig(epochs=2, patience=1), tiny_dataset["train"], tiny_dataset["valid"])

    def test_negligible_lr_stops_after_patience(self, tiny_dataset):
        # constant validation loss never strictly improves after epoch 0,
        # so training runs exactly patience+1 epochs
        cfg = TrainConfig(epochs=50, patience=10, lr_start=1e-30, lr_end=1e-30, seed=0,
                          window_hop_seconds=1.5, batch_size=16)
        _, history = train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        assert len(history) == 11

    def test_lr_endpoints_recorded(self, tiny_dataset):
        cfg = TrainConfig(epochs=4, patience=3, lr_start=1e-5, lr_end=1e-8, seed=0,
                          window_hop_seconds=1.5, batch_size=16)
        _, history = train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        if len(history) == 4:  # ran to completion
            assert history[0].lr == pytest.approx(1e-5, rel=1e-12)
            assert history[-1].lr == pytest.approx(1e-8, rel=1e-9)
        else:
            assert history[0].lr == pytest.approx(1e-5, rel=1e-12)

    def test_best_checkpoint_dominates_history(self, tiny_dataset):
        cfg = TrainConfig(epochs=6, patience=5, lr_start=1e-3, lr_end=1e-4, seed=1,
                          window_hop_seconds=1.5, batch_size=16)
        ckpt, history = train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        best = ckpt.metadata["best_valid_loss"]
        assert best <= min(h.valid_loss for h in history) + 1e-12

    def test_fixed_seed_reproduces_history(self, tiny_dataset):
        cfg = TrainConfig(epochs=3, patience=2, lr_start=1e-3, lr_end=1e-3, seed=7,
                          window_hop_seconds=1.5, batch_size=16)
        _, h1 = train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        _, h2 = train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        assert h1 == h2

    def test_repeated_batch_loss_non_increasing(self, tiny_dataset):
        # gradient/optimizer sanity: 50 fixed-LR steps on one repeated batch
        sample = load_sample(read_manifest(tiny_dataset["train"])[0])
        model = MultiScaleTCN(tiny_model_config(), seed=3)
        win = 3 * FS_TINY
        xs = np.stack([sample.audio[i * win : (i + 1) * win] for i in range(4)])
        ys = np.array(
            [[c.assistant_bit, c.expert_bit] for c, _, _ in sample.segments], dtype=np.float32
        )
        params = model.parameters()
        state = AdamState.for_params(params)
        losses = []
        for _ in range(50):
            loss, grads = batch_gradients(model, xs, ys)
            losses.append(loss)
            adam_step(params, grads, state, lr=1e-3)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-7), f"loss increased at steps {np.nonzero(diffs > 1e-7)[0]}"
        assert losses[-1] < losses[0]


class TestValidationPerCore:
    CONFIG = TrainConfig(epochs=2, patience=1, lr_start=1e-3, lr_end=1e-4, seed=3, batch_size=16)

    def test_history_and_checkpoint_match_one_worker_bit_for_bit(self, tiny_dataset, monkeypatch, tmp_path):
        runs = []
        for workers in (1, 2):  # 38 validation windows: 5 batches, more than the workers
            monkeypatch.setattr(cores, "worker_count", lambda: workers)
            checkpoint, history = train(tiny_model_config(), self.CONFIG, tiny_dataset["train"], tiny_dataset["valid"])
            path = tmp_path / f"{workers}.ckpt"
            save_checkpoint(path, checkpoint)
            runs.append(([h.line() for h in history], path.read_bytes()))
        assert runs[0] == runs[1]

    def test_helper_non_finite_error_names_the_epoch(self, tiny_dataset, monkeypatch, blas_pin):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        caller = threading.get_ident()
        raised = threading.Event()
        forward = MultiScaleTCN.window_probs

        def window_probs(model, audio):
            if not any(p.requires_grad for p in model.params.values()):  # validation; training runs on helpers too
                if threading.get_ident() != caller:
                    raised.set()
                    raise NonFiniteError("injected in a helper thread")
                assert raised.wait(timeout=60)  # a helper takes a batch first
            return forward(model, audio)

        monkeypatch.setattr(MultiScaleTCN, "window_probs", window_probs)
        with pytest.raises(TrainingDivergedError, match=r"^non-finite validation forward at epoch 0 \(lr=0\.001\)$"):
            train(tiny_model_config(), self.CONFIG, tiny_dataset["train"], tiny_dataset["valid"])
        assert raised.is_set()


def whole_batch_gradients(model, xs, ys):
    """Loss and per-parameter gradient of one graph over the whole batch."""
    params = model.parameters()
    zero_grads(params)
    loss = binary_cross_entropy(model.window_probs(xs), ys)
    value = loss.item()
    ad.backward(loss)
    return value, [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]


class TestMicroBatches:
    # float32 rounding bound: the micro-batched and the whole-batch float32
    # gradients were both 1.1e-6 to 6.4e-6 from the float64 oracle (seeds 11-13);
    # dividing a micro-batch by its own row count instead would be ~0.3 off
    REL = 2e-5

    def test_step_gradient_matches_float64_whole_batch_oracle(self, tiny_dataset, monkeypatch):
        sample = load_sample(read_manifest(tiny_dataset["train"])[0])
        win, hop = 3 * FS_TINY, FS_TINY // 2
        n = 2 * MICRO_BATCH_WINDOWS + 3  # two full micro-batches and a ragged one
        xs = np.stack([sample.audio[i * hop : i * hop + win] for i in range(n)])
        ys = np.stack([window_label(sample, i * hop + win // 2) for i in range(n)])
        model = MultiScaleTCN(tiny_model_config(), seed=11)
        arrays = {name: p.data.astype(np.float64) for name, p in model.params.items()}
        oracle = MultiScaleTCN._frozen(model.config, arrays)
        for p in oracle.parameters():
            p.requires_grad = True
        want_loss, want = whole_batch_gradients(oracle, xs, ys)
        whole_loss, whole = whole_batch_gradients(model, xs, ys)

        rows = []
        forward = MultiScaleTCN.window_probs
        monkeypatch.setattr(MultiScaleTCN, "window_probs", lambda m, x: rows.append(len(x)) or forward(m, x))
        loss, grads = batch_gradients(model, xs, ys)
        assert sorted(rows, reverse=True) == [MICRO_BATCH_WINDOWS, MICRO_BATCH_WINDOWS, 3]  # in any order: one per core

        scale = max(float(np.abs(g).max()) for g in want)
        for got_loss, got in ((loss, grads), (whole_loss, whole)):
            assert got_loss == pytest.approx(want_loss, rel=self.REL)
            for name, g, w in zip(model.params, got, want):
                assert g.dtype == np.float32
                err = float(np.abs(g - w).max()) / max(float(np.abs(w).max()), 1e-3 * scale)
                assert err <= self.REL, f"{name}: relative error {err:.3g}"

    def test_gradient_bits_do_not_depend_on_the_core_count(self, monkeypatch, blas_pin):
        # at reduced_config() and 16 kHz, 2 BLAS threads give other gradient
        # bits than one; the 800 Hz tiny config does not show it
        rng = np.random.default_rng(12)
        n = 2 * MICRO_BATCH_WINDOWS + 3  # one ragged micro-batch
        xs = (0.1 * rng.standard_normal((n, 3 * 16000))).astype(np.float32)
        ys = rng.integers(0, 2, size=(n, 2)).astype(np.float32)
        model = MultiScaleTCN(reduced_config(), seed=5)

        # reference: the micro-batches one after another, with BLAS at one thread
        params = model.parameters()
        zero_grads(params)
        with blas_pin:
            losses = []
            for start in range(0, n, MICRO_BATCH_WINDOWS):
                stop = start + MICRO_BATCH_WINDOWS
                loss = binary_cross_entropy(model.window_probs(xs[start:stop]), ys[start:stop], n)
                ad.backward(loss)
                losses.append(loss.item())
        want = [np.zeros_like(p.data) if p.grad is None else p.grad for p in params]
        want_loss = sum(losses)

        assert blas_pin.get_threads() == 2
        for workers in (1, 2):
            monkeypatch.setattr(cores, "worker_count", lambda: workers)
            loss, grads = batch_gradients(model, xs, ys)
            assert loss == want_loss, workers
            for name, g, w in zip(model.params, grads, want):
                assert np.array_equal(g, w), f"{name} on {workers} workers"
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0

    @pytest.mark.parametrize("workers", [2, 3])
    def test_helper_divergence_names_its_micro_batch_epoch_and_lr(self, tiny_dataset, monkeypatch, blas_pin, workers):
        monkeypatch.setattr(cores, "worker_count", lambda: workers)
        caller = threading.get_ident()
        injected = threading.Event()
        batches, helper_rows = [], []
        forward, gradients = MultiScaleTCN.window_probs, training.batch_gradients

        def window_probs(model, audio):
            if any(p.requires_grad for p in model.params.values()):  # training
                if threading.get_ident() != caller:
                    helper_rows.append(audio[0].copy())
                    injected.set()
                    audio = audio.copy()
                    audio[-1, -1] = np.nan
                else:
                    assert injected.wait(timeout=60)  # a helper takes a micro-batch first
            return forward(model, audio)

        monkeypatch.setattr(MultiScaleTCN, "window_probs", window_probs)
        monkeypatch.setattr(training, "batch_gradients", lambda m, xs, ys: batches.append(xs) or gradients(m, xs, ys))
        cfg = TrainConfig(epochs=2, patience=1, lr_start=1e-3, lr_end=1e-4, seed=3, batch_size=16)
        with pytest.raises(TrainingDivergedError) as info:
            train(tiny_model_config(), cfg, tiny_dataset["train"], tiny_dataset["valid"])
        assert len(batches) == 1
        # the earliest micro-batch a helper ran; every earlier one ran on the caller and was finite
        start = min(
            next(i for i, x in enumerate(batches[0]) if np.array_equal(x, row)) for row in helper_rows
        )
        assert start % MICRO_BATCH_WINDOWS == 0
        stop = start + MICRO_BATCH_WINDOWS - 1
        assert str(info.value) == (
            f"non-finite training forward on windows {start}..{stop} of the batch at epoch 0, window 0 (lr=0.001)"
        )


class TestEvaluate:
    def test_degenerate_model_recalls_background_only(self, tiny_dataset):
        model = MultiScaleTCN(tiny_model_config(), seed=4)
        model.params["classifier.fc3.weight"].data[...] = 0
        model.params["classifier.fc3.bias"].data[...] = 0
        report = evaluate(model, tiny_dataset["test"], hop_seconds=0.5)
        assert report.recall(Category.BACKGROUND) == pytest.approx(100.0)
        for cat in (Category.EXPERT, Category.ASSISTANT, Category.MIXTURE):
            assert report.recall(cat) == 0.0
            assert report.precision(cat) is None

    def test_report_shape_and_consistency(self, tiny_dataset):
        model = MultiScaleTCN(tiny_model_config(), seed=5)
        report = evaluate(model, tiny_dataset["test"], hop_seconds=0.5)
        text = report.render_text()
        for name in ("Background", "Expert", "Assistant", "Mixture", "Rec.", "Pre."):
            assert name in text
        d = report.to_dict()
        assert report.confusion.sum() == report.decisions == d["decisions"]
        # row sums = per-class truth counts; 24 slots per 12 s sample at 0.5 s hop
        assert report.confusion.sum(axis=1).tolist() == [6 * 2] * 4

    def test_sample_rate_mismatch_rejected(self, tiny_dataset):
        model = MultiScaleTCN(tiny_model_config(sample_rate=16000), seed=6)
        with pytest.raises(ValueError, match="sample rate"):
            evaluate(model, tiny_dataset["test"])
