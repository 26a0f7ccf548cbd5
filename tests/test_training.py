"""Training/eval tests: window labels, metrics oracle, early stopping, determinism."""

import numpy as np
import pytest

from classvoice import autodiff as ad
from classvoice.autodiff import AdamState, adam_step, binary_cross_entropy, zero_grads
from classvoice.model import CATEGORY_ORDER, Category, ModelConfig, MultiScaleTCN
from classvoice.simulate import SceneGrid, generate_dataset, Corpora, write_synthetic_corpus
from classvoice.training import (
    EvalReport,
    TrainConfig,
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
        ],
        ids=["no-wav", "no-labels", "not-an-object", "bad-sample-rate"],
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


class TestTrainLoop:
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
            zero_grads(params)
            loss = binary_cross_entropy(model.window_probs(xs), ys)
            losses.append(loss.item())
            ad.backward(loss)
            grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]
            adam_step(params, grads, state, lr=1e-3)
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-7), f"loss increased at steps {np.nonzero(diffs > 1e-7)[0]}"
        assert losses[-1] < losses[0]


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
