"""Learning gate: the seeded simulate -> train -> evaluate pipeline learns all four categories.

    python3 -m pytest gates -q

About a minute on two cores: ~20 s to simulate an 800 Hz 12/3/3 dataset
and ~30 s to train a small network for 30 epochs. It is kept out of tier-1 (pytest's
``testpaths`` is ``tests/``). Parity tests show that an optimisation
computes the same function; this gate shows that gradients through it
still train. It fails if any category's test-set precision or recall,
as ``EvalReport`` reports them, drops below 80%.
"""

import pytest

from classvoice.model import CATEGORY_ORDER, ModelConfig
from classvoice.simulate import Corpora, SceneGrid, generate_dataset, write_synthetic_corpus
from classvoice.training import EvalReport, TrainConfig, evaluate, train

FS = 800
GATE_PERCENT = 80.0

SMALL = ModelConfig(
    frame_len=40,
    frame_stride=20,
    enc_channels=32,
    bottleneck_channels=16,
    block_channels=32,
    skip_channels=16,
    blocks_per_repeat=4,
    repeats=2,
    hidden1=64,
    hidden2=64,
    sample_rate=FS,
)
RECIPE = TrainConfig(epochs=30, lr_start=1e-3, lr_end=1e-4, batch_size=16, window_hop_seconds=0.25, seed=0)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("learning")
    write_synthetic_corpus(root / "e", count=4, seconds=4.0, sample_rate=FS, seed=1, f0_range=(90.0, 120.0))
    write_synthetic_corpus(root / "a", count=4, seconds=4.0, sample_rate=FS, seed=2, f0_range=(150.0, 200.0))
    write_synthetic_corpus(root / "n", count=4, seconds=4.0, sample_rate=FS, seed=3, kind="noise")
    corpora = Corpora.from_dirs(root / "e", root / "a", root / "n", sample_rate=FS)
    return generate_dataset(corpora, SceneGrid(), (12, 3, 3), root / "ds", seed=5, sample_rate=FS)


def test_every_category_reaches_80_percent(dataset):
    checkpoint, history = train(SMALL, RECIPE, dataset["train"], dataset["valid"])
    report: EvalReport = evaluate(checkpoint, dataset["test"])
    print(f"\nvalid loss {history[0].valid_loss:.3f} -> {checkpoint.metadata['best_valid_loss']:.3f}")
    print(report.render_text())
    for category in CATEGORY_ORDER:
        name = category.name.capitalize()
        recall, precision = report.recall(category), report.precision(category)
        assert recall is not None and recall >= GATE_PERCENT, f"{name} recall {recall}"
        assert precision is not None and precision >= GATE_PERCENT, f"{name} precision {precision}"
