"""Self-test of the benchmark at toy sizes (about half a minute).

    python3 -m pytest bench -q

Each workload runs traced at a toy size; the test checks that every
metric BENCHMARK.json names is emitted and that a corrupted reference
shows up as failed checks.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import workloads
from classvoice import model

pytestmark = pytest.mark.bench

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TOY = {
    "stream_paper": workloads.StreamSize(config=model.reduced_config(), min_decisions=12, scenes=1, setups=1),
    "train_reduced": workloads.TrainSize(counts=(1, 1, 1), jobs=1, setups=1),
    "simulate_16k": workloads.SimSize(t60_mix=(0.4,), counts=(1, 0, 0), jobs=1, setups=1),
}


def run_toy(name, tmp_path, seed=3):
    return workloads.WORKLOADS[name](seed, 0.0, True, tmp_path, TOY[name])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)


@pytest.mark.parametrize("name", list(TOY))
def test_every_listed_metric_is_emitted(name, tmp_path):
    result = run_toy(name, tmp_path)
    assert result.checks.attempted > 0 and result.checks.failed == 0, result.checks.failures
    for kind in ("end_to_end", "per_layer"):
        emitted = getattr(result, kind)
        assert set(emitted) == {m["name"] for m in SPEC[kind]}
        for metric in SPEC[kind]:
            value, unit = emitted[metric["name"]]
            assert unit == metric["unit"] and np.isfinite(value)
    assert result.figures["ops_failed_ratio"][0] == 0


def test_corrupted_oracle_fails_stream_checks(tmp_path, monkeypatch):
    honest = workloads.float64_oracle

    def corrupted(served):
        oracle = honest(served)
        oracle.params["classifier.fc3.bias"].data += 0.01
        return oracle

    monkeypatch.setattr(workloads, "float64_oracle", corrupted)
    result = run_toy("stream_paper", tmp_path)
    assert result.figures["ops_failed_ratio"][0] > 0


def test_corrupted_digest_fails_simulate_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "recorded_digests", lambda size: {"3": {"wav": "0" * 64}})
    result = run_toy("simulate_16k", tmp_path)
    assert result.figures["ops_failed_ratio"][0] > 0
