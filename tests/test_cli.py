"""CLI tests: keys derived from the config dataclasses, precedence, validation, reproducible runs."""

import json
from dataclasses import fields

import numpy as np
import pytest

from classvoice import cli
from classvoice.model import CHECKPOINT_MAGIC, Checkpoint, ModelConfig, MultiScaleTCN, reduced_config, save_checkpoint
from classvoice.simulate import SceneGrid, write_synthetic_corpus
from classvoice.training import TrainConfig
from classvoice.wavio import WavFile, write_wav

FS = 800
CLASSES = {ModelConfig: "train", TrainConfig: "train", SceneGrid: "simulate"}
# one t60 and one assistant position: two RIRs in all
SCENE_FLAGS = ["--sample-rate", str(FS), "--t60-values", "0.4", "--assistant-x-values", "2.0", "--counts", "2,1,1"]
TINY_MODEL_FLAGS = [
    "--sample-rate", str(FS), "--frame-len", "40", "--frame-stride", "20", "--enc-channels", "8",
    "--bottleneck-channels", "4", "--skip-channels", "4", "--block-channels", "8", "--blocks-per-repeat", "2",
    "--repeats", "1", "--hidden1", "8", "--hidden2", "8", "--epochs", "2", "--patience", "1", "--batch-size", "8",
]


def resolve(command, *argv):
    return cli.resolve_config(command, cli._build_parser().parse_args([command, *argv]))


def tree(root):
    """Every file under root as relative path -> bytes, run_config.json without its "out"."""
    files = {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    run_config = json.loads(files.pop("run_config.json"))
    run_config.pop("out")
    return files, run_config


@pytest.fixture(scope="module")
def corpus_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpora")
    write_synthetic_corpus(root / "e", 2, 4.0, FS, seed=1, f0_range=(90.0, 120.0))
    write_synthetic_corpus(root / "a", 2, 4.0, FS, seed=2, f0_range=(150.0, 200.0))
    write_synthetic_corpus(root / "n", 2, 4.0, FS, seed=3, kind="noise")
    return ["--expert-dir", str(root / "e"), "--assistant-dir", str(root / "a"), "--noise-dir", str(root / "n")]


@pytest.fixture(scope="module")
def runs(tmp_path_factory, corpus_dirs):
    """A simulate and a train run, each repeated from its own run_config.json with only --out changed."""
    root = tmp_path_factory.mktemp("cli_runs")
    assert cli.main(["simulate", "--out", str(root / "sim"), "--seed", "3", *corpus_dirs, *SCENE_FLAGS]) == 0
    assert cli.main(["simulate", "--config", str(root / "sim" / "run_config.json"), "--out", str(root / "sim2")]) == 0
    manifests = ["--train-manifest", str(root / "sim" / "manifest_train.jsonl"),
                 "--valid-manifest", str(root / "sim" / "manifest_valid.jsonl")]
    assert cli.main(["train", "--out", str(root / "train"), *manifests, *TINY_MODEL_FLAGS]) == 0
    assert cli.main(["train", "--config", str(root / "train" / "run_config.json"), "--out", str(root / "train2")]) == 0
    return root


class TestKeys:
    def test_each_field_is_one_flag_with_the_field_default(self):
        for cls, command in CLASSES.items():
            for f in fields(cls):
                keys = [k for k in cli.KEYS if k.name == f.name.replace("_", "-")]
                assert len(keys) == 1, f.name
                assert keys[0].default == f.default and command in keys[0].commands, f.name
            assert cli._build(cls, {k.name: k.default for k in cli.KEYS}) == cls()

    def test_key_names_are_unique(self):
        names = [k.name for k in cli.KEYS]
        assert len(names) == len(set(names))

    def test_shared_keys(self):
        cfg = resolve("simulate", "--out", "o", "--expert-dir", "e", "--assistant-dir", "a",
                      "--noise-dir", "n", "--seed", "9", "--sample-rate", "8000")
        assert (cfg["seed"], cfg["sample-rate"]) == (9, 8000)


class TestConfigResolution:
    def test_defaults_then_file_then_flags(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": 5, "patience": 2}))
        cfg = resolve("train", "--config", str(path), "--epochs", "7", "--out", "o",
                      "--train-manifest", "t", "--valid-manifest", "v")
        assert (cfg["epochs"], cfg["patience"], cfg["lr-start"]) == (7, 2, TrainConfig.lr_start)
        path.write_text(json.dumps({"room-dims": [4, 5, 3]}))
        with pytest.raises(cli.UsageError, match="unknown key 'room-dims'"):
            resolve("train", "--config", str(path))

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochz": 5}))
        assert cli.main(["inspect", "--config", str(path), "--checkpoint", "x"]) == 1
        assert "'epochz'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [[1, 1], [1, -1, 1], [1.5, 1, 1], "1,1"])
    def test_bad_counts_exit_1_from_flag_and_file(self, tmp_path, capsys, value):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"counts": value}))
        argv = ["simulate", "--out", str(tmp_path / "o"), "--expert-dir", "e", "--assistant-dir", "a", "--noise-dir", "n"]
        assert cli.main([*argv, "--config", str(path)]) == 1
        assert "counts" in capsys.readouterr().err
        if isinstance(value, list):
            assert cli.main([*argv, "--counts", ",".join(str(v) for v in value)]) == 1
            assert "--counts" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_values_are_typed_like_flags(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": 2.5}))
        with pytest.raises(cli.UsageError, match="epochs: expected int"):
            resolve("train", "--config", str(path))
        path.write_text(json.dumps({"threshold": 1, "out": "o"}))
        cfg = resolve("train", "--config", str(path), "--train-manifest", "t", "--valid-manifest", "v")
        assert cfg["threshold"] == 1.0 and type(cfg["threshold"]) is float
        path.write_text(json.dumps({"streaming": "false", "out": "o"}))
        cfg = resolve("infer", "--config", str(path), "--checkpoint", "c", "--wav", "w")
        assert cfg["streaming"] is False


class TestRuns:
    @pytest.mark.parametrize("command,classes", [("sim", (SceneGrid,)), ("train", (ModelConfig, TrainConfig))])
    def test_run_config_reproduces_the_run_byte_for_byte(self, runs, command, classes):
        files, run_config = tree(runs / command)
        again, run_config_again = tree(runs / f"{command}2")
        assert files and files == again
        assert run_config == run_config_again
        for cls in classes:
            assert {f.name.replace("_", "-") for f in fields(cls)} <= set(run_config)

    def test_inspect(self, runs, capsys):
        assert cli.main(["inspect", "--checkpoint", str(runs / "train" / "model.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "  sample_rate: 800" in out and "param_count:" in out and "best_epoch:" in out

    def test_streaming_infer_on_short_audio_exits_2_without_decisions(self, runs, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        write_wav(wav, WavFile(sample_rate=FS, samples=np.zeros(FS, dtype=np.float32)))
        out = tmp_path / "infer"
        argv = ["infer", "--checkpoint", str(runs / "train" / "model.ckpt"), "--wav", str(wav), "--out", str(out)]
        assert cli.main([*argv, "--streaming", "true"]) == 2
        assert "800 samples" in capsys.readouterr().err
        assert not (out / "decisions.csv").exists()
        assert not out.exists()

    @staticmethod
    def checkpoint_with_config(path, **changes):
        """A valid reduced checkpoint at path whose header config is edited by ``changes``."""
        save_checkpoint(path, Checkpoint.from_model(MultiScaleTCN(reduced_config(), seed=0)))
        blob = path.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 8
        end = start + int.from_bytes(blob[len(CHECKPOINT_MAGIC) : start], "little")
        header = json.loads(blob[start:end])
        header["config"].update(changes)
        text = json.dumps(header).encode()
        path.write_bytes(CHECKPOINT_MAGIC + len(text).to_bytes(8, "little") + text + blob[end:])

    def test_inspect_unknown_config_key_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "old.ckpt"
        self.checkpoint_with_config(path, class_activation="sigmoid")
        assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
        assert f"{path}: unknown model config key 'class_activation'" in capsys.readouterr().err

    def test_inspect_stream_context_exits_2_naming_the_file(self, tmp_path, capsys):
        # the network is causal and context left the config; a header that has it is rejected, whatever its value
        path = tmp_path / "context.ckpt"
        for value in ("window", "offline", "stream"):
            self.checkpoint_with_config(path, context=value)
            assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
            assert f"{path}: unknown model config key 'context'" in capsys.readouterr().err

    def test_inspect_string_causal_exits_2_naming_the_file(self, tmp_path, capsys):
        # causal left the config with context; a header that still has it is rejected, whatever its value
        path = tmp_path / "causal.ckpt"
        for value in ("false", True):
            self.checkpoint_with_config(path, causal=value)
            assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
            assert f"{path}: unknown model config key 'causal'" in capsys.readouterr().err

    def test_inspect_bool_repeats_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "repeats.ckpt"
        self.checkpoint_with_config(path, repeats=True)
        assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
        assert f"{path}: repeats must be a positive integer, got True" in capsys.readouterr().err

    def test_inspect_deeply_nested_header_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "nested.ckpt"
        header = b"[" * 100_000
        path.write_bytes(CHECKPOINT_MAGIC + len(header).to_bytes(8, "little") + header)
        assert cli.main(["inspect", "--checkpoint", str(path)]) == 2
        assert f"{path}: header is not UTF-8 JSON" in capsys.readouterr().err

    def test_train_with_bad_manifest_exits_2_without_out(self, runs, tmp_path, capsys):
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text('{"wav": "x.wav"}\n')
        out = tmp_path / "train"
        argv = ["train", "--out", str(out), "--train-manifest", str(manifest),
                "--valid-manifest", str(runs / "sim" / "manifest_valid.jsonl"), *TINY_MODEL_FLAGS]
        assert cli.main(argv) == 2
        assert "bad.jsonl:1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["not-utf8", "bool-sample-rate", "nan-peak-scale", "labels-not-tiling"])
    def test_train_with_malformed_input_exits_2_naming_the_file(self, runs, tmp_path, capsys, case):
        record = json.loads((runs / "sim" / "manifest_train.jsonl").read_text().splitlines()[0])
        record["wav"] = str(runs / "sim" / record["wav"])
        record["labels"] = str(runs / "sim" / record["labels"])
        manifest = tmp_path / "bad.jsonl"
        named = "bad.jsonl:1: "
        if case == "not-utf8":
            manifest.write_bytes(json.dumps(record).encode() + b"\n\xff\n")
            named = "bad.jsonl: not UTF-8"
        elif case == "bool-sample-rate":
            manifest.write_text(json.dumps({**record, "sample_rate": True}) + "\n")
        elif case == "nan-peak-scale":
            manifest.write_text(json.dumps({**record, "peak_scale": float("nan")}) + "\n")
        else:
            labels = tmp_path / "short.labels"
            labels.write_text("".join(f"{i * 2000},{(i + 1) * 2000},{c}\n" for i, c in enumerate(["00", "01", "10", "11"])))
            manifest.write_text(json.dumps({**record, "labels": str(labels)}) + "\n")
            named = f"{labels}: segments must tile the audio"
        out = tmp_path / "train"
        argv = ["train", "--out", str(out), "--train-manifest", str(manifest),
                "--valid-manifest", str(runs / "sim" / "manifest_valid.jsonl"), *TINY_MODEL_FLAGS]
        assert cli.main(argv) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("streaming", ["false", "true"])
    def test_infer_with_negative_hop_exits_2_naming_it_without_out(self, runs, tmp_path, capsys, streaming):
        out = tmp_path / "infer"
        argv = ["infer", "--checkpoint", str(runs / "train" / "model.ckpt"), "--wav",
                str(runs / "sim" / "test" / "sample_00000.wav"), "--out", str(out), "--hop-seconds", "-0.1"]
        assert cli.main([*argv, "--streaming", streaming]) == 2
        assert "hop of -0.1 s is not a positive whole number of samples at 800 Hz" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_with_nan_snr_exits_2_naming_it_without_wavs(self, corpus_dirs, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), *corpus_dirs, *SCENE_FLAGS, "--snr-values", "nan"]) == 2
        assert "snr_values must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()  # the scene grid is checked before --out is created

    @pytest.mark.parametrize("config,flags,message", [
        ({}, ["--t60-values", "0.4,5.0"], "t60 must lie in [0.05, 3.0] s, got 5.0"),
        ({"t60-values": []}, [], "t60_values must hold at least one value"),
    ], ids=["out-of-range", "empty"])
    def test_simulate_with_bad_t60_values_exits_2_without_out(
        self, corpus_dirs, tmp_path, capsys, config, flags, message
    ):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "sim"
        argv = ["simulate", "--out", str(out), *corpus_dirs, "--sample-rate", str(FS), "--config", str(path), *flags]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_with_negative_seed_exits_2_without_out(self, corpus_dirs, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), *corpus_dirs, *SCENE_FLAGS, "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_with_empty_corpus_exits_2_without_out(self, corpus_dirs, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), *corpus_dirs, "--expert-dir", str(empty), *SCENE_FLAGS]) == 2
        assert "contains no .wav files" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["rate", "short", "truncated"])
    def test_simulate_with_bad_clip_exits_2_naming_it_without_out(self, corpus_dirs, tmp_path, capsys, case):
        clips = tmp_path / "clips"
        if case == "rate":
            write_synthetic_corpus(clips, 1, 4.0, 2 * FS, seed=4)
            message = f"has sample rate {2 * FS}, expected {FS}"
        elif case == "short":
            write_synthetic_corpus(clips, 1, 1.0, FS, seed=4)
            message = f"is {FS} samples long, shorter than one 3 s segment ({3 * FS})"
        else:
            write_synthetic_corpus(clips, 1, 4.0, FS, seed=4)
            wav = next(clips.glob("*.wav"))
            wav.write_bytes(wav.read_bytes()[:-100])
            message = "truncated WAV payload"
        (clip,) = clips.glob("*.wav")
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--out", str(out), *corpus_dirs, "--noise-dir", str(clips), *SCENE_FLAGS]) == 2
        err = capsys.readouterr().err
        assert str(clip) in err and message in err
        assert not out.exists()
