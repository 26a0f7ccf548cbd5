"""Command-line entry point: simulate | train | eval | infer | inspect.

Configuration is a flat key-value space merged as defaults < config file
< command-line flags. Every field of ModelConfig, TrainConfig and
SceneGrid is one key: the flag is the field name in kebab-case, its
default is the field default, and the field is documented in that
class's docstring. Only paths, ``counts``, ``hop-seconds`` and
``streaming`` are declared here. Flags and config-file values are
checked by the same parser; unknown config-file keys are rejected by
name. The fully resolved configuration, which holds every field of the
objects a command builds, is echoed into every output directory as
``run_config.json`` so a run can be reproduced from it exactly.

Final artifacts are written to ``<name>.partial`` and renamed on
success, so an interrupted run never leaves a complete-looking output.
``train``, ``eval`` and ``infer`` create the output directory only once
their work has succeeded, and ``simulate`` once its scene grid, counts and
seed are checked and the header of every corpus clip (format, rate,
length), so a run that fails on those inputs leaves no directory behind.
Every command writes ``run_config.json`` once its work has succeeded.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model import ModelConfig, load_checkpoint, param_count, receptive_field, save_checkpoint
from .simulate import Corpora, SceneGrid, generate_dataset
from .streaming import HOP_SECONDS, decisions_to_segments, hop_samples, infer_offline, infer_streaming, segments_to_lines
from .training import HISTORY_HEADER, TrainConfig, evaluate, train
from .wavio import read_wav


class UsageError(Exception):
    """Bad flags or config; exits with status 1."""


@dataclass(frozen=True)
class _Key:
    name: str  # kebab-case; also the flag name
    kind: str  # bool | int | float | str | floats | counts
    default: object
    help: str
    commands: tuple  # subcommands that accept it


_TYPES = {"bool": bool, "int": int, "float": float, "str": str}  # bool first: it subclasses int
# the commands that build each class, and the further commands that read one of its keys
_BUILDERS = ((ModelConfig, ("train",)), (TrainConfig, ("train",)), (SceneGrid, ("simulate",)))
_SHARED = {"seed": ("simulate",), "sample-rate": ("simulate",)}


def _flag(field_name: str) -> str:
    return field_name.replace("_", "-")


def _kind(default) -> str:
    if isinstance(default, tuple):
        return "floats"
    return next(kind for kind, t in _TYPES.items() if isinstance(default, t))


KEYS = [
    _Key(_flag(f.name), _kind(f.default), f.default, f"see {cls.__name__}.{f.name}",
         cmds + _SHARED.get(_flag(f.name), ()))
    for cls, cmds in _BUILDERS
    for f in fields(cls)
] + [
    _Key("counts", "counts", (8, 2, 2), "train,valid,test sample counts", ("simulate",)),
    _Key("expert-dir", "str", None, "directory of expert WAV clips", ("simulate",)),
    _Key("assistant-dir", "str", None, "directory of assistant WAV clips", ("simulate",)),
    _Key("noise-dir", "str", None, "directory of noise WAV clips", ("simulate",)),
    _Key("hop-seconds", "float", HOP_SECONDS, "decision hop for eval/infer", ("eval", "infer")),
    _Key("streaming", "bool", False, "use the streaming engine", ("infer",)),
    _Key("out", "str", None, "output directory", ("simulate", "train", "eval", "infer")),
    _Key("train-manifest", "str", None, "training manifest (JSONL)", ("train",)),
    _Key("valid-manifest", "str", None, "validation manifest (JSONL)", ("train",)),
    _Key("test-manifest", "str", None, "test manifest (JSONL)", ("eval",)),
    _Key("checkpoint", "str", None, "checkpoint file", ("eval", "infer", "inspect")),
    _Key("wav", "str", None, "input WAV file", ("infer",)),
]

_KEYS_BY_NAME = {k.name: k for k in KEYS}

REQUIRED = {
    "simulate": ("out", "expert-dir", "assistant-dir", "noise-dir"),
    "train": ("out", "train-manifest", "valid-manifest"),
    "eval": ("out", "checkpoint", "test-manifest"),
    "infer": ("out", "checkpoint", "wav"),
    "inspect": ("checkpoint",),
}


def _scalar(kind: str, raw):
    if kind == "bool" and isinstance(raw, str):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected true/false, got {raw!r}")
    if isinstance(raw, str):
        return _TYPES[kind](raw)
    if kind == "float" and type(raw) is int:
        return float(raw)
    if type(raw) is not _TYPES[kind]:
        raise ValueError(f"expected {kind}, got {raw!r}")
    return raw


def _parse_value(key: _Key, raw, where: str):
    """A flag string or a config-file value, checked and converted to ``key.kind``."""
    try:
        if raw is None and key.default is None:
            return None
        if key.kind not in ("floats", "counts"):
            return _scalar(key.kind, raw)
        items = raw.split(",") if isinstance(raw, str) else raw
        if not isinstance(items, list):
            raise ValueError(f"expected a comma-separated list, got {raw!r}")
        if key.kind == "floats":
            return tuple(_scalar("float", v) for v in items)
        counts = tuple(_scalar("int", v) for v in items)
        if len(counts) != 3 or min(counts) < 0:
            raise ValueError("expected three non-negative integers: train,valid,test")
        return counts
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="classvoice", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="{simulate,train,eval,infer,inspect}")
    for command in ("simulate", "train", "eval", "infer", "inspect"):
        p = sub.add_parser(command, add_help=True)
        p.add_argument("--config", default=None, help="JSON config file (defaults < file < flags)")
        for key in KEYS:
            if command in key.commands:
                p.add_argument(f"--{key.name}", default=None, help=key.help, metavar="")
    return parser


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < flags, with unknown config keys rejected."""
    keys = [k for k in KEYS if command in k.commands]
    cfg = {k.name: k.default for k in keys}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        for name, value in loaded.items():
            if name not in cfg:
                raise UsageError(f"--config {args.config}: unknown key {name!r} for '{command}'")
            cfg[name] = _parse_value(_KEYS_BY_NAME[name], value, f"--config {args.config}: {name}")
    for key in keys:
        raw = getattr(args, key.name.replace("-", "_"), None)
        if raw is not None:
            cfg[key.name] = _parse_value(key, raw, f"--{key.name}")
    missing = [f"--{name}" for name in REQUIRED[command] if cfg.get(name) is None]
    if missing:
        raise UsageError(f"{command}: missing required flags: {', '.join(missing)}")
    return cfg


def _build(cls, cfg: dict):
    return cls(**{f.name: cfg[_flag(f.name)] for f in fields(cls)})


def _atomic_write_text(path: Path, text: str):
    partial = path.with_name(path.name + ".partial")
    partial.write_text(text)
    os.replace(partial, path)


def _start_output(cfg: dict) -> Path:
    """Create ``--out`` and echo the resolved configuration into it."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}
    _atomic_write_text(out / "run_config.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return out


def _cmd_simulate(cfg: dict) -> int:
    grid = _build(SceneGrid, cfg)
    corpora = Corpora.from_dirs(
        cfg["expert-dir"], cfg["assistant-dir"], cfg["noise-dir"], sample_rate=cfg["sample-rate"]
    )
    # generate_dataset checks the counts and the seed before it creates --out
    manifests = generate_dataset(
        corpora, grid, cfg["counts"], cfg["out"], seed=cfg["seed"], sample_rate=cfg["sample-rate"]
    )
    _start_output(cfg)
    for split, path in manifests.items():
        print(f"{split}: {path}")
    return 0


def _cmd_train(cfg: dict) -> int:
    model_config, train_config = _build(ModelConfig, cfg), _build(TrainConfig, cfg)

    def log(stats):
        print(
            f"epoch {stats.epoch}: train_loss={stats.train_loss:.6f} "
            f"valid_loss={stats.valid_loss:.6f} lr={stats.lr:.3e}"
        )

    checkpoint, history = train(
        model_config, train_config, cfg["train-manifest"], cfg["valid-manifest"], log=log
    )
    out = _start_output(cfg)
    ckpt_path = out / "model.ckpt"
    partial = ckpt_path.with_name(ckpt_path.name + ".partial")
    save_checkpoint(partial, checkpoint)
    os.replace(partial, ckpt_path)
    _atomic_write_text(
        out / "history.csv", "\n".join([HISTORY_HEADER] + [h.line() for h in history]) + "\n"
    )
    print(f"checkpoint: {ckpt_path} (best epoch {checkpoint.metadata['best_epoch']}, "
          f"valid loss {checkpoint.metadata['best_valid_loss']:.6f})")
    return 0


def _cmd_eval(cfg: dict) -> int:
    checkpoint = load_checkpoint(cfg["checkpoint"])
    report = evaluate(checkpoint, cfg["test-manifest"], hop_seconds=cfg["hop-seconds"])
    out = _start_output(cfg)
    text = report.render_text()
    _atomic_write_text(out / "report.txt", text + "\n")
    _atomic_write_text(out / "report.json", json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    print(text)
    return 0


def _cmd_infer(cfg: dict) -> int:
    checkpoint = load_checkpoint(cfg["checkpoint"])
    wav = read_wav(cfg["wav"])
    fs = checkpoint.config.sample_rate
    if wav.sample_rate != fs:
        raise ValueError(f"{cfg['wav']}: sample rate {wav.sample_rate} does not match checkpoint ({fs})")
    if cfg["streaming"]:
        chunk = hop_samples(cfg["hop-seconds"], fs)
        chunks = (wav.samples[start : start + chunk] for start in range(0, len(wav.samples), chunk))
        track = infer_streaming(chunks, checkpoint, cfg["hop-seconds"])
    else:
        track = infer_offline(wav.samples, checkpoint, hop_seconds=cfg["hop-seconds"])
    segments = decisions_to_segments(track)
    out = _start_output(cfg)
    header = "timestamp_s,category,prob_assistant,prob_expert"
    _atomic_write_text(out / "decisions.csv", "\n".join([header] + track.to_lines()) + "\n")
    _atomic_write_text(
        out / "segments.csv", "\n".join(["start_s,end_s,category"] + segments_to_lines(segments)) + "\n"
    )
    print(f"{len(track)} decisions, {len(segments)} segments -> {out}")
    return 0


def _cmd_inspect(cfg: dict) -> int:
    checkpoint = load_checkpoint(cfg["checkpoint"])
    config = checkpoint.config
    stored = sum(int(np.prod(arr.shape)) for arr in checkpoint.params.values())
    print("config:")
    for name, value in sorted(config.to_dict().items()):
        print(f"  {name}: {value}")
    print(f"param_count: {param_count(config)}")
    print(f"stored parameters: {stored}")
    print(f"receptive_field: {receptive_field(config)} frames")
    if checkpoint.metadata:
        print("metadata:")
        for name, value in sorted(checkpoint.metadata.items()):
            print(f"  {name}: {value}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required: simulate | train | eval | infer | inspect")
        cfg = resolve_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure -> exit 2 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
