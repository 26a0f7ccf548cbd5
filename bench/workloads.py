"""The benchmark's three workloads, one per user-facing job of classvoice.

- ``stream_paper``: live streaming with the paper-size model.
- ``train_reduced``: training at the reduced size, then offline evaluation.
- ``simulate_16k``: dataset simulation at 16 kHz.

Each workload makes its inputs from the seed (set-up, timed as
``setup_s``), runs its job for at least the requested seconds and at least
a minimum amount of work, then checks the job's outputs outside the timed
region. With ``trace`` the job runs once untraced and once inside
``tracer.instrument``, and the per-layer figures replace the end-to-end
ones. Only the package's public API is called.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from classvoice import model, simulate, streaming, training, wavio

import tracer

FS = 16000
HOP = 1600  # 0.1 s decision hop
WINDOW = 3 * FS
SAMPLE_SECONDS = 12.0
# one t60=0.4 geometry (two RIRs in all) keeps RIR cost out of the set-up of
# the workloads that only need audio
QUIET_GRID = simulate.SceneGrid(t60_values=(0.4,), assistant_x_values=(2.0,))
DIGESTS_PATH = Path(__file__).with_name("sim_digests.json")
# the generic end-to-end metrics every workload reports; see README.md
END_TO_END = ("setup_s", "peak_rss_mb", "item_ms", "rtf")


@dataclass
class Checks:
    """Output checks attempted and failed, with the first few failures described."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Result:
    end_to_end: dict  # END_TO_END name -> (value, unit)
    figures: dict  # the workload's own named figures -> (value, unit)
    per_layer: dict  # tracer.layer_metrics output, empty when untraced
    checks: Checks
    timings: dict  # the raw seconds of every timed unit, by kind
    spans: tracer.Tracer | None  # the traced pass's spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def seed_ints(seed: int, tag: int, n: int) -> list[int]:
    """n independent non-negative ints for one purpose (tag) of one workload seed."""
    return [int(v) for v in np.random.SeedSequence([seed, tag]).generate_state(n)]


def write_corpora(root: Path, seed: int) -> simulate.Corpora:
    """Three 5 s clips each of expert speech, assistant speech and noise."""
    expert, assistant, noise = seed_ints(seed, 1, 3)
    simulate.write_synthetic_corpus(root / "expert", 3, 5.0, FS, expert, "speech", (95.0, 150.0))
    simulate.write_synthetic_corpus(root / "assistant", 3, 5.0, FS, assistant, "speech", (160.0, 250.0))
    simulate.write_synthetic_corpus(root / "noise", 3, 5.0, FS, noise, "noise")
    return simulate.Corpora.from_dirs(root / "expert", root / "assistant", root / "noise", sample_rate=FS)


def timed_setups(count: int, work: Path, build):
    """Run ``build(dir)`` ``count`` times, each in a fresh dir; keep the last result.

    Returns (last result, seconds of each set-up). Earlier set-ups are
    deleted before the next starts so only one is ever resident.
    """
    times, result = [], None
    for i in range(count):
        result = None
        shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)
        start = perf_counter()
        result = build(work / f"setup{i}")
        times.append(perf_counter() - start)
    return result, times


def overhead_pct(untraced: float, traced: float) -> float:
    return 100.0 * (traced / untraced - 1.0)


# ---------------------------------------------------------------------------
# stream_paper


@dataclass(frozen=True)
class StreamSize:
    config: model.ModelConfig = field(default_factory=model.ModelConfig)
    min_decisions: int = 200  # so that ten lie beyond p95
    scenes: int = 2  # simulated 12 s samples, looped to form the stream
    setups: int = 3


# the share of decisions re-run through the float64 oracle, capped so that a
# faster stream does not make the checks outlast the run
ORACLE_SHARE = 0.1
ORACLE_MAX = 30


def float64_oracle(served: model.MultiScaleTCN) -> model.MultiScaleTCN:
    """A frozen float64 copy of ``served`` with the same parameter values."""
    oracle = model.MultiScaleTCN(served.config, dtype=np.float64)
    for name, tensor in oracle.params.items():
        tensor.data = served.params[name].data.astype(np.float64)
        tensor.requires_grad = False  # no graph is built through a frozen model
    return oracle


def _stream_setup(seed: int, size: StreamSize, work: Path):
    corpora = write_corpora(work / "corpora", seed)
    dataset_seed, model_seed = seed_ints(seed, 2, 2)
    manifests = simulate.generate_dataset(corpora, QUIET_GRID, (size.scenes, 0, 0), work / "ds", dataset_seed, FS)
    audio = np.concatenate([wavio.read_wav(r.wav).samples for r in training.read_manifest(manifests["train"])])
    path = work / "model.ckpt"
    model.save_checkpoint(path, model.Checkpoint.from_model(model.MultiScaleTCN(size.config, seed=model_seed)))
    served = model.load_checkpoint(path).build_model()
    warm = streaming.StreamingSession(served)
    for start in range(0, WINDOW + 2 * HOP, HOP):
        warm.feed(audio[start : start + HOP])
    return served, audio


def _stream_once(served, audio: np.ndarray, seconds: float, min_decisions: int):
    """Closed loop, one client: each 0.1 s chunk is fed once the previous feed returned."""
    session = streaming.StreamingSession(served)
    chunks = len(audio) // HOP
    feed_s, decisions = [], []
    fed = 0
    start = perf_counter()
    while len(decisions) < min_decisions or perf_counter() - start < seconds:
        offset = (fed % chunks) * HOP
        t0 = perf_counter()
        out = session.feed(audio[offset : offset + HOP])
        t1 = perf_counter()
        fed += 1
        if out:
            feed_s.append(t1 - t0)
            decisions.extend(out)
    loop_s = perf_counter() - start
    session.close()
    return decisions, feed_s, loop_s


def _check_stream(decisions, audio, served, checks: Checks, rng=None, oracle=None):
    first_slot = -(-(WINDOW // 2) // HOP)
    for i, d in enumerate(decisions):
        center = (first_slot + i) * HOP
        checks.expect(d.timestamp == center / FS, f"decision {i} at {d.timestamp} s, expected {center / FS} s")
    if oracle is None:
        return
    n = min(ORACLE_MAX, max(1, round(ORACLE_SHARE * len(decisions))))
    threshold = served.config.threshold
    for i in sorted(rng.choice(len(decisions), size=n, replace=False)):
        d = decisions[i]
        start = (first_slot + int(i)) * HOP - WINDOW // 2
        window = np.take(audio, np.arange(start, start + WINDOW), mode="wrap")
        want = oracle.window_probs(window).data
        err = float(np.max(np.abs(d.probs - want)))
        checks.expect(err <= 1e-5, f"decision {i}: |p32 - p64| = {err:.3g} > 1e-5")
        bits = (d.category.assistant_bit, d.category.expert_bit)
        for k in range(2):
            if abs(want[k] - threshold) > 1e-5:
                checks.expect(bits[k] == int(want[k] > threshold), f"decision {i}: class {k} bit disagrees with oracle")


def stream_paper(seed: int, seconds: float, trace: bool, work: Path, size: StreamSize = StreamSize()) -> Result:
    setups = 1 if trace else size.setups
    (served, audio), setup_times = timed_setups(setups, work, lambda d: _stream_setup(seed, size, d))
    decisions, feed_s, loop_s = _stream_once(served, audio, seconds, size.min_decisions)
    rss = peak_rss_mb()  # before the checks, whose oracle is not part of the workload
    checks = Checks()
    rng = np.random.default_rng(seed_ints(seed, 3, 1))
    _check_stream(decisions, audio, served, checks, rng, float64_oracle(served))
    p50 = 1e3 * statistics.median(feed_s)
    rtf = loop_s / (len(decisions) * HOP / FS)
    per_layer, spans = {}, None
    if trace:
        spans = tracer.Tracer()
        with tracer.instrument(spans):
            traced, traced_feed_s, _ = _stream_once(served, audio, seconds, size.min_decisions // 2)
        _check_stream(traced, audio, served, checks)
        per_layer = tracer.layer_metrics(spans, overhead_pct(p50, 1e3 * statistics.median(traced_feed_s)))
    figures = {
        "stream_decision_ms_p50": (p50, "ms"),
        "stream_decision_ms_p95": (1e3 * float(np.percentile(feed_s, 95)), "ms"),
        "stream_rtf": (rtf, "s/s"),
        "stream_decisions": (len(decisions), "count"),
    }
    return _result(setup_times, rss, p50, rtf, figures, per_layer, checks, {"feed_s": feed_s}, spans)


# ---------------------------------------------------------------------------
# train_reduced


@dataclass(frozen=True)
class TrainSize:
    counts: tuple[int, int, int] = (8, 2, 2)  # train, valid, test samples
    jobs: int = 2  # at least this many train+evaluate jobs per run
    setups: int = 3


TRAIN_MODEL = model.reduced_config()
EPOCHS = 2
WINDOW_HOP_SECONDS = 0.5


def _train_config(seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        epochs=EPOCHS, patience=1, batch_size=32, window_hop_seconds=WINDOW_HOP_SECONDS, seed=seed_ints(seed, 4, 1)[0]
    )


def _train_setup(seed: int, size: TrainSize, work: Path):
    corpora = write_corpora(work / "corpora", seed)
    manifests = simulate.generate_dataset(corpora, QUIET_GRID, size.counts, work / "ds", seed_ints(seed, 2, 1)[0], FS)
    # warm-up: the first train() of a process runs ~10% slower; one sample pays for it
    warm = manifests["valid"].with_name("manifest_warm.jsonl")
    warm.write_text(manifests["valid"].read_text().splitlines()[0] + "\n")
    training.train(TRAIN_MODEL, _train_config(seed), warm, warm)
    return manifests


def _expected_windows(manifest) -> int:
    hop = round(WINDOW_HOP_SECONDS * FS)
    lengths = [len(wavio.read_wav(r.wav).samples) for r in training.read_manifest(manifest)]
    return sum((n - WINDOW) // hop + 1 for n in lengths)


def _train_job(seed: int, manifests, work: Path, checks: Checks, job: int):
    marks = [perf_counter()]
    checkpoint, history = training.train(
        TRAIN_MODEL,
        _train_config(seed),
        manifests["train"],
        manifests["valid"],
        log=lambda _: marks.append(perf_counter()),
    )
    start = perf_counter()
    report = training.evaluate(checkpoint, manifests["test"], hop_seconds=HOP / FS)
    eval_s = perf_counter() - start

    checks.expect(len(history) == EPOCHS, f"job {job}: {len(history)} epochs, expected {EPOCHS}")
    finite = all(np.isfinite([h.train_loss, h.valid_loss, h.lr]).all() for h in history)
    checks.expect(finite, f"job {job}: non-finite loss history")
    path = work / f"job{job}.ckpt"
    model.save_checkpoint(path, checkpoint)
    reloaded = model.load_checkpoint(path)
    same = reloaded.config == checkpoint.config and all(
        np.array_equal(reloaded.params[k], v) for k, v in checkpoint.params.items()
    )
    checks.expect(same, f"job {job}: checkpoint does not reload bit-identically")
    try:
        reloaded.build_model()
        built = True
    except ValueError:
        built = False
    checks.expect(built, f"job {job}: reloaded checkpoint does not build a model")
    test = training.read_manifest(manifests["test"])
    decided = sum(math.ceil(len(wavio.read_wav(r.wav).samples) / HOP) for r in test)
    checks.expect(report.decisions == decided, f"job {job}: {report.decisions} decisions scored, expected {decided}")
    checks.expect(int(report.confusion.sum()) == decided, f"job {job}: confusion matrix does not sum to {decided}")
    return list(np.diff(marks)), eval_s, decided * HOP / FS


def train_reduced(seed: int, seconds: float, trace: bool, work: Path, size: TrainSize = TrainSize()) -> Result:
    setups = 1 if trace else size.setups
    manifests, setup_times = timed_setups(setups, work, lambda d: _train_setup(seed, size, d))
    per_epoch = _expected_windows(manifests["train"])
    checks = Checks()
    jobs = []
    start = perf_counter()
    while len(jobs) < size.jobs or perf_counter() - start < seconds:
        jobs.append(_train_job(seed, manifests, work, checks, len(jobs)))
    rss = peak_rss_mb()
    # an epoch, timed by train()'s log callback, is the unit of item_ms
    item_ms = 1e3 * statistics.median(e for epochs, _, _ in jobs for e in epochs) / per_epoch
    eval_rtf = statistics.median(eval_s / audio_s for _, eval_s, audio_s in jobs)
    per_layer, spans = {}, None
    if trace:
        spans = tracer.Tracer()
        with tracer.instrument(spans):
            epochs, _, _ = _train_job(seed, manifests, work, checks, len(jobs))
        per_layer = tracer.layer_metrics(spans, overhead_pct(item_ms, 1e3 * statistics.median(epochs) / per_epoch))
    figures = {
        "train_windows_per_s": (1e3 / item_ms, "1/s"),
        "eval_audio_s_per_s": (1.0 / eval_rtf, "s/s"),
        "train_jobs": (len(jobs), "count"),
    }
    timings = {"epoch_s": [e for j in jobs for e in j[0]], "evaluate_s": [j[1] for j in jobs]}
    return _result(setup_times, rss, item_ms, eval_rtf, figures, per_layer, checks, timings, spans)


# ---------------------------------------------------------------------------
# simulate_16k


@dataclass(frozen=True)
class SimSize:
    # one sample per t60 value of the default grid, so every run builds the
    # same RIRs whatever the seed
    t60_mix: tuple = simulate.SceneGrid().t60_values
    counts: tuple[int, int, int] = (4, 1, 1)
    jobs: int = 1  # at least this many generate_dataset jobs per run
    setups: int = 3


def planned_scenes(grid: simulate.SceneGrid, counts, dataset_seed: int) -> list[simulate.SceneSpec]:
    """The scenes generate_dataset draws for this seed: one SeedSequence per split, one child per sample."""
    splits = np.random.SeedSequence(dataset_seed).spawn(3)
    return [grid.sample(np.random.default_rng(child)) for split, n in zip(splits, counts) for child in split.spawn(n)]


def stratified_dataset_seed(seed: int, size: SimSize) -> int:
    """The first dataset seed derived from ``seed`` whose scenes cover ``size.t60_mix`` exactly.

    The cost of a sample is set by its t60 (the image count grows with
    t60 cubed), so fixing the t60 mix fixes the work of a run.
    """
    grid = simulate.SceneGrid()
    want = sorted(size.t60_mix)
    for k in range(1_000_000):
        candidate = seed_ints(seed, 100 + k, 1)[0]
        if sorted(s.room.t60 for s in planned_scenes(grid, size.counts, candidate)) == want:
            return candidate
    raise RuntimeError(f"no dataset seed with t60 mix {want} derived from seed {seed}")


def dataset_digests(out: Path) -> dict[str, str]:
    """sha256 over the WAVs, over the label files and over the manifests, each in path order."""
    digests = {}
    for kind, pattern in (("wav", "*/*.wav"), ("labels", "*/*.labels"), ("manifest", "manifest_*.jsonl")):
        h = hashlib.sha256()
        for path in sorted(out.glob(pattern)):
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
        digests[kind] = h.hexdigest()
    return digests


def recorded_digests(size: SimSize) -> dict:
    """Output digests by seed, recorded at the commit that added the benchmark; {} for another size."""
    table = json.loads(DIGESTS_PATH.read_text())
    if table["counts"] != list(size.counts) or table["t60_mix"] != list(size.t60_mix):
        return {}
    return table["seeds"]


def _sim_setup(seed: int, size: SimSize, work: Path):
    corpora = write_corpora(work / "corpora", seed)
    dataset_seed = stratified_dataset_seed(seed, size)
    # warm-up: one cheap sample through the same code path
    simulate.generate_dataset(corpora, QUIET_GRID, (1, 0, 0), work / "warm", seed_ints(seed, 5, 1)[0], FS)
    return corpora, dataset_seed


def _check_dataset(out: Path, corpora, size: SimSize, checks: Checks, job: int, reference: dict | None):
    records = [r for split in ("train", "valid", "test") for r in _records(out, split)]
    scenes = [simulate.SceneSpec.from_dict(r.scene) for r in records]
    mix = sorted(s.room.t60 for s in scenes) == sorted(size.t60_mix)
    checks.expect(mix, f"job {job}: t60 mix differs from the plan")
    for r in records:
        wav = wavio.read_wav(r.wav)
        n = round(SAMPLE_SECONDS * FS)
        shape = wav.sample_rate == FS and len(wav.samples) == n
        checks.expect(shape, f"job {job}: {r.wav.name} is not {n} samples at {FS} Hz")
        segments = training.parse_labels(r.labels)
        tiles = [(start, end) for _, start, end in segments] == [(i * WINDOW, (i + 1) * WINDOW) for i in range(4)]
        every = sorted(c.value for c, _, _ in segments) == sorted(c.value for c in model.CATEGORY_ORDER)
        checks.expect(tiles and every, f"job {job}: {r.labels.name} is not four 3 s segments, one per category")
    # recompute the cheapest sample from its scene and compare WAV bytes
    cheapest = min(range(len(records)), key=lambda i: scenes[i].room.t60)
    sample = simulate.make_sample(corpora, scenes[cheapest], FS)
    again = out / "recomputed.wav"
    wavio.write_wav(again, wavio.WavFile(FS, sample.audio))
    same = again.read_bytes() == records[cheapest].wav.read_bytes()
    again.unlink()
    checks.expect(same, f"job {job}: {records[cheapest].wav.name} differs from a recomputation of its scene")
    digests = dataset_digests(out)
    if reference is not None:
        for kind, want in reference.items():
            got = digests[kind]
            checks.expect(got == want, f"job {job}: {kind} digest {got[:12]} != recorded {want[:12]}")
    return digests


def _records(out: Path, split: str):
    path = out / f"manifest_{split}.jsonl"
    return training.read_manifest(path) if path.read_text().strip() else []


def sim_job(corpora, dataset_seed: int, size: SimSize, out: Path):
    start = perf_counter()
    simulate.generate_dataset(corpora, simulate.SceneGrid(), size.counts, out, dataset_seed, FS)
    return perf_counter() - start


def simulate_16k(seed: int, seconds: float, trace: bool, work: Path, size: SimSize = SimSize()) -> Result:
    setups = 1 if trace else size.setups
    (corpora, dataset_seed), setup_times = timed_setups(setups, work, lambda d: _sim_setup(seed, size, d))
    samples = sum(size.counts)
    checks = Checks()
    reference = recorded_digests(size).get(str(seed))
    job_s = []
    start = perf_counter()
    while len(job_s) < size.jobs or perf_counter() - start < seconds:
        job_s.append(sim_job(corpora, dataset_seed, size, work / f"job{len(job_s)}"))
    rss = peak_rss_mb()
    digests = [_check_dataset(work / f"job{j}", corpora, size, checks, j, reference) for j in range(len(job_s))]
    item_ms = statistics.median(1e3 * s / samples for s in job_s)
    per_layer, spans = {}, None
    if trace:
        spans = tracer.Tracer()
        out = work / "traced"
        with tracer.instrument(spans):
            traced_s = sim_job(corpora, dataset_seed, size, out)
        digests.append(_check_dataset(out, corpora, size, checks, len(job_s), reference))
        per_layer = tracer.layer_metrics(spans, overhead_pct(item_ms, 1e3 * traced_s / samples))
    if len(digests) > 1:
        checks.expect(all(d == digests[0] for d in digests), "repeated jobs wrote different bytes")
    figures = {
        "simulate_s_per_sample": (item_ms / 1e3, "s"),
        "simulate_jobs": (len(job_s), "count"),
    }
    rtf = sum(job_s) / (len(job_s) * samples * SAMPLE_SECONDS)
    return _result(setup_times, rss, item_ms, rtf, figures, per_layer, checks, {"job_s": job_s}, spans)


def _result(setup_times, rss, item_ms, rtf, figures, per_layer, checks, timings, spans) -> Result:
    setup_s = statistics.median(setup_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "item_ms": (item_ms, "ms"),
        "rtf": (rtf, "s/s"),
    }
    figures = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_failed_ratio": (checks.failed / checks.attempted if checks.attempted else 1.0, "ratio"),
        **figures,
    }
    return Result(end_to_end, figures, per_layer, checks, {"setup_s": setup_times, **timings}, spans)


WORKLOADS = {
    "stream_paper": stream_paper,
    "train_reduced": train_reduced,
    "simulate_16k": simulate_16k,
}


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> Result:
    """Run one workload in a scratch directory under ``root``, removed afterwards."""
    root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root))
    try:
        return WORKLOADS[name](seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
