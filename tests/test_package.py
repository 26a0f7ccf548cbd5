"""The package namespace: an explicit public API, no re-exported helper modules."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import classvoice
from classvoice import autodiff, model, simulate, streaming, training


def test_every_public_name_resolves():
    assert len(set(classvoice.__all__)) == len(classvoice.__all__)
    for name in classvoice.__all__:
        assert getattr(classvoice, name) is not None, name


def test_helper_modules_are_not_reexported():
    for name in ("np", "json", "dataclass", "Path", "os"):
        assert not hasattr(classvoice, name), name
    namespace = {}
    exec("from classvoice import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(classvoice.__all__)


def test_import_loads_no_scipy():
    # scipy costs ~75 MB of RSS and ~1 s per process; the package needs only numpy
    src = Path(classvoice.__file__).parents[1]
    code = "import sys, classvoice, classvoice.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cores_holds_the_only_thread_pool():
    # every parallel map goes through cores.map_in_order; other modules may only lock
    pools = ("threading.Thread(", "ThreadPoolExecutor", "ProcessPoolExecutor", "concurrent.futures", "multiprocessing")
    package = Path(classvoice.__file__).parent
    found = [
        (path.name, pool)
        for path in sorted(package.glob("*.py"))
        if path.name != "cores.py"
        for pool in pools
        if pool in path.read_text()
    ]
    assert found == []


def test_no_module_writes_into_a_data_array():
    # a parameter's array is shared by the model, its checkpoints and the
    # models built from them, so it is replaced, never updated in place
    writes = (
        r"\.data\s*(?:[-+*/%@&|^]|//|\*\*|<<|>>)=",  # augmented assignment
        r"\.data\[[^\]]*\]\s*(?:[-+*/%@&|^]|//|\*\*|<<|>>)?=(?!=)",  # item assignment
        r"\bout=[^,)]*\.data\b",  # a ufunc writing its output there
    )
    package = Path(classvoice.__file__).parent
    found = [
        (path.name, line.strip())
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if any(re.search(write, line) for write in writes)
    ]
    assert found == []


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", Path(__file__).parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_patches_and_restores_every_hook():
    # bench/tracer.py patches classvoice attributes by name: a renamed one
    # breaks the benchmark, and this keeps that visible in the tier-1 run
    tracer = load_tracer()
    owners = (autodiff, model, model.MultiScaleTCN, simulate, simulate.RirCache, streaming.StreamingSession, training)
    before = [dict(vars(owner)) for owner in owners]
    with tracer.instrument(tracer.Tracer()):
        patched = [
            (owner, name)
            for owner, old in zip(owners, before)
            for name, value in vars(owner).items()
            if value is not old.get(name)
        ]
        assert patched
        for owner, name in patched:
            assert vars(owner)[name].__wrapped__ is before[owners.index(owner)][name], name
    assert [dict(vars(owner)) for owner in owners] == before


def test_benchmark_tracer_labels_and_counts_the_convs_of_a_batch():
    # the tracer tells pointwise from depthwise convs by conv1d's positional
    # groups argument and counts FLOPs from the output and weight shapes: a
    # signature or layout slip would mislabel every traced conv silently
    tracer = load_tracer()
    cfg = model.reduced_config()
    net = model.MultiScaleTCN(cfg, seed=0)
    windows = 2
    audio = np.random.default_rng(0).uniform(-0.5, 0.5, (windows, 3 * cfg.sample_rate)).astype(np.float32)
    with tracer.instrument(tracer.Tracer()) as t:
        net.window_probs(audio)
    blocks = cfg.repeats * cfg.blocks_per_repeat
    frames = (audio.shape[1] - cfg.frame_len) // cfg.frame_stride + 1
    # (output channels, output steps per window, input channels) of each 1x1 conv
    pointwise = (
        [(cfg.bottleneck_channels, frames, cfg.enc_channels)]
        + [(cfg.block_channels, frames, cfg.bottleneck_channels)] * blocks  # in_conv
        + [(cfg.bottleneck_channels, frames, cfg.block_channels)] * (blocks - 1)  # res_conv, none in the final block
        + [(cfg.skip_channels, 1, cfg.block_channels)] * blocks  # skip_conv of the time mean
    )
    assert (t.calls("autodiff.conv1d_pointwise"), t.calls("autodiff.conv1d_depthwise")) == (24, 8)
    assert t.counters["autodiff.conv1d_pointwise.flop"] == sum(2.0 * c * n * windows * k for c, n, k in pointwise)
    assert t.counters["autodiff.conv1d_depthwise.flop"] == 2.0 * cfg.block_channels * frames * windows * cfg.kernel_size * blocks
    metrics = tracer.layer_metrics(t, 0.0)
    assert metrics["autodiff.conv1d_pointwise.calls"] == (12.0, "calls/win")
    assert metrics["autodiff.conv1d_depthwise.calls"] == (4.0, "calls/win")
