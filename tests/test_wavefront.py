"""One frozen window on several cores: its time chunks carry each causal op's state and give the whole window's bits."""

import sys
import threading

import numpy as np
import pytest

from classvoice import autodiff as ad
from classvoice import cores
from classvoice import model as model_module
from classvoice.autodiff import Tensor
from classvoice.model import ModelConfig, MultiScaleTCN, reduced_config

TINY = ModelConfig(
    frame_len=16,
    frame_stride=8,
    enc_channels=6,
    bottleneck_channels=4,
    skip_channels=3,
    block_channels=5,
    blocks_per_repeat=3,
    repeats=2,
    hidden1=7,
    hidden2=6,
    sample_rate=800,
)
# the streaming tests' model
SMALL = ModelConfig(
    enc_channels=8,
    bottleneck_channels=4,
    skip_channels=4,
    block_channels=8,
    blocks_per_repeat=2,
    repeats=1,
    hidden1=8,
    hidden2=8,
)
# the smallest pointwise GEMM does 256 x 160 multiply-adds per frame, so a
# 599-frame window is cut in up to 4 chunks (``model._SMALL_GEMM``)
WIDE = reduced_config(enc_channels=256, bottleneck_channels=160, block_channels=256, blocks_per_repeat=3)


def frozen(cfg, dtype=np.float32, seed=0):
    """A frozen model with random norm gains and biases, and PReLU slopes of 0.25 and 1.7 in turn."""
    trained = MultiScaleTCN(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    arrays, slopes = {}, iter(np.resize([0.25, 1.7], len(trained.params)))
    for name, p in trained.params.items():
        kind = name.rsplit(".", 1)[1]
        if kind == "alpha":
            arrays[name] = np.full(p.shape, next(slopes), dtype)
        elif kind == "gain":
            arrays[name] = rng.uniform(0.5, 1.5, p.shape).astype(dtype)
        elif kind == "bias":
            arrays[name] = rng.uniform(-0.2, 0.2, p.shape).astype(dtype)
        else:
            arrays[name] = p.data
    return MultiScaleTCN._frozen(cfg, arrays)


def windows(cfg, count, seed=0):
    """3 s windows; every other one starts 1000x quieter, so the cLN prefixes span magnitudes."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        audio = rng.uniform(-0.5, 0.5, 3 * cfg.sample_rate).astype(np.float32)
        if i % 2:
            audio[: len(audio) // 3] *= 1e-3
        out.append(audio)
    return out


def whole(net, audio):
    """The window's forward in one piece."""
    return net.classify(net.extract(net.bottleneck(net.encode(audio))))


@pytest.fixture
def chunk_runs(monkeypatch):
    """(span, thread) of every time chunk run, in the order they start."""
    runs = []
    run = model_module._Chunk.run

    def spy(chunk, net, audio):
        runs.append((chunk.span, threading.get_ident()))
        return run(chunk, net, audio)

    monkeypatch.setattr(model_module._Chunk, "run", spy)
    return runs


def joined(fn, timeout=120):
    """("ok", fn()) or ("raised", exception), from fn run on a thread; fails, rather than stalls, if fn hangs."""
    out = []

    def target():
        try:
            out.append(("ok", fn()))
        except BaseException as exc:
            out.append(("raised", exc))

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the call did not finish"
    return out[0]


class TestSameBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_probabilities_are_the_whole_windows(self, dtype, monkeypatch, blas_pin, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE, dtype)
        for audio in windows(WIDE, 6):
            with cores.one_blas_thread():
                want = whole(net, audio).data
            got = net.window_probs(audio)
            assert got.dtype == dtype and got.data.tobytes() == want.tobytes()
        assert [span for span, _ in chunk_runs[:2]] == [(0, 320), (320, 599)]
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0

    def test_blas_is_pinned_from_the_encoder_to_the_classifier(self, monkeypatch, blas_pin):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        threads = []
        for layer in ("encode", "classify"):
            forward = getattr(MultiScaleTCN, layer)
            monkeypatch.setattr(
                MultiScaleTCN, layer, lambda net, x, forward=forward: threads.append(blas_pin.get_threads()) or forward(net, x)
            )
        frozen(WIDE).window_probs(windows(WIDE, 1)[0])
        assert threads == [1, 1, 1]  # each chunk's encoder, and the last chunk's classifier

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_paper_size(self, dtype, monkeypatch, blas_pin, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(ModelConfig(), dtype)
        (audio,) = windows(ModelConfig(), 1, seed=3)
        with cores.one_blas_thread():
            want = whole(net, audio).data
        assert net.window_probs(audio).data.tobytes() == want.tobytes()
        assert [span for span, _ in chunk_runs] == [(0, 320), (320, 599)]

    @pytest.mark.parametrize("workers,chunks", [(1, 0), (2, 2), (3, 3), (4, 4)])
    def test_any_worker_count(self, workers, chunks, monkeypatch, blas_pin, chunk_runs):
        net = frozen(WIDE, seed=1)
        audio = windows(WIDE, 2, seed=1)
        with cores.one_blas_thread():
            want = [whole(net, a).data.tobytes() for a in audio]
        monkeypatch.setattr(cores, "worker_count", lambda: workers)
        assert [net.window_probs(a).data.tobytes() for a in audio] == want
        assert len({span for span, _ in chunk_runs}) == chunks

    @pytest.mark.parametrize("cfg", [TINY, SMALL, reduced_config()], ids=["tiny", "small", "reduced"])
    def test_small_models_run_whole(self, cfg, monkeypatch, blas_pin, chunk_runs):
        # their chunks' GEMMs would be small enough for other BLAS kernels
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(cfg)
        for audio in windows(cfg, 2):
            assert net.window_probs(audio).data.tobytes() == whole(net, audio).data.tobytes()
        assert chunk_runs == []

    def test_a_short_window_runs_whole(self, monkeypatch, blas_pin, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE)
        audio = windows(WIDE, 1)[0][: 63 * WIDE.frame_stride + WIDE.frame_len]
        assert net.window_probs(audio).data.tobytes() == whole(net, audio).data.tobytes()
        assert chunk_runs == []

    def test_without_the_blas_pin_the_window_runs_whole(self, monkeypatch, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        monkeypatch.setattr(cores, "_BLAS_PIN", None)
        net = frozen(WIDE)
        audio = windows(WIDE, 1)[0]
        assert net.window_probs(audio).data.tobytes() == whole(net, audio).data.tobytes()
        assert chunk_runs == []


class TestTimeChunks:
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    @pytest.mark.parametrize("frames", [599, 1199])
    def test_chunks_tile_the_window_from_aligned_starts(self, workers, frames):
        spans = model_module._time_chunks(frames, workers, ModelConfig())
        assert 2 <= len(spans) <= workers
        assert spans[0][0] == 0 and spans[-1][1] == frames
        assert all(a[1] == b[0] and a[1] % model_module._CHUNK_ALIGN == 0 for a, b in zip(spans, spans[1:]))

    def test_no_chunk_runs_a_small_gemm(self):
        cfg = ModelConfig()
        per_frame = cfg.bottleneck_channels * cfg.enc_channels  # the smallest pointwise GEMM
        for frames in range(1, 1300, 7):
            spans = model_module._time_chunks(frames, 4, cfg)
            assert len(spans) == 1 or min(hi - lo for lo, hi in spans) * per_frame > model_module._SMALL_GEMM


class TestPooling:
    """Chunks pool a window with ``tmean``'s bits, however it is cut, including cuts inside a ``TIME_BLOCK``."""

    @pytest.mark.parametrize("frames", [129, 200, 599, 1199])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    def test_chunk_pooling_gives_tmean(self, frames, dtype):
        rng = np.random.default_rng(frames)
        rows = (rng.standard_normal((16, frames)) * 10.0 ** rng.uniform(-3, 3, (16, 1))).astype(dtype)
        rows[0] = -0.0  # numpy's sum starts from +0.0
        want = ad.tmean(Tensor(rows), keepdims=True).data
        cut_sets = [[64], [1], [127, 128], [8, 16, 100], sorted(rng.choice(np.arange(1, frames), 5, replace=False))]
        for cuts in cut_sets:
            edges = [0] + [int(c) for c in cuts] + [frames]
            ready, chunks = threading.Condition(), []
            for span in zip(edges, edges[1:]):
                chunks.append(model_module._Chunk(span, frames, chunks[-1] if chunks else None, ready))
            pooled = [chunk.pool(Tensor(rows[:, lo:hi])) for chunk, (lo, hi) in zip(chunks, zip(edges, edges[1:]))]
            assert pooled[:-1] == [None] * (len(pooled) - 1)
            assert pooled[-1].dtype == dtype and pooled[-1].data.tobytes() == want.tobytes(), cuts


class TestFailures:
    def test_a_nan_frame_in_the_first_chunk_releases_the_chunk_waiting_on_it(self, monkeypatch, blas_pin, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE)
        audio = windows(WIDE, 1)[0]
        bad = audio.copy()
        bad[100] = np.nan
        # the first chunk fails only once the second waits for its first carry
        waiting = threading.Event()
        take, encode = model_module._Chunk.take, MultiScaleTCN.encode

        def spy_take(chunk):
            if chunk.before is not None:
                waiting.set()
            return take(chunk)

        def held_encode(model, samples):
            if not np.isfinite(samples).all():
                assert waiting.wait(timeout=60)
            return encode(model, samples)

        monkeypatch.setattr(model_module._Chunk, "take", spy_take)
        monkeypatch.setattr(MultiScaleTCN, "encode", held_encode)
        outcome, exc = joined(lambda: net.window_probs(bad))
        assert outcome == "raised" and type(exc) is ad.NonFiniteError
        assert [span for span, _ in chunk_runs] == [(0, 320), (320, 599)]
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0
        # nothing is left behind: the next window runs as before
        assert net.window_probs(audio).data.tobytes() == whole(net, audio).data.tobytes()

    def test_a_nan_frame_in_the_last_chunk_raises(self, monkeypatch, blas_pin):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE)
        audio = windows(WIDE, 1)[0]
        bad = audio.copy()
        bad[47000] = np.nan
        outcome, exc = joined(lambda: net.window_probs(bad))
        assert outcome == "raised" and type(exc) is ad.NonFiniteError
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0
        # nothing is left behind: the next window runs as before
        assert net.window_probs(audio).data.tobytes() == whole(net, audio).data.tobytes()

    def test_windows_inside_a_map_finish(self, monkeypatch, blas_pin):
        # each item's window maps its chunks again, while the helpers may be busy with items
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE)
        audio = windows(WIDE, 5)
        with cores.one_blas_thread():
            want = [whole(net, a).data.tobytes() for a in audio]
        outcome, got = joined(lambda: cores.map_in_order(lambda a: net.window_probs(a).data.tobytes(), audio))
        assert outcome == "ok" and got == want

    def test_many_threads_share_one_model(self, monkeypatch, blas_pin, chunk_runs):
        # more callers than cores, each cutting its windows into chunks on the shared helpers
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = frozen(WIDE)
        audio = windows(WIDE, 3)
        with cores.one_blas_thread():
            want = [whole(net, a).data.tobytes() for a in audio]
        results = [None] * 4

        def caller(i):
            results[i] = [net.window_probs(a).data.tobytes() for a in audio]

        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 4 and len(chunk_runs) == 4 * 3 * 2
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0

    def test_a_trainable_model_builds_a_graph(self, monkeypatch, blas_pin, chunk_runs):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        net = MultiScaleTCN(WIDE, seed=2)
        probs = net.window_probs(windows(WIDE, 1)[0])
        assert probs.requires_grad and chunk_runs == []
        ad.backward(ad.binary_cross_entropy(probs, [1.0, 0.0]))
        assert net.params["encoder.weight"].grad is not None
        assert net.params["block.0.0.dw_conv.weight"].grad is not None
