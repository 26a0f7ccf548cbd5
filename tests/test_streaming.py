"""Streaming/offline inference tests: slot arithmetic, equivalence, sharing, segments."""

import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from classvoice import autodiff as ad
from classvoice import cores
from classvoice.model import Category, Checkpoint, ModelConfig, MultiScaleTCN
from classvoice.streaming import (
    AudioTooShortError,
    Decision,
    DecisionTrack,
    SessionClosedError,
    StreamingSession,
    decisions_to_segments,
    infer_offline,
    infer_streaming,
    resolve_model,
)

FS = 16000


def small_model(**over):
    base = dict(
        enc_channels=8,
        bottleneck_channels=4,
        skip_channels=4,
        block_channels=8,
        blocks_per_repeat=2,
        repeats=1,
        hidden1=8,
        hidden2=8,
    )
    base.update(over)
    return MultiScaleTCN(ModelConfig(**base), seed=11)


@pytest.fixture(scope="module")
def causal_model():
    return small_model()


@pytest.fixture(scope="module")
def audio_12s():
    return np.random.default_rng(0).uniform(-0.5, 0.5, 12 * FS).astype(np.float32)


class TestInferOffline:
    def test_slot_arithmetic_12s(self, causal_model, audio_12s):
        track = infer_offline(audio_12s, causal_model, hop_seconds=0.1)
        assert len(track) == 120
        ts = [d.timestamp for d in track.decisions]
        np.testing.assert_allclose(np.diff(ts), 0.1, atol=1e-12)
        assert ts[0] == 0.0
        # 91 interior windows: centers 1.5 .. 10.5 s
        interior = {tuple(np.round(d.probs, 7)) for d in track.decisions[15:106]}
        assert len({tuple(np.round(d.probs, 7)) for d in track.decisions}) == len(interior)

    def test_edge_slots_replicate_nearest_interior(self, causal_model, audio_12s):
        track = infer_offline(audio_12s, causal_model, hop_seconds=0.1)
        first_interior = track.decisions[15]
        for d in track.decisions[:15]:
            np.testing.assert_array_equal(d.probs, first_interior.probs)
            assert d.category is first_interior.category
        last_interior = track.decisions[105]
        for d in track.decisions[106:]:
            np.testing.assert_array_equal(d.probs, last_interior.probs)

    def test_decision_count_ceil(self, causal_model):
        audio = np.random.default_rng(1).uniform(-0.5, 0.5, round(4.25 * FS)).astype(np.float32)
        track = infer_offline(audio, causal_model, hop_seconds=0.1)
        assert len(track) == 43  # ceil(4.25 / 0.1)

    def test_too_short_rejected(self, causal_model):
        with pytest.raises(AudioTooShortError):
            infer_offline(np.zeros(FS, np.float32), causal_model)

    @pytest.mark.parametrize("shape", [(2, 4 * FS), (4 * FS, 1)], ids=["two-rows", "column"])
    def test_audio_not_1d_rejected_naming_its_shape(self, causal_model, shape):
        with pytest.raises(ad.ShapeError, match=re.escape(f"audio must be 1-D samples, got shape {shape}")):
            infer_offline(np.zeros(shape, np.float32), causal_model)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_audio_rejected_naming_the_sample(self, causal_model, audio_12s, bad):
        audio = audio_12s.copy()
        audio[[1234, 5000]] = bad
        with pytest.raises(ad.NonFiniteError, match="^audio sample 1234 is NaN or Inf"):
            infer_offline(audio, causal_model)

    def test_deterministic(self, causal_model, audio_12s):
        t1 = infer_offline(audio_12s, causal_model, hop_seconds=0.2)
        t2 = infer_offline(audio_12s, causal_model, hop_seconds=0.2)
        for a, b in zip(t1.decisions, t2.decisions):
            assert a.timestamp == b.timestamp and a.category is b.category
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_degenerate_model_constant_category(self, audio_12s):
        model = small_model()
        model.params["classifier.fc3.weight"].data[...] = 0
        model.params["classifier.fc3.bias"].data[...] = 0
        track = infer_offline(audio_12s, model, hop_seconds=0.5)
        assert all(d.category is Category.BACKGROUND for d in track.decisions)

    def test_accepts_checkpoint_object(self, audio_12s):
        model = small_model()
        ckpt = Checkpoint.from_model(model)
        track = infer_offline(audio_12s, ckpt, hop_seconds=1.0)
        ref = infer_offline(audio_12s, model, hop_seconds=1.0)
        for a, b in zip(track.decisions, ref.decisions):
            np.testing.assert_array_equal(a.probs, b.probs)


def decision_bits(track):
    return [(d.timestamp, d.category, d.probs.tobytes()) for d in track.decisions]


def fed(session, chunks):
    """Feed every chunk to the session; the decisions it returned, in a track."""
    return DecisionTrack(session.hop / session.fs, [d for chunk in chunks for d in session.feed(chunk)])


class TestBatchesPerCore:
    # one batch, an uneven split (8 + 1), and more batches (8 + 8 + 1) than workers
    @pytest.mark.parametrize("windows", [3, 9, 17])
    def test_offline_decisions_match_one_worker_bit_for_bit(self, causal_model, monkeypatch, windows):
        # the first window centers at 1.5 s, a whole number of 0.1 s hops, so
        # each further hop of audio adds one window
        audio = np.random.default_rng(windows).uniform(-0.5, 0.5, 3 * FS + (windows - 1) * 1600).astype(np.float32)
        monkeypatch.setattr(cores, "worker_count", lambda: 1)
        want = decision_bits(infer_offline(audio, causal_model))
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        got = decision_bits(infer_offline(audio, causal_model))
        assert got == want
        assert len({probs for _, _, probs in got}) == windows


class TestStreaming:
    def test_no_decision_before_first_window(self, causal_model):
        session = StreamingSession(causal_model, hop_seconds=0.1)
        audio = np.random.default_rng(2).uniform(-0.5, 0.5, 3 * FS).astype(np.float32)
        assert session.feed(audio[: 3 * FS - 1]) == []
        emitted = session.feed(audio[3 * FS - 1 :])
        assert len(emitted) == 1
        assert emitted[0].timestamp == pytest.approx(1.5)

    def test_streaming_matches_offline_interior(self, causal_model):
        audio = np.random.default_rng(3).uniform(-0.5, 0.5, 6 * FS).astype(np.float32)
        offline = infer_offline(audio, causal_model, hop_seconds=0.1)
        session = StreamingSession(causal_model, hop_seconds=0.1)
        stream = fed(session, (audio[start : start + 1000] for start in range(0, len(audio), 1000)))
        interior = offline.decisions[15:46]  # centers 1.5 .. 4.5 s
        assert len(stream.decisions) == len(interior)
        for s, o in zip(stream.decisions, interior):
            assert s.timestamp == o.timestamp
            np.testing.assert_allclose(s.probs, o.probs, atol=1e-5)
            if np.all(np.abs(o.probs - 0.5) > 1e-4):
                assert s.category is o.category

    def test_feed_after_close_rejected(self, causal_model):
        session = StreamingSession(causal_model)
        session.close()
        with pytest.raises(SessionClosedError):
            session.feed(np.zeros(100, np.float32))

    def test_too_short_rejected(self, causal_model):
        chunks = [np.zeros(1600, np.float32)] * 10
        with pytest.raises(AudioTooShortError, match="16000 samples"):
            infer_streaming(chunks, causal_model)

    def test_iterable_wrapper(self, causal_model):
        audio = np.random.default_rng(4).uniform(-0.5, 0.5, 4 * FS).astype(np.float32)
        chunks = [audio[i : i + 3000] for i in range(0, len(audio), 3000)]
        track = infer_streaming(chunks, causal_model, hop_seconds=0.5)
        ref = fed(StreamingSession(causal_model, hop_seconds=0.5), [audio])
        assert len(track) == len(ref)
        for a, b in zip(track.decisions, ref.decisions):
            assert a.timestamp == b.timestamp
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_hop_longer_than_window_matches_whole_file_feed(self, causal_model):
        # after each decision the next 5 s hop's window starts past what 0.1 s chunks have delivered
        audio = np.random.default_rng(5).uniform(-0.5, 0.5, 30 * FS).astype(np.float32)
        whole = fed(StreamingSession(causal_model, hop_seconds=5.0), [audio])
        chunked = infer_streaming((audio[i : i + 1600] for i in range(0, len(audio), 1600)), causal_model, 5.0)
        assert len(chunked) == 5  # centers 5, 10, ..., 25 s
        assert decision_bits(chunked) == decision_bits(whole)

    def test_rejected_non_finite_chunk_leaves_session_unchanged(self, causal_model):
        audio = np.random.default_rng(6).uniform(-0.5, 0.5, 5 * FS).astype(np.float32)
        chunks = [audio[i : i + 1600] for i in range(0, len(audio), 1600)]
        clean = fed(StreamingSession(causal_model), chunks)
        session = StreamingSession(causal_model)
        before = fed(session, chunks[:40])  # 4 s: 11 decisions
        assert len(before) == 11
        bad = chunks[40].copy()
        bad[7] = np.nan
        with pytest.raises(ad.NonFiniteError, match="sample 7 .* not added"):
            session.feed(bad)
        after = fed(session, chunks[40:])
        assert decision_bits(before) + decision_bits(after) == decision_bits(clean)

    def test_chunk_not_1d_rejected_naming_its_shape_and_not_added(self, causal_model):
        # flattened, a [2, N] chunk would feed 2N samples
        audio = np.random.default_rng(7).uniform(-0.5, 0.5, 4 * FS).astype(np.float32)
        clean = fed(StreamingSession(causal_model), [audio])
        session = StreamingSession(causal_model)
        with pytest.raises(ad.ShapeError, match=re.escape("chunk must be 1-D samples, got shape (2, 1600)")):
            session.feed(audio[: 2 * 1600].reshape(2, 1600))
        assert decision_bits(fed(session, [audio])) == decision_bits(clean)

    def test_memory_stays_flat_over_a_thousand_decisions(self):
        # a session keeps no decision: it returns each once, from feed
        cfg = ModelConfig(
            frame_len=16,
            frame_stride=8,
            enc_channels=4,
            bottleneck_channels=3,
            skip_channels=2,
            block_channels=4,
            blocks_per_repeat=1,
            repeats=1,
            hidden1=4,
            hidden2=4,
            sample_rate=800,
        )
        session = StreamingSession(MultiScaleTCN(cfg, seed=0))
        hop, warm, counted = session.hop, 500, 1000
        audio = np.random.default_rng(8).uniform(-0.5, 0.5, session.win + hop * (warm + counted)).astype(np.float32)
        chunks = [audio[i : i + hop] for i in range(0, len(audio), hop)]
        start = session.win // hop + warm
        assert sum(len(session.feed(chunk)) for chunk in chunks[:start]) == warm + 1  # fills numpy's and Python's caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert sum(len(session.feed(chunk)) for chunk in chunks[start:]) == counted
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a kept decision costs ~320 B here, so keeping these 1000 would grow ~320 KB; the caches add ~12 KB
        assert grown < 64 * 1024


BAD_HOPS = [-0.1, 0.0, 1e-9, math.nan, math.inf]


class TestBadHop:
    """A hop that is not finite or rounds below one sample is rejected by name, never clamped to one sample."""

    @pytest.mark.parametrize("hop", BAD_HOPS)
    def test_infer_offline(self, causal_model, audio_12s, hop):
        with pytest.raises(ValueError, match=rf"^hop of {re.escape(repr(hop))} s is not a positive whole number"):
            infer_offline(audio_12s, causal_model, hop_seconds=hop)

    @pytest.mark.parametrize("hop", BAD_HOPS)
    def test_streaming_session(self, causal_model, hop):
        with pytest.raises(ValueError, match=rf"^hop of {re.escape(repr(hop))} s is not a positive whole number"):
            StreamingSession(causal_model, hop_seconds=hop)


class TestSharedModel:
    def test_threads_share_one_trainable_model(self, audio_12s):
        model = small_model()
        chunks = [audio_12s[i : i + 1600] for i in range(0, 8 * FS, 1600)]

        def run():
            return decision_bits(fed(StreamingSession(model), chunks))

        want = run()
        results = [None] * 4

        def worker(i):
            results[i] = run()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
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
        assert len(want) == 51 and results == [want] * 4
        # the shared model is still trainable: a forward records a graph and
        # backward reaches every parameter but the final, unread res_conv
        loss = ad.binary_cross_entropy(model.window_probs(audio_12s[: 3 * FS]), [1.0, 0.0])
        ad.backward(loss)
        missing = sorted(n for n, p in model.params.items() if p.grad is None)
        assert missing == ["block.0.1.res_conv.bias", "block.0.1.res_conv.weight"]

    def test_overlapping_offline_runs_share_one_blas_pin(self, causal_model, audio_12s, monkeypatch, blas_pin):
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        served = resolve_model(causal_model)
        want = decision_bits(infer_offline(audio_12s, served))
        forward = served.window_probs
        overlapped = threading.Event()
        deadline = time.monotonic() + 60

        def window_probs(batch):
            # no batch runs before both runs hold the pin, so the two overlap
            while not overlapped.is_set() and time.monotonic() < deadline:
                if blas_pin.holders == 2:
                    overlapped.set()
                time.sleep(1e-3)
            assert blas_pin.get_threads() == 1
            return forward(batch)

        monkeypatch.setattr(served, "window_probs", window_probs)
        results = [None] * 2

        def worker(i):
            results[i] = decision_bits(infer_offline(audio_12s, served))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert overlapped.is_set() and results == [want] * 2
        assert blas_pin.get_threads() == 2 and blas_pin.holders == 0


def make_track(categories, hop=0.1):
    return DecisionTrack(
        hop_seconds=hop,
        decisions=[
            Decision(timestamp=i * hop, category=c, probs=np.array([0.1, 0.2]))
            for i, c in enumerate(categories)
        ],
    )


class TestDecisionsToSegments:
    def test_single_run(self):
        track = make_track([Category.ASSISTANT] * 10)
        segs = decisions_to_segments(track)
        assert len(segs) == 1
        start, end, cat = segs[0]
        assert (start, cat) == (0.0, Category.ASSISTANT)
        assert end == pytest.approx(1.0)

    def test_alternating_one_segment_per_slot(self):
        cats = [Category.BACKGROUND, Category.EXPERT] * 5
        segs = decisions_to_segments(make_track(cats))
        assert len(segs) == 10
        assert [c for _, _, c in segs] == cats

    def test_round_trip_identity(self):
        rng = np.random.default_rng(5)
        from classvoice.model import CATEGORY_ORDER

        cats = [CATEGORY_ORDER[i] for i in rng.integers(0, 4, size=60)]
        hop = 0.1
        segs = decisions_to_segments(make_track(cats, hop))
        # segments -> per-slot labels -> segments
        labels = []
        for start, end, cat in segs:
            n = round((end - start) / hop)
            labels.extend([cat] * n)
        assert labels == cats
        assert decisions_to_segments(make_track(labels, hop)) == segs

    def test_tiling_no_gaps_or_overlaps(self):
        rng = np.random.default_rng(6)
        from classvoice.model import CATEGORY_ORDER

        cats = [CATEGORY_ORDER[i] for i in rng.integers(0, 4, size=37)]
        segs = decisions_to_segments(make_track(cats, hop=0.25))
        assert segs[0][0] == 0.0
        for (s1, e1, _), (s2, _, _) in zip(segs, segs[1:]):
            assert e1 == s2
        assert segs[-1][1] == pytest.approx(37 * 0.25)

    def test_empty_track_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            decisions_to_segments(DecisionTrack(hop_seconds=0.1))
