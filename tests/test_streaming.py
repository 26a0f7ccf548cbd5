"""Streaming/offline inference tests: slot arithmetic, equivalence, sharing, segments."""

import sys
import threading

import numpy as np
import pytest

from classvoice import autodiff as ad
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
    return small_model(context="window")


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
        for start in range(0, len(audio), 1000):
            session.feed(audio[start : start + 1000])
        stream = session.close()
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

    def test_noncausal_checkpoint_rejected(self):
        model = small_model(context="offline")
        with pytest.raises(ValueError, match="needs a checkpoint with context 'window', got 'offline'"):
            StreamingSession(model)

    def test_too_short_rejected(self, causal_model):
        chunks = [np.zeros(1600, np.float32)] * 10
        with pytest.raises(AudioTooShortError, match="16000 samples"):
            infer_streaming(chunks, causal_model)

    def test_iterable_wrapper(self, causal_model):
        audio = np.random.default_rng(4).uniform(-0.5, 0.5, 4 * FS).astype(np.float32)
        chunks = [audio[i : i + 3000] for i in range(0, len(audio), 3000)]
        track = infer_streaming(chunks, causal_model, hop_seconds=0.5)
        session = StreamingSession(causal_model, hop_seconds=0.5)
        session.feed(audio)
        ref = session.close()
        assert len(track) == len(ref)
        for a, b in zip(track.decisions, ref.decisions):
            assert a.timestamp == b.timestamp
            np.testing.assert_array_equal(a.probs, b.probs)


class TestSharedModel:
    def test_threads_share_one_trainable_model(self, audio_12s):
        model = small_model(context="window")
        chunks = [audio_12s[i : i + 1600] for i in range(0, 8 * FS, 1600)]

        def run():
            session = StreamingSession(model)
            for chunk in chunks:
                session.feed(chunk)
            return [(d.timestamp, d.category, d.probs.tobytes()) for d in session.close().decisions]

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
