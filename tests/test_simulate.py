"""Acoustic simulator tests: Sabine, image-source RIRs, mixing, datasets."""

import re
import sys

import numpy as np
import pytest

from classvoice import cores, simulate
from classvoice.model import CATEGORY_ORDER, Category
from classvoice.simulate import (
    Corpora,
    CorpusError,
    RirCache,
    RoomError,
    RoomSpec,
    SceneGrid,
    SceneSpec,
    generate_dataset,
    image_source_rir,
    make_sample,
    render_utterance,
    sabine_absorption,
    scale_to_snr,
)

from conftest import direct_path_rir, make_scene

FS = 16000
CLASSROOM = RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.6)


def schroeder_t60(rir, fs):
    """Backward-integrated decay, -5 to -35 dB least-squares fit, scaled to 60 dB."""
    e = np.asarray(rir, dtype=np.float64) ** 2
    edc = np.cumsum(e[::-1])[::-1]
    edc_db = 10.0 * np.log10(edc / edc[0])
    i5 = int(np.argmax(edc_db <= -5.0))
    i35 = int(np.argmax(edc_db <= -35.0))
    t = np.arange(len(rir)) / fs
    slope, _ = np.polyfit(t[i5 : i35 + 1], edc_db[i5 : i35 + 1], 1)
    return -60.0 / slope


def measured_db_ratio(a, b):
    return 10.0 * np.log10(np.mean(np.asarray(a) ** 2) / np.mean(np.asarray(b) ** 2))


class TestSabine:
    def test_classroom_at_0p6(self):
        # 0.161 * 105 / (137 * 0.6)
        assert sabine_absorption(CLASSROOM) == pytest.approx(0.2057, abs=2e-4)

    def test_classroom_at_0p4(self):
        room = RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4)
        assert sabine_absorption(room) == pytest.approx(0.3085, abs=2e-4)

    def test_inverse_proportionality(self):
        a1 = sabine_absorption(RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4))
        a2 = sabine_absorption(RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.8))
        assert a1 == pytest.approx(2 * a2, rel=1e-12)

    def test_infeasible_t60_rejected(self):
        with pytest.raises(RoomError, match="infeasible"):
            sabine_absorption(RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.05))


class TestImageSourceRir:
    def test_direct_path_peak_sample(self):
        # source-mic distance 1.7 m -> peak at round(1.7/343*16000) = 79
        rir = direct_path_rir(RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.5), (1.0, 1.0, 1.0), (2.7, 1.0, 1.0), FS)
        assert int(np.argmax(np.abs(rir))) == 79

    def test_length_is_ceil_t60_fs(self):
        for t60 in (0.4, 0.55, 0.9):
            # a larger room keeps the t60 = 0.9 lattice cheap
            rir = image_source_rir(RoomSpec(dims=(10.0, 12.0, 7.0), t60=t60), (1.0, 1.0, 1.0), (2.7, 1.0, 1.0), FS)
            assert len(rir) == int(np.ceil(t60 * FS))

    def test_source_too_close_rejected(self):
        with pytest.raises(RoomError, match="minimum"):
            image_source_rir(CLASSROOM, (1.0, 1.0, 1.0), (1.0, 1.0, 1.01), FS)

    def test_position_outside_room_rejected(self):
        with pytest.raises(RoomError, match="outside"):
            image_source_rir(CLASSROOM, (5.5, 1.0, 1.0), (1.0, 1.0, 1.0), FS)
        with pytest.raises(RoomError, match="outside"):
            image_source_rir(CLASSROOM, (1.0, 1.0, 1.0), (1.0, -0.1, 1.0), FS)

    @pytest.mark.parametrize("t60", [0.4, 0.9])
    def test_schroeder_t60_within_20_percent(self, t60):
        room = RoomSpec(dims=(5.0, 6.0, 3.5), t60=t60)
        rir = image_source_rir(room, (2.5, 0.5, 2.0), (2.5, 3.0, 1.5), FS)
        est = schroeder_t60(rir, FS)
        assert abs(est - t60) / t60 < 0.20

    def test_deterministic(self):
        a = image_source_rir(CLASSROOM, (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), FS)
        b = image_source_rir(CLASSROOM, (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), FS)
        np.testing.assert_array_equal(a, b)

    def test_cache_returns_same_rir(self):
        cache = RirCache()
        a = cache.get(CLASSROOM, (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), FS)
        b = cache.get(CLASSROOM, (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), FS)
        assert a is b


def reference_deposit(h, delays, gains):
    """The unblocked kernel deposit: the bit-exact oracle.

    A frozen copy of the implementation that the blocked
    ``simulate._deposit`` replaced; the two must agree bit for bit.
    """
    taps, chunk = 81, 4096
    half = (taps - 1) // 2
    offsets = np.arange(taps)
    tap_cos = np.cos(2.0 * np.pi * offsets / taps)
    tap_sin = np.sin(2.0 * np.pi * offsets / taps)
    tap_sign = np.where(offsets % 2 == 0, 1.0, -1.0)
    for start in range(0, len(delays), chunk):
        dl = delays[start : start + chunk]
        gn = gains[start : start + chunk]
        base = np.ceil(dl - half).astype(np.int64)
        u = base - dl
        t = u[:, None] + offsets[None, :]
        cf = np.cos(2.0 * np.pi * u / taps)
        sf = np.sin(2.0 * np.pi * u / taps)
        window = 0.5 * (1.0 + cf[:, None] * tap_cos[None, :] - sf[:, None] * tap_sin[None, :])
        sin_pi_u = np.sin(np.pi * u)
        with np.errstate(divide="ignore", invalid="ignore"):
            sinc = (sin_pi_u[:, None] * tap_sign[None, :]) / (np.pi * t)
        exact = np.abs(t) < 1e-12
        if exact.any():
            sinc[exact] = 1.0
        kernel = window * sinc * gn[:, None]
        idx = base[:, None] + (offsets[None, :] + taps)
        h += np.bincount(idx.ravel(), weights=kernel.ravel(), minlength=len(h))


def reference_rir(monkeypatch, build, *args):
    with monkeypatch.context() as m:
        m.setattr(simulate, "_deposit", reference_deposit)
        return build(*args)


# at c = 320 m/s and 16 kHz the 1 m direct path lands on sample 50 exactly
INTEGER_DELAY_ROOM = RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4, sound_speed=320.0)


class TestDepositParity:
    @pytest.mark.parametrize(
        "room,source,mic,fs,direct_only",
        [
            (RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4), (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), 800, False),
            (RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4), (2.5, 0.5, 2.0), (4.0, 1.08, 1.59), FS, False),
            # a larger room keeps the t60 = 0.9 lattice (several chunks per octant) cheap
            (RoomSpec(dims=(10.0, 12.0, 7.0), t60=0.9), (2.5, 0.5, 2.0), (2.0, 1.08, 1.59), FS, False),
            (CLASSROOM, (1.0, 1.0, 1.0), (2.7, 1.0, 1.0), FS, True),
            (INTEGER_DELAY_ROOM, (1.0, 1.0, 1.0), (2.0, 1.0, 1.0), FS, False),
        ],
        ids=["800Hz-t60=0.4", "16kHz-t60=0.4", "16kHz-t60=0.9", "direct_only", "integer-delay"],
    )
    def test_rir_matches_reference_bit_for_bit(self, monkeypatch, room, source, mic, fs, direct_only):
        build = direct_path_rir if direct_only else image_source_rir
        want = reference_rir(monkeypatch, build, room, source, mic, fs)
        got = build(room, source, mic, fs)
        assert np.array_equal(got, want)

    def test_integer_delay_takes_the_exact_sinc_branch(self):
        assert 1.0 / INTEGER_DELAY_ROOM.sound_speed * FS == 50.0
        rir = direct_path_rir(INTEGER_DELAY_ROOM, (1.0, 1.0, 1.0), (2.0, 1.0, 1.0), FS)
        # sinc(0) = 1 where 0/0 would give NaN; the other taps sit at sin(40*pi) ~ 1e-15
        assert rir[50] == 1.0 and np.max(np.abs(np.delete(rir, 50))) < 1e-12

    @pytest.mark.filterwarnings("error")  # a thread without its own errstate would warn on 0/0
    def test_exact_hits_on_taps_39_and_40(self):
        rng = np.random.default_rng(0)
        # exact and near-integer delays put |t| < 1e-12 on tap 40 (at or just below
        # an integer) or tap 39 (just above); 5000 images span two chunks
        delays = np.concatenate([[50.0, 50.0 - 1e-13, 50.0 + 1e-13, 77.0 + 1e-13], rng.uniform(40.0, 600.0, 4996)])
        gains = rng.standard_normal(len(delays))
        want = np.zeros(800)
        reference_deposit(want, delays, gains)
        got = np.zeros(800)
        simulate._deposit(got, delays, gains)
        assert np.array_equal(got, want)

    def test_worker_count_does_not_change_bits(self, monkeypatch, tmp_path):
        # RIRs are built one per core; each must match a serial build, and the dataset its bytes on one core
        dirs = [simulate.write_synthetic_corpus(tmp_path / name, 2, 4.0, 800, seed=i, kind=kind)
                for i, (name, kind) in enumerate((("e", "speech"), ("a", "speech"), ("n", "noise")))]
        corpora = Corpora.from_dirs(*dirs, sample_rate=800)
        grid = SceneGrid(t60_values=(0.2, 0.3), assistant_x_values=(1.0, 2.0, 3.0))
        caches = []

        class RecordedCache(RirCache):
            def __init__(self):
                super().__init__()
                caches.append(self)

        monkeypatch.setattr(simulate, "RirCache", RecordedCache)
        monkeypatch.setattr(cores, "worker_count", lambda: 1)
        generate_dataset(corpora, grid, (3, 1, 1), tmp_path / "one", seed=4, sample_rate=800)
        monkeypatch.setattr(cores, "worker_count", lambda: 4)  # more threads than this box has cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            generate_dataset(corpora, grid, (3, 1, 1), tmp_path / "many", seed=4, sample_rate=800)
        finally:
            sys.setswitchinterval(interval)
        files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
        assert len(files) == 3 + 5 * 2  # three manifests, and a WAV and a label file per sample
        for rel in files:
            assert (tmp_path / "many" / rel).read_bytes() == (tmp_path / "one" / rel).read_bytes(), rel
        built = caches[1]._store
        assert len(built) >= 3
        for (dims, t60, speed, source, mic, fs), rir in built.items():
            assert np.array_equal(rir, image_source_rir(RoomSpec(dims, t60, speed), source, mic, fs))


class TestRirCache:
    def test_fill_builds_each_distinct_rir_once(self, monkeypatch):
        built = []

        def spy(room, source, mic, fs):
            built.append((room.t60, source))
            return np.full(4, room.t60 + source[0])

        monkeypatch.setattr(simulate, "image_source_rir", spy)
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        mic = (2.0, 1.08, 1.59)
        a = (CLASSROOM, (2.5, 0.5, 2.0), mic, 800)
        b = (CLASSROOM, (2.0, 1.0, 1.6), mic, 800)
        c = (RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.4), (2.5, 0.5, 2.0), mic, 800)
        cache = RirCache()
        cache.fill([a, b, a, c, b])
        assert sorted(built) == [(0.4, (2.5, 0.5, 2.0)), (0.6, (2.0, 1.0, 1.6)), (0.6, (2.5, 0.5, 2.0))]
        for request in (a, b, c, b):  # each stored under its own key
            assert cache.get(*request)[0] == request[0].t60 + request[1][0]
        cache.fill([c, a])
        assert len(built) == 3

    def test_mic_on_the_assistant_rejected(self, corpora, monkeypatch):
        # SceneSpec allows the mic straight below the assistant; its RIR, built on a helper, must refuse it
        scene = make_scene(seed=5)
        on_assistant = SceneSpec.from_dict({**scene.to_dict(), "mic_pos": [2.0, 1.0, 1.59]})
        monkeypatch.setattr(cores, "worker_count", lambda: 2)
        message = "source and microphone are 0.010 m apart"
        with pytest.raises(RoomError, match=f"^{re.escape(message)}; minimum is 0.05 m$"):
            make_sample(corpora, on_assistant, FS, RirCache())


class TestScaleToSnr:
    def test_equal_power_10db(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(4000)
        interf = rng.standard_normal(4000)
        interf *= np.sqrt(np.mean(ref**2) / np.mean(interf**2))  # equalize power
        scaled = scale_to_snr(ref, interf, 10.0)
        gain = np.abs(scaled / interf).mean()
        assert gain == pytest.approx(10 ** (-10 / 20), rel=1e-6)

    def test_zero_db_equal_power_is_unit_gain(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(4000)
        interf = rng.standard_normal(4000)
        interf *= np.sqrt(np.mean(ref**2) / np.mean(interf**2))
        scaled = scale_to_snr(ref, interf, 0.0)
        np.testing.assert_allclose(scaled, interf, rtol=1e-9)

    def test_achieved_snr_within_tolerance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ref = rng.standard_normal(3000) * rng.uniform(0.1, 2.0)
            interf = rng.standard_normal(3000) * rng.uniform(0.1, 2.0)
            target = rng.uniform(-5, 20)
            scaled = scale_to_snr(ref, interf, target)
            assert measured_db_ratio(ref, scaled) == pytest.approx(target, abs=0.1)

    def test_silent_input_rejected(self):
        with pytest.raises(ValueError, match="non-silent"):
            scale_to_snr(np.zeros(100), np.ones(100), 5.0)
        with pytest.raises(ValueError, match="non-silent"):
            scale_to_snr(np.ones(100), np.zeros(100), 5.0)


# every RIR length the tests and the benchmark render with: the 800 Hz test
# grids and the default grid at 16 kHz, ceil(t60 * fs) samples each
RIR_LENGTHS = sorted(
    {int(np.ceil(t60 * fs)) for fs in (800, FS) for t60 in (0.2, 0.3) + SceneGrid().t60_values}
)
CONVOLUTION_CASES = [(2400, n) for n in (1, 81) + tuple(RIR_LENGTHS)] + [(48000, n) for n in RIR_LENGTHS]


class TestScipyParity:
    """The numpy convolution and noise filter give scipy's bits, so the simulated bytes are scipy-era bytes."""

    @pytest.mark.parametrize("n_signal,n_rir", CONVOLUTION_CASES)
    def test_convolve_matches_fftconvolve(self, n_signal, n_rir):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng([n_signal, n_rir])
        a, b = rng.uniform(-0.5, 0.5, n_signal), rng.standard_normal(n_rir) * 0.1
        assert np.array_equal(simulate._convolve(a, b), signal.fftconvolve(a, b))
        assert np.array_equal(simulate._convolve(b, a), signal.fftconvolve(b, a))

    def test_fast_length_matches_next_fast_len(self):
        fft = pytest.importorskip("scipy.fft")
        used = [n_signal + n_rir - 1 for n_signal, n_rir in CONVOLUTION_CASES]
        for n in list(range(1, 5000)) + used:
            assert simulate._fast_fft_length(n) == fft.next_fast_len(n, real=True), n

    @pytest.mark.parametrize("seed,length", [(0, 1), (1, 2), (2, 4000), (3, 80000), (4, 12345)])
    def test_one_pole_lowpass_matches_lfilter(self, seed, length):
        signal = pytest.importorskip("scipy.signal")
        white = np.random.default_rng(seed).standard_normal(length)
        want = signal.lfilter([1.0], [1.0, -0.97], white)
        assert np.array_equal(simulate._one_pole_lowpass(white, 0.97), want)


@pytest.fixture(scope="module")
def shared_cache():
    return RirCache()


class TestRenderUtterance:
    def test_background_is_noise_only(self, corpora, scene, shared_cache):
        rng = np.random.default_rng(5)
        parts = render_utterance(
            Category.BACKGROUND,
            corpora.expert.load(0),
            corpora.assistant.load(0),
            corpora.noise.load(0),
            scene,
            FS,
            rng,
            shared_cache,
        )
        assert set(parts) == {"noise"}

    def test_assistant_only_semantics(self, corpora, scene, shared_cache):
        parts = render_utterance(
            Category.ASSISTANT,
            corpora.expert.load(0),
            corpora.assistant.load(0),
            corpora.noise.load(0),
            scene,
            FS,
            np.random.default_rng(6),
            shared_cache,
        )
        assert set(parts) == {"assistant", "noise"}

    def test_mixture_power_ratio(self, corpora, scene, shared_cache):
        parts = render_utterance(
            Category.MIXTURE,
            corpora.expert.load(1),
            corpora.assistant.load(1),
            corpora.noise.load(1),
            scene,
            FS,
            np.random.default_rng(7),
            shared_cache,
        )
        ratio = measured_db_ratio(parts["assistant"], parts["expert"])
        assert ratio == pytest.approx(scene.power_ratio_db, abs=0.1)

    def test_snr_versus_expert(self, corpora, scene, shared_cache):
        parts = render_utterance(
            Category.EXPERT,
            corpora.expert.load(2),
            corpora.assistant.load(2),
            corpora.noise.load(2),
            scene,
            FS,
            np.random.default_rng(8),
            shared_cache,
        )
        snr = measured_db_ratio(parts["expert"], parts["noise"])
        assert snr == pytest.approx(scene.snr_db, abs=0.1)

    def test_utterance_is_sum_of_components(self, corpora, shared_cache, monkeypatch):
        rendered = []

        def capture(category, *args):
            parts = render_utterance(category, *args)
            rendered.append((category, parts))
            return parts

        monkeypatch.setattr(simulate, "render_utterance", capture)
        sample = make_sample(corpora, make_scene(seed=31), FS, shared_cache)
        assert [cat for cat, _ in rendered] == [cat for cat, _, _ in sample.segments]
        for (_, parts), (_, start, end) in zip(rendered, sample.segments):
            expected = (sum(parts.values()) * sample.peak_scale).astype(np.float32)
            np.testing.assert_array_equal(sample.audio[start:end], expected)

    def test_exact_duration(self, corpora, scene, shared_cache):
        parts = render_utterance(
            Category.EXPERT,
            corpora.expert.load(0),
            corpora.assistant.load(0),
            corpora.noise.load(0),
            scene,
            FS,
            np.random.default_rng(10),
            shared_cache,
        )
        assert {name: len(piece) for name, piece in parts.items()} == {"expert": 3 * FS, "noise": 3 * FS}

    def test_short_clip_rejected(self, corpora, scene, shared_cache):
        with pytest.raises(CorpusError, match="shorter"):
            render_utterance(
                Category.EXPERT,
                np.zeros(100),
                corpora.assistant.load(0),
                corpora.noise.load(0),
                scene,
                FS,
                np.random.default_rng(11),
                shared_cache,
            )


class TestMakeSample:
    def test_length_and_tiling(self, corpora, shared_cache):
        sample = make_sample(corpora, make_scene(seed=77), FS, shared_cache)
        assert len(sample.audio) == 12 * FS
        assert [s[0] for s in sorted(sample.segments, key=lambda s: s[1])] == [
            seg[0] for seg in sample.segments
        ]
        covered = [(s[1], s[2]) for s in sample.segments]
        assert covered == [(0, 3 * FS), (3 * FS, 6 * FS), (6 * FS, 9 * FS), (9 * FS, 12 * FS)]
        assert sorted(s[0].value for s in sample.segments) == ["00", "01", "10", "11"]

    def test_seed_determinism(self, corpora, shared_cache):
        a = make_sample(corpora, make_scene(seed=123), FS, shared_cache)
        b = make_sample(corpora, make_scene(seed=123), FS, shared_cache)
        np.testing.assert_array_equal(a.audio, b.audio)
        assert a.segments == b.segments

    def test_different_seeds_differ(self, corpora, shared_cache):
        a = make_sample(corpora, make_scene(seed=1), FS, shared_cache)
        b = make_sample(corpora, make_scene(seed=2), FS, shared_cache)
        assert not np.array_equal(a.audio, b.audio)

    def test_category_lookup(self, corpora, shared_cache):
        sample = make_sample(corpora, make_scene(seed=55), FS, shared_cache)
        for cat, start, end in sample.segments:
            assert sample.category_at(start) is cat
            assert sample.category_at(end - 1) is cat

    def test_corpus_rate_must_be_the_sample_rate(self, tmp_path):
        # 10 s clips at 800 Hz hold a 3 s segment at 1600 Hz too, so only the rate check can catch this
        dirs = [simulate.write_synthetic_corpus(tmp_path / name, 1, 10.0, 800, seed=i, kind=kind)
                for i, (name, kind) in enumerate((("e", "speech"), ("a", "speech"), ("n", "noise")))]
        corpora = Corpora.from_dirs(*dirs, sample_rate=800)
        message = f"corpus {dirs[0]} holds 800 Hz clips, not the sample's 1600 Hz"
        with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
            make_sample(corpora, make_scene(seed=3), 1600)
        out = tmp_path / "ds"
        with pytest.raises(CorpusError, match=f"^{re.escape(message)}$"):
            generate_dataset(corpora, SceneGrid(), (1, 0, 0), out, seed=0, sample_rate=1600)
        assert not out.exists()  # checked before the first mkdir


class TestSceneGrid:
    def test_sampled_scenes_obey_grid(self):
        grid = SceneGrid()
        rng = np.random.default_rng(3)
        for _ in range(50):
            scene = grid.sample(rng)
            assert scene.room.t60 in grid.t60_values
            assert scene.snr_db in grid.snr_values
            assert scene.power_ratio_db in grid.power_ratio_values
            assert scene.assistant_pos[0] in grid.assistant_x_values
            assert scene.assistant_pos[1:] == (1.0, 1.6)
            assert scene.expert_pos == (2.5, 0.5, 2.0)
            assert scene.mic_pos[2] == pytest.approx(1.59)

    @pytest.mark.parametrize("field,value,error,match", [
        ("t60_values", (0.4, 5.0), RoomError, r"t60 must lie in \[0.05, 3.0\] s, got 5.0"),
        ("t60_values", (), ValueError, "t60_values must hold at least one value"),
        ("t60_values", (0.4, 0.05), RoomError, "t60 0.05 s is infeasible for this room"),
        ("snr_values", (5.0, float("nan")), ValueError, "snr_values must be finite, got nan"),
        ("power_ratio_values", (float("inf"),), ValueError, "power_ratio_values must be finite, got inf"),
        ("expert_pos", (2.5, 7.0, 2.0), RoomError, "expert_pos coordinate 1 = 7.0 lies outside"),
        ("assistant_x_values", (0.5, 5.5), RoomError, "assistant position coordinate 0 = 5.5 lies outside"),
        ("mic_forward_offset", 5.5, RoomError, "mic position coordinate 1 = 6.5 lies outside"),
        ("mic_forward_offset", 0.0, RoomError, "assistant and microphone are 0.010 m apart"),
        ("expert_pos", (2.0, 1.08, 1.6), RoomError, "expert and microphone are 0.010 m apart"),
    ], ids=["t60-out-of-range", "t60-empty", "t60-infeasible", "snr-nan", "power-ratio-inf", "expert-outside",
            "assistant-outside", "mic-outside", "mic-on-assistant", "mic-on-expert"])
    def test_grid_values_checked_on_construction(self, field, value, error, match):
        with pytest.raises(error, match=match):
            SceneGrid(**{field: value})

    def test_scene_validation(self):
        room = RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.5)
        with pytest.raises(RoomError, match="outside"):
            SceneSpec(
                room=room,
                expert_pos=(6.0, 1.0, 1.0),
                assistant_pos=(2.0, 1.0, 1.6),
                mic_pos=(2.0, 1.08, 1.59),
                power_ratio_db=6.0,
                snr_db=10.0,
                seed=1,
            )
        with pytest.raises(RoomError, match="0.01 m below"):
            SceneSpec(
                room=room,
                expert_pos=(2.5, 0.5, 2.0),
                assistant_pos=(2.0, 1.0, 1.6),
                mic_pos=(2.0, 1.08, 1.53),
                power_ratio_db=6.0,
                snr_db=10.0,
                seed=1,
            )
        for dims in ((5.0, np.inf, 3.5), (np.nan, 6.0, 3.5), (5.0, 6.0, -1.0)):
            with pytest.raises(RoomError, match="dims must be three finite positive lengths"):
                RoomSpec(dims=dims, t60=0.5)
        for speed in (np.nan, np.inf, 0.0):
            with pytest.raises(RoomError, match="sound_speed must be finite and positive"):
                RoomSpec(dims=(5.0, 6.0, 3.5), t60=0.5, sound_speed=speed)
        for name in ("snr_db", "power_ratio_db"):
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                    make_scene(**{name: value})

    def test_round_trip_dict(self):
        scene = make_scene(seed=9)
        assert SceneSpec.from_dict(scene.to_dict()) == scene


class TestGenerateDataset:
    def test_counts_files_and_manifest(self, corpora, tmp_path):
        manifests = generate_dataset(corpora, SceneGrid(), (3, 2, 1), tmp_path / "ds", seed=7, sample_rate=FS)
        assert set(manifests) == {"train", "valid", "test"}
        for split, n in (("train", 3), ("valid", 2), ("test", 1)):
            lines = manifests[split].read_text().splitlines()
            assert len(lines) == n
            wavs = sorted((tmp_path / "ds" / split).glob("*.wav"))
            labels = sorted((tmp_path / "ds" / split).glob("*.labels"))
            assert len(wavs) == n and len(labels) == n

    def test_manifest_records_grid_scenes(self, corpora, tmp_path):
        import json

        manifests = generate_dataset(corpora, SceneGrid(), (4, 0, 0), tmp_path / "ds2", seed=11, sample_rate=FS)
        grid = SceneGrid()
        for line in manifests["train"].read_text().splitlines():
            rec = json.loads(line)
            scene = SceneSpec.from_dict(rec["scene"])
            assert scene.assistant_pos[0] in grid.assistant_x_values
            assert rec["wav"].startswith("train/")
            assert rec["peak_scale"] > 0

    def test_same_seed_byte_identical(self, corpora, tmp_path):
        m1 = generate_dataset(corpora, SceneGrid(), (2, 1, 1), tmp_path / "a", seed=21, sample_rate=FS)
        m2 = generate_dataset(corpora, SceneGrid(), (2, 1, 1), tmp_path / "b", seed=21, sample_rate=FS)
        for split in ("train", "valid", "test"):
            assert m1[split].read_bytes() == m2[split].read_bytes()
        for rel in ("train/sample_00000.wav", "train/sample_00001.wav", "valid/sample_00000.wav"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("counts", [(1, 1), (1, -1, 1), (1.0, 1, 1), (True, 1, 1)])
    def test_bad_counts_rejected(self, tmp_path, counts):
        with pytest.raises(ValueError, match="three non-negative integers"):
            generate_dataset(None, SceneGrid(), counts, tmp_path / "ds", seed=0, sample_rate=FS)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_bad_seed_rejected_naming_it(self, tmp_path, seed):
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {seed!r}$"):
            generate_dataset(None, SceneGrid(), (1, 1, 1), tmp_path / "ds", seed=seed, sample_rate=FS)
        assert not (tmp_path / "ds").exists()

    def test_empty_corpus_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(CorpusError, match="no .wav files"):
            Corpora.from_dirs(tmp_path / "empty", tmp_path / "empty", tmp_path / "empty", sample_rate=FS)
