"""Simulated classroom scenes: room impulse responses, mixing, labeled samples.

A shoebox room with uniform Sabine absorption is simulated with the
image-source method; fractional delays are rendered with an 81-tap
Hann-windowed sinc. Utterances of the four categories are rendered by
convolving dry clips with the source RIRs, imposing the assistant/expert
power ratio (mixture only) and the expert/noise SNR on the reverberant
signals, then concatenated in seeded random order into 12 s training
samples. A sample has one sample rate: the rate its corpora checked every
clip against, which ``make_sample`` requires to be the rate it renders at.

Everything is driven by 64-bit seeds: identical seeds give identical
bytes, whatever the number of cores. Samples are generated one after
another and share an RIR cache; each sample owns an RNG stream derived
from (seed, index), so they could also be generated in parallel. The
cache builds its missing RIRs one per usable core through
``cores.map_in_order``, and each RIR is one serial unit: its image
kernels are summed in fixed chunks, added in chunk order on one thread.
So every float addition happens in the same order on any core count,
and the output bytes cannot change.

The package imports only numpy. Dry clips are convolved with their RIRs
by numpy's real FFT at the length scipy's ``fftconvolve`` picks (the
smallest 5-smooth length that holds the full convolution), and the
synthetic noise's one-pole low-pass is the exact sequential recursion
``lfilter`` evaluates, so both give the bytes the scipy versions gave.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cores import map_in_order
from .model import CATEGORY_ORDER, Category
from .wavio import WavFile, read_wav, read_wav_header, write_wav

SPEED_OF_SOUND = 343.0
MIN_SOURCE_MIC_DISTANCE = 0.05
MIC_DROP = 0.01  # the neckline microphone hangs this far below the assistant, in meters
SEGMENT_SECONDS = 3.0  # each category's utterance in a sample: four make one 12 s sample
SINC_KERNEL_TAPS = 81
# Images whose kernels are summed in a zeroed accumulator before the sum is
# added into the RIR. The chunk boundaries (restarting in each parity
# octant) fix the order of the float additions, so changing this size
# changes output bits.
_IMAGE_CHUNK = 4096


class RoomError(ValueError):
    """Invalid geometry or an infeasible room/T60 combination."""


class CorpusError(ValueError):
    """A corpus directory or clip cannot be used."""


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room: dimensions in meters, target reverberation time."""

    dims: tuple[float, float, float]
    t60: float
    sound_speed: float = SPEED_OF_SOUND

    def __post_init__(self):
        if len(self.dims) != 3 or not all(0 < d < math.inf for d in self.dims):  # also false for NaN
            raise RoomError(f"room dims must be three finite positive lengths, got {self.dims}")
        if not 0.05 <= self.t60 <= 3.0:
            raise RoomError(f"t60 must lie in [0.05, 3.0] s, got {self.t60}")
        if not 0 < self.sound_speed < math.inf:
            raise RoomError(f"sound_speed must be finite and positive, got {self.sound_speed}")

    @property
    def volume(self) -> float:
        x, y, z = self.dims
        return x * y * z

    @property
    def surface_area(self) -> float:
        x, y, z = self.dims
        return 2.0 * (x * y + x * z + y * z)


@dataclass(frozen=True)
class SceneSpec:
    """Geometry and level targets for one simulated scene.

    power_ratio_db is assistant over expert (mixture utterances only);
    snr_db is expert over noise. The microphone hangs MIC_DROP below the
    assistant position.
    """

    room: RoomSpec
    expert_pos: tuple[float, float, float]
    assistant_pos: tuple[float, float, float]
    mic_pos: tuple[float, float, float]
    power_ratio_db: float
    snr_db: float
    seed: int

    def __post_init__(self):
        for name, value in (("power_ratio_db", self.power_ratio_db), ("snr_db", self.snr_db)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, pos in (
            ("expert_pos", self.expert_pos),
            ("assistant_pos", self.assistant_pos),
            ("mic_pos", self.mic_pos),
        ):
            _check_inside(self.room, pos, name)
        drop = self.assistant_pos[2] - self.mic_pos[2]
        if abs(drop - MIC_DROP) > 1e-9:
            raise RoomError(
                f"microphone must sit {MIC_DROP} m below the assistant, got drop {drop:.6f} m"
            )
        if self.seed < 0:
            raise ValueError(f"scene seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "room": {
                "dims": list(self.room.dims),
                "t60": self.room.t60,
                "sound_speed": self.room.sound_speed,
            },
            "expert_pos": list(self.expert_pos),
            "assistant_pos": list(self.assistant_pos),
            "mic_pos": list(self.mic_pos),
            "power_ratio_db": self.power_ratio_db,
            "snr_db": self.snr_db,
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        room = RoomSpec(
            dims=tuple(d["room"]["dims"]),
            t60=d["room"]["t60"],
            sound_speed=d["room"].get("sound_speed", SPEED_OF_SOUND),
        )
        return cls(
            room=room,
            expert_pos=tuple(d["expert_pos"]),
            assistant_pos=tuple(d["assistant_pos"]),
            mic_pos=tuple(d["mic_pos"]),
            power_ratio_db=d["power_ratio_db"],
            snr_db=d["snr_db"],
            seed=int(d["seed"]),
        )


def _check_inside(room: RoomSpec, pos, name: str):
    if len(pos) != 3:
        raise RoomError(f"{name} must have three coordinates, got {pos}")
    for axis, (p, d) in enumerate(zip(pos, room.dims)):
        if not 0.0 < p < d:
            raise RoomError(f"{name} coordinate {axis} = {p} lies outside the room (0, {d})")


def _check_apart(source, mic, name: str) -> float:
    """The source-microphone distance; RoomError naming the source below MIN_SOURCE_MIC_DISTANCE."""
    dist = float(np.linalg.norm(np.asarray(source, dtype=np.float64) - np.asarray(mic, dtype=np.float64)))
    if dist < MIN_SOURCE_MIC_DISTANCE:
        raise RoomError(f"{name} and microphone are {dist:.3f} m apart; minimum is {MIN_SOURCE_MIC_DISTANCE} m")
    return dist


@dataclass
class LabeledSample:
    """12 s of audio tiled by four 3 s segments, one per category."""

    audio: np.ndarray
    segments: list  # (Category, start_sample, end_sample), half-open
    sample_rate: int
    peak_scale: float = 1.0

    def __post_init__(self):
        seg_len = round(SEGMENT_SECONDS * self.sample_rate)
        if len(self.segments) != 4:
            raise ValueError(f"expected four segments, got {len(self.segments)}")
        cats = [seg[0] for seg in self.segments]
        if sorted(c.value for c in cats) != [c.value for c in CATEGORY_ORDER]:
            raise ValueError(f"each category must appear exactly once, got {[str(c) for c in cats]}")
        pos = 0
        for cat, start, end in self.segments:
            if start != pos or end - start != seg_len:
                raise ValueError(
                    f"segments must tile the audio in 3 s pieces; segment {cat} spans [{start}, {end})"
                )
            pos = end
        if pos != len(self.audio):  # pos now spans one segment per category
            seconds = SEGMENT_SECONDS * len(CATEGORY_ORDER)
            raise ValueError(f"audio must be exactly {seconds:g} s ({pos} samples), got {len(self.audio)}")

    def category_at(self, sample_index: int) -> Category:
        if not 0 <= sample_index < len(self.audio):
            raise ValueError(f"sample index {sample_index} outside [0, {len(self.audio)})")
        for cat, start, end in self.segments:
            if start <= sample_index < end:
                return cat
        raise AssertionError("segments no longer tile the audio")


# ---------------------------------------------------------------------------
# room acoustics


def sabine_absorption(room: RoomSpec) -> float:
    """Uniform wall absorption from the Sabine relation 0.161*V/(S*T60)."""
    alpha = 0.161 * room.volume / (room.surface_area * room.t60)
    if alpha > 1.0:
        raise RoomError(
            f"t60 {room.t60} s is infeasible for this room (Sabine absorption {alpha:.3f} > 1)"
        )
    return alpha


def image_source_rir(
    room: RoomSpec,
    source,
    mic,
    sample_rate: int,
) -> np.ndarray:
    """Image-source room impulse response, ceil(t60*fs) samples long.

    Walls share the uniform reflection coefficient -sqrt(1 - alpha) per
    bounce (alpha from Sabine; the negated coefficient avoids the
    coherent low-frequency pile-up of the all-positive image method,
    which would inflate the measured decay time). Each image deposits an
    81-tap Hann-windowed sinc at its fractional delay, scaled by
    beta**bounces/distance; the direct path is scaled 1/distance.
    The image lattice covers every path up to
    t60 * sound_speed meters; later arrivals sit below -60 dB by
    definition of T60.
    """
    src = np.asarray(source, dtype=np.float64)
    mc = np.asarray(mic, dtype=np.float64)
    _check_inside(room, src, "source")
    _check_inside(room, mc, "microphone")
    _check_apart(src, mc, "source")
    fs = int(sample_rate)
    c = room.sound_speed
    length = int(np.ceil(room.t60 * fs))
    alpha = sabine_absorption(room)
    beta = -np.sqrt(1.0 - alpha)
    half = (SINC_KERNEL_TAPS - 1) // 2
    h = np.zeros(length + 2 * SINC_KERNEL_TAPS, dtype=np.float64)

    dims = np.asarray(room.dims, dtype=np.float64)
    orders = np.ceil(c * room.t60 / (2.0 * dims)).astype(int)
    axes_n = [np.arange(-o, o + 1) for o in orders]
    max_delay = (length - 1) + half

    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                par = (px, py, pz)
                coords = []
                gains_ax = []
                for ax in range(3):
                    n = axes_n[ax]
                    coord = (1 - 2 * par[ax]) * src[ax] + 2.0 * n * dims[ax]
                    bounces = np.abs(n + par[ax]) + np.abs(n)
                    coords.append(coord - mc[ax])
                    gains_ax.append(beta**bounces)
                d2 = (
                    coords[0][:, None, None] ** 2
                    + coords[1][None, :, None] ** 2
                    + coords[2][None, None, :] ** 2
                )
                g = (
                    gains_ax[0][:, None, None]
                    * gains_ax[1][None, :, None]
                    * gains_ax[2][None, None, :]
                )
                # in place, so the lattices of RIRs built side by side stay small
                np.sqrt(d2, out=d2)
                d = d2.reshape(-1)
                delays = d / c
                delays *= fs
                keep = delays <= max_delay
                g = g.reshape(-1)[keep]
                g /= d[keep]
                del d, d2
                _deposit(h, delays[keep], g)
    return h[SINC_KERNEL_TAPS : SINC_KERNEL_TAPS + length].copy()


_TAP_OFFSETS = np.arange(SINC_KERNEL_TAPS)
_TAP_COS = np.cos(2.0 * np.pi * _TAP_OFFSETS / SINC_KERNEL_TAPS)
_TAP_SIN = np.sin(2.0 * np.pi * _TAP_OFFSETS / SINC_KERNEL_TAPS)
_TAP_SIGN = np.where(_TAP_OFFSETS % 2 == 0, 1.0, -1.0)

# Images per block of the kernel evaluation. Each block's temporaries
# (~1.4 MB) stay in cache; blocks of 256 images ran ~20% slower on a
# 2-core Xeon, where per-call overhead and the interpreter-lock hand-off
# between the two threads dominate, and 1024 gained ~5% more for twice
# the tiled constants below. Blocking splits only elementwise
# operations, so it does not change any value.
_IMAGE_BLOCK = 512
# The per-tap constants tiled to one block, so every per-tap operation is
# between two contiguous arrays; numpy runs those several times faster
# than an operation that broadcasts a [n, 1] column against a row.
_BLOCK_COS = np.tile(_TAP_COS, (_IMAGE_BLOCK, 1))
_BLOCK_SIN = np.tile(_TAP_SIN, (_IMAGE_BLOCK, 1))
_BLOCK_SIGN = np.tile(_TAP_SIGN, (_IMAGE_BLOCK, 1))
_BLOCK_OFFSETS = np.tile(_TAP_OFFSETS.astype(np.float64), (_IMAGE_BLOCK, 1))
_BLOCK_INDEX = np.tile(_TAP_OFFSETS + SINC_KERNEL_TAPS, (_IMAGE_BLOCK, 1))


def _deposit(h: np.ndarray, delays: np.ndarray, gains: np.ndarray):
    """Accumulate Hann-windowed sinc kernels at fractional sample delays.

    ``h`` must carry SINC_KERNEL_TAPS guard samples on each side so no
    index masking is needed. The images are cut into _IMAGE_CHUNK
    chunks. Each chunk's kernels are summed in image order into a zeroed
    accumulator, one _IMAGE_BLOCK at a time with ``np.add.at`` (the order
    ``np.bincount`` would add them in), and the chunk sums are added into
    ``h`` in chunk order.

    The window and sinc are expanded with angle addition so only three
    trig evaluations are needed per image instead of two per tap. Each
    tap value takes the same float operations in the same order as
    ``0.5 * (1.0 + cf*C - sf*S) * ((sin_pi_u*sign) / (pi*t)) * gain``.
    """
    taps = SINC_KERNEL_TAPS
    half = (taps - 1) // 2
    acc = np.empty_like(h)
    kernel = np.empty((_IMAGE_BLOCK, taps))
    index = np.empty((_IMAGE_BLOCK, taps), dtype=np.int64)
    t = np.empty((_IMAGE_BLOCK, taps))
    part = np.empty((_IMAGE_BLOCK, taps))
    exact = np.empty((_IMAGE_BLOCK, taps), dtype=bool)
    for start in range(0, len(delays), _IMAGE_CHUNK):
        dl, gn = delays[start : start + _IMAGE_CHUNK], gains[start : start + _IMAGE_CHUNK]
        base = np.ceil(dl - half).astype(np.int64)
        u = base - dl  # fractional offset of the first tap, in [-half, -half+1)
        cf = np.cos(2.0 * np.pi * u / taps)
        sf = np.sin(2.0 * np.pi * u / taps)
        sin_pi_u = np.sin(np.pi * u)  # sin(pi*t) = sin(pi*u) * (-1)^tap
        acc.fill(0.0)
        with np.errstate(divide="ignore", invalid="ignore"):  # error state is per thread
            for lo in range(0, len(dl), _IMAGE_BLOCK):
                hi = min(lo + _IMAGE_BLOCK, len(dl))
                n = hi - lo
                k, tb, pb, eb = kernel[:n], t[:n], part[:n], exact[:n]
                np.copyto(k, cf[lo:hi, None])
                k *= _BLOCK_COS[:n]
                k += 1.0
                np.copyto(pb, sf[lo:hi, None])
                pb *= _BLOCK_SIN[:n]
                k -= pb
                k *= 0.5  # the Hann window
                np.copyto(tb, u[lo:hi, None])
                tb += _BLOCK_OFFSETS[:n]  # tap time relative to the delay
                np.abs(tb, out=pb)
                np.less(pb, 1e-12, out=eb)
                tb *= np.pi
                np.copyto(pb, sin_pi_u[lo:hi, None])
                pb *= _BLOCK_SIGN[:n]
                pb /= tb  # the sinc
                if eb.any():
                    pb[eb] = 1.0
                k *= pb
                np.copyto(pb, gn[lo:hi, None])
                k *= pb
                ib = index[:n]
                np.copyto(ib, base[lo:hi, None])
                ib += _BLOCK_INDEX[:n]
                np.add.at(acc, ib.ravel(), k.ravel())
        h += acc


class RirCache:
    """Memoizes RIRs by exact scene geometry; safe because grids are discrete."""

    def __init__(self):
        self._store = {}

    def fill(self, requests):
        """Build the RIR of every (room, source, mic, sample_rate) request not yet stored, one per core.

        Each distinct missing RIR is built once, in first-seen order,
        through ``cores.map_in_order``.
        """
        missing = {}
        for request in requests:
            key = _rir_key(*request)
            if key not in self._store:
                missing.setdefault(key, request)
        self._store.update(zip(missing, map_in_order(lambda r: image_source_rir(*r), missing.values())))

    def get(self, room: RoomSpec, source, mic, sample_rate: int) -> np.ndarray:
        self.fill([(room, source, mic, sample_rate)])
        return self._store[_rir_key(room, source, mic, sample_rate)]


def _rir_key(room: RoomSpec, source, mic, sample_rate: int) -> tuple:
    return (room.dims, room.t60, room.sound_speed, tuple(source), tuple(mic), int(sample_rate))


def _scene_rirs(scene: SceneSpec, sample_rate: int) -> list[tuple]:
    """The (room, source, mic, sample_rate) requests of a scene's RIRs: the expert's, then the assistant's."""
    return [(scene.room, pos, scene.mic_pos, int(sample_rate)) for pos in (scene.expert_pos, scene.assistant_pos)]


# ---------------------------------------------------------------------------
# level control


def scale_to_snr(reference: np.ndarray, interferer: np.ndarray, snr_db: float) -> np.ndarray:
    """Scale the interferer so 10*log10(P_ref/P_interferer) equals snr_db."""
    interferer = np.asarray(interferer, dtype=np.float64)
    p_ref = _power(reference)
    p_int = _power(interferer)
    if p_ref <= 1e-12 or p_int <= 1e-12:
        raise ValueError("scale_to_snr needs non-silent signals (power > 1e-12)")
    gain = np.sqrt(p_ref / (p_int * 10.0 ** (snr_db / 10.0)))
    return gain * interferer


def _power(x: np.ndarray) -> float:
    return float(np.mean(np.asarray(x, dtype=np.float64) ** 2))


# ---------------------------------------------------------------------------
# utterance rendering


def render_utterance(
    category: Category,
    expert_dry: np.ndarray,
    assistant_dry: np.ndarray,
    noise: np.ndarray,
    scene: SceneSpec,
    sample_rate: int,
    rng: np.random.Generator,
    rir_cache: RirCache,
) -> dict[str, np.ndarray]:
    """Render the active sources of one SEGMENT_SECONDS utterance separately.

    Returns a dict with keys among {"expert", "assistant", "noise"}, in
    that order; the utterance is their sample-wise sum. The noise level is
    always set relative to the reverberant expert (a virtual one when the
    expert is inactive), keeping the noise floor consistent across
    categories.
    """
    fs = int(sample_rate)
    n = round(SEGMENT_SECONDS * fs)

    expert_crop = _crop(expert_dry, n, rng, "expert")
    assistant_crop = _crop(assistant_dry, n, rng, "assistant")
    noise_crop = _crop(noise, n, rng, "noise")

    rir_expert, rir_assistant = (rir_cache.get(*request) for request in _scene_rirs(scene, fs))
    rev_expert = _convolve(expert_crop, rir_expert)[:n]

    components: dict[str, np.ndarray] = {}
    if category.expert_bit:
        components["expert"] = rev_expert
    if category.assistant_bit:
        rev_assistant = _convolve(assistant_crop, rir_assistant)[:n]
        if category is Category.MIXTURE:
            gain = np.sqrt(
                _power(rev_expert) * 10.0 ** (scene.power_ratio_db / 10.0) / _power(rev_assistant)
            )
            rev_assistant = gain * rev_assistant
        components["assistant"] = rev_assistant
    components["noise"] = scale_to_snr(rev_expert, noise_crop, scene.snr_db)
    return components


def _fast_fft_length(n: int) -> int:
    """The smallest 5-smooth integer (2**i * 3**j * 5**k) at least ``n`` >= 1: scipy's real fast FFT length."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5  # runs over 3**j * 5**k below best
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full linear convolution of two 1-D float64 arrays, bit-identical to ``scipy.signal.fftconvolve``.

    Like scipy, a length-1 operand is a plain product, and otherwise both
    operands are zero-padded to ``_fast_fft_length`` of the full length.
    """
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    size = _fast_fft_length(n)
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _crop(clip: np.ndarray, n: int, rng: np.random.Generator, name: str) -> np.ndarray:
    clip = np.asarray(clip, dtype=np.float64)
    if len(clip) < n:
        raise CorpusError(f"{name} clip has {len(clip)} samples, shorter than the required {n}")
    start = int(rng.integers(0, len(clip) - n + 1))
    return clip[start : start + n]


# ---------------------------------------------------------------------------
# corpora


class Corpus:
    """A directory of mono WAV clips at one sample rate, checked on construction, loaded lazily and cached.

    Construction reads each clip's header, not its samples, and raises an
    error naming the clip when it is not a 16-bit PCM mono WAV, when its
    rate is not ``sample_rate``, or when it is shorter than one
    ``SEGMENT_SECONDS`` segment at that rate. So every clip ``pick``
    returns holds at least one segment at ``sample_rate``, the only rate
    ``make_sample`` renders this corpus at.
    """

    def __init__(self, path, sample_rate: int):
        self.path = Path(path)
        self.files = sorted(self.path.glob("*.wav"))
        if not self.files:
            raise CorpusError(f"corpus directory {self.path} contains no .wav files")
        self.sample_rate = sample_rate
        segment = round(SEGMENT_SECONDS * sample_rate)
        for file in self.files:
            rate, frames = read_wav_header(file)
            if rate != sample_rate:
                raise CorpusError(f"{file} has sample rate {rate}, expected {sample_rate}")
            if frames < segment:
                raise CorpusError(
                    f"{file} is {frames} samples long, shorter than one {SEGMENT_SECONDS:g} s segment ({segment})"
                )
        self._cache: dict[int, np.ndarray] = {}

    def __len__(self):
        return len(self.files)

    def load(self, index: int) -> np.ndarray:
        if index not in self._cache:
            self._cache[index] = read_wav(self.files[index]).samples.astype(np.float64)
        return self._cache[index]

    def pick(self, rng: np.random.Generator) -> np.ndarray:
        return self.load(int(rng.integers(0, len(self.files))))


@dataclass
class Corpora:
    """The three source pools a scene draws from."""

    expert: Corpus
    assistant: Corpus
    noise: Corpus

    @classmethod
    def from_dirs(cls, expert_dir, assistant_dir, noise_dir, sample_rate: int):
        return cls(
            expert=Corpus(expert_dir, sample_rate),
            assistant=Corpus(assistant_dir, sample_rate),
            noise=Corpus(noise_dir, sample_rate),
        )


# ---------------------------------------------------------------------------
# sample and dataset generation


def _check_rates(corpora: Corpora, fs: int):
    """CorpusError naming the first corpus whose clips were checked at a rate other than ``fs``."""
    for corpus in (corpora.expert, corpora.assistant, corpora.noise):
        if corpus.sample_rate != fs:
            raise CorpusError(f"corpus {corpus.path} holds {corpus.sample_rate} Hz clips, not the sample's {fs} Hz")


def make_sample(
    corpora: Corpora,
    scene: SceneSpec,
    sample_rate: int,
    rir_cache: RirCache | None = None,
) -> LabeledSample:
    """Render the four categories and concatenate them in seeded random order.

    The scene's two RIRs, when ``rir_cache`` lacks them, are built side by
    side first. Raises CorpusError naming the corpus when its clips were
    checked at a rate other than ``sample_rate``.
    """
    fs = int(sample_rate)
    _check_rates(corpora, fs)
    cache = rir_cache or RirCache()
    cache.fill(_scene_rirs(scene, fs))
    seg = round(SEGMENT_SECONDS * fs)
    ss = np.random.SeedSequence([int(scene.seed)])
    children = ss.spawn(5)
    order = np.random.default_rng(children[0]).permutation(4)
    cats = [CATEGORY_ORDER[i] for i in order]

    parts = []
    segments = []
    for slot, cat in enumerate(cats):
        rng = np.random.default_rng(children[1 + slot])
        expert = corpora.expert.pick(rng)
        assistant = corpora.assistant.pick(rng)
        noise = corpora.noise.pick(rng)
        utterance = np.zeros(seg)
        for piece in render_utterance(cat, expert, assistant, noise, scene, fs, rng, cache).values():
            utterance += piece
        parts.append(utterance)
        segments.append((cat, slot * seg, (slot + 1) * seg))

    audio = np.concatenate(parts)
    peak = float(np.max(np.abs(audio))) if len(audio) else 0.0
    scale = 0.9 / peak if peak > 1.0 else 1.0
    audio = (audio * scale).astype(np.float32)
    return LabeledSample(audio=audio, segments=segments, sample_rate=fs, peak_scale=scale)


@dataclass(frozen=True)
class SceneGrid:
    """The discrete parameter grid scenes are drawn from.

    The expert is fixed; the assistant moves along x at fixed y/z. The
    microphone hangs MIC_DROP below the assistant and, because a
    source-on-top-of-mic geometry is degenerate for the image-source
    model, mic_forward_offset in front of it along y (a neckline-mic
    offset).

    room_dims: room size x, y, z in meters. sound_speed: in m/s.
    t60_values: reverberation time grid in seconds. snr_values:
    expert/noise SNR grid in dB. power_ratio_values: assistant/expert
    power-ratio grid in dB (mixture utterances). assistant_x_values:
    assistant x positions; assistant_y/assistant_z fix the other two
    coordinates. expert_pos: expert position x, y, z. All in meters
    unless stated. Every value is checked on construction by the rules its
    scenes must meet, so a bad grid fails before any output is written.
    """

    room_dims: tuple[float, float, float] = (5.0, 6.0, 3.5)
    sound_speed: float = SPEED_OF_SOUND
    t60_values: tuple = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    snr_values: tuple = tuple(float(v) for v in range(5, 16))
    power_ratio_values: tuple = tuple(float(v) for v in range(3, 13))
    assistant_x_values: tuple = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5)
    assistant_y: float = 1.0
    assistant_z: float = 1.6
    expert_pos: tuple[float, float, float] = (2.5, 0.5, 2.0)
    mic_forward_offset: float = 0.08

    def __post_init__(self):
        for name in ("t60_values", "snr_values", "power_ratio_values", "assistant_x_values"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must hold at least one value")
        for t60 in self.t60_values:
            room = RoomSpec(dims=self.room_dims, t60=t60, sound_speed=self.sound_speed)
            sabine_absorption(room)  # each t60 must be feasible in the room
        for name in ("snr_values", "power_ratio_values"):
            for value in getattr(self, name):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        _check_inside(room, self.expert_pos, "expert_pos")
        for ax in self.assistant_x_values:
            assistant, mic = self._placement(ax)
            _check_inside(room, assistant, "assistant position")
            _check_inside(room, mic, "mic position")
            _check_apart(assistant, mic, "assistant")
            _check_apart(self.expert_pos, mic, "expert")

    def _placement(self, ax: float):
        """(assistant, mic) positions for the assistant at x = ax."""
        assistant = (ax, self.assistant_y, self.assistant_z)
        return assistant, (ax, self.assistant_y + self.mic_forward_offset, self.assistant_z - MIC_DROP)

    def sample(self, rng: np.random.Generator) -> SceneSpec:
        t60 = self.t60_values[int(rng.integers(len(self.t60_values)))]
        snr = self.snr_values[int(rng.integers(len(self.snr_values)))]
        ratio = self.power_ratio_values[int(rng.integers(len(self.power_ratio_values)))]
        assistant, mic = self._placement(self.assistant_x_values[int(rng.integers(len(self.assistant_x_values)))])
        seed = int(rng.integers(0, 2**63 - 1))
        return SceneSpec(
            room=RoomSpec(dims=self.room_dims, t60=t60, sound_speed=self.sound_speed),
            expert_pos=self.expert_pos,
            assistant_pos=assistant,
            mic_pos=mic,
            power_ratio_db=ratio,
            snr_db=snr,
            seed=seed,
        )


def generate_dataset(
    corpora: Corpora,
    grid: SceneGrid,
    counts: tuple[int, int, int],
    out_dir,
    seed: int,
    sample_rate: int,
) -> dict[str, Path]:
    """Write WAV + label sidecar pairs and one JSONL manifest per split.

    counts is (train, valid, test). Every record carries the relative
    file paths, the peak-normalization scale, and the full SceneSpec.
    Returns {split: manifest_path}. Bad counts or a negative seed raise
    ValueError, and a corpus checked at a rate other than ``sample_rate``
    raises CorpusError, before anything is created under ``out_dir``. Every
    split's scenes are drawn, and their RIRs built, before the first sample
    is rendered.
    """
    counts = tuple(counts)
    whole = all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in counts)
    if len(counts) != 3 or not whole or min(counts) < 0:
        raise ValueError(f"counts must be three non-negative integers (train, valid, test), got {counts}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_rates(corpora, int(sample_rate))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    split_seeds = np.random.SeedSequence(int(seed)).spawn(3)
    splits = {
        split: [grid.sample(np.random.default_rng(child)) for child in split_ss.spawn(count)]
        for split, count, split_ss in zip(("train", "valid", "test"), counts, split_seeds)
    }
    cache = RirCache()
    cache.fill(r for scenes in splits.values() for scene in scenes for r in _scene_rirs(scene, sample_rate))
    manifests: dict[str, Path] = {}
    for split, scenes in splits.items():
        split_dir = out / split
        split_dir.mkdir(exist_ok=True)
        records = []
        for i, scene in enumerate(scenes):
            sample = make_sample(corpora, scene, sample_rate, cache)
            wav_rel = f"{split}/sample_{i:05d}.wav"
            labels_rel = f"{split}/sample_{i:05d}.labels"
            write_wav(out / wav_rel, WavFile(sample_rate=sample.sample_rate, samples=sample.audio))
            lines = [f"{start},{end},{cat.value}" for cat, start, end in sample.segments]
            (out / labels_rel).write_text("\n".join(lines) + "\n")
            records.append(
                {
                    "wav": wav_rel,
                    "labels": labels_rel,
                    "sample_rate": sample.sample_rate,
                    "peak_scale": sample.peak_scale,
                    "scene": scene.to_dict(),
                }
            )
        # written via .partial + rename so an interrupted run never leaves a
        # complete-looking manifest
        manifest_path = out / f"manifest_{split}.jsonl"
        partial = out / f"manifest_{split}.jsonl.partial"
        with open(partial, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(partial, manifest_path)
        manifests[split] = manifest_path
    return manifests


# ---------------------------------------------------------------------------
# synthetic corpora (for demos and tests; any WAV directory works instead)


def synthesize_speech_clip(
    rng: np.random.Generator,
    seconds: float,
    sample_rate: int,
    f0_range: tuple[float, float] = (100.0, 220.0),
) -> np.ndarray:
    """A voice-like harmonic clip: vibrato f0, 1/h harmonic rolloff, syllabic AM."""
    fs = int(sample_rate)
    n = round(seconds * fs)
    t = np.arange(n) / fs
    f0 = rng.uniform(*f0_range)
    vib = 1.0 + 0.03 * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * vib) / fs
    sig = np.zeros(n)
    for harm in range(1, 9):
        sig += np.sin(harm * phase + rng.uniform(0, 2 * np.pi)) / harm
    syllable = np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t + rng.uniform(0, 2 * np.pi)) ** 2
    sig *= 0.25 + 0.75 * syllable
    sig += 0.01 * rng.standard_normal(n)
    return (0.5 * sig / np.max(np.abs(sig))).astype(np.float64)


def synthesize_noise_clip(rng: np.random.Generator, seconds: float, sample_rate: int) -> np.ndarray:
    """Broadband background: low-passed white noise with a white floor."""
    n = round(seconds * int(sample_rate))
    white = rng.standard_normal(n)
    low = _one_pole_lowpass(white, 0.97)
    low /= np.max(np.abs(low))
    mix = 0.8 * low + 0.2 * white / np.max(np.abs(white))
    return (0.5 * mix / np.max(np.abs(mix))).astype(np.float64)


def _one_pole_lowpass(x: np.ndarray, pole: float) -> np.ndarray:
    """y[n] = x[n] + pole * y[n-1] from y[-1] = 0, rounded step by step as ``lfilter([1], [1, -pole], x)`` rounds it."""
    y = 0.0
    out = []
    for value in x.tolist():
        y = value + pole * y
        out.append(y)
    return np.array(out, dtype=np.float64)


def write_synthetic_corpus(
    directory,
    count: int,
    seconds: float,
    sample_rate: int,
    seed: int,
    kind: str = "speech",
    f0_range: tuple[float, float] = (100.0, 220.0),
) -> Path:
    """Write ``count`` deterministic synthetic clips into a corpus directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        if kind == "speech":
            clip = synthesize_speech_clip(rng, seconds, sample_rate, f0_range)
        elif kind == "noise":
            clip = synthesize_noise_clip(rng, seconds, sample_rate)
        else:
            raise ValueError(f"unknown corpus kind {kind!r}")
        write_wav(directory / f"clip_{i:03d}.wav", WavFile(sample_rate=int(sample_rate), samples=clip))
    return directory
