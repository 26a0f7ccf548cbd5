"""WAV reader/writer contracts: scaling, round trips, rejection of bad files."""

import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classvoice.wavio import WavFile, WavFormatError, read_wav, write_wav


class TestScaling:
    def test_int_extremes_map_to_unit_range(self, tmp_path):
        path = tmp_path / "extremes.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(struct.pack("<3h", -32768, 0, 32767))
        wav = read_wav(path)
        assert wav.samples[0] == pytest.approx(-1.0)
        assert wav.samples[1] == 0.0
        assert wav.samples[2] == pytest.approx(32767 / 32768)

    def test_write_clamps_and_rounds_half_away(self, tmp_path):
        path = tmp_path / "clamp.wav"
        # 1.5/32768 rounds away from zero to 2; -1.5/32768 to -2
        samples = np.array([2.0, -2.0, 1.5 / 32768, -1.5 / 32768], dtype=np.float32)
        write_wav(path, WavFile(sample_rate=8000, samples=samples))
        with wave.open(str(path), "rb") as w:
            ints = struct.unpack("<4h", w.readframes(4))
        assert ints == (32767, -32768, 2, -2)


class TestRoundTrip:
    def test_quantized_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = (rng.integers(-32768, 32768, size=5000).astype(np.float64) / 32768.0).astype(
            np.float32
        )
        p1 = tmp_path / "a.wav"
        p2 = tmp_path / "b.wav"
        write_wav(p1, WavFile(sample_rate=16000, samples=quantized))
        first = read_wav(p1)
        np.testing.assert_array_equal(first.samples, quantized)
        write_wav(p2, first)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sample_rate_preserved(self, tmp_path):
        path = tmp_path / "sr.wav"
        write_wav(path, WavFile(sample_rate=44100, samples=np.zeros(10, np.float32)))
        assert read_wav(path).sample_rate == 44100


class TestRejection:
    def test_stereo_rejected_naming_channels(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00" * 8)
        with pytest.raises(WavFormatError, match="channels=2"):
            read_wav(path)

    def test_wrong_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "wide.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(4)
            w.setframerate(16000)
            w.writeframes(b"\x00" * 16)
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        # hand-built RIFF with IEEE-float format tag (3)
        path = tmp_path / "float.wav"
        data = b"\x00" * 8
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_truncated_file_rejected(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, WavFile(sample_rate=16000, samples=np.zeros(1000, np.float32)))
        bad = tmp_path / "trunc.wav"
        bad.write_bytes(good.read_bytes()[:-500])
        with pytest.raises(WavFormatError):
            read_wav(bad)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"this is not a wav file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)


@pytest.fixture(scope="module")
def small_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "small.wav"
    write_wav(path, WavFile(sample_rate=800, samples=np.linspace(-0.5, 0.5, 40, dtype=np.float32)))
    return path


class TestMalformedWav:
    """Every damaged file reads or raises WavFormatError starting with its path."""

    HEADER_BYTES = 44  # RIFF, fmt and data chunk headers of a plain PCM file

    @given(truncate=st.booleans(), length=st.integers(0, 10**3), at=st.integers(0, HEADER_BYTES - 1), mask=st.integers(1, 255))
    @example(truncate=False, length=0, at=16, mask=1)  # an odd fmt chunk size
    @settings(max_examples=300, deadline=None)
    def test_truncated_or_flipped_file_reads_or_names_the_path(self, small_wav, tmp_path_factory, truncate, length, at, mask):
        blob = bytearray(small_wav.read_bytes())
        if truncate:
            blob = blob[: length % (len(blob) + 1)]
        else:
            blob[at] ^= mask
        path = tmp_path_factory.mktemp("prop") / "c.wav"
        path.write_bytes(bytes(blob))
        try:
            read_wav(path)
        except WavFormatError as exc:
            assert str(exc).startswith(f"{path}: ")
