"""Minimal 16-bit PCM mono WAV reading and writing.

Integer sample s maps to s/32768 on read; writing quantizes with
round-half-away-from-zero and clamps to int16, so write(read(x)) is
byte-stable for quantized audio.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np


class WavFormatError(ValueError):
    """The file is not the 16-bit PCM mono WAV this tool works with."""


@dataclass
class WavFile:
    sample_rate: int
    samples: np.ndarray  # float32 in [-1, 1]

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate


def read_wav(path) -> WavFile:
    """Read a RIFF/WAVE file; rejects stereo, non-PCM, and truncated files."""
    try:
        with wave.open(str(path), "rb") as w:
            channels = w.getnchannels()
            if channels != 1:
                raise WavFormatError(f"{path}: expected mono audio, got channels={channels}")
            width = w.getsampwidth()
            if width != 2:
                raise WavFormatError(f"{path}: expected 16-bit samples, got sample width {width}")
            if w.getcomptype() != "NONE":
                raise WavFormatError(f"{path}: expected PCM data, got compression {w.getcomptype()!r}")
            n = w.getnframes()
            rate = w.getframerate()
            frames = w.readframes(n)
    except wave.Error as exc:
        raise WavFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    except (EOFError, RuntimeError) as exc:  # wave raises a bare RuntimeError for some bad chunk sizes
        raise WavFormatError(f"{path}: truncated WAV file or bad chunk size") from exc
    if len(frames) != 2 * n:
        raise WavFormatError(
            f"{path}: truncated WAV payload ({len(frames)} bytes for {n} declared frames)"
        )
    ints = np.frombuffer(frames, dtype="<i2")
    return WavFile(sample_rate=rate, samples=(ints / 32768.0).astype(np.float32))


def write_wav(path, wav: WavFile):
    """Write mono 16-bit PCM; floats are clamped to [-1, 1] before quantizing."""
    x = np.asarray(wav.samples, dtype=np.float64)
    if x.ndim != 1:
        raise WavFormatError(f"{path}: samples must be 1-D mono, got shape {x.shape}")
    scaled = np.clip(x, -1.0, 1.0) * 32768.0
    q = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    q = np.clip(q, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(int(wav.sample_rate))
        w.writeframes(q.tobytes())
