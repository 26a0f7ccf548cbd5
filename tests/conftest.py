"""Shared fixtures: synthetic corpora and small scenes."""

import numpy as np
import pytest

from classvoice import cores, simulate
from classvoice.simulate import (
    Corpora,
    RoomSpec,
    SceneSpec,
    write_synthetic_corpus,
)


@pytest.fixture
def blas_pin():
    """The BLAS pin, with BLAS at 2 threads for the test and at its own count after it; skips without one."""
    pin = cores._BLAS_PIN
    if pin is None:
        pytest.skip("no OpenBLAS thread-count setter found in the BLAS numpy loaded")
    before = pin.get_threads()
    pin.set_threads(2)
    yield pin
    pin.set_threads(before)


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory):
    """Three small synthetic corpora at 16 kHz (expert, assistant, noise)."""
    root = tmp_path_factory.mktemp("corpora")
    write_synthetic_corpus(root / "expert", count=4, seconds=5.0, sample_rate=16000, seed=101, kind="speech", f0_range=(95.0, 150.0))
    write_synthetic_corpus(root / "assistant", count=4, seconds=5.0, sample_rate=16000, seed=202, kind="speech", f0_range=(160.0, 250.0))
    write_synthetic_corpus(root / "noise", count=4, seconds=5.0, sample_rate=16000, seed=303, kind="noise")
    return root


@pytest.fixture(scope="session")
def corpora(corpus_root):
    return Corpora.from_dirs(
        corpus_root / "expert",
        corpus_root / "assistant",
        corpus_root / "noise",
        sample_rate=16000,
    )


def make_scene(seed=42, t60=0.4, assistant_x=2.0, snr_db=10.0, power_ratio_db=6.0):
    room = RoomSpec(dims=(5.0, 6.0, 3.5), t60=t60)
    return SceneSpec(
        room=room,
        expert_pos=(2.5, 0.5, 2.0),
        assistant_pos=(assistant_x, 1.0, 1.6),
        mic_pos=(assistant_x, 1.08, 1.59),
        power_ratio_db=power_ratio_db,
        snr_db=snr_db,
        seed=seed,
    )


@pytest.fixture
def scene():
    return make_scene()


def direct_path_rir(room, source, mic, fs):
    """The direct path alone of ``image_source_rir``'s RIR: one 1/distance kernel at its delay."""
    dist = simulate._check_apart(source, mic, "source")
    taps = simulate.SINC_KERNEL_TAPS
    length = int(np.ceil(room.t60 * fs))
    h = np.zeros(length + 2 * taps)
    simulate._deposit(h, np.array([dist / room.sound_speed * fs]), np.array([1.0 / dist]))
    return h[taps : taps + length].copy()
