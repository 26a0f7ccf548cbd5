"""The benchmark's self-test imports classvoice from ./src and the bench modules by name."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def pytest_configure(config):
    config.addinivalue_line("markers", "bench: self-test of the benchmark (`pytest bench`; not part of tier-1)")
