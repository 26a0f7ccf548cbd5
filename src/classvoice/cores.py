"""The cores this process may run on, and an in-order map that uses them all.

numpy releases the interpreter lock inside its array kernels, so
independent pieces of array work overlap on threads. OpenBLAS also runs
threads of its own inside every GEMM. Several workers that each start a
multi-threaded GEMM oversubscribe the cores: a paper-size offline run on
2 cores took 3374 ms on 2 workers with 2 BLAS threads, against 3135 ms on
one worker and 2241 ms on 2 workers with BLAS pinned to one thread. So
``map_in_order`` runs its workers only while BLAS is pinned to one thread,
and on the calling thread alone when the pin is not available.

One window of the causal network runs as time chunks on this map too
(``MultiScaleTCN.window_probs``), and every GEMM of that call, from the
encoder's to the classifier's, runs inside the map, so the pin covers the
whole call. It has to: after a GEMM on two BLAS threads, OpenBLAS's second
thread spins on the other core for a while, and that is where the helper
runs the second chunk. A paper-size window on 2 cores (OpenBLAS 0.3.31),
medians of 35 windows in three alternating runs: 120, 129 and 136 ms with
the whole call pinned, against 155, 190 and 159 ms with one two-thread
encoder-sized GEMM just before each call.

The same map builds the simulator's room impulse responses, one per core.
An RIR build makes no BLAS call, so it needs no pin, but it shares the
one rule: without the pin, RIRs build one after another on the calling
thread too. That keeps one thread pool, and one place that decides how
many cores work, at the price of a serial simulator on a BLAS whose
thread count cannot be set.

The helper threads persist: each is started the first time a map needs
it and then serves every later map, so a process holds at most
``worker_count() - 1`` of them. glibc serves each thread's allocations
from a malloc arena of its own and keeps much of what is freed there for
reuse rather than returning it, so every fresh thread can leave resident
memory behind. When this was measured on training at ``reduced_config()``
(the ``train_reduced`` benchmark, 2 cores, one map per Adam batch), a
fresh helper per map raised the peak RSS by 16-19% in 5 of 8 runs, while
one persistent helper stayed within 3% of a single malloc arena
(``MALLOC_ARENA_MAX=1``) in 4 of 4. The absolute peaks have fallen since,
as later changes cut what a training graph holds.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import queue
import threading
from pathlib import Path

import numpy as np

# the OpenBLAS (get, set) thread-count symbols, by build: numpy's wheels, then
# 64-bit-integer and plain OpenBLAS builds
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def worker_count() -> int:
    """Cores this process may run on: one worker thread each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _BlasPin:
    """Holds BLAS at one thread while any section holds the pin.

    The thread count is one per process, so the pin is too: overlapping
    sections from any threads share one pinned period, and the last one
    out restores the count that was in effect before the first came in.
    """

    def __init__(self, get_threads, set_threads):
        self.get_threads, self.set_threads = get_threads, set_threads
        self._lock = threading.Lock()
        self.holders = 0
        self._saved = 0

    def __enter__(self):
        with self._lock:
            if self.holders == 0:
                self._saved = self.get_threads()
                self.set_threads(1)
            self.holders += 1

    def __exit__(self, *exc):
        with self._lock:
            self.holders -= 1
            if self.holders == 0:
                self.set_threads(self._saved)


def _find_blas_pin() -> _BlasPin | None:
    """The pin on the OpenBLAS that numpy loaded; None when its thread-count setter cannot be found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))  # the library numpy already loaded, not a second copy
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _BlasPin(get, set_)
    return None


# looked up once, at import, so every caller shares the one pin
_BLAS_PIN = _find_blas_pin()


def one_blas_thread():
    """A ``with`` context holding BLAS at one thread, the pin ``map_in_order`` shares; a no-op without the pin."""
    return _BLAS_PIN if _BLAS_PIN is not None else contextlib.nullcontext()


def usable_workers() -> int:
    """The most workers ``map_in_order`` runs: one per usable core, or one when BLAS cannot be pinned."""
    return worker_count() if _BLAS_PIN is not None else 1


class _Helpers:
    """Daemon threads that run queued work, started on demand and kept for the life of the process."""

    def __init__(self):
        self._work = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._started = 0

    def start(self, work, count: int):
        """Queue ``work`` ``count`` times, first starting helpers until there are at least ``count``."""
        with self._lock:
            while self._started < count:
                threading.Thread(target=self._serve, name="map_in_order helper", daemon=True).start()
                self._started += 1
        for _ in range(count):
            self._work.put(work)

    def _serve(self):
        while True:
            self._work.get()()


_HELPERS = _Helpers()


def map_in_order(fn, items) -> list:
    """``[fn(x) for x in items]``, computed by this thread and one helper per further usable core.

    Workers take the items in order, one at a time, and each result lands
    at its item's index, so a caller that combines the results in order
    gets the same bits on any number of cores. While helpers run, BLAS is
    pinned to one thread; without the pin, or with one usable core or
    item, everything runs on this thread. When ``fn`` raises, no further
    item is started, and once every worker has stopped the exception of
    the earliest failing item is raised here with its own type, as the
    serial loop would raise it.

    The helpers are shared by every map in the process. A helper that
    starts on a map late, once its items have run out or one has failed,
    finds no item and returns, so this thread waits only for the items
    in flight: a map whose helpers are busy, or an ``fn`` that itself
    calls ``map_in_order``, still finishes.
    """
    items = list(items)
    workers = min(usable_workers(), len(items))
    if workers <= 1:
        return [fn(x) for x in items]

    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    idle = threading.Condition()
    pending = iter(enumerate(items))
    running = 0  # items a worker has taken and not yet finished

    def work():
        nonlocal running
        while True:
            with idle:
                job = None if errors else next(pending, None)
                if job is None:
                    return
                running += 1
            index, item = job
            try:
                results[index] = fn(item)
            except BaseException as exc:  # re-raised by the calling thread below
                with idle:
                    errors[index] = exc
            with idle:
                running -= 1
                idle.notify()

    with _BLAS_PIN:
        _HELPERS.start(work, workers - 1)
        work()
        with idle:
            idle.wait_for(lambda: running == 0)
    if errors:
        raise errors[min(errors)]
    return results
