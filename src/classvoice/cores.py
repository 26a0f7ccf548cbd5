"""The cores this process may run on, and an in-order map that uses them all.

numpy releases the interpreter lock inside its array kernels, so
independent pieces of array work overlap on threads. OpenBLAS also runs
threads of its own inside every GEMM. Several workers that each start a
multi-threaded GEMM oversubscribe the cores: a paper-size offline run on
2 cores took 3374 ms on 2 workers with 2 BLAS threads, against 3135 ms on
one worker and 2241 ms on 2 workers with BLAS pinned to one thread. So
``map_in_order`` runs its workers only while BLAS is pinned to one thread,
and on the calling thread alone when the pin is not available.

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
memory behind. Training at ``reduced_config()`` (the ``train_reduced``
benchmark, 2 cores, one map per Adam batch) peaked at 207 MB in some runs
and 240-246 MB in 5 of 8 with a fresh helper per map, at 204 MB with
``MALLOC_ARENA_MAX=1``, and at 208-209 MB in 4 of 4 with one persistent
helper.
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


class _Job:
    """One helper's share of a map: run by the first helper that takes it, unless the caller cancels it first."""

    def __init__(self, work):
        self.work = work
        self._claim = threading.Lock()  # held by whichever of a helper and the caller takes the job first
        self._done = threading.Event()

    def run(self):
        if self._claim.acquire(blocking=False):
            try:
                self.work()
            finally:
                self._done.set()

    def cancel_or_wait(self):
        """Cancel the job if no helper has started it, else wait for it to finish."""
        if not self._claim.acquire(blocking=False):
            self._done.wait()


class _Helpers:
    """Daemon threads that run queued jobs, started on demand and kept for the life of the process."""

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._started = 0

    def start(self, work, count: int) -> list[_Job]:
        """Queue ``count`` jobs running ``work``, first starting helpers until there are at least ``count``."""
        with self._lock:
            while self._started < count:
                threading.Thread(target=self._serve, name="map_in_order helper", daemon=True).start()
                self._started += 1
        jobs = [_Job(work) for _ in range(count)]
        for job in jobs:
            self._jobs.put(job)
        return jobs

    def _serve(self):
        while True:
            self._jobs.get().run()


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

    The helpers are shared by every map in the process. Once this thread
    finds no item left, it cancels its helper jobs that no helper has
    started and waits only for the started ones, so a map whose helpers
    are busy, or an ``fn`` that itself calls ``map_in_order``, still
    finishes.
    """
    items = list(items)
    workers = min(worker_count(), len(items))
    pin = _BLAS_PIN if workers > 1 else None
    if pin is None:
        return [fn(x) for x in items]

    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    lock = threading.Lock()
    pending = iter(enumerate(items))

    def work():
        while True:
            with lock:
                job = None if errors else next(pending, None)
            if job is None:
                return
            index, item = job
            try:
                results[index] = fn(item)
            except BaseException as exc:  # re-raised by the calling thread below
                with lock:
                    errors[index] = exc

    with pin:
        jobs = _HELPERS.start(work, workers - 1)
        try:
            work()
        finally:
            for job in jobs:
                job.cancel_or_wait()
    if errors:
        raise errors[min(errors)]
    return results
