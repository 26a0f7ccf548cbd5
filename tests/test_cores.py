"""map_in_order: results in item order, workers on every core, the BLAS pin and errors."""

import sys
import threading

import pytest

from classvoice import cores


def test_results_are_in_item_order_and_every_worker_runs(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 3)
    barrier = threading.Barrier(3, timeout=60)

    def fn(x):
        if x < 3:
            barrier.wait()  # the first three items run at once, so on three threads
        return x * x, threading.get_ident(), blas_pin.get_threads()

    out = cores.map_in_order(fn, iter(range(10)))
    assert [square for square, _, _ in out] == [x * x for x in range(10)]
    assert len({ident for _, ident, _ in out[:3]}) == 3
    assert threading.get_ident() in {ident for _, ident, _ in out}  # the caller is a worker
    assert {threads for _, _, threads in out} == {1}
    assert blas_pin.get_threads() == 2 and blas_pin.holders == 0


def test_helper_error_is_raised_with_its_type_and_blas_restored(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 2)
    caller = threading.get_ident()
    barrier = threading.Barrier(2, timeout=60)

    class HelperError(Exception):
        pass

    def fn(x):
        if x < 2:
            barrier.wait()  # both workers hold an item
        if threading.get_ident() != caller:
            raise HelperError(x)
        return x

    with pytest.raises(HelperError):
        cores.map_in_order(fn, range(6))
    assert blas_pin.get_threads() == 2 and blas_pin.holders == 0


def test_the_earliest_failing_item_raises(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 2)

    def fn(x):
        if x in (3, 5):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as info:
        cores.map_in_order(fn, range(8))
    assert info.value.args == (3,)
    assert blas_pin.get_threads() == 2


def test_without_the_blas_setter_everything_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(cores, "worker_count", lambda: 4)
    monkeypatch.setattr(cores, "_BLAS_PIN", None)
    assert cores.map_in_order(lambda _: threading.get_ident(), range(9)) == [threading.get_ident()] * 9


def test_one_core_runs_on_the_calling_thread_with_blas_untouched(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 1)
    out = cores.map_in_order(lambda _: (threading.get_ident(), blas_pin.get_threads()), range(5))
    assert out == [(threading.get_ident(), 2)] * 5


def test_many_overlapping_maps_keep_blas_pinned_and_restore_it(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 3)
    seen = [[] for _ in range(6)]

    def user(i):
        for _ in range(50):
            seen[i] += cores.map_in_order(lambda x: (x, blas_pin.get_threads()), range(4))

    threads = [threading.Thread(target=user, args=(i,)) for i in range(6)]
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
    assert seen == [[(x, 1) for x in range(4)] * 50] * 6
    assert blas_pin.get_threads() == 2 and blas_pin.holders == 0


def test_a_nested_map_finishes(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 2)
    out = []

    def fn(x):  # each outer item maps again; the helpers may all be busy with outer items
        return sum(cores.map_in_order(lambda y: x * y, range(5)))

    runner = threading.Thread(target=lambda: out.append(cores.map_in_order(fn, range(6))))
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive()
    assert out == [[10 * x for x in range(6)]]
    assert blas_pin.get_threads() == 2 and blas_pin.holders == 0


def test_helpers_persist_across_maps(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 3)
    barrier = threading.Barrier(3, timeout=60)
    workers = set()
    counts = []

    def fn(x):
        if x < 3:
            barrier.wait()  # so every map runs on three threads
        workers.add(threading.current_thread())
        return x

    for _ in range(50):
        assert cores.map_in_order(fn, range(6)) == list(range(6))
        counts.append(threading.active_count())
    assert counts == [counts[0]] * 50
    helpers = workers - {threading.current_thread()}
    assert len(helpers) >= 2 and all(t.is_alive() for t in helpers)  # they outlive the maps they served


def test_a_helper_that_starts_late_runs_nothing(monkeypatch, blas_pin):
    monkeypatch.setattr(cores, "worker_count", lambda: 2)
    monkeypatch.setattr(cores, "_HELPERS", cores._Helpers())  # one helper of this test's own
    caller = threading.get_ident()
    helper_busy, release = threading.Event(), threading.Event()

    def hold(x):
        if x == 0:
            assert helper_busy.wait(timeout=60)  # so the helper takes item 1
        else:
            helper_busy.set()
            assert release.wait(timeout=60)
        return x

    first = []
    runner = threading.Thread(target=lambda: first.append(cores.map_in_order(hold, range(2))))
    runner.start()
    assert helper_busy.wait(timeout=60)

    ran_on = []
    items = range(5)
    assert cores.map_in_order(lambda x: ran_on.append(threading.get_ident()) or x, items) == list(items)
    assert ran_on == [caller] * len(items)  # the helper was busy, so the caller ran every item

    release.set()
    runner.join(timeout=60)
    assert first == [[0, 1]]
    barrier = threading.Barrier(2, timeout=60)

    def meet(x):
        if x < 2:
            barrier.wait()  # the helper runs one of these, so it has dequeued the second map's work before
        return x

    assert cores.map_in_order(meet, range(4)) == list(range(4))
    assert ran_on == [caller] * len(items)  # the second map's late helper ran none of its items
    assert blas_pin.get_threads() == 2 and blas_pin.holders == 0
