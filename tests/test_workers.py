"""The shared worker pool: result order, error order, concurrent callers
and nested calls."""
import os
import sys
import threading
import time

import pytest

from conedrive import workers


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_come_back_in_part_order(monkeypatch, count):
    monkeypatch.setattr(workers, "WORKERS", count)

    def task(part):
        time.sleep(0.002 * (5 - part))          # later parts finish first
        return part * part

    assert workers.run(task, list(range(6))) == [p * p for p in range(6)]
    assert workers.run(task, [4]) == [16]
    assert workers.run(task, []) == []


def test_first_error_in_part_order_comes_after_every_task(monkeypatch):
    monkeypatch.setattr(workers, "WORKERS", 3)
    finished = []

    def task(part):
        # part 1 fails first and part 3 ends last
        time.sleep({0: 0.05, 3: 0.1}.get(part, 0))
        finished.append(part)
        if part in (0, 1):
            raise RuntimeError(f"part {part} failed")
        return part

    with pytest.raises(RuntimeError, match="part 0 failed"):
        workers.run(task, [0, 1, 2, 3])
    assert sorted(finished) == [0, 1, 2, 3]


def test_concurrent_callers_share_one_pool(monkeypatch):
    """Callers on several threads that race to make the pool all get the
    same one: the tasks of a round run on at most ``WORKERS`` threads."""
    callers = 6
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in (3, 4) * 5:                # each change of count remakes the pool
            monkeypatch.setattr(workers, "WORKERS", count)
            start = threading.Barrier(callers, timeout=30)
            ran_on, results = set(), []

            def task(part):
                ran_on.add(threading.get_ident())
                return part

            def call():
                start.wait()
                results.append(workers.run(task, list(range(8))))

            threads = [threading.Thread(target=call) for _ in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [list(range(8))] * callers
            assert len(ran_on) <= count
    finally:
        sys.setswitchinterval(old)


def _nested_run():
    """A two-part ``run`` whose tasks each ``run`` three parts; each inner
    part records the thread it ran on beside the outer part's."""
    def outer(a):
        here = threading.get_ident()
        return workers.run(lambda b: (a, b, threading.get_ident() == here), [0, 1, 2])

    return workers.run(outer, [0, 1])


def _within(seconds, fn):
    """``fn()``, run on a thread that may take ``seconds`` to return."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "the call did not return: a run waited on the pool"
    return out[0]


INLINE = [[(a, b, True) for b in range(3)] for a in range(2)]


@pytest.mark.parametrize("count", [2, 3])
def test_nested_run_runs_inline_on_the_pool_thread(monkeypatch, count):
    """An inner ``run`` on a pool thread runs its parts in order there, so
    it gives what ``WORKERS`` = 1 gives and never waits on the pool."""
    monkeypatch.setattr(workers, "WORKERS", 1)
    assert _nested_run() == INLINE
    monkeypatch.setattr(workers, "WORKERS", count)
    for _ in range(5):
        assert _within(20, _nested_run) == INLINE


def test_nested_run_is_inline_where_threads_cannot_be_bound(monkeypatch):
    """The pool marks its threads where ``os.sched_setaffinity`` is missing
    too."""
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(workers, "WORKERS", 2)
    # the next run makes a pool of its own; the shared one comes back after
    monkeypatch.setattr(workers, "_executor", None)
    monkeypatch.setattr(workers, "_owner", None)
    try:
        assert _within(20, _nested_run) == INLINE
    finally:
        if workers._executor is not None:
            workers._executor.shutdown(wait=False)
