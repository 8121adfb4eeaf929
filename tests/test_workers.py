"""The shared worker pool: result order, error order and concurrent callers."""
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
