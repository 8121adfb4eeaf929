"""One pool of worker threads, shared by the package's data-parallel loops.

Batched evaluation (its batches, in ``metrics.predict``), convolution (its
frame chunks, in ``layers``) and corpus loading (its frame decodes, in
``corpus``) split their work into independent parts and hand them to
``run``. numpy releases the interpreter lock inside its kernels and file
reads release it too, so the parts run on separate cores. Each part writes
only what it owns, and ``run`` returns the results in part order, so a
result never depends on the worker count.

A ``run`` called from a task already on the pool runs its parts in order
on that thread, so loops nest freely: an eval batch forwarded on a pool
thread convolves its chunks there, and the pool never waits on itself.
"""
from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Threads of the pool: the CPUs this process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_executor: ThreadPoolExecutor | None = None
_owner: tuple[int, int] | None = None     # (pid, workers) it was made for
# threads of one process that call ``run`` at once must not each make a pool
_lock = threading.Lock()
# ``on_pool`` is set on the pool's own threads, by its initializer
_thread = threading.local()


def _pool() -> ThreadPoolExecutor:
    """The shared pool, made on first use. It is made again in a forked
    child, whose copy has no live threads, and when ``WORKERS`` changes.

    Each worker marks itself as a pool thread and, where the platform
    allows, binds itself to the next CPU this process may run on, in turn.
    A kernel that does not balance load across CPUs (a cpuset with load
    balancing off, say) keeps a new thread on the CPU of the thread that
    made it, so unbound workers would all share one core."""
    global _executor, _owner
    with _lock:
        owner = (os.getpid(), WORKERS)
        if _owner != owner:
            if _executor is not None and _owner[0] == owner[0]:
                _executor.shutdown(wait=False)
            cpus = (itertools.cycle(sorted(os.sched_getaffinity(0)))
                    if hasattr(os, "sched_setaffinity") else None)

            def start():
                _thread.on_pool = True
                if cpus is not None:
                    os.sched_setaffinity(0, {next(cpus)})

            _executor = ThreadPoolExecutor(WORKERS, thread_name_prefix="worker",
                                           initializer=start)
            _owner = owner
        return _executor


def run(task, parts: list) -> list:
    """``[task(part) for part in parts]``, the parts run on the shared pool.

    Returns once every task has finished, re-raising the first error in part
    order. One part, ``WORKERS == 1``, or a call from a pool thread (a task
    that calls ``run``) runs the parts in order on the calling thread, so a
    task may call ``run`` and never waits on the pool for it.
    """
    if len(parts) <= 1 or WORKERS == 1 or getattr(_thread, "on_pool", False):
        return [task(part) for part in parts]
    futures = [_pool().submit(task, part) for part in parts]
    wait(futures)
    return [future.result() for future in futures]
