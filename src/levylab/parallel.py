"""The thread pool behind the ensemble engine and the training loop.

numpy releases the GIL inside its ufunc loops and generator fills, so
independent pieces of one array computation run in parallel on threads.
The ensemble engine splits its lanes into tasks; training runs its
minibatch gradients as a task while the calling thread runs the full-batch
pass, and its SGD steps as a task while the calling thread estimates the
noise tails.
A parallel section opens a pool of one thread per usable CPU (the process's
CPU affinity), at most one per task, for its own duration, and shuts it on
exit, also on error, so no thread outlives the call that made it.  Tasks
run under the numpy error state of the thread that submits them, since
numpy keeps that state per thread.

Pools never nest: a section opened on a pool thread runs its tasks inline
on that thread, so a pool thread never submits to a pool or waits on one.
Every pool thread marks itself in a thread-local flag when it starts, so no
caller has to pass the rule along.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

_local = threading.local()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _mark_pool_thread():
    _local.in_pool = True


@contextmanager
def task_pool(n_tasks: int):
    """A pool for ``n_tasks`` tasks at a time, or None where they run inline.

    ``n_tasks`` counts work done at once, so a caller that works between
    submitting a task and reading its result counts its own work as one:
    ``task_pool(2)`` lets one submitted task run beside the caller.  None
    when there are fewer than two tasks or usable CPUs, or when the caller is
    itself a pool thread; then each task runs on the calling thread when its
    result is read.
    """
    workers = min(usable_cpus(), n_tasks)
    if workers < 2 or getattr(_local, "in_pool", False):
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, initializer=_mark_pool_thread)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _under(err, fn, *args):
    with np.errstate(**err):
        return fn(*args)


def run_tasks(pool, fn, tasks):
    """Results of ``fn(*task)`` in task order: on the pool if there is one, else inline, lazily."""
    if pool is None:
        return (fn(*task) for task in tasks)
    err = np.geterr()
    futures = [pool.submit(_under, err, fn, *task) for task in tasks]
    return (f.result() for f in futures)
