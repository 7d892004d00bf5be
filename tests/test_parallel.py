import threading
import warnings

import numpy as np
import pytest

from levylab import parallel


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)


def test_results_come_in_task_order_off_the_calling_thread(two_cpus):
    def task(i):
        return i, threading.current_thread() is threading.main_thread()

    with parallel.task_pool(5) as pool:
        assert pool is not None
        results = list(parallel.run_tasks(pool, task, [(i,) for i in range(5)]))
    assert results == [(i, False) for i in range(5)]


@pytest.mark.parametrize("n_tasks, cpus", [(1, 2), (3, 1)])
def test_one_task_or_one_cpu_runs_inline(monkeypatch, n_tasks, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    with parallel.task_pool(n_tasks) as pool:
        assert pool is None
        assert list(parallel.run_tasks(pool, threading.current_thread, [()])) == [
            threading.main_thread()]


def test_two_task_section_runs_one_task_beside_the_caller(two_cpus):
    started, released = threading.Event(), threading.Event()

    def task():
        started.set()
        return released.wait(timeout=10), threading.current_thread()

    with parallel.task_pool(2) as pool:
        results = parallel.run_tasks(pool, task, [()])
        assert started.wait(timeout=10)  # the task runs before its result is read
        released.set()
        ((waited, thread),) = results
    assert waited and thread is not threading.main_thread()


def test_section_opened_in_a_pool_task_runs_inline(two_cpus):
    def nested():
        with parallel.task_pool(4) as inner:
            here = threading.current_thread()
            threads = list(parallel.run_tasks(inner, threading.current_thread, [()] * 4))
            return inner, here, threads

    before = threading.active_count()
    with parallel.task_pool(2) as pool:
        ((inner, here, threads),) = parallel.run_tasks(pool, nested, [()])
    assert inner is None and here is not threading.main_thread()
    assert threads == [here] * 4
    assert threading.active_count() == before


def test_tasks_run_under_the_submitters_error_state(two_cpus):
    def overflow():
        return np.float64(1e308) * np.array([10.0])

    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with parallel.task_pool(2) as pool:
            results = list(parallel.run_tasks(pool, overflow, [(), ()]))
    assert all(np.isinf(r).all() for r in results)
    with np.errstate(over="raise"), parallel.task_pool(2) as pool:
        with pytest.raises(FloatingPointError):
            list(parallel.run_tasks(pool, overflow, [(), ()]))
