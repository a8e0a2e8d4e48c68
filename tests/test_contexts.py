"""The execution contexts of ``tests.contexts`` really run where they say.

The golden, invariant and serving suites lean on these contexts for
their thread and process coverage, so each one is checked here: who ran
the call, how many copies came back, and that a worker's failure fails
the caller.
"""

import os
import threading

import pytest

from .contexts import CONTEXTS, run_forked, run_serial, run_threaded


def where():
    return os.getpid(), threading.get_ident()


def test_serial_runs_once_on_the_calling_thread():
    assert run_serial(where) == [where()]


def test_threaded_runs_on_two_other_threads_at_once():
    barrier = threading.Barrier(2, timeout=30)

    def meet():
        barrier.wait()  # both workers must be alive at the same time
        return where()

    results = run_threaded(meet)
    assert len(set(results)) == 2
    assert all(pid == os.getpid() for pid, _ in results)
    assert where() not in results


def test_forked_runs_in_two_child_processes():
    pids = [pid for pid, _ in run_forked(where)]
    assert len(set(pids)) == 2 and os.getpid() not in pids


class Boom(RuntimeError):
    pass


def explode():
    raise Boom("worker failed")


@pytest.mark.parametrize("run", CONTEXTS)
def test_worker_failure_fails_the_caller(run):
    with pytest.raises((Boom, AssertionError), match="worker failed|Boom"):
        run(explode)
