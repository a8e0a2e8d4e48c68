"""Execution contexts the suites drive the one compute backend from.

Serving calls the backend from several threads at once (the batcher runs
every assign on an executor thread) and from several forked processes
(``repro serve --workers N``).  Suites that parametrize over
:data:`CONTEXTS` compute each result in three contexts and require every
copy to match the same reference:

* ``serial`` — once, on the calling thread;
* ``threaded-2`` — twice at once, from two threads sharing the backend
  instance and the fixtures' arrays;
* ``process-2`` — twice at once, in two forked worker processes; each
  result comes back pickled.

A context is a callable: ``run(fn)`` calls ``fn()`` in that context and
returns the list of results, one per worker.  A worker's exception (or a
worker process's traceback) fails the test.
"""

import multiprocessing
import threading
import time
import traceback

import pytest

#: Workers per parallel context.
WORKERS = 2

#: Seconds a parallel run may take before the test fails as hung.
TIMEOUT = 300.0


def run_serial(fn):
    """``fn()`` once, on the calling thread."""
    return [fn()]


def run_threaded(fn, workers=WORKERS):
    """``fn()`` from ``workers`` threads started together."""
    barrier = threading.Barrier(workers)
    results = [None] * workers
    errors = []

    def work(i):
        try:
            barrier.wait(TIMEOUT)
            results[i] = fn()
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + TIMEOUT
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            raise TimeoutError(f"worker thread still running after {TIMEOUT}s")
    if errors:
        raise errors[0]
    return results


def run_forked(fn, workers=WORKERS):
    """``fn()`` in ``workers`` forked processes running side by side.

    Fork, not spawn: the multi-worker server forks its workers
    (:mod:`repro.serving.workers`), and ``fn`` is usually a closure over
    the test's fixtures, which only a forked child inherits without
    pickling.  A child that hangs (say, on a lock another thread held at
    the fork) fails the test after :data:`TIMEOUT` and is killed.
    """
    ctx = multiprocessing.get_context("fork")

    def child(conn):
        try:
            conn.send((True, fn()))
        except BaseException:
            conn.send((False, traceback.format_exc()))

    procs, pipes = [], []
    try:
        for _ in range(workers):
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send,))
            proc.start()
            send.close()
            procs.append(proc)
            pipes.append(receive)
        deadline = time.monotonic() + TIMEOUT
        results = []
        for receive in pipes:
            if not receive.poll(max(0.0, deadline - time.monotonic())):
                raise TimeoutError(f"worker process still running after {TIMEOUT}s")
            try:
                ok, value = receive.recv()
            except EOFError:
                raise AssertionError("worker process died without a result")
            if not ok:
                raise AssertionError(f"worker process failed:\n{value}")
            results.append(value)
        return results
    finally:
        for proc in procs:
            proc.kill()  # no-op for a worker that already exited
            proc.join()
        for receive in pipes:
            receive.close()


CONTEXTS = [
    pytest.param(run_serial, id="serial"),
    pytest.param(run_threaded, id="threaded-2"),
    pytest.param(run_forked, id="process-2"),
]
