"""Concurrent ``transform`` on one fitted model: the serving thread-safety
contract.

A serving worker shares a single fitted model between many request
threads (the batcher runs every assign on an executor thread).
``transform``/``assign`` must therefore be reentrant: the transform-time
state is read-only after fit and the serial backend holds no state.  This
suite hammers one model from pools of eight threads — two pools in one
process, or one pool in each of two forked processes — and requires every
response to be bitwise identical to the single-threaded reference —
interleaving may change scheduling, never bits.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness

from ..contexts import CONTEXTS
from .test_transform_vectorized import make_dataset

N_THREADS = 8
ROUNDS = 3


@pytest.fixture(scope="module")
def fitted():
    return Anonymizer(KAnonymity(4) & TCloseness(0.4)).fit(
        make_dataset(500, 11, grid=True)
    )


@pytest.fixture(scope="module")
def batches():
    return [make_dataset(400, seed, grid=True) for seed in range(4)]


@pytest.fixture
def short_switch_interval():
    """Switch threads as often as possible, so calls truly interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def hammer(fn, jobs):
    """``fn(job)`` for every job, from a pool of ``N_THREADS`` threads."""
    with ThreadPoolExecutor(N_THREADS) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        return [future.result(timeout=60) for future in futures]


@pytest.mark.usefixtures("short_switch_interval")
@pytest.mark.parametrize(
    "run", [context for context in CONTEXTS if context.id != "serial"]
)
class TestConcurrentServing:
    """Each worker of a parallel execution context (``tests.contexts``)
    hammers the model from its own thread pool: two pools in one process,
    or one pool in each of two forked processes (the multi-worker
    server's shape)."""

    def test_concurrent_transform_bitwise(self, fitted, batches, run):
        references = [fitted.transform(b) for b in batches]
        jobs = list(zip(batches, references)) * ROUNDS

        for released in run(lambda: hammer(fitted.transform, [b for b, _ in jobs])):
            for (_, reference), got in zip(jobs, released):
                for name in reference.attribute_names:
                    np.testing.assert_array_equal(
                        reference.values(name), got.values(name)
                    )

    def test_concurrent_assign_bitwise(self, fitted, batches, run):
        references = [fitted.assign(b) for b in batches]
        jobs = list(zip(batches, references)) * ROUNDS

        for assigned in run(lambda: hammer(fitted.assign, [b for b, _ in jobs])):
            for (_, reference), got in zip(jobs, assigned):
                np.testing.assert_array_equal(reference, got)

    def test_same_batch_from_every_thread(self, fitted, batches, run):
        """All threads hammering ONE batch — maximal buffer contention."""
        batch = batches[0]
        reference = fitted.assign(batch)

        for assigned in run(lambda: hammer(fitted.assign, [batch] * (N_THREADS * 2))):
            for got in assigned:
                np.testing.assert_array_equal(reference, got)
