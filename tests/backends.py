"""Backend parametrization shared across the equivalence/golden/property suites.

``BACKENDS_UNDER_TEST`` pins the bit-for-bit backend-independence contract:
every suite that parametrizes over it runs once on the default serial
backend, once on a threaded backend with two workers, and once on a
process backend with two workers — with every shard floor lowered to a few
elements, so the parallel code paths (sharded kernel evaluation, per-shard
argmin/argmax merging, the sharded k-th-smallest bound, candidate-axis
scoring shards, row-sharded nearest-representative assignment, and the
process backend's shared-memory buffer plumbing) genuinely execute even on
the small fixture datasets, rather than falling through to the serial
bodies.
"""

import pytest

from repro.backend import ProcessBackend, ThreadedBackend


def threaded_for_tests(num_threads: int = 2) -> ThreadedBackend:
    """A threaded backend whose parallel paths engage on tiny inputs."""
    return ThreadedBackend(
        num_threads,
        min_rows=8,
        min_assign_rows=8,
        min_candidates=2,
    )


def process_for_tests(num_workers: int = 2) -> ProcessBackend:
    """A process backend whose parallel paths engage on tiny inputs.

    ``min_shm_bytes=1`` forces even the fixtures' small engine buffers
    into shared-memory segments, so the worker attach/view machinery runs
    under test instead of the foreign-array serial fallbacks.
    """
    return ProcessBackend(
        num_workers,
        min_rows=8,
        min_shm_bytes=1,
    )


BACKENDS_UNDER_TEST = [
    pytest.param("serial", id="serial"),
    pytest.param(threaded_for_tests(), id="threaded-2"),
    pytest.param(process_for_tests(), id="process-2"),
]
