"""Failure-path and plumbing tests for the process backend.

The happy-path bit-for-bit contract is pinned by the backend-parametrized
equivalence/golden/invariant suites (``tests/backends.py``); this file
covers what those can't reach — shared-memory segment lifecycle, the
foreign-array serial fallbacks, worker crash recovery and environment
resolution.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.backend.process as process_mod
from repro.backend import BACKEND_ENV, resolve_backend
from repro.backend.process import ProcessBackend
from repro.microagg.engine import ClusteringEngine


@pytest.fixture
def backend():
    b = ProcessBackend(2, min_rows=8, min_shm_bytes=1)
    yield b
    b.close()


class TestSharedMemoryLifecycle:
    def test_empty_allocates_inside_an_owned_segment(self, backend):
        arr = backend.empty((3, 40))
        assert arr.shape == (3, 40) and arr.dtype == np.float64
        desc = backend._locate(arr)
        assert desc is not None and desc[0] in backend._segments

    def test_prefix_slice_of_a_segment_is_locatable(self, backend):
        arr = backend.empty(100)
        name, offset, shape = backend._locate(arr[:37])
        assert shape == (37,) and offset == 0
        assert name == backend._locate(arr)[0]

    def test_small_buffers_fall_back_to_plain_arrays(self):
        b = ProcessBackend(2, min_shm_bytes=1 << 20)
        try:
            arr = b.empty(16)
            assert b._locate(arr) is None
            assert b._segments == {}
        finally:
            b.close()

    def test_foreign_arrays_are_not_located(self, backend):
        assert backend._locate(np.empty(64)) is None
        assert backend._locate(np.empty(64, dtype=np.float32)) is None

    def test_segment_released_when_array_dies(self, backend):
        arr = backend.empty(64)
        name = backend._locate(arr)[0]
        del arr
        assert name not in backend._segments

    def test_close_unlinks_everything_and_stays_usable(self, backend):
        keep = backend.empty(64)  # noqa: F841 - held across close()
        backend.close()
        assert backend._segments == {}
        # Fresh pool + fresh segments after close: still a live backend.
        values = backend.empty(64)
        values[:] = np.arange(64.0)
        assert backend.argmin(values) == 0


class TestFallbacks:
    def test_selections_on_foreign_arrays_match_serial(self, backend):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(4096)  # not backend-allocated
        assert backend.argmin(values) == int(np.argmin(values))
        assert backend.argmax(values) == int(np.argmax(values))
        assert backend.kth_smallest_value(values, 5) == float(
            np.partition(values, 4)[:5].max()
        )

    def test_sharded_selections_match_serial(self, backend):
        rng = np.random.default_rng(6)
        values = backend.empty(4096)
        values[:] = rng.standard_normal(4096)
        # Exact duplicate of the minimum in a later shard: the merge must
        # keep the lowest index.
        lo = int(np.argmin(values))
        values[4000] = values[lo]
        assert backend.argmin(values) == min(lo, 4000)
        assert backend.kth_smallest_value(values, 7) == float(
            np.partition(np.asarray(values), 6)[:7].max()
        )

    def test_assign_nearest_in_process_matches_serial(self, backend):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3000, 3))
        reps = rng.standard_normal((11, 3))
        expected = resolve_backend("serial").assign_nearest(X, reps)
        np.testing.assert_array_equal(backend.assign_nearest(X, reps), expected)
        # Assign is answered in-process: no segment is created for it.
        assert backend._segments == {}


class TestWorkerFailures:
    def test_broken_pool_is_discarded_for_the_next_call(self, backend):
        values = backend.empty(1024)
        values[:] = np.arange(1024.0)
        assert backend.argmin(values) == 0
        # Kill every worker out from under the pool.
        for pid in list(backend._pool._processes):
            os.kill(pid, 9)
        with pytest.raises(Exception) as excinfo:
            backend._run(
                [(process_mod._argext_shard, backend._locate(values), 0, 512, True)]
            )
        assert "process pool" in str(excinfo.value).lower()
        assert backend._pool is None
        # A fresh pool serves the next call.
        assert backend.argmin(values) == 0

    def test_worker_exception_propagates(self, backend):
        values = backend.empty(64)
        desc = backend._locate(values)
        bad = (desc[0], desc[1], (10**9,))  # descriptor overruns the segment
        with pytest.raises(TypeError):
            backend._run([(process_mod._argext_shard, bad, 0, 8, True)])
        # Ordinary exceptions don't break the pool.
        assert backend._pool is not None


class TestEngineAndEnvironment:
    def test_engine_buffers_come_from_the_backend(self, backend):
        rng = np.random.default_rng(9)
        engine = ClusteringEngine(rng.standard_normal((50, 3)), backend=backend)
        assert backend._locate(engine._XwT) is not None
        assert backend._locate(engine._d2) is not None

    def test_env_resolution_constructs_a_process_backend(self):
        code = (
            "import os; os.environ['REPRO_NUM_THREADS'] = '2'; "
            f"os.environ['{BACKEND_ENV}'] = 'process'; "
            "from repro.backend import ProcessBackend, resolve_backend; "
            "b = resolve_backend(None); "
            "assert isinstance(b, ProcessBackend), type(b); "
            "assert b.num_workers == 2; "
            "print('env ok')"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert "env ok" in proc.stdout
