"""Process backend: the canonical kernels, sharded across worker processes.

The threaded backend escapes the GIL only while numpy runs ufunc inner
loops; for workloads dominated by many smaller evaluations the
interpreter bookkeeping between ufunc calls re-serializes the workers.  A
process pool sidesteps the GIL entirely — at the price of crossing a
process boundary, which this backend pays only in ways that keep the
bit-for-bit contract and avoid copying the operands:

* **shared-memory operands** — the clustering engine allocates its hot
  buffers (column-major working copy, distance buffer, scratch) through
  :meth:`ComputeBackend.empty`, which here places them in
  ``multiprocessing.shared_memory`` segments.  A worker attaches the
  segment *once* (cached per process) and then reads and writes the same
  physical bytes as the parent — a shard's task message is a few segment
  descriptors and two integers, never an array;
* **canonical arithmetic** — every shard runs the same
  :func:`~repro.backend.kernels.sq_distances_block` body on the same
  floats, and per-row results are blocking-invariant, so the assembled
  buffer is bitwise the serial one;
* **deterministic merges** — per-shard argmin/argmax candidates merge
  under the strict ``(value, index)`` order exactly like the threaded
  backend; the k-th-smallest bound merges per-shard top-k multisets.

Primitives whose operands live outside backend-allocated storage fall
back as follows: distance evaluation and the masked selections run the
inherited serial bodies (correct on any array; the engine's hot loop
always passes shared buffers).  Two primitives always run in-process:
:meth:`score_swaps`, because the EMD trackers are interlinked Python
objects whose per-call pickling would cost more than the scoring they
shard, and :meth:`assign_nearest`, because sharding it would stage the
batch and the kd index's arrays into shared segments on every call, and
an index-sized model answers in about a microsecond per row (the
threaded backend shards it without copying anything).

Worker lifecycle: workers are forked (POSIX) or spawned lazily on first
use; a crashed pool (``BrokenProcessPool``) is discarded so the next call
starts a fresh one.  Segments are unlinked when their array is garbage
collected or the backend is :meth:`closed <close>`; workers drop their
cached attachments once the cache exceeds a small cap, so long sessions
do not accumulate stale mappings.  On a single-core container the pool
adds dispatch overhead and wins nothing — exactly like the threaded
backend, the benchmark harness records worker and CPU counts so such
numbers read as what they are.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..registry import register_backend
from .base import ComputeBackend, num_threads_default
from .kernels import iter_blocks, sq_distances_block

#: A segment descriptor: (segment name, byte offset, shape) of a float64
#: C-contiguous array living inside a shared-memory segment.
_Desc = tuple

#: Worker-side attachment cache size above which dead segments are pruned.
_ATTACH_CACHE_CAP = 64

_attached: dict = {}


def _prune_dead_attachments() -> None:
    """Drop cached attachments whose segment the parent has unlinked.

    Only provably dead segments are touched: an unlinked segment can never
    be named by a future task (descriptors always carry live names), so
    unmapping it between tasks is safe — whereas closing a *live* cached
    attachment can pull the mapping out from under a view created earlier
    in the same task.  POSIX shm liveness is visible as a ``/dev/shm``
    entry; where that directory doesn't exist the cache simply grows (one
    small mapping per engine buffer — harmless at realistic scales).
    """
    if len(_attached) <= _ATTACH_CACHE_CAP or not os.path.isdir("/dev/shm"):
        return
    for name, shm in list(_attached.items()):
        if os.path.exists("/dev/shm/" + shm.name):
            continue
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view still exports it
            continue
        del _attached[name]


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    Attach-time registration (bpo-39959) is wrong for a worker twice
    over: the worker does not own the segment, and with a forked pool the
    parent and workers share one tracker process — so the usual
    register-then-unregister dance would erase the *parent's* ownership
    entry and break its unlink.  Python 3.13 grew ``track=False`` for
    exactly this; older versions get the registration call stubbed out
    for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - version-dependent signature
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach (and cache) a shared segment in a worker process."""
    shm = _attached.get(name)
    if shm is None:
        _prune_dead_attachments()
        shm = _attach_untracked(name)
        _attached[name] = shm
    return shm


def _view(desc: _Desc) -> np.ndarray:
    """Materialize a worker-side ndarray over a segment descriptor."""
    name, offset, shape = desc
    shm = _attach(name)
    return np.ndarray(shape, dtype=np.float64, buffer=shm.buf, offset=offset)


# -- worker task bodies (module level: picklable by reference) -----------------


def _eval_shard(
    cols_desc: _Desc,
    point: np.ndarray,
    out_desc: _Desc,
    start: int,
    stop: int,
    chunk_size: int | None,
) -> None:
    cols = _view(cols_desc)
    out = _view(out_desc)
    tmp = np.empty(out.shape[0])
    for lo, hi in iter_blocks(stop - start, chunk_size):
        sq_distances_block(cols, point, out, tmp, start + lo, start + hi)


def _argext_shard(values_desc: _Desc, start: int, stop: int, find_min: bool) -> int:
    values = _view(values_desc)
    seg = values[start:stop]
    return start + int(np.argmin(seg) if find_min else np.argmax(seg))


def _kth_shard(values_desc: _Desc, start: int, stop: int, k: int) -> np.ndarray:
    values = _view(values_desc)
    seg = values[start:stop]
    if k >= seg.size:
        return np.asarray(seg)
    return np.partition(seg, k - 1)[:k]


def _release_segment(shm: shared_memory.SharedMemory, registry: dict) -> None:
    registry.pop(shm.name, None)
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - double release
        pass


@register_backend("process")
class ProcessBackend(ComputeBackend):
    """Row-block parallel execution on a process pool over shared memory.

    Parameters
    ----------
    num_workers:
        Pool width.  Default: ``REPRO_NUM_THREADS`` if set, else the CPU
        count (the variable names the worker budget for every parallel
        backend, not a threading implementation detail).
    min_rows:
        Smallest buffer length worth sharding for distance evaluation and
        masked selections.  Higher than the threaded backend's floor:
        a process dispatch costs roughly an order of magnitude more than
        a thread dispatch.
    min_shm_bytes:
        Buffers smaller than this are allocated as ordinary arrays —
        a shared segment has kernel-object overhead a tiny scratch never
        repays (such buffers simply make the serial fallbacks kick in).
    """

    name = "process"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        min_rows: int = 65536,
        min_shm_bytes: int = 4096,
    ) -> None:
        if num_workers is None:
            num_workers = num_threads_default()
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if min_rows < 1:
            raise ValueError(f"min_rows must be >= 1, got {min_rows}")
        self.num_workers = int(num_workers)
        self._min_rows = int(min_rows)
        self._min_shm_bytes = int(min_shm_bytes)
        self._pool: ProcessPoolExecutor | None = None
        #: name -> (segment, base address, end address) for owned segments.
        self._segments: dict[str, tuple] = {}

    # -- pool plumbing ---------------------------------------------------------

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = (
                multiprocessing.get_context("fork")
                if sys.platform.startswith(("linux", "darwin"))
                else multiprocessing.get_context()
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.num_workers, mp_context=context
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and unlink every owned segment (idempotent).

        Arrays handed out by :meth:`empty` become invalid afterwards; the
        backend itself stays usable (a fresh pool starts lazily, and new
        allocations create new segments).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for name in list(self._segments):
            shm = self._segments[name][0]
            _release_segment(shm, self._segments)

    def _run(self, submits: list) -> list:
        """Execute ``(fn, *args)`` tasks on the pool, results in order.

        A broken pool (a worker died mid-task: OOM kill, signal) is
        discarded before re-raising, so the *next* call starts a fresh
        pool instead of failing forever on the corpse.
        """
        executor = self._executor()
        futures = [executor.submit(*submit) for submit in submits]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._pool = None
            raise
        except Exception:
            for future in futures:
                future.cancel()
            raise
        except BaseException:
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            raise

    def _shards(self, n: int, floor: int) -> list[tuple[int, int]]:
        width = min(self.num_workers, max(1, n // floor))
        if width <= 1:
            return [(0, n)]
        edges = np.linspace(0, n, width + 1).astype(np.int64)
        return [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(width)
            if edges[i] < edges[i + 1]
        ]

    # -- shared-memory allocation ----------------------------------------------

    def empty(self, shape) -> np.ndarray:
        if not isinstance(shape, tuple):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        nbytes = 8 * int(np.prod(shape, dtype=np.int64))
        if nbytes < self._min_shm_bytes:
            return np.empty(shape)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        arr = np.ndarray(shape, dtype=np.float64, buffer=shm.buf)
        lo, hi = np.lib.array_utils.byte_bounds(arr)
        self._segments[shm.name] = (shm, lo, hi)
        # The segment dies with its array: engines never explicitly free
        # their buffers, so ownership rides the array's lifetime (close()
        # remains the eager path).  The finalizer must not capture `arr`.
        weakref.finalize(arr, _release_segment, shm, self._segments)
        return arr

    def _locate(self, arr: np.ndarray) -> _Desc | None:
        """Segment descriptor for an array living in an owned segment.

        Accepts any C-contiguous float64 view whose bytes fall inside one
        segment (the engine passes full buffers and prefix slices).
        Returns ``None`` for foreign arrays — the caller falls back to
        the inherited serial body, which is correct on anything.
        """
        if (
            not isinstance(arr, np.ndarray)
            or arr.dtype != np.float64
            or not arr.flags.c_contiguous
        ):
            return None
        lo, hi = np.lib.array_utils.byte_bounds(arr)
        for name, (_, base_lo, base_hi) in self._segments.items():
            if base_lo <= lo and hi <= base_hi:
                return (name, lo - base_lo, arr.shape)
        return None

    # -- distance evaluation ---------------------------------------------------

    def eval_sq_distances(
        self,
        cols: np.ndarray,
        point: np.ndarray,
        out: np.ndarray,
        tmp: np.ndarray,
        n: int,
        chunk_size: int | None = None,
    ) -> None:
        shards = self._shards(n, self._min_rows)
        cols_desc = self._locate(cols) if len(shards) > 1 else None
        out_desc = self._locate(out) if cols_desc is not None else None
        if out_desc is None:
            super().eval_sq_distances(cols, point, out, tmp, n, chunk_size)
            return
        self._run(
            [
                (
                    _eval_shard,
                    cols_desc,
                    np.ascontiguousarray(point),
                    out_desc,
                    start,
                    stop,
                    chunk_size,
                )
                for start, stop in shards
            ]
        )

    # -- selections ------------------------------------------------------------

    def _arg_extremum_sharded(self, values: np.ndarray, find_min: bool) -> int | None:
        shards = self._shards(len(values), self._min_rows)
        if len(shards) <= 1:
            return None
        desc = self._locate(values)
        if desc is None:
            return None
        locals_ = self._run(
            [(_argext_shard, desc, start, stop, find_min) for start, stop in shards]
        )
        # Shards ascend; strictly-better keeps numpy's lowest-index rule.
        best = locals_[0]
        for idx in locals_[1:]:
            if (values[idx] < values[best]) if find_min else (
                values[idx] > values[best]
            ):
                best = idx
        return int(best)

    def argmin(self, values: np.ndarray) -> int:
        sharded = self._arg_extremum_sharded(values, True)
        return sharded if sharded is not None else super().argmin(values)

    def argmax(self, values: np.ndarray) -> int:
        sharded = self._arg_extremum_sharded(values, False)
        return sharded if sharded is not None else super().argmax(values)

    def kth_smallest_value(self, values: np.ndarray, k: int) -> float:
        shards = self._shards(len(values), self._min_rows)
        desc = self._locate(values) if len(shards) > 1 else None
        if desc is None:
            return super().kth_smallest_value(values, k)
        top = np.concatenate(
            self._run([(_kth_shard, desc, start, stop, k) for start, stop in shards])
        )
        # The global k smallest all survive their own shard's cut.
        return float(np.partition(top, k - 1)[:k].max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(num_workers={self.num_workers})"
