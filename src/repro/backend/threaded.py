"""Threaded backend: the canonical kernels, sharded across a worker pool.

The distance kernel is elementwise ufunc work — numpy releases the GIL
while executing it — so contiguous *row-block shards* of one evaluation
run genuinely in parallel on multi-core machines.  Every primitive keeps
the serial backend's bit-for-bit results:

* **distance evaluation** — each output row's arithmetic is the canonical
  column-sequential kernel regardless of blocking
  (:mod:`repro.backend.kernels`), so shard boundaries are invisible in
  the buffer;
* **argmin / argmax** — per-shard first-extremum candidates are merged
  under the strict ``(value, index)`` order (a lower shard only loses to
  a strictly better value), reproducing numpy's first-occurrence rule;
* **k-th-smallest bound** — the global k smallest values are a subset of
  the per-shard k smallest, so the merged bound is the identical float;
* **candidate scoring** — each candidate row of
  :meth:`~repro.core.confidential.ClusterTrackerSet.swap_emds_batch` is
  computed independently and the scoring pass is read-only on the
  tracker, so the candidate axis shards freely;
* **nearest-representative assignment** — per-row queries are
  independent; every shard queries the same read-only
  :class:`~repro.backend.kernels.NearestIndex`, and the compiled query
  releases the GIL, so shards run in parallel.

Shard-size floors keep the pool out of the small-input regime where
dispatch overhead (tens of microseconds per submit) would dominate; below
them every primitive falls through to the inherited serial body.  On a
single-core host the pool adds overhead and wins nothing — pick the
serial backend there (the benchmark harness records the thread count and
CPU count alongside every entry for exactly this reason).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..registry import register_backend
from .base import ComputeBackend, num_threads_default
from .kernels import NearestIndex, iter_blocks, nearest_block, sq_distances_block


@register_backend("threaded")
class ThreadedBackend(ComputeBackend):
    """Row-block parallel execution of the compute primitives.

    Parameters
    ----------
    num_threads:
        Worker-pool width.  Default: ``REPRO_NUM_THREADS`` if set, else
        the CPU count.  ``1`` degenerates to the serial bodies (still a
        valid backend; useful for apples-to-apples overhead checks).
    min_rows:
        Smallest buffer length worth sharding for distance evaluation and
        masked selections (one shard's kernel work must dwarf one pool
        dispatch).
    min_assign_rows:
        Row floor for sharding the nearest-representative query — each
        row costs far more than one distance, so much smaller blocks than
        ``min_rows`` already amortize a dispatch.
    min_candidates:
        Candidate-block floor for sharding batched swap scoring.
    """

    name = "threaded"

    def __init__(
        self,
        num_threads: int | None = None,
        *,
        min_rows: int = 16384,
        min_assign_rows: int = 1024,
        min_candidates: int = 16,
    ) -> None:
        if num_threads is None:
            num_threads = num_threads_default()
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        for label, value in (
            ("min_rows", min_rows),
            ("min_assign_rows", min_assign_rows),
            ("min_candidates", min_candidates),
        ):
            if value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")
        self.num_workers = int(num_threads)
        self._min_rows = int(min_rows)
        self._min_assign_rows = int(min_assign_rows)
        self._min_candidates = int(min_candidates)
        self._pool: ThreadPoolExecutor | None = None

    # -- pool plumbing ---------------------------------------------------------

    def _executor(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers,
                thread_name_prefix="repro-backend",
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a fresh one is created
        lazily if the backend is used again)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _shards(self, n: int, floor: int) -> list[tuple[int, int]]:
        """Balanced contiguous ``(start, stop)`` shards of ``0..n``.

        At most ``num_workers`` shards, none shorter than ``floor`` (a
        single shard — the caller's cue to stay serial — when ``n`` is too
        small to split profitably).
        """
        width = min(self.num_workers, max(1, n // floor))
        if width <= 1:
            return [(0, n)]
        edges = np.linspace(0, n, width + 1).astype(np.int64)
        return [
            (int(edges[i]), int(edges[i + 1]))
            for i in range(width)
            if edges[i] < edges[i + 1]
        ]

    def _run(self, tasks) -> list:
        """Execute thunks on the pool, re-raising the first failure.

        A worker exception is re-raised in the caller with the worker's
        original traceback (``Future.result`` chains it); the remaining
        futures are cancelled so a failed evaluation does not keep burning
        pool time.  ``KeyboardInterrupt`` while waiting tears the pool
        down promptly — queued work is dropped rather than drained — and
        a fresh pool is created lazily on the next use.
        """
        executor = self._executor()
        futures = [executor.submit(task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except Exception:
            for future in futures:
                future.cancel()
            raise
        except BaseException:
            # KeyboardInterrupt (or an injected kill) while waiting: the
            # backend may never get another call, so don't leave workers
            # grinding through the queue behind it.
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = None
            raise

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
        if len(shards) <= 1:
            super().eval_sq_distances(cols, point, out, tmp, n, chunk_size)
            return

        def work(start: int, stop: int):
            def body() -> None:
                # tmp/out writes stay inside [start, stop): shards never
                # overlap, so the shared scratch needs no locking.
                for lo, hi in iter_blocks(stop - start, chunk_size):
                    sq_distances_block(
                        cols, point, out, tmp, start + lo, start + hi
                    )

            return body

        self._run([work(start, stop) for start, stop in shards])

    # -- selections ------------------------------------------------------------

    def _arg_extremum(self, values: np.ndarray, find) -> int:
        shards = self._shards(len(values), self._min_rows)
        if len(shards) <= 1:
            return int(find(values))
        locals_ = self._run(
            [
                (lambda s=start, e=stop: (s + int(find(values[s:e]))))
                for start, stop in shards
            ]
        )
        # Deterministic merge: shards ascend, so keeping a strictly better
        # value reproduces numpy's lowest-index rule on exact ties.
        best = locals_[0]
        if find is np.argmin:
            for idx in locals_[1:]:
                if values[idx] < values[best]:
                    best = idx
        else:
            for idx in locals_[1:]:
                if values[idx] > values[best]:
                    best = idx
        return int(best)

    def argmin(self, values: np.ndarray) -> int:
        return self._arg_extremum(values, np.argmin)

    def argmax(self, values: np.ndarray) -> int:
        return self._arg_extremum(values, np.argmax)

    def kth_smallest_value(self, values: np.ndarray, k: int) -> float:
        shards = self._shards(len(values), self._min_rows)
        if len(shards) <= 1:
            return super().kth_smallest_value(values, k)

        def smallest(start: int, stop: int):
            def body() -> np.ndarray:
                seg = values[start:stop]
                if k >= seg.size:
                    return seg
                return np.partition(seg, k - 1)[:k]

            return body

        # The global k smallest values all survive their own shard's cut,
        # so the k-th smallest of the concatenation is the identical float.
        top = np.concatenate(self._run([smallest(s, e) for s, e in shards]))
        return float(np.partition(top, k - 1)[:k].max())

    # -- batched candidate EMD scoring -----------------------------------------

    def score_swaps(
        self,
        trackers,
        member_records: np.ndarray,
        candidate_records: np.ndarray,
    ) -> np.ndarray:
        n_cand = len(candidate_records)
        width = min(self.num_workers, max(1, n_cand // self._min_candidates))
        if width <= 1:
            return super().score_swaps(trackers, member_records, candidate_records)
        pieces = np.array_split(np.asarray(candidate_records), width)
        rows = self._run(
            [
                (
                    lambda piece=piece: trackers.swap_emds_batch(
                        member_records, piece
                    )
                )
                for piece in pieces
            ]
        )
        # Row b's arithmetic is independent of its batch-mates, so the
        # concatenation is bitwise the one-call result.
        return np.concatenate(rows, axis=0)

    # -- serving: nearest fitted representative --------------------------------

    def _assign_nearest(
        self, X: np.ndarray, index: NearestIndex, assignment: np.ndarray
    ) -> None:
        n = X.shape[0]
        shards = self._shards(n, self._min_assign_rows)
        if len(shards) <= 1:
            super()._assign_nearest(X, index, assignment)
            return
        best_d2 = np.full(n, np.inf)
        cols = X.T

        def work(start: int, stop: int):
            def body() -> None:
                length = stop - start
                d2 = np.empty(length)
                tmp = np.empty(length)
                nearest_block(
                    cols[:, start:stop],
                    index,
                    assignment[start:stop],
                    best_d2[start:stop],
                    d2,
                    tmp,
                    0,
                    length,
                )

            return body

        self._run([work(start, stop) for start, stop in shards])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadedBackend(num_threads={self.num_workers})"
