"""The compute backend: the three hot primitives callers can substitute.

Profiling the three anonymization algorithms (and the fitted-model serving
path) shows their hot work funnels through three primitives: filling a
distance buffer from one query point, Algorithm 2's swap refinement of
one cluster over a chunk of its candidate pool, and the batch
nearest-representative query.  :class:`SerialBackend` names exactly
those.  The engine, Algorithm 2 and serving call them *on the backend
instance* they were given, which makes the instance a seam: a subclass
overriding any of the three (to count calls, time them, or spy on them
in a test) sees every call the library makes.

Each primitive runs a compiled entry point of :mod:`repro.backend._native`
when the library loaded (the distance scan, the refinement, the kd query),
and its numpy or Python spec otherwise (``REPRO_NO_NATIVE=1``, no
compiler, or a layout the C signature does not take).  The library's
other entry points are not seams: the engine's k-nearest selection is
reached through :func:`~repro.backend.kernels.k_nearest_live`, and the
live index that MDAV, V-MDAV and Algorithm 2 select from
(:class:`~repro.microagg.engine.LiveIndex`) queries its own tree, so a
substituted backend sees the distance evaluations of the scan engine
only (Algorithm 3, the merge phase's partner search, and fits the live
index does not take).

The paper's algorithms are sequential greedy loops — each cluster, swap
and merge depends on what the previous step removed — so one step is a
short call that sharding across workers does not speed up; there is one
execution strategy, and the engine's other selections (masked
argmin/argmax) are plain numpy calls inside
:class:`~repro.microagg.engine.ClusteringEngine`.
"""

from __future__ import annotations

import numpy as np

from . import _native
from .kernels import (
    NearestIndex,
    build_nearest_index,
    iter_blocks,
    nearest_block,
    sq_distances_block,
)


class SerialBackend:
    """Single-threaded execution of the compute primitives.

    The method bodies are the library's canonical arithmetic (the
    arithmetic the golden fixtures pin), or compiled kernels proven equal
    to it at load time.  Instances hold no state, so one instance is safe
    to share between engines and threads, and a subclass need not call
    ``__init__``.
    """

    def eval_sq_distances(
        self,
        cols: np.ndarray,
        point: np.ndarray,
        out: np.ndarray,
        tmp: np.ndarray,
        n: int,
        chunk_size: int | None = None,
    ) -> None:
        """Fill ``out[:n]`` with squared distances from ``point``.

        ``cols`` is the transposed record matrix (``cols[j]`` = column j),
        ``tmp`` an equally long scratch, ``point`` non-empty.  Every
        output row is computed by the canonical column-sequential kernel
        (:func:`~repro.backend.kernels.sq_distances_block`), whose per-row
        arithmetic is independent of row blocking — so the buffer is
        bitwise identical for every ``chunk_size``.  One call is one
        evaluation: the compiled scan in :mod:`repro.backend._native`
        (proven equal to the kernel at load time) covers all ``n`` rows
        when it loaded and takes the layout; otherwise the numpy kernel
        runs block by block.
        """
        native = _native.load()
        if native is not None and native.sq_distances(cols, point, out, n):
            return
        for start, stop in iter_blocks(n, chunk_size):
            sq_distances_block(cols, point, out, tmp, start, stop)

    def refine_swaps(
        self, frame, members: np.ndarray, pool: np.ndarray, budget: int
    ) -> tuple[int, int, int]:
        """Algorithm 2's swap refinement of one cluster over one pool chunk.

        ``frame`` is the fit's :class:`~repro.core.confidential.SwapFrame`,
        ``members`` the cluster's k record ids (int64, edited in place) and
        ``pool`` the next candidates in pool order.  Returns ``(swaps,
        consumed, status)``: the swaps accepted, the candidates consumed
        and whether the cluster converged, used up the chunk or accepted
        ``budget`` swaps.  Runs the compiled kernel in
        :mod:`repro.backend._native` when it loaded (its self-check proves
        it equal to the spec), else the Python spec
        :meth:`~repro.core.confidential.SwapFrame.refine`; every decision
        is exact integer arithmetic, so both give the same members.
        """
        native = _native.load()
        if native is not None:
            return native.alg2_refine(frame, members, pool, budget)
        return frame.refine(members, pool, budget)

    def assign_nearest(
        self, X: np.ndarray, reps: "NearestIndex | np.ndarray"
    ) -> np.ndarray:
        """Nearest representative (by canonical squared distance) per row.

        ``reps`` is a :class:`~repro.backend.kernels.NearestIndex` — built
        once per fitted model, which is how serving calls this — or a raw
        ``(R, d)`` matrix, indexed for this call only.  Exact ties resolve
        to the lowest representative index, and per-row results equal
        :func:`~repro.backend.kernels.nearest_block` over any row blocking
        (each row's query is independent).
        """
        index = reps if isinstance(reps, NearestIndex) else build_nearest_index(reps)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != index.shape[1]:
            raise ValueError(
                f"X and reps must be 2-D with equal widths, got "
                f"{X.shape} and {index.shape}"
            )
        n = X.shape[0]
        assignment = np.zeros(n, dtype=np.int64)
        if n == 0 or X.shape[1] == 0:
            return assignment
        best_d2 = np.full(n, np.inf)
        d2 = np.empty(n)
        tmp = np.empty(n)
        nearest_block(X.T, index, assignment, best_d2, d2, tmp, 0, n)
        return assignment
