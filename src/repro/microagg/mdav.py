"""MDAV — Maximum Distance to Average Vector microaggregation.

MDAV (Domingo-Ferrer & Torra, DMKD 2005; "MDAV-generic") is the standard
fixed-size microaggregation heuristic and the partitioner the paper builds
on.  Each round it:

1. computes the centroid of the unassigned records,
2. takes the record ``r`` farthest from the centroid and forms a cluster
   from ``r`` and its k-1 nearest unassigned neighbours,
3. takes the record ``s`` farthest from ``r`` and forms a second cluster
   the same way,

until fewer than 3k records remain; then either one final cluster (fewer
than 2k left) or a cluster around the farthest record plus a remainder
cluster (between 2k and 3k-1 left) closes the partition.  All clusters have
between k and 2k-1 records.  The cost is O(n^2 / k) distance evaluations.

The inner loop runs on :class:`~repro.microagg.engine.ClusteringEngine`:
one distance evaluation per extreme record (reused for both the carve and
the next seed selection), incremental centroids, and no per-round
``X[remaining]`` copies.  The produced partition is identical — including
tie-breaking — to the direct implementation this replaced (see
``tests/microagg/test_engine_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend
from ..registry import register_partitioner
from .engine import ClusteringEngine
from .partition import Partition


@register_partitioner("mdav")
def mdav(
    X: np.ndarray,
    k: int,
    *,
    backend: SerialBackend | str | None = None,
) -> Partition:
    """Partition the rows of ``X`` into clusters of size >= k with MDAV.

    Parameters
    ----------
    X:
        Record matrix (n x d); callers normally pass an already standardized
        quasi-identifier matrix (see :meth:`Microdata.qi_matrix`).
    k:
        Minimum (and target) cluster size, ``1 <= k <= n``.
    backend:
        Compute backend for the distance primitive (``"serial"``, an
        instance, or ``None`` for the shared one).

    Returns
    -------
    Partition
        Every cluster has between ``k`` and ``2k - 1`` records.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")

    engine = ClusteringEngine(X, backend=backend)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0

    def carve(seed_id: int) -> None:
        """Assign the cluster of the k nearest live records to ``seed_id``."""
        nonlocal next_label
        chosen = engine.k_nearest(k, point=engine.row(seed_id))
        labels[chosen] = next_label
        next_label += 1
        engine.kill(chosen)

    while engine.n_alive >= 3 * k:
        r = engine.farthest_from_centroid()
        carve(r)
        # The distances to r are already in the buffer; reuse them to pick
        # the next seed among the records that survived the carve.
        s = engine.farthest()
        carve(s)

    if engine.n_alive >= 2 * k:
        r = engine.farthest_from_centroid()
        carve(r)
    if engine.n_alive:
        labels[engine.alive_ids()] = next_label

    return Partition(labels)
