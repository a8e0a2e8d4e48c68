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
between k and 2k-1 records.  Done directly, the cost is O(n^2 / k)
distance evaluations: every query scans the unassigned records.

The inner loop runs on the live set :func:`~repro.microagg.engine.live_set`
hands it, with incremental centroids and no per-round ``X[remaining]``
copies.  On the live index (a kd-tree whose boxes are refit as records
are assigned) each farthest and k-nearest query scores only the leaves
its bounds cannot rule out instead of every unassigned record (on a
20,000 x 4 table, a farthest query from the centroid scores 60-110 of
1,024 leaves of about 20 records); on the scan engine (tables of more
than four columns, small ones, or no compiler) it is one distance
evaluation per extreme record, reused for both the carve and the next
seed selection.
The produced partition is identical — including tie-breaking — on both,
and to the direct implementation this replaced (see
``tests/microagg/test_engine_equivalence.py`` and
``tests/microagg/test_mdav_reference.py``).
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend
from ..registry import register_partitioner
from .engine import live_set
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

    engine = live_set(X, backend=backend)
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
        # r is the last query point; reuse it to pick the next seed among
        # the records that survived the carve.
        s = engine.farthest()
        carve(s)

    if engine.n_alive >= 2 * k:
        r = engine.farthest_from_centroid()
        carve(r)
    if engine.n_alive:
        labels[engine.alive_ids()] = next_label

    return Partition(labels)
