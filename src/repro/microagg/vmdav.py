"""V-MDAV — variable-size MDAV microaggregation.

V-MDAV (Solanas & Martínez-Ballesté, COMPSTAT 2006) relaxes MDAV's
fixed-size clusters: after seeding a cluster with the k nearest neighbours
of an extreme record, it keeps absorbing nearby records while doing so looks
locally cheaper than leaving them for other clusters.  A record ``u`` is
added (up to the 2k-1 k-anonymity ceiling) when its distance to the cluster
is below ``gamma`` times the average intra-cluster distance.  With
``gamma = 0`` V-MDAV degenerates to MDAV-like fixed clusters; larger gamma
yields more size adaptivity on clustered data.

The paper's evaluation uses plain MDAV; V-MDAV is provided as the natural
ablation for the choice of base partitioner (see
``benchmarks/bench_ablation_partitioner.py``).

The search for the best extension candidate — an O(n) scan of every
extension, done directly — runs on the live set
:func:`~repro.microagg.engine.live_set` hands it: a nearest query on the
live index (the few leaves its bounds cannot rule out), or a scan of
the scan engine's window.  Current members are killed as soon as they are
chosen, so "the records outside the cluster" is simply the live set.  The
small exact cluster statistics (member centroid, mean intra-cluster
distance) are computed directly on the k-or-so member rows, bit-for-bit
as before.
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend
from ..distance.records import sq_distances_to
from ..registry import register_partitioner
from .engine import live_set
from .partition import Partition


@register_partitioner("vmdav")
def vmdav(
    X: np.ndarray,
    k: int,
    *,
    gamma: float = 0.2,
    backend: SerialBackend | str | None = None,
) -> Partition:
    """Partition rows of ``X`` into variable-size clusters (k .. 2k-1).

    Parameters
    ----------
    X:
        Record matrix (n x d), normally a standardized QI matrix.
    k:
        Minimum cluster size.
    gamma:
        Extension aggressiveness (>= 0).  A candidate record joins the
        current cluster if its squared distance to the cluster centroid is
        below ``gamma`` times the mean intra-cluster squared distance.
    backend:
        Compute backend for the distance primitive (``"serial"``, an
        instance, or ``None`` for the shared one).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")

    engine = live_set(X, backend=backend)
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0

    while engine.n_alive >= 2 * k:
        seed_id = engine.farthest_from_centroid()
        chosen = engine.k_nearest(k, point=engine.row(seed_id)).tolist()
        engine.kill(np.asarray(chosen, dtype=np.int64))
        # Extension phase: absorb close-by records while it looks cheap.
        # Never extend past the point where fewer than k records would be
        # left unassigned — the final remainder cluster must stay k-anonymous.
        while len(chosen) < 2 * k - 1 and engine.n_alive - 1 >= k:
            members = X[np.asarray(chosen, dtype=np.int64)]
            cluster_centroid = members.mean(axis=0)
            intra = sq_distances_to(members, cluster_centroid).mean()
            best_id, best_d2 = engine.nearest_with_value(cluster_centroid)
            if intra > 0 and best_d2 < gamma * intra:
                chosen.append(best_id)
                engine.kill(np.asarray([best_id], dtype=np.int64))
            else:
                break
        labels[np.asarray(chosen, dtype=np.int64)] = next_label
        next_label += 1

    if engine.n_alive:
        labels[engine.alive_ids()] = next_label
    return Partition(labels)
