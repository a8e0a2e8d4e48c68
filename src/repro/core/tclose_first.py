"""Algorithm 3 — t-closeness-first microaggregation.

Section 7 of the paper turns t-closeness from a *check* into a
*construction*:

1. From n, t and the requested k, compute the effective cluster size
   ``k' = max(k, ceil(n / (2(n-1)t + 1)))`` (Proposition 2 solved for k,
   Eq. 3), adjusted by Eq. 4 when k' does not divide n.
2. Sort the records by the confidential attribute and slice them into k'
   consecutive buckets of ``floor(n/k')`` records; the ``n mod k'``
   leftovers are parked as extra records of the central bucket(s) — close
   to the dataset median, where an extra record distorts the EMD least
   (Figures 3-4).
3. Build clusters MDAV-style, but pick each cluster's members as *one
   record per bucket* (the bucket member nearest, in quasi-identifier
   space, to the cluster's seed record).  Buckets holding extras contribute
   a second record to at most one cluster each.

Proposition 2 guarantees every such cluster is within
``(n-k')/(2(n-1)k') <= t`` of the table, so — uniquely among the three
algorithms — no EMD is ever computed during clustering, and the cost is
MDAV's O(n^2/k').

The guarantee is exact when k' divides n.  Otherwise both the uneven
buckets and the extra-record rule sit outside the proposition's setting,
and on small tables a cluster can land slightly above t; the release
lifecycle (:mod:`repro.core.repair`, run by ``Anonymizer``/``anonymize``)
re-merges such clusters so released tables always meet the declared
policy.  Call this function directly to study the raw construction.
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend
from ..data.attributes import AttributeKind
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.engine import ClusteringEngine
from ..microagg.partition import Partition
from ..registry import register_method
from .base import TClosenessResult
from .bounds import emd_upper_bound, tclose_first_cluster_size
from .confidential import ConfidentialModel


def _bucket_sizes(n: int, k_eff: int) -> np.ndarray:
    """Bucket sizes: floor(n/k') everywhere, extras parked centrally.

    For odd k' all ``n mod k'`` extras go to the middle bucket; for even k'
    they are split between the two middle buckets (Figures 3 and 4).
    """
    base = n // k_eff
    r = n % k_eff
    sizes = np.full(k_eff, base, dtype=np.int64)
    if r:
        if k_eff % 2 == 1:
            sizes[(k_eff - 1) // 2] += r
        else:
            lower, upper = k_eff // 2 - 1, k_eff // 2
            sizes[lower] += (r + 1) // 2
            sizes[upper] += r // 2
    return sizes


@register_method("tclose-first")
def tcloseness_first(
    data: Microdata,
    k: int,
    t: float,
    *,
    emd_mode: str = "distinct",
    backend: SerialBackend | str | None = None,
) -> TClosenessResult:
    """Algorithm 3: build every cluster t-close by construction.

    Parameters
    ----------
    data:
        Microdata with quasi-identifier roles and exactly one *rankable*
        (numeric or ordinal) confidential attribute — the bucket
        construction needs a total order on confidential values.
    k:
        Minimum cluster size; the effective size may be larger when t is
        strict (Eq. 3).
    t:
        t-closeness level (``t > 0``; ``t = 0`` degenerates to one cluster).
    emd_mode:
        Flavour used for the *reported* per-cluster EMDs (the construction
        itself never computes EMD).
    backend:
        Compute backend for the distance primitive (``"serial"``, an
        instance, or ``None`` for the shared one).

    Returns
    -------
    TClosenessResult
        ``info`` records ``effective_k`` (the Eq. 3/4 cluster size),
        ``emd_bound`` (Proposition 2's guarantee for that size) and
        ``n_extra_records``.
    """
    n = data.n_records
    if n == 0:
        raise ValueError("dataset is empty")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if len(data.confidential) != 1:
        raise ValueError(
            "tcloseness_first requires exactly one confidential attribute, "
            f"got {len(data.confidential)}"
        )
    conf_name = data.confidential[0]
    conf_spec = data.spec(conf_name)
    if conf_spec.kind is AttributeKind.NOMINAL:
        raise ValueError(
            f"confidential attribute {conf_name!r} is nominal; Algorithm 3 "
            "requires rankable (numeric or ordinal) confidential values"
        )

    k_eff = tclose_first_cluster_size(n, t, k)
    X = encode_mixed(data, data.quasi_identifiers)

    # Slice records (sorted by confidential value) into k_eff buckets.  The
    # concatenation of the buckets IS conf_order, so one pool array with
    # tombstones replaces the per-bucket pool arrays (``np.delete`` pops),
    # and one distance evaluation per seed replaces the per-bucket ones.
    conf_order = np.argsort(data.values(conf_name), kind="stable")
    sizes = _bucket_sizes(n, k_eff)
    base = n // k_eff
    extras_left = sizes - base
    bucket_alive = sizes.copy()  # live records per bucket

    engine = ClusteringEngine(X, backend=backend)
    clusters: list[np.ndarray] = []

    # Pool layout: pool[:pool_len] holds the record ids of every bucket,
    # bucket-major, each bucket in confidential order — dead entries are
    # tombstoned (alive_pool False) and physically dropped whenever the
    # engine compacts its window.  That keeps the invariant that every pool
    # entry is inside the engine window, so ``pool_pos`` (cached window
    # positions) gathers valid, freshly masked distances.
    pool = conf_order.copy()
    pool_len = n
    alive_pool = np.ones(n, dtype=bool)
    pool_pos = engine.positions_of(pool)  # window position of each entry
    boundaries = np.concatenate([[0], np.cumsum(bucket_alive)])
    compactions_seen = engine.n_compactions
    d2_pool = np.empty(n)  # distances gathered into pool layout

    def refresh_pool() -> None:
        """Drop tombstoned pool entries and re-cache window positions."""
        nonlocal pool_len, boundaries, compactions_seen
        live = np.flatnonzero(alive_pool[:pool_len])
        pool[: live.size] = pool[live]
        pool_len = live.size
        alive_pool[:pool_len] = True
        pool_pos[:pool_len] = engine.positions_of(pool[:pool_len])
        boundaries = np.concatenate([[0], np.cumsum(bucket_alive)])
        compactions_seen = engine.n_compactions

    def build_cluster(seed: int) -> np.ndarray:
        """One cluster: the bucket member nearest to the seed, per bucket."""
        nonlocal extras_left
        engine.eval_distances(engine.row(seed))
        if engine.n_compactions != compactions_seen:
            refresh_pool()
        # Records killed by earlier clusters read +inf through the mask, so
        # tombstoned pool entries never win an argmin below.
        d2 = engine.masked_distances(np.inf)
        np.take(d2, pool_pos[:pool_len], out=d2_pool[:pool_len])

        if not extras_left.any() and bucket_alive.min() > 0:
            # Steady state (extras exhausted, every bucket populated): the
            # cluster is exactly one pick per bucket — the first minimum of
            # each bucket segment, found without a Python loop.
            starts = boundaries[:-1]
            mins = np.minimum.reduceat(d2_pool[:pool_len], starts)
            hits = np.flatnonzero(
                d2_pool[:pool_len] == np.repeat(mins, np.diff(boundaries))
            )
            picks = hits[np.searchsorted(hits, starts)]
            alive_pool[picks] = False
            bucket_alive[:] -= 1
            members = pool[picks].astype(np.int64, copy=True)
            engine.kill(members)
            return members

        chosen: list[int] = []
        extra_taken = False

        def take_nearest(i: int) -> None:
            """Pop the bucket-i record nearest to the seed (ties: first)."""
            b0, b1 = boundaries[i], boundaries[i + 1]
            pos = b0 + int(np.argmin(d2_pool[b0:b1]))
            chosen.append(int(pool[pos]))
            alive_pool[pos] = False
            d2_pool[pos] = np.inf
            bucket_alive[i] -= 1

        for i in range(k_eff):
            if bucket_alive[i] == 0:  # pragma: no cover - pools stay even
                continue
            take_nearest(i)
            # The paper's extra-record rule: a central bucket still holding
            # leftovers donates a second record, at most once per cluster.
            if extras_left[i] > 0 and not extra_taken and bucket_alive[i]:
                take_nearest(i)
                extras_left[i] -= 1
                extra_taken = True
        members = np.asarray(chosen, dtype=np.int64)
        engine.kill(members)
        return members

    while engine.n_alive:
        x0 = engine.farthest_from_centroid()
        clusters.append(build_cluster(x0))

        if engine.n_alive:
            # build_cluster left the distances to x0 in the buffer; reuse
            # them to seed the second cluster of the round.
            x1 = engine.farthest()
            clusters.append(build_cluster(x1))

    partition = Partition.from_clusters(clusters, n)
    partition.validate_min_size(min(k, k_eff))
    model = ConfidentialModel(data, emd_mode=emd_mode)
    emds = model.partition_emds(list(partition.clusters()))

    return TClosenessResult(
        algorithm="tclose-first",
        k=k,
        t=t,
        partition=partition,
        cluster_emds=emds,
        info={
            "effective_k": k_eff,
            "emd_bound": emd_upper_bound(n, k_eff),
            "n_extra_records": int(n % k_eff),
            "emd_mode": emd_mode,
        },
    )
