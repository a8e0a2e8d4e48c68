"""Algorithm 2 — k-anonymity-first t-closeness-aware microaggregation.

Section 6 of the paper embeds the t-closeness condition *inside* the MDAV
loop.  Clusters are still seeded by quasi-identifier geometry (centroid →
farthest record → its k-1 nearest neighbours), but after seeding, each
cluster is refined: while its EMD to the table exceeds t, the next-closest
unclustered record y is fetched and the swap "y in, best-choice member out"
is applied whenever it strictly lowers the cluster's EMD.  Swapping (rather
than growing) keeps the cluster at exactly k records, at the price of some
quasi-identifier homogeneity.

Every refinement decision is exact.  A cluster's EMD on each confidential
attribute is an integer numerator over c·n·w
(:class:`~repro.core.confidential.SwapFrame`), so the stop check against
t, the choice of the member to swap out (first member on ties) and the
strict-improvement test are integer comparisons, and the compiled kernel
behind :meth:`~repro.backend.SerialBackend.refine_swaps` and its Python
spec decide identically.

Algorithm 2 alone cannot guarantee t-closeness (the candidate pool can run
dry first — most likely for the last clusters), so, exactly as the paper
prescribes, the full algorithm runs Algorithm 1's merging phase on the
result; with ``merge_fallback=False`` the raw Section-6 behaviour is
exposed for study.

Checkpoints record decisions, not engine state.  After any prefix of the
loop, the live set is a function of the clusters carved so far, in order:
a resumed fit kills them in order on a fresh one, which replays its
running sum (and the scan engine's compactions and dead list) bitwise,
and when the next cluster seeds farthest from the last cluster's seed
(odd parity) it passes that seed's row to the query.

Cost: the paper's loop is O(n^2/k) when no swaps are needed and O(n^3/k)
worst case — Figure 5 shows exactly this gap, and the benchmark harness
reproduces it.  On the live index (:func:`~repro.microagg.engine.live_set`)
each seeding query and pool chunk scores only the kd leaves its bounds
cannot rule out instead of every unclustered record; the swap
refinement is unchanged.
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend, resolve_backend
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.engine import ClusteringEngine, LiveIndex, live_set
from ..microagg.partition import Partition
from ..registry import register_method
from ..runtime import faults
from ..runtime.faults import fault_point
from .base import TClosenessResult
from .confidential import (
    BUDGET_SPENT,
    CONVERGED,
    UNLIMITED,
    ConfidentialModel,
    SwapFrame,
)
from .merge import merge_to_t_closeness


def _pool_end(end: int, total: int) -> int:
    """The next pool prefix length: at least 16 more records, else double.

    The refinement usually consumes a handful of pool records before the
    cluster reaches t (a mean of 4 to 5 per cluster, 99% of clusters at
    most 16 to 20, on the 20k-record benchmark tables at k=5, t=0.1), so
    the pool — the live records in stable (distance to the seed, id)
    order — is materialized in geometrically growing prefixes (the live
    set's ``k_nearest``, bitwise the matching slice of a full stable
    sort) rather than sorted whole; for k = 5 the first holds the cluster
    and 16 candidates.  Where the chunks end changes no decision: each
    refinement call resumes at the next unconsumed candidate.
    """
    return min(total, max(end + 16, 2 * end))


def _generate_cluster(
    engine: LiveIndex | ClusteringEngine,
    seed_record: int,
    frame: SwapFrame,
    backend: SerialBackend | str | None = None,
    progress=None,
    outer_state=None,
    base_units: int = 0,
    resume: dict | None = None,
) -> tuple[np.ndarray, int]:
    """The paper's GenerateCluster: seed k-NN cluster, refine by swaps.

    Parameters
    ----------
    engine:
        The live set of unclustered records (must contain
        ``seed_record``): a live index or the scan engine.
    seed_record:
        The extreme record the cluster grows around.
    frame:
        The fit's exact decision frame (carries k and the thresholds of t).
    backend:
        Compute backend whose ``refine_swaps`` runs the refinement.
    progress, outer_state:
        Checkpoint wiring for crash-safe fits: ``progress`` is a
        :class:`~repro.runtime.FitProgress` (or None) ticked whenever the
        refinement stops with the cluster still above t, and
        ``outer_state`` is a callable returning the caller's decisions so
        far (finished clusters, swap count, parity, this cluster's seed),
        into which the snapshot adds the cluster's own state.  The engine
        is not mutated during refinement, so its live set on resume is
        the one the finished clusters leave behind.
    resume:
        A mid-cluster snapshot to continue from, or None: seeding is
        skipped, the pool is regenerated from the seed's distances (the
        same records in the same order) and the members and the pool
        position are restored.

    Returns
    -------
    (members, n_swaps):
        Final cluster (record ids) and the number of accepted swaps.
        Swapped-out records are *not* in ``members`` and therefore remain
        unclustered for later clusters, mirroring the paper's pseudocode.

    Notes
    -----
    Candidates are consumed in exactly the order of the paper's
    pseudocode: the stable (distance-to-seed, id) pool.  The refinement
    runs in calls to ``backend.refine_swaps``, each over the pool chunk
    fetched so far; a call returns when the cluster is within t, when
    the chunk is used up (the pool is then extended) or after a swap
    budget.  The budget ends a call exactly where the next checkpoint
    tick falls due (``FitProgress.units_until_due``), and at every swap
    while an ``alg2.swap`` fault is armed, so snapshots and faults land
    on the same swap counts whatever the call boundaries.  A snapshot's
    cluster state is the member array, the swap count and the pool
    position: everything else is a function of those.
    """
    backend = resolve_backend(backend)
    k = frame.k
    total = engine.n_alive
    end = _pool_end(k, total)
    if resume is None:
        if total < 2 * k:
            return engine.alive_ids(), 0
        # One stable prefix gives the seed's k nearest records and the
        # first pool chunk after them.
        prefix = engine.k_nearest(end, point=engine.row(seed_record))
        members = prefix[:k].copy()
        n_swaps = pool_consumed = 0
    else:
        members = np.array(resume["members"], dtype=np.int64)
        n_swaps = int(resume["meta"]["n_swaps"])
        pool_consumed = int(resume["meta"]["pool_consumed"])
        while end - k < pool_consumed and end < total:
            end = _pool_end(end, total)
        prefix = engine.k_nearest(end, point=engine.row(seed_record))
    pool = prefix[k:]

    def cluster_state() -> dict:
        state = outer_state()
        state["cluster"] = {
            "members": members.copy(),
            "meta": {"n_swaps": n_swaps, "pool_consumed": pool_consumed},
        }
        return state

    while True:
        budget = UNLIMITED
        if progress is not None:
            budget = progress.units_until_due("alg2", base_units + n_swaps)
        if faults.is_armed("alg2.swap"):
            budget = 1
        swaps, consumed, status = backend.refine_swaps(
            frame, members, pool[pool_consumed:], budget
        )
        n_swaps += swaps
        pool_consumed += consumed
        for _ in range(swaps):
            fault_point("alg2.swap")
        if status == CONVERGED:
            break
        if status == BUDGET_SPENT:
            if progress is not None:
                progress.tick("alg2", base_units + n_swaps, cluster_state)
        elif end < total:
            end = _pool_end(end, total)
            pool = engine.k_nearest(end)[k:]
        else:
            break  # the pool ran dry above t
    return members, n_swaps


@register_method("kanon-first")
def kanonymity_first(
    data: Microdata,
    k: int,
    t: float,
    *,
    merge_fallback: bool = True,
    emd_mode: str = "distinct",
    backend: SerialBackend | str | None = None,
    progress=None,
) -> TClosenessResult:
    """Algorithm 2: t-closeness-aware MDAV with swap-based refinement.

    Parameters
    ----------
    data:
        Microdata with quasi-identifier and confidential roles assigned.
    k:
        Minimum cluster size.
    t:
        t-closeness level.
    merge_fallback:
        Run Algorithm 1's merging phase afterwards so the returned partition
        always satisfies t-closeness (the paper's evaluated configuration).
        When false, the raw partition is returned and ``satisfies_t`` may be
        False.
    emd_mode:
        Only ``"distinct"`` has the per-record bins the exact swap
        refinement is built on.  The fit raises ``ValueError`` unless
        k·n·m < 2**63 for every confidential attribute (m bins), the
        bound of its integer arithmetic.
    backend:
        Compute backend for the distance primitive and the swap
        refinement (``"serial"``, an instance, or ``None`` for the shared
        one).
    progress:
        Optional :class:`~repro.runtime.FitProgress` for checkpointed
        fits.  The clustering loop snapshots under the ``"alg2"`` stage
        — between clusters and inside each cluster's swap refinement,
        every ``every_swaps`` accepted swaps — and the closing merge
        phase under ``"alg2:merge"``.  An ``"alg2"`` snapshot holds the
        finished clusters in order, the swap count, the seed parity and
        one seed, plus the refining cluster's members, swap count and
        pool position; a later call resuming from the same store replays
        them and continues **bit-for-bit** (pinned by the crash/resume
        matrix in ``tests/runtime/``).

    Returns
    -------
    TClosenessResult
        ``info`` records ``n_swaps``, ``n_merges`` and the pre-merge
        cluster count.
    """
    n = data.n_records
    if n == 0:
        raise ValueError("dataset is empty")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")

    X = encode_mixed(data, data.quasi_identifiers)
    model = ConfidentialModel(data, emd_mode=emd_mode)
    frame = model.swap_frame(k, t)

    backend = resolve_backend(backend)
    engine = live_set(X, backend=backend)
    clusters: list[np.ndarray] = []
    total_swaps = 0
    # Seed-selection parity: even clusters seed on the record farthest
    # from the live centroid, odd clusters on the record farthest from the
    # previous cluster's seed (``engine.farthest()``) — the same x0/x1
    # alternation as the paper's loop, restructured one-cluster-per-
    # iteration so a checkpoint can land between any two clusters.
    parity = 0
    # The current cluster's seed; between clusters, the last cluster's,
    # which is the live set's last query point.
    seed = -1
    resume_cluster: dict | None = None
    # A resumed odd cluster seeds farthest from the last cluster's seed.
    refill: np.ndarray | None = None

    def outer_state() -> dict:
        return {
            "flat": (
                np.concatenate(clusters)
                if clusters
                else np.empty(0, dtype=np.int64)
            ),
            "lengths": np.array([len(c) for c in clusters], dtype=np.int64),
            "meta": {"total_swaps": total_swaps, "parity": parity, "seed": seed},
        }

    saved = progress.load("alg2") if progress is not None else None
    if saved is not None:
        # The live set is a function of the clusters carved so far:
        # killing them in order replays its running sum (and the scan
        # engine's compactions and dead list) bitwise.
        flat = np.asarray(saved["flat"], dtype=np.int64)
        offset = 0
        for length in np.asarray(saved["lengths"], dtype=np.int64):
            clusters.append(flat[offset : offset + int(length)].copy())
            engine.kill(clusters[-1])
            offset += int(length)
        total_swaps = int(saved["meta"]["total_swaps"])
        parity = int(saved["meta"]["parity"])
        seed = int(saved["meta"]["seed"])
        resume_cluster = saved.get("cluster")
        if resume_cluster is None and parity == 1:
            refill = engine.row(seed)

    while engine.n_alive:
        # A mid-refinement snapshot re-enters the refinement around its
        # recorded seed instead of choosing a new one.
        if resume_cluster is None:
            if progress is not None:
                progress.tick("alg2", total_swaps, outer_state)
            if parity == 0:
                seed = engine.farthest_from_centroid()
            else:
                # The last query point is the previous cluster's seed;
                # reuse it for the next seed.
                seed = engine.farthest(refill)
                refill = None
        members, swaps = _generate_cluster(
            engine,
            seed,
            frame,
            backend,
            progress=progress,
            outer_state=outer_state,
            base_units=total_swaps,
            resume=resume_cluster,
        )
        resume_cluster = None
        total_swaps += swaps
        clusters.append(members)
        engine.kill(members)
        parity ^= 1
        fault_point("alg2.cluster")

    if progress is not None:
        # Forced completion snapshot: with every cluster recorded, a kill
        # during the merge phase below replays them and resumes straight
        # into it — this file coexists with the ``alg2:merge`` progress
        # entries until the whole phase commits.
        progress.tick("alg2", total_swaps, outer_state, force=True)

    partition = Partition.from_clusters(clusters, n)
    partition.validate_min_size(k)
    pre_merge_clusters = partition.n_clusters
    n_merges = 0
    if merge_fallback:
        partition, emds, n_merges = merge_to_t_closeness(
            data,
            partition,
            t,
            model=model,
            qi_matrix=X,
            backend=backend,
            progress=progress,
            stage="alg2:merge",
        )
    else:
        emds = model.partition_emds(list(partition.clusters()))

    return TClosenessResult(
        algorithm="kanon-first",
        k=k,
        t=t,
        partition=partition,
        cluster_emds=np.asarray(emds),
        info={
            "n_swaps": total_swaps,
            "n_merges": n_merges,
            "clusters_before_merge": pre_merge_clusters,
            "merge_fallback": merge_fallback,
            "emd_mode": emd_mode,
        },
    )
