"""Algorithm 2 — k-anonymity-first t-closeness-aware microaggregation.

Section 6 of the paper embeds the t-closeness condition *inside* the MDAV
loop.  Clusters are still seeded by quasi-identifier geometry (centroid →
farthest record → its k-1 nearest neighbours), but after seeding, each
cluster is refined: while its EMD to the table exceeds t, the next-closest
unclustered record y is fetched and the swap "y in, best-choice member out"
is applied whenever it strictly lowers the cluster's EMD.  Swapping (rather
than growing) keeps the cluster at exactly k records, at the price of some
quasi-identifier homogeneity.

Algorithm 2 alone cannot guarantee t-closeness (the candidate pool can run
dry first — most likely for the last clusters), so, exactly as the paper
prescribes, the full algorithm runs Algorithm 1's merging phase on the
result; with ``merge_fallback=False`` the raw Section-6 behaviour is
exposed for study.

Cost: O(n^2/k) when no swaps are needed, O(n^3/k) worst case — the paper's
Figure 5 shows exactly this gap, and the benchmark harness reproduces it.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ..backend import SerialBackend, resolve_backend
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.engine import ClusteringEngine
from ..microagg.partition import Partition
from ..registry import register_method
from ..runtime.faults import fault_point
from .base import TClosenessResult
from .confidential import ClusterTrackerSet, ConfidentialModel
from .merge import merge_to_t_closeness

#: Swaps must improve the EMD by more than this to be applied; guards
#: against float-noise swap cycles without affecting genuine improvements.
_MIN_IMPROVEMENT = 1e-12

#: Decision band for the sparse fast path.  Sparse and dense EMD
#: evaluations sum the same terms in different groupings and agree to
#: ~1e-14; any comparison (stop check, candidate argmin, accept threshold)
#: landing within this band of flipping is re-judged with the dense
#: reference arithmetic (``ClusterTrackerSet.exact_*``), so every decision
#: — and therefore every partition — matches the dense predecessor
#: bit-for-bit while the off-band bulk of the work stays O(c log m).
_TIE_BAND = 1e-12

#: Consecutive rejections before the refinement loop switches from
#: per-candidate scoring to speculative batch scoring.  Accepted swaps
#: mutate the tracker, so a speculative block is only profitable when the
#: upcoming candidates are likely rejections; a rejection run is the
#: cheapest available predictor.  Below the threshold the loop stays on
#: the one-candidate path (whose scoring-pass cache also makes the
#: accepted swap's commit free), so accept-heavy refinement — the tight-t
#: common case, where >80% of candidates are accepted — pays no
#: speculation waste at all.
_BATCH_AFTER = 8

#: Speculative block sizes: start small (a mispredicted acceptance throws
#: the block's unconsumed scores away), double while the rejections keep
#: coming (one batched tracker pass costs little more than two
#: per-candidate dispatches), reset on every acceptance.
_SCORE_BLOCK_MIN = 16
_SCORE_BLOCK_MAX = 256


def _swap_pool(engine: ClusteringEngine, k: int):
    """Lazily yield the swap pool — ``engine.sorted_alive()[k:]`` — in order.

    The refinement loop usually consumes a handful of pool records before
    the cluster reaches t, so sorting the whole shrinking window per cluster
    (O(n log n), the dominant cost of tight-t runs) is wasted work.  Instead
    the stable (distance, id) prefix is materialized in geometrically
    growing steps via :meth:`ClusteringEngine.k_nearest_sorted`, which
    reuses the already-evaluated seed distances; each prefix is bitwise the
    corresponding slice of the full stable argsort, so consumption order —
    and therefore every downstream swap decision — is unchanged.  Deep
    consumption degrades gracefully: doubling prefixes cost at most ~2x one
    full sort.
    """
    total = engine.n_alive
    hi = k
    while hi < total:
        new_hi = min(total, max(hi + 64, 2 * hi))
        prefix = engine.k_nearest_sorted(new_hi)
        yield from prefix[hi:]
        hi = new_hi


def _cluster_overshoots(tracker, t: float) -> bool:
    """Dense-faithful ``tracker.emd > t``, consulting the exact value only
    inside the float-resolution band around t."""
    emd = tracker.emd
    if emd <= t - _TIE_BAND:
        return False
    if emd > t + _TIE_BAND:
        return True
    return tracker.exact_emd > t


def _generate_cluster(
    engine: ClusteringEngine,
    seed_record: int,
    model: ConfidentialModel,
    k: int,
    t: float,
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
        Clustering engine whose live set is the unclustered records (must
        contain ``seed_record``).
    seed_record:
        The extreme record the cluster grows around.
    model:
        Confidential-attribute EMD model (must support trackers).
    k, t:
        Minimum cluster size and target closeness.
    backend:
        Compute backend scoring the speculative candidate blocks.
    progress, outer_state:
        Checkpoint wiring for crash-safe fits: ``progress`` is a
        :class:`~repro.runtime.FitProgress` (or None) ticked at the top
        of the refinement loop — a point where the cluster's complete
        state is the member array, the tracker, the pending queue and
        the pool-consumption count, all of which round-trip exactly —
        and ``outer_state`` is a callable merging the caller's
        between-cluster state (engine, finished clusters) into the
        snapshot.  The engine itself is not mutated during refinement
        (only seeding evaluates distances), so a mid-cluster snapshot
        restores it to the exact post-seeding buffers, and the
        regenerated swap pool yields the same records in the same order.
    resume:
        A mid-cluster snapshot to continue from (skips seeding; the
        member multiset, tracker and candidate position are restored
        bitwise), or None for a fresh cluster.

    Returns
    -------
    (members, n_swaps):
        Final cluster (record ids) and the number of accepted swaps.
        Swapped-out records are *not* in ``members`` and therefore remain
        unclustered for later clusters, mirroring the paper's pseudocode.

    Notes
    -----
    Candidates are consumed in exactly the sequential order of the paper's
    pseudocode (the stable (distance-to-seed, id) pool).  Scoring is
    *adaptive*: the loop starts on the per-candidate path (one
    ``swap_emds`` dispatch per pool record, whose scoring-pass cache makes
    an accepted swap's commit free) and, once ``_BATCH_AFTER`` consecutive
    candidates have been rejected — the signal that the refinement has
    entered a scan-dominated stretch — switches to *speculative blocks*:
    one batched tracker pass (:meth:`~repro.core.confidential
    .ClusterTrackerSet.swap_emds_batch`, bitwise row-identical to
    per-candidate scoring, called through the backend's ``score_swaps``)
    covers a whole block under the assumption that no swap in it is
    accepted.  An acceptance
    inside a block invalidates the unconsumed speculative rows — they are
    pushed back (in order) onto a pending queue and scored again, against
    the new member multiset, by whichever mode consumes them.  Every
    decision therefore sees exactly the scores the one-candidate-at-a-time
    loop computed, and the produced clusters are identical bit-for-bit
    (pinned by ``tests/microagg/test_kanon_first_golden.py``).  Fetching a
    few pool records beyond the stopping point is unobservable: the pool
    is a read-only view of the engine's live set.
    """
    backend = resolve_backend(backend)
    if resume is None:
        if engine.n_alive < 2 * k:
            return engine.alive_ids(), 0

        members = engine.k_nearest_sorted(k, point=engine.row(seed_record))
        tracker = model.make_tracker(members)
        n_swaps = 0
        if not _cluster_overshoots(tracker, t):
            return members, n_swaps
    else:
        members = np.asarray(resume["members"], dtype=np.int64)
        tracker = ClusterTrackerSet.from_snapshot(model, resume["tracker"])
        n_swaps = int(resume["meta"]["n_swaps"])

    def decide(y: int, scores: np.ndarray) -> bool:
        """The paper's swap decision for one candidate (scores given)."""
        nonlocal n_swaps
        j = int(np.argmin(scores))
        banded = np.flatnonzero(scores <= scores[j] + _TIE_BAND)
        threshold = tracker.emd - _MIN_IMPROVEMENT
        if banded.size > 1 or abs(scores[j] - threshold) <= _TIE_BAND:
            # A candidate tie or a threshold graze at float resolution:
            # re-judge exactly those candidates with the dense
            # arithmetic (first index wins, as the dense argmin did).
            # Records with identical bins across every confidential
            # attribute score identically, so each distinct bin profile
            # is evaluated once.
            exact: dict[tuple[int, ...], float] = {}
            j, best = -1, np.inf
            for idx in banded:
                key = tracker.bins_key(int(members[idx]))
                if key not in exact:
                    exact[key] = tracker.exact_swap_emd(int(members[idx]), int(y))
                if exact[key] < best:
                    j, best = int(idx), exact[key]
            accept = best < tracker.exact_emd - _MIN_IMPROVEMENT
        else:
            accept = scores[j] < threshold
        if accept:
            tracker.apply_swap(int(members[j]), int(y))
            members[j] = y
            n_swaps += 1
            fault_point("alg2.swap")
        # y is consumed either way (the paper's X' = X' \ {y}).
        return accept

    # The swap pool — every other unclustered record, ascending by
    # (distance to the seed, id) — is materialized only now that the
    # seed cluster overshoots t, and lazily even then: at loose t this
    # branch almost never runs, and at tight t the loop usually stops
    # after a few pool records, so no full sort happens either way.
    pool = _swap_pool(engine, k)
    pool_consumed = 0
    pending: list[int] = []  # speculative leftovers, next in pool order
    rejections = 0
    block_size = _SCORE_BLOCK_MIN
    if resume is not None:
        # The pool is a pure function of the (restored) engine buffers and
        # k; fast-forwarding it past the already-consumed prefix re-yields
        # exactly the records the killed run would have seen next.
        meta = resume["meta"]
        pool_consumed = int(meta["pool_consumed"])
        for _ in islice(pool, pool_consumed):
            pass
        pending = [int(y) for y in np.asarray(resume["pending"], dtype=np.int64)]
        rejections = int(meta["rejections"])
        block_size = int(meta["block_size"])

    def take(count: int) -> list[int]:
        nonlocal pool_consumed
        taken = pending[:count]
        del pending[: len(taken)]
        if len(taken) < count:
            fresh = list(islice(pool, count - len(taken)))
            pool_consumed += len(fresh)
            taken.extend(fresh)
        return taken

    def cluster_state() -> dict:
        state = outer_state()
        state["cluster"] = {
            "members": np.asarray(members, dtype=np.int64),
            "tracker": tracker.snapshot(),
            "pending": np.asarray(pending, dtype=np.int64),
            "meta": {
                "n_swaps": n_swaps,
                "pool_consumed": pool_consumed,
                "rejections": rejections,
                "block_size": block_size,
                "seed_record": int(seed_record),
            },
        }
        return state

    while _cluster_overshoots(tracker, t):
        if progress is not None:
            progress.tick("alg2", base_units + n_swaps, cluster_state)
        if rejections < _BATCH_AFTER:
            candidates = take(1)
            if not candidates:
                break
            y = candidates[0]
            if decide(y, tracker.swap_emds(members, int(y))):
                rejections = 0
                block_size = _SCORE_BLOCK_MIN
            else:
                rejections += 1
            continue
        block = take(block_size)
        if not block:
            break
        block_scores = backend.score_swaps(
            tracker, members, np.asarray(block, dtype=np.int64)
        )
        for i, y in enumerate(block):
            if decide(y, block_scores[i]):
                # The rest of the block was scored against the old member
                # multiset; hand it back unconsumed and leave batch mode.
                pending[:0] = block[i + 1 :]
                rejections = 0
                block_size = _SCORE_BLOCK_MIN
                break
        else:
            rejections += len(block)
            block_size = min(2 * block_size, _SCORE_BLOCK_MAX)
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
        Only ``"distinct"`` supports the incremental swap evaluation this
        algorithm is built on.
    backend:
        Compute backend for the distance primitive and the batched swap
        scoring (``"serial"``, an instance, or ``None`` for the shared
        one).
    progress:
        Optional :class:`~repro.runtime.FitProgress` for checkpointed
        fits.  The clustering loop snapshots under the ``"alg2"`` stage
        — between clusters and inside each cluster's swap refinement,
        every ``every_swaps`` accepted swaps — and the closing merge
        phase under ``"alg2:merge"``; a later call resuming from the
        same store continues **bit-for-bit** (pinned by the crash/resume
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
    if not model.supports_trackers:
        raise ValueError(
            "kanonymity_first requires emd_mode='distinct' for incremental "
            "swap evaluation"
        )

    backend = resolve_backend(backend)
    engine = ClusteringEngine(X, backend=backend)
    clusters: list[np.ndarray] = []
    total_swaps = 0
    # Seed-selection parity: even clusters seed on the record farthest
    # from the live centroid, odd clusters reuse the distance buffer the
    # previous seeding filled (``engine.farthest()``) — the same x0/x1
    # alternation as the paper's loop, restructured one-cluster-per-
    # iteration so a checkpoint can land between any two clusters.
    parity = 0
    resume_cluster: dict | None = None

    def outer_state() -> dict:
        return {
            "engine": engine.snapshot(),
            "flat": (
                np.concatenate(clusters)
                if clusters
                else np.empty(0, dtype=np.int64)
            ),
            "lengths": np.array([len(c) for c in clusters], dtype=np.int64),
            "meta": {"total_swaps": total_swaps, "parity": parity},
        }

    saved = progress.load("alg2") if progress is not None else None
    if saved is not None:
        engine.restore(saved["engine"])
        flat = np.asarray(saved["flat"], dtype=np.int64)
        clusters = []
        offset = 0
        for length in np.asarray(saved["lengths"], dtype=np.int64):
            clusters.append(flat[offset : offset + int(length)].copy())
            offset += int(length)
        total_swaps = int(saved["meta"]["total_swaps"])
        parity = int(saved["meta"]["parity"])
        resume_cluster = saved.get("cluster")

    while engine.n_alive:
        if progress is not None and resume_cluster is None:
            progress.tick("alg2", total_swaps, outer_state)
        if resume_cluster is not None:
            # Mid-refinement snapshot: the seed's distances are already in
            # the restored engine buffers; re-enter the refinement loop
            # directly instead of re-seeding.
            seed = int(resume_cluster["meta"]["seed_record"])
        elif parity == 0:
            seed = engine.farthest_from_centroid()
        else:
            # The buffer still holds the distances evaluated while seeding
            # the previous cluster; reuse them for the next seed.
            seed = engine.farthest()
        members, swaps = _generate_cluster(
            engine,
            seed,
            model,
            k,
            t,
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
        # Forced completion snapshot: with the clustering loop finished
        # (n_alive == 0 round-trips through the engine snapshot), a kill
        # during the merge phase below resumes straight into it — this
        # file coexists with the ``alg2:merge`` progress entries until
        # the whole phase commits.
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
