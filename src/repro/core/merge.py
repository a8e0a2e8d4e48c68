"""Algorithm 1 — standard microaggregation followed by cluster merging.

The simplest route to k-anonymous t-closeness (Section 5 of the paper):

1. run any microaggregation heuristic (MDAV by default) on the
   quasi-identifiers with minimum cluster size k;
2. while some cluster's confidential-attribute distribution is farther than
   t from the whole table's, take the *worst* such cluster and merge it with
   the cluster whose quasi-identifier centroid is nearest.

Termination is guaranteed: in the worst case everything collapses into a
single cluster, whose EMD to the table is zero.  The merging phase is
exposed separately (:func:`merge_to_t_closeness`) because the paper reuses
it as the closing step of Algorithm 2, which cannot guarantee t-closeness
on its own.

Implementation notes — the phase runs on incremental state end to end:

* every EMD decision is exact: a cluster's EMD is the rational
  :meth:`~repro.core.confidential.ConfidentialModel.emd_ratio` (integer
  numerators over c·n·w), evaluated for all initial clusters in one pass
  (:meth:`~repro.core.confidential.ConfidentialModel.emd_ratios`) and
  once per merged cluster;
* a merged cluster's numerator per ordered attribute is one sort of its
  member bins and one
  :meth:`~repro.distance.OrderedEMDFrame.sorted_numerator` call, a single
  segment evaluation over the c + 1 segments the sorted bins cut, with no
  ``np.unique``.  The ``lowest-emd`` policy scores a round's candidate
  merges with
  :meth:`~repro.core.confidential.ConfidentialModel.emd_ratios`, a few
  calls of at most :data:`LOWEST_EMD_BATCH` member ids each, instead of
  one ``emd_ratio`` per candidate;
* the worst cluster is popped from a lazy-deletion heap keyed on those
  ratios, lowest cluster id first on exact ties — only the merged
  cluster's key changes per round, so re-selection is O(log G) instead of
  an O(G) scan;
* the loop stops once the worst ratio is at most t, compared exactly with
  the float t's own ratio, the rule Algorithm 2's
  :class:`~repro.core.confidential.SwapFrame` applies;
* nearest-centroid partner search runs on a
  :class:`~repro.microagg.engine.ClusteringEngine` built over the cluster
  centroids, reusing its preallocated distance buffer, masked selections
  and O(d) in-place centroid updates (:meth:`~ClusteringEngine.replace_row`)
  instead of recomputing a Python-loop distance scan from scratch per
  merge.  Its initial centroids are averaged by cluster size
  (:func:`_centroid_matrix`), bitwise each cluster's own mean.  The
  partner is the argmin of the engine's canonical distances, lowest
  cluster id on exact ties (pinned by
  ``tests/microagg/test_kanon_first_golden.py``);
* a checkpoint records decisions, not state: the (worst, partner) pairs
  merged so far and the RNG state.  A resume replays those merges
  through the loop's own commit step, which rebuilds the centroid rows.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from ..backend import SerialBackend, accepts_backend as _accepts_backend, resolve_backend
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.engine import ClusteringEngine
from ..microagg.mdav import mdav
from ..microagg.partition import Partition
from ..registry import PARTITIONERS, register_method
from ..runtime.faults import fault_point
from .base import TClosenessResult
from .confidential import ConfidentialModel

#: Signature every base partitioner must satisfy: (QI matrix, k) -> Partition.
Partitioner = Callable[[np.ndarray, int], Partition]

class _Exact:
    """An EMD ratio ``num/den`` (den > 0) ordered by its exact value.

    Keys lead with the correctly rounded float ``num/den``, which never
    orders two ratios against their exact values (rounding is monotone),
    so this cross-multiplied comparison only runs when two floats are
    equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        self.num = num
        self.den = den

    def __eq__(self, other: "_Exact") -> bool:
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: "_Exact") -> bool:
        return self.num * other.den < other.num * self.den


def _nearest_partner(cengine: ClusteringEngine, worst: int) -> int:
    """Live cluster nearest to ``worst``'s centroid, lowest id on exact ties.

    Evaluates squared centroid distances through the engine's shared
    buffer (the canonical kernel), masks dead clusters and ``worst``
    itself, and takes the argmin; window positions ascend with cluster
    id, so the first minimum is the lowest id.
    """
    cengine.eval_distances(cengine.row(worst))
    buf = cengine.masked_distances(np.inf)
    buf[cengine.positions_of(worst)] = np.inf
    return int(cengine.ids_at(np.argmin(buf)))


#: The most member ids the ``lowest-emd`` policy scores in one
#: :meth:`~repro.core.confidential.ConfidentialModel.emd_ratios` call, so
#: a round holds O(LOWEST_EMD_BATCH) ids however many candidates it has.
LOWEST_EMD_BATCH = 1 << 16


def _lowest_emd_partner(
    model: ConfidentialModel,
    members: list[np.ndarray | None],
    worst: int,
    candidates: list[int],
) -> int:
    """The candidate whose merge with ``worst`` has the lowest exact EMD,
    lowest id on exact ties, scored in batches of at most
    :data:`LOWEST_EMD_BATCH` member ids."""
    best = None
    batch: list[int] = []
    size = 0
    for i, g in enumerate(candidates):
        batch.append(g)
        size += len(members[worst]) + len(members[g])
        if size < LOWEST_EMD_BATCH and i + 1 < len(candidates):
            continue
        merged = model.emd_ratios(
            [np.concatenate([members[worst], members[h]]) for h in batch]
        )
        for (num, den), h in zip(merged, batch):
            key = (num / den, _Exact(num, den), h)
            if best is None or key < best:
                best = key
        batch, size = [], 0
    return best[2]


def _centroid_matrix(qi_matrix: np.ndarray, partition: Partition) -> np.ndarray:
    """Row g: cluster g's mean quasi-identifier row.

    Clusters of one size are averaged together
    (:meth:`~repro.microagg.partition.Partition.size_groups`); each row is
    bitwise ``qi_matrix[members].mean(axis=0)`` of its cluster, since
    numpy accumulates a ``(clusters, size, d)`` gather over its middle
    axis in the order it accumulates one ``(size, d)`` block.
    """
    out = np.empty((partition.n_clusters, qi_matrix.shape[1]))
    for ids, rows in partition.size_groups():
        out[ids] = qi_matrix[rows].mean(axis=1)
    return out


def merge_to_t_closeness(
    data: Microdata,
    partition: Partition,
    t: float,
    *,
    model: ConfidentialModel | None = None,
    qi_matrix: np.ndarray | None = None,
    emd_mode: str = "distinct",
    partner_policy: str = "nearest-qi",
    seed: int = 0,
    backend: SerialBackend | str | None = None,
    progress=None,
    stage: str = "merge",
) -> tuple[Partition, np.ndarray, int]:
    """Greedy merging phase: merge clusters until all are t-close.

    Each round picks the cluster with the largest EMD to the full table
    (lowest cluster id on exact ties) and merges it with a partner chosen
    by ``partner_policy``:

    * ``"nearest-qi"`` (the paper's quality criterion): the cluster whose
      quasi-identifier centroid is nearest;
    * ``"lowest-emd"``: the cluster whose merge yields the smallest merged
      EMD (greedy on the privacy objective, blind to utility; lowest
      cluster id on exact ties);
    * ``"random"``: a uniformly random partner (ablation control).

    EMDs are the exact ratios of
    :meth:`~repro.core.confidential.ConfidentialModel.emd_ratio`; the loop
    stops once the worst one is at most ``min(t, 1)``, compared exactly
    against the float t's own integer ratio.

    Parameters
    ----------
    data:
        Original microdata (confidential attributes read from here).
    partition:
        Starting partition (typically k-anonymous).
    t:
        Target t-closeness level (``inf`` merges nothing).
    model:
        Optional pre-built :class:`ConfidentialModel` (saves rebuilding the
        EMD reference when sweeping many parameters).
    qi_matrix:
        Optional pre-computed quasi-identifier geometry.
    emd_mode:
        EMD flavour when ``model`` is not supplied.
    partner_policy:
        Merge-partner selection rule (see above).
    seed:
        RNG seed for the ``"random"`` policy.
    backend:
        Compute backend for the centroid engine's partner scans
        (``"serial"``, an instance, or ``None`` for the shared one).
    progress:
        Optional :class:`~repro.runtime.FitProgress`.  The loop then
        snapshots its decisions — the (worst, partner) pairs merged so
        far, in order, and the RNG state — every ``every_merges`` merges
        under ``stage``, and a later call with the same progress store
        resumes from the last snapshot.  It replays those merges through
        the live loop's own commit step, which rebuilds the member lists
        and the path-dependent centroid rows bitwise; the EMD keys are
        recomputed from the members and the heap rebuilt from the live
        clusters, whose pop order depends only on the live (key, id) set,
        so the remaining merges run **bit-for-bit** as uninterrupted.
        The ``merge.step`` fault point fires after each committed merge.
    stage:
        Progress namespace; callers use ``"alg1:merge"``,
        ``"alg2:merge"`` or ``"repair:merge"`` so each pipeline position
        checkpoints independently.

    Returns
    -------
    (partition, cluster_emds, n_merges)
        ``cluster_emds`` holds each final cluster's exact EMD, correctly
        rounded to float.
    """
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if partner_policy not in ("nearest-qi", "lowest-emd", "random"):
        raise ValueError(
            f"unknown partner_policy {partner_policy!r}; expected "
            "'nearest-qi', 'lowest-emd' or 'random'"
        )
    backend = resolve_backend(backend)  # eager: unknown names fail here
    if model is None:
        model = ConfidentialModel(data, emd_mode=emd_mode)
    if qi_matrix is None:
        qi_matrix = encode_mixed(data, data.quasi_identifiers)
    rng = np.random.default_rng(seed)
    # EMD <= 1 always, so t clamps at 1 and every cluster passes t = inf.
    t_num, t_den = min(t, 1.0).as_integer_ratio()  # exact, like Fraction(t)

    members: list[np.ndarray | None] = list(partition.clusters())
    # Partner search: a ClusteringEngine over the cluster-centroid matrix,
    # built lazily on the first merge (the loose-t common case never pays
    # for it).  Merges update it in place: the survivor's centroid row is
    # replaced (O(d)), the absorbed cluster is killed and masked out.
    cengine: ClusteringEngine | None = None
    # The (worst, partner) decisions in order.  With the RNG state they are
    # all a checkpoint holds: everything else is a function of them.
    log: list[tuple[int, int]] = []

    def partner_engine() -> ClusteringEngine:
        nonlocal cengine
        if cengine is None:
            # No merge has happened yet, so every initial cluster is
            # intact and its centroid is its partition cluster's mean.
            cengine = ClusteringEngine(
                _centroid_matrix(qi_matrix, partition), backend=backend
            )
        return cengine

    def commit(worst: int, partner: int) -> None:
        """Merge ``partner`` into ``worst``, in the live loop and on replay.

        The survivor's centroid row is the size-weighted mean of the two
        rows, so it depends on the merge path; replaying the same commits
        rebuilds it bitwise.
        """
        if partner_policy == "nearest-qi":
            engine = partner_engine()
            size_w, size_b = len(members[worst]), len(members[partner])
            engine.replace_row(
                worst,
                (size_w * engine.row(worst) + size_b * engine.row(partner))
                / (size_w + size_b),
            )
            engine.kill_one(partner)
        members[worst] = np.concatenate([members[worst], members[partner]])
        members[partner] = None
        log.append((worst, partner))

    saved = progress.load(stage) if progress is not None else None
    if saved is not None:
        # Resume mid-loop by replaying the recorded merges; the RNG
        # continues from its serialized bit-generator state.
        for worst, partner in saved["log"].tolist():
            commit(worst, partner)
        rng.bit_generator.state = saved["meta"]["rng"]
    n_groups = len(members)
    n_alive = sum(m is not None for m in members)
    fresh = iter(model.emd_ratios([m for m in members if m is not None]))
    ratios = [None if m is None else next(fresh) for m in members]

    # Worst-cluster selection: lazy-deletion heap of (-float, exact, id)
    # keys, so the largest EMD pops first and exact ties pop the lowest
    # cluster id.  ``live[g]`` is cluster g's current entry (None once
    # absorbed); any other entry for g is stale and skipped.
    def entry(g: int) -> tuple:
        num, den = ratios[g]
        return (-(num / den), _Exact(-num, den), g)

    live = [None if m is None else entry(g) for g, m in enumerate(members)]
    heap = [e for e in live if e is not None]
    heapq.heapify(heap)

    def snapshot_state() -> dict:
        return {
            "log": np.array(log, dtype=np.int64).reshape(-1, 2),
            "meta": {"rng": rng.bit_generator.state},
        }

    while n_alive > 1:
        if progress is not None:
            progress.tick(stage, len(log), snapshot_state)
        while heap[0] is not live[heap[0][2]]:
            heapq.heappop(heap)
        worst = heap[0][2]
        num, den = ratios[worst]
        if num * t_den <= t_num * den:
            break
        if partner_policy == "nearest-qi":
            best_g = _nearest_partner(partner_engine(), worst)
        else:
            candidates = [
                g for g in range(n_groups) if members[g] is not None and g != worst
            ]
            if partner_policy == "lowest-emd":
                best_g = _lowest_emd_partner(model, members, worst, candidates)
            else:  # random
                best_g = int(rng.choice(candidates))
        commit(worst, best_g)
        ratios[worst] = model.emd_ratio(members[worst])
        live[worst] = entry(worst)
        heapq.heapreplace(heap, live[worst])  # the top is worst's old entry
        ratios[best_g] = live[best_g] = None
        n_alive -= 1
        fault_point("merge.step")

    survivors = [g for g, m in enumerate(members) if m is not None]
    final = Partition.from_clusters([members[g] for g in survivors], data.n_records)
    # Partition relabels clusters by first appearance in record order;
    # any member's label is its cluster's final id.
    final_emds = np.empty(len(survivors))
    final_emds[final.labels[[members[g][0] for g in survivors]]] = [
        ratios[g][0] / ratios[g][1] for g in survivors
    ]
    return final, final_emds, len(log)


@register_method("merge")
def microaggregation_merge(
    data: Microdata,
    k: int,
    t: float,
    *,
    partitioner: Partitioner | str = mdav,
    emd_mode: str = "distinct",
    backend: SerialBackend | str | None = None,
    progress=None,
) -> TClosenessResult:
    """Algorithm 1: microaggregate the quasi-identifiers, then merge.

    Parameters
    ----------
    data:
        Microdata with quasi-identifier and confidential roles assigned.
    k:
        Minimum cluster size (k-anonymity level).
    t:
        t-closeness level to enforce.
    partitioner:
        Base microaggregation heuristic; MDAV by default.  Accepts either a
        callable ``(X, k) -> Partition`` or a registered partitioner name
        (see :data:`repro.registry.PARTITIONERS`).
    emd_mode:
        ``"distinct"`` (default) or ``"rank"`` ordered-EMD flavour.
    backend:
        Compute backend for the partition and merge phases (``"serial"``,
        an instance, or ``None`` for the shared one).  Forwarded to the
        partitioner when its signature accepts a ``backend`` keyword (the
        built-in ``mdav``/``vmdav`` do; third-party ``(X, k)`` callables
        without one are simply called as before).
    progress:
        Optional :class:`~repro.runtime.FitProgress` for checkpointed
        fits.  The base microaggregation replays deterministically on
        resume (it is fast relative to merging), so only the merge loop
        snapshots, under the ``"alg1:merge"`` stage.

    Returns
    -------
    TClosenessResult
        ``info`` records ``n_merges`` and the pre-merge cluster count.
    """
    if data.n_records == 0:
        raise ValueError("dataset is empty")
    if not 1 <= k <= data.n_records:
        raise ValueError(f"k must be in [1, {data.n_records}], got {k}")
    if isinstance(partitioner, str):
        partitioner = PARTITIONERS.resolve(partitioner)
    backend = resolve_backend(backend)
    qi_matrix = encode_mixed(data, data.quasi_identifiers)
    model = ConfidentialModel(data, emd_mode=emd_mode)
    if _accepts_backend(partitioner):
        initial = partitioner(qi_matrix, k, backend=backend)
    else:
        initial = partitioner(qi_matrix, k)
    initial.validate_min_size(k)
    final, emds, n_merges = merge_to_t_closeness(
        data,
        initial,
        t,
        model=model,
        qi_matrix=qi_matrix,
        backend=backend,
        progress=progress,
        stage="alg1:merge",
    )
    return TClosenessResult(
        algorithm="merge",
        k=k,
        t=t,
        partition=final,
        cluster_emds=emds,
        info={
            "n_merges": n_merges,
            "initial_clusters": initial.n_clusters,
            "emd_mode": emd_mode,
        },
    )
