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

Implementation notes — one loop, two ways to run its merges:

* every EMD decision is exact: a cluster's EMD is the rational
  :meth:`~repro.core.confidential.ConfidentialModel.emd_ratio` (integer
  numerators over c·n·w), evaluated for all initial clusters in one pass
  (:meth:`~repro.core.confidential.ConfidentialModel.emd_ratios`) and
  once per merged cluster;
* the worst cluster is the largest ratio, lowest cluster id on exact
  ties; the loop stops once it is at most t, compared exactly with the
  float t's own ratio, the rule Algorithm 2's
  :class:`~repro.core.confidential.SwapFrame` applies;
* the ``nearest-qi`` partner is the live cluster other than the worst
  with the smallest (squared centroid distance, id), a NaN distance after
  every number (the clustering engine's k-nearest rule).  Initial
  centroids are averaged by cluster size (:func:`_centroid_matrix`),
  bitwise each cluster's own mean, and built only when a first merge is
  due; a merge moves the survivor's centroid to the size-weighted mean
  of the two, so centroids depend on the merge path;
* a checkpoint records decisions, not state: the (worst, partner) pairs
  merged so far and the RNG state.  A resume replays those merges
  through the loop's own commit, which rebuilds the members and the
  centroid rows bitwise.

:func:`merge_to_t_closeness` keeps the loop itself — checkpoint ticks,
the decision log and the ``merge.step`` fault point — and runs each merge
one of two ways:

* **the compiled step** (:class:`_CompiledMerges`) when the
  :mod:`repro.backend._native` library loaded, the policy is
  ``nearest-qi`` and every confidential attribute has an integer frame
  (distinct mode): Algorithm 1, Algorithm 2's merge fallback, repair's
  ``repair:merge`` and SABRE.  One call per merge (``repro_merge_step``)
  pops the worst cluster from an exact indexed heap, applies the stop
  test in 128-bit integers, scans the centroid columns for the partner in
  the canonical distance order, splices the partner's member list after
  the worst's and re-scores the survivor from its sorted member bins
  with the refinement kernel's integer helpers.  The state is plain
  arrays (:class:`~repro.backend.kernels.MergeState`), and the load-time
  self-check holds the step to a brute-force loop on a tie-heavy table;
* **the spec** (:class:`_SpecMerges`), the loop in Python, for
  everything else (``REPRO_NO_NATIVE=1``, rank mode, ``lowest-emd`` and
  ``random``): the ratios in a lazy-deletion heap, the partner search on
  a :class:`~repro.microagg.engine.ClusteringEngine` over the centroids
  (its compiled distance scan and k-nearest selection, with O(d)
  in-place centroid updates), and a merged cluster's numerator per
  ordered attribute from one sort of its member bins
  (:meth:`~repro.distance.OrderedEMDFrame.sorted_numerator`).  The
  ``lowest-emd`` policy scores a round's candidate merges with
  :meth:`~repro.core.confidential.ConfidentialModel.emd_ratios`, a few
  calls of at most :data:`LOWEST_EMD_BATCH` member ids each.

Both make every decision alike, bit for bit, so labels, EMDs, merge
counts and checkpoints do not depend on the path, and a checkpoint
written on one resumes on the other.
"""

from __future__ import annotations

import ctypes
import heapq
from typing import Callable

import numpy as np

from ..backend import SerialBackend, _native, accepts_backend as _accepts_backend, resolve_backend
from ..backend.kernels import build_merge_state
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.engine import ClusteringEngine
from ..microagg.mdav import mdav
from ..microagg.partition import Partition
from ..registry import PARTITIONERS, register_method
from ..runtime.faults import fault_point
from .base import TClosenessResult
from .confidential import ConfidentialModel, check_exact_bound

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
    """The live cluster other than ``worst`` nearest its centroid.

    The smallest (squared centroid distance, id), a NaN distance after
    every number: the engine's two nearest live clusters by that rule
    (:meth:`~ClusteringEngine.k_nearest`, which reads the engine's
    liveness and the canonical distances), less ``worst`` itself.
    """
    first, second = cengine.k_nearest(2, cengine.row(worst)).tolist()
    return second if first == worst else first


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


class _SpecMerges:
    """The merge loop's merges in Python: the spec of the compiled step.

    Members are arrays per cluster, the ratios sit in a lazy-deletion heap
    of ``(-float, exact, id)`` keys, and the ``nearest-qi`` partner search
    runs on a :class:`~repro.microagg.engine.ClusteringEngine` over the
    centroids, built on the first commit.  :meth:`commit` serves the loop
    and a resume's replay; :meth:`start` scores the live clusters once the
    replay is done.
    """

    def __init__(
        self, partition, model, qi_matrix, policy, rng, backend, t_ratio
    ) -> None:
        self._partition = partition
        self._model = model
        self._qi_matrix = qi_matrix
        self._policy = policy
        self._rng = rng
        self._backend = backend
        self._t_num, self._t_den = t_ratio
        self._members: list[np.ndarray | None] = list(partition.clusters())
        self._cengine: ClusteringEngine | None = None

    def _partner_engine(self) -> ClusteringEngine:
        if self._cengine is None:
            # No merge has happened yet, so every initial cluster is
            # intact and its centroid is its partition cluster's mean.
            self._cengine = ClusteringEngine(
                _centroid_matrix(self._qi_matrix, self._partition),
                backend=self._backend,
            )
        return self._cengine

    def commit(self, worst: int, partner: int) -> None:
        """Merge ``partner`` into ``worst``, in the loop and on replay.

        The survivor's centroid row is the size-weighted mean of the two
        rows, so it depends on the merge path; replaying the same commits
        rebuilds it bitwise.
        """
        members = self._members
        if self._policy == "nearest-qi":
            engine = self._partner_engine()
            size_w, size_b = len(members[worst]), len(members[partner])
            engine.replace_row(
                worst,
                (size_w * engine.row(worst) + size_b * engine.row(partner))
                / (size_w + size_b),
            )
            engine.kill_one(partner)
        members[worst] = np.concatenate([members[worst], members[partner]])
        members[partner] = None

    def _entry(self, g: int) -> tuple:
        num, den = self._ratios[g]
        return (-(num / den), _Exact(-num, den), g)

    def start(self) -> None:
        """Score the live clusters and heap them: the largest EMD pops
        first, exact ties the lowest cluster id.  ``live[g]`` is cluster
        g's current entry (None once absorbed); any other entry for g is
        stale and skipped."""
        members = self._members
        fresh = iter(self._model.emd_ratios([m for m in members if m is not None]))
        self._ratios = [None if m is None else next(fresh) for m in members]
        self._live = [None if m is None else self._entry(g) for g, m in enumerate(members)]
        self._heap = [e for e in self._live if e is not None]
        heapq.heapify(self._heap)

    def step(self) -> tuple[int, int] | None:
        """One merge: ``(worst, partner)``, or None once the worst
        cluster is within t."""
        heap, live, members = self._heap, self._live, self._members
        while heap[0] is not live[heap[0][2]]:
            heapq.heappop(heap)
        worst = heap[0][2]
        num, den = self._ratios[worst]
        if num * self._t_den <= self._t_num * den:
            return None
        if self._policy == "nearest-qi":
            partner = _nearest_partner(self._partner_engine(), worst)
        else:
            candidates = [
                g for g, m in enumerate(members) if m is not None and g != worst
            ]
            if self._policy == "lowest-emd":
                partner = _lowest_emd_partner(self._model, members, worst, candidates)
            else:  # random
                partner = int(self._rng.choice(candidates))
        self.commit(worst, partner)
        self._ratios[worst] = self._model.emd_ratio(members[worst])
        live[worst] = self._entry(worst)
        heapq.heapreplace(heap, live[worst])  # the top is worst's old entry
        self._ratios[partner] = live[partner] = None
        return worst, partner

    def result(self) -> tuple[Partition, np.ndarray]:
        """The final partition and each final cluster's EMD."""
        members = self._members
        survivors = [g for g, m in enumerate(members) if m is not None]
        final = Partition.from_clusters(
            [members[g] for g in survivors], self._partition.n_records
        )
        # Partition relabels clusters by first appearance in record order;
        # any member's label is its cluster's final id.
        emds = np.empty(len(survivors))
        emds[final.labels[[members[g][0] for g in survivors]]] = [
            self._ratios[g][0] / self._ratios[g][1] for g in survivors
        ]
        return final, emds


class _CompiledMerges:
    """The ``nearest-qi`` merges through the compiled step.

    The clusters live in a :class:`~repro.backend.kernels.MergeState`
    bound once to :mod:`repro.backend._native`'s ``repro_merge_*`` entry
    points: initial ratios from
    :meth:`~repro.core.confidential.ConfidentialModel.emd_ratios`, member
    lists linked through the records, the exact heap, and the centroid
    columns once a first merge is due.  :meth:`step` is one call per
    merge and :meth:`commit` (a resume's replay) the step's own commit;
    both decide as :class:`_SpecMerges` does, bit for bit.
    """

    def __init__(self, native, partition, model, qi_matrix, t_ratio) -> None:
        self._native = native
        self._partition = partition
        self._qi_matrix = qi_matrix
        members = list(partition.clusters())
        self._state = build_merge_state(
            partition.sizes(),
            np.concatenate(members).astype(np.int64, copy=False),
            model.emd_ratios(members),
            qi_matrix.shape[1],
        )
        self._model = model  # owns the frames and the view the handle reads
        self._handle = _native.merge_handle(
            self._state, *model.kernel_view(), *t_ratio
        )
        self._addr = ctypes.addressof(self._handle)
        native.merge_heapify(self._addr)

    def _bind_centroids(self) -> None:
        state = self._state
        state.cols = np.ascontiguousarray(
            _centroid_matrix(self._qi_matrix, self._partition).T
        )
        _native.bind_columns(self._handle, state.cols)

    def _fail(self, status: int, worst: int, partner: int):
        if status == _native.MERGE_PAST_BOUND:
            size, n = int(self._state.size[worst]), self._partition.n_records
            for m in self._model.kernel_view()[0][:, 1].tolist():  # (kind, m, w, T)
                check_exact_bound(size, n, m)
        raise ValueError(
            f"cannot merge cluster {partner} into cluster {worst} "
            f"(merge step status {status})"
        )

    def commit(self, worst: int, partner: int) -> None:
        """Merge ``partner`` into ``worst`` as the step does."""
        status = self._native.merge_commit(self._addr, worst, partner)
        if status == _native.MERGE_NO_CENTROIDS:
            self._bind_centroids()
            status = self._native.merge_commit(self._addr, worst, partner)
        if status != _native.MERGED:
            self._fail(status, worst, partner)

    def start(self) -> None:
        """Nothing to do: the heap and the ratios are kept exact through
        every commit."""

    def step(self) -> tuple[int, int] | None:
        """One merge: ``(worst, partner)``, or None once the worst
        cluster is within t."""
        status = self._native.merge_step(self._addr)
        if status == _native.MERGE_NO_CENTROIDS:
            self._bind_centroids()
            status = self._native.merge_step(self._addr)
        if status == _native.MERGED:
            worst, partner = self._state.pair.tolist()
            return worst, partner
        if status == _native.MERGE_STOP:
            return None
        self._fail(status, *self._state.pair.tolist())

    def result(self) -> tuple[Partition, np.ndarray]:
        """The final partition and each final cluster's EMD."""
        state = self._state
        labels = np.empty(self._partition.n_records, dtype=np.int64)
        if self._native.merge_labels(self._handle, labels) != labels.size:
            raise RuntimeError("merge state lost track of its members")
        final = Partition(labels)
        survivors = np.flatnonzero(state.alive)
        emds = np.empty(survivors.size)
        # Python-int true division: each EMD correctly rounded.
        emds[final.labels[state.head[survivors]]] = [
            num / den for num, den in state.ratio[survivors].tolist()
        ]
        return final, emds


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
      quasi-identifier centroid is nearest, lowest cluster id on exact
      ties, a NaN distance after every number;
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
        Compute backend for the spec's centroid engine (``"serial"``, an
        instance, or ``None`` for the shared one); resolved eagerly, so an
        unknown name fails here.  The compiled step, like the live index,
        consults no backend: it scans the centroids itself.
    progress:
        Optional :class:`~repro.runtime.FitProgress`.  The loop then
        snapshots its decisions — the (worst, partner) pairs merged so
        far, in order, and the RNG state — every ``every_merges`` merges
        under ``stage``, and a later call with the same progress store
        resumes from the last snapshot.  It replays those merges through
        the loop's own commit, which rebuilds the member lists and the
        path-dependent centroid rows bitwise; the EMD keys are exact
        functions of the members, and the worst cluster depends only on
        the live (key, id) set, so the remaining merges run
        **bit-for-bit** as uninterrupted.  The ``merge.step`` fault point
        fires after each committed merge.
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
    if partition.n_records != model.n_records:
        raise ValueError(
            f"the partition covers {partition.n_records} records, the "
            f"confidential model {model.n_records}"
        )
    if qi_matrix is None:
        qi_matrix = encode_mixed(data, data.quasi_identifiers)
    rng = np.random.default_rng(seed)
    # EMD <= 1 always, so t clamps at 1 and every cluster passes t = inf.
    t_ratio = min(t, 1.0).as_integer_ratio()  # exact, like Fraction(t)

    native = None
    if partner_policy == "nearest-qi" and model.supports_trackers:
        native = _native.load()
    if native is not None:
        merges = _CompiledMerges(native, partition, model, qi_matrix, t_ratio)
    else:
        merges = _SpecMerges(
            partition, model, qi_matrix, partner_policy, rng, backend, t_ratio
        )
    # The (worst, partner) decisions in order.  With the RNG state they are
    # all a checkpoint holds: everything else is a function of them.
    log: list[tuple[int, int]] = []
    saved = progress.load(stage) if progress is not None else None
    if saved is not None:
        # Resume mid-loop by replaying the recorded merges; the RNG
        # continues from its serialized bit-generator state.
        for worst, partner in saved["log"].tolist():
            merges.commit(worst, partner)
            log.append((worst, partner))
        rng.bit_generator.state = saved["meta"]["rng"]
    merges.start()

    def snapshot_state() -> dict:
        return {
            "log": np.array(log, dtype=np.int64).reshape(-1, 2),
            "meta": {"rng": rng.bit_generator.state},
        }

    n_alive = partition.n_clusters - len(log)
    while n_alive > 1:
        if progress is not None:
            progress.tick(stage, len(log), snapshot_state)
        pair = merges.step()
        if pair is None:
            break
        log.append(pair)
        n_alive -= 1
        fault_point("merge.step")

    final, final_emds = merges.result()
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
