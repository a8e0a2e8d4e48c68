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

* per-cluster EMDs are evaluated sparsely (O(c log m) segment evaluation,
  :meth:`~repro.distance.emd.OrderedEMDReference.emd_of_bins_sparse`)
  instead of densely over all m bins, both for the initial scan and for
  each merged cluster;
* the worst cluster is popped from a lazy-deletion max-heap keyed by EMD —
  only the merged cluster's key changes per round, so re-selection is
  O(log G) instead of an O(G) scan;
* nearest-centroid partner search runs on a
  :class:`~repro.microagg.engine.ClusteringEngine` built over the cluster
  centroids, reusing its preallocated distance buffer, masked selections
  and O(d) in-place centroid updates (:meth:`~ClusteringEngine.replace_row`)
  instead of recomputing a Python-loop distance scan from scratch per
  merge.  Near-tie candidates are re-judged with the pre-engine
  ``diff @ diff`` arithmetic so partner choices — and therefore partitions
  — stay bit-for-bit identical to the reference implementation (pinned by
  ``tests/microagg/test_kanon_first_golden.py``);
* above :data:`_INDEX_MIN_CLUSTERS` live clusters the partner query goes
  through :class:`_PartnerIndex` — a block-pruned index over the same
  centroids that prunes on triangle-inequality block bounds and
  evaluates only the blocks that can reach the near-tie band, making
  deep merge cascades subquadratic (O(M·sqrt(G)·d) instead of O(M·G·d)
  partner work over M merges) while returning bit-for-bit the flat scan's
  choices (differential suite: ``tests/core/test_partner_index.py``).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

import numpy as np

from ..backend import SerialBackend, accepts_backend as _accepts_backend, resolve_backend
from ..backend.kernels import sq_distances_block
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

#: Relative margin within which centroid-distance near-ties are re-judged
#: with the reference ``diff @ diff`` arithmetic (the engine's canonical
#: column-sequential kernel can differ from it in the last ulp, which is
#: enough to pick a different — equally near — merge partner).
_PARTNER_MARGIN = 1e-6

#: Decision band for the sparse EMD fast path: worst-cluster selection, the
#: stop check against t and lowest-emd partner selection re-judge any
#: comparison within this band of flipping with the dense Definition-2
#: arithmetic the pre-refactor merge loop used throughout.
_TIE_BAND = 1e-12

#: Smallest live-cluster count at which partner queries go through the
#: block-pruned :class:`_PartnerIndex`; below it the flat scan's single
#: vectorized kernel call is already cheaper than any pruning bookkeeping.
#: Measured on income-shaped standardized centroids (d = 4, 400 queries,
#: single core): the flat scan grows linearly (~28 µs at G = 2 000,
#: ~137 µs at G = 32 000, ~362 µs at G = 64 000) while the index query is
#: nearly flat (~80–140 µs), crossing between G = 16 000 and G = 32 000 —
#: below the crossover, numpy dispatch overhead on the index's ~24 small
#: array ops exceeds the whole flat scan.  The threshold sits at the
#: measured crossover so the index only ever runs where it wins.
_INDEX_MIN_CLUSTERS = 24_576

#: Relative slack applied to every :class:`_PartnerIndex` pruning bound so
#: float rounding in the sqrt-space triangle inequality can only *loosen*
#: a bound (admitting a spurious block scan) and never tighten one past a
#: true candidate.  Many orders of magnitude smaller than
#: ``_PARTNER_MARGIN``, so the slack never changes which candidates fall
#: inside the near-tie band — only how conservatively blocks are pruned.
_INDEX_BOUND_SLACK = 1e-9


def _nearest_partner(cengine: ClusteringEngine, worst: int) -> int:
    """Live cluster nearest to ``worst``'s centroid (reference tie-breaking).

    Evaluates squared centroid distances through the engine's shared buffer,
    masks dead clusters and ``worst`` itself, and takes the argmin (lowest
    cluster id on exact ties).  Whenever more than one cluster lands within
    a conservative margin of the minimum, exactly those candidates are
    re-judged with the pre-engine arithmetic (``diff @ diff``, first index
    wins), mirroring :meth:`ClusteringEngine.farthest_from_centroid`'s
    near-tie adjudication.
    """
    cengine.eval_distances(cengine.row(worst))
    buf = cengine.masked_distances(np.inf)
    buf[int(cengine.positions_of(np.array([worst]))[0])] = np.inf
    pos = int(np.argmin(buf))
    d2_min = float(buf[pos])
    band = _PARTNER_MARGIN * (1.0 + d2_min)
    cand_pos = np.flatnonzero(buf <= d2_min + band)
    if cand_pos.size == 1:
        return int(cengine.ids_at(cand_pos)[0])
    worst_centroid = cengine.row(worst)
    best_g, best_d2 = -1, np.inf
    for g in cengine.ids_at(cand_pos):  # ascending position == ascending id
        diff = cengine.row(int(g)) - worst_centroid
        d2 = float(diff @ diff)
        if d2 < best_d2:
            best_g, best_d2 = int(g), d2
    return best_g


class _PartnerIndex:
    """Block-pruned partner search: :func:`_nearest_partner` subquadratically.

    The merge loop asks one nearest-centroid query per merge, and measured
    query streams show the asked-about cluster is essentially never the
    same twice in a row (the merged cluster's EMD drops, so the next worst
    cluster is a different one) — so caching *per-cluster* candidate heaps
    would never hit.  What is stable across queries is the geometry: G
    centroids of which exactly one moves and one dies per merge.  This
    index exploits that instead:

    * live centroids are grouped into spatially tight *blocks* by kd-style
      median splits with an extent-based stopping rule (a leaf must be
      small in *diameter*, not just in count — on heavy-tailed data,
      count-balanced leaves have dataset-scale radii and prune nothing),
      stored block-contiguously in a (d, G) column matrix;
    * each block keeps its mean as a pivot and a covering radius, giving a
      sqrt-space triangle-inequality lower bound on any member's distance
      to the query centroid;
    * a query seeds a threshold by scanning the block containing the
      queried cluster (one kernel call), prunes every block whose lower
      bound cannot reach that threshold's near-tie band in one vectorized
      pass, gathers the surviving blocks' columns and evaluates them with
      a single kernel call — so every cluster the flat scan would have
      placed inside the band has provably been evaluated;
    * merge commits invalidate in place: the absorbed cluster's column is
      masked to ``+inf`` (its kernel distance becomes ``+inf``, exactly
      like the flat scan's dead-cluster mask), the survivor's column is
      rewritten and its block's radius grown, and after enough commits
      the whole index rebuilds from the engine's live rows.

    Exactness: block scans evaluate the same canonical kernel on the same
    centroid floats as the engine's flat scan, so every evaluated distance
    is bitwise the flat scan's value; the band filter uses the identical
    float expression; and near-ties are re-judged with the same
    ``diff @ diff`` loop over the same ascending cluster ids.  Partner
    choices are therefore bit-for-bit those of :func:`_nearest_partner`
    (pinned by ``tests/core/test_partner_index.py``).  All pruning bounds
    carry :data:`_INDEX_BOUND_SLACK` so float rounding can only cause a
    spurious block scan, never a missed candidate.

    The index is *derived* state: it is never checkpointed, and a resumed
    merge loop simply builds a fresh one from the restored engine —
    partner choices do not depend on block layout, so resume stays
    bit-for-bit.
    """

    def __init__(self, cengine: ClusteringEngine, alive: list[bool]):
        self._eng = cengine
        self._alive = alive
        self._built = False
        self._updates = 0
        self._rebuild_at = 0

    def _build(self) -> None:
        eng = self._eng
        ids = np.flatnonzero(np.asarray(self._alive))
        X = eng.rows(ids)
        n, d = X.shape
        # kd-style median splits on the widest extent, but the stopping
        # rule is *extent*, not just leaf size: covering radii must come
        # down to the nearest-partner spacing or the triangle bounds prune
        # nothing.  Heavy-tailed data is the reason — count-balanced
        # leaves over a dense core plus sparse halo leave halo leaves
        # whose radii sit at dataset scale, and a block that is both huge
        # and near everything is unprunable.  Forcing every leaf's widest
        # side under a fixed fraction of the bounding box caps radii
        # instead (isolated halo points just become tiny singleton leaves,
        # which are far away and prune trivially).
        widths = X.max(axis=0) - X.min(axis=0) if n else np.zeros(d)
        max_extent = float(widths.max()) / 16.0 if d else 0.0
        leaves: list[np.ndarray] = []
        stack = [np.arange(n)]
        while stack:
            idx = stack.pop()
            if idx.size <= 2:
                leaves.append(idx)
                continue
            pts = X[idx]
            spans = pts.max(axis=0) - pts.min(axis=0)
            if idx.size <= 64 and float(spans.max()) <= max_extent:
                leaves.append(idx)
                continue
            j = int(np.argmax(spans))
            half = idx.size // 2
            split = np.argpartition(pts[:, j], half)
            stack.append(idx[split[:half]])
            stack.append(idx[split[half:]])
        order = np.concatenate(leaves)
        starts = np.zeros(len(leaves) + 1, dtype=np.int64)
        np.cumsum([leaf.size for leaf in leaves], out=starts[1:])
        centers = np.stack([X[leaf].mean(axis=0) for leaf in leaves])
        radii = np.empty(len(leaves))
        for b, leaf in enumerate(leaves):
            diff = X[leaf] - centers[b]
            radii[b] = math.sqrt(float((diff * diff).sum(axis=1).max())) * (
                1.0 + _INDEX_BOUND_SLACK
            )
        self._ids = ids[order]
        self._cols = np.ascontiguousarray(X[order].T)
        self._starts = starts
        self._centers = centers
        self._radii = radii
        self._pos = np.full(len(self._alive), -1, dtype=np.int64)
        self._pos[self._ids] = np.arange(n)
        self._d2 = np.empty(n)
        self._tmp = np.empty(n)
        self._built = True
        self._updates = 0
        self._rebuild_at = max(64, n // 4)

    def on_merge(self, survivor: int, absorbed: int) -> None:
        """Invalidate after a committed merge (engine already updated)."""
        if not self._built:
            return
        apos = int(self._pos[absorbed])
        spos = int(self._pos[survivor])
        self._cols[:, apos] = np.inf
        row = self._eng.row(survivor)
        self._cols[:, spos] = row
        b = int(np.searchsorted(self._starts, spos, side="right")) - 1
        diff = row - self._centers[b]
        reach = math.sqrt(float(diff @ diff)) * (1.0 + _INDEX_BOUND_SLACK)
        if reach > self._radii[b]:
            self._radii[b] = reach
        self._updates += 1
        if self._updates >= self._rebuild_at:
            # Enough radii growth and dead columns accumulated: rebuild
            # lazily from the engine's live rows on the next query.
            self._built = False

    def nearest(self, worst: int) -> int:
        """Partner choice, bitwise :func:`_nearest_partner`'s."""
        if not self._built:
            self._build()
        eng = self._eng
        q = eng.row(worst)
        starts, d2, tmp = self._starts, self._d2, self._tmp
        wpos = int(self._pos[worst])
        # Seed probe: the block holding `worst` is its spatial
        # neighbourhood, so its minimum is a near-final pruning threshold
        # after one kernel call.
        seed = int(np.searchsorted(starts, wpos, side="right")) - 1
        s, e = int(starts[seed]), int(starts[seed + 1])
        sq_distances_block(self._cols, q, d2, tmp, s, e)
        d2[wpos] = np.inf
        probe = float(np.min(d2[s:e]))
        t2 = probe + _PARTNER_MARGIN * (1.0 + probe)
        # One vectorized pruning pass: every block whose sqrt-space lower
        # bound can reach the seed threshold gets evaluated.  The selected
        # set is a superset of what an entry-by-entry lazy walk would
        # touch, which keeps correctness while replacing per-block Python
        # bookkeeping with a handful of array ops over the block table.
        diffc = self._centers - q
        lb = np.sqrt(np.einsum("ij,ij->i", diffc, diffc))
        lb *= 1.0 - _INDEX_BOUND_SLACK
        lb -= self._radii
        np.maximum(lb, 0.0, out=lb)
        sel = lb * lb <= t2 * (1.0 + _INDEX_BOUND_SLACK)
        sel[seed] = True
        cand_blocks = np.flatnonzero(sel)
        # Gather every candidate block's positions (vectorized
        # ranges-to-indices) and evaluate the lot with one kernel call —
        # candidate blocks are many tiny leaves, so per-block calls would
        # drown the arithmetic in dispatch overhead.
        bs = starts[cand_blocks]
        lens = starts[cand_blocks + 1] - bs
        m = int(lens.sum())
        offsets = np.repeat(bs - np.concatenate(([0], np.cumsum(lens[:-1]))), lens)
        pos = offsets + np.arange(m)
        gout = np.empty(m)
        gtmp = np.empty(m)
        sq_distances_block(self._cols[:, pos], q, gout, gtmp, 0, m)
        wloc = int(np.searchsorted(pos, wpos))
        if wloc < m and int(pos[wloc]) == wpos:
            gout[wloc] = np.inf
        best = float(np.min(gout))
        # Same float expressions as the flat scan's band filter.
        band = _PARTNER_MARGIN * (1.0 + best)
        limit = best + band
        hits = np.flatnonzero(gout <= limit)
        if hits.size == 1:
            return int(self._ids[int(pos[int(hits[0])])])
        cand_ids = sorted(int(g) for g in self._ids[pos[hits]])
        best_g, best_d2 = -1, np.inf
        for g in cand_ids:  # ascending id, like the flat scan's re-judge
            diff = eng.row(g) - q
            v = float(diff @ diff)
            if v < best_d2:
                best_g, best_d2 = g, v
        return best_g


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

    Each round picks the cluster with the largest EMD to the full table and
    merges it with a partner chosen by ``partner_policy``:

    * ``"nearest-qi"`` (the paper's quality criterion): the cluster whose
      quasi-identifier centroid is nearest;
    * ``"lowest-emd"``: the cluster whose merge yields the smallest merged
      EMD (greedy on the privacy objective, blind to utility);
    * ``"random"``: a uniformly random partner (ablation control).

    Parameters
    ----------
    data:
        Original microdata (confidential attributes read from here).
    partition:
        Starting partition (typically k-anonymous).
    t:
        Target t-closeness level.
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
        snapshots its complete state (member lists, EMDs, heap, centroid
        engine, RNG) every ``every_merges`` merges under ``stage``, and a
        later call with the same progress store resumes from the last
        snapshot, replaying the remaining merges **bit-for-bit** — every
        snapshotted quantity round-trips exactly, so resumed decisions
        are the decisions the uninterrupted loop would have made.  The
        ``merge.step`` fault point fires after each committed merge.
    stage:
        Progress namespace; callers use ``"alg1:merge"``,
        ``"alg2:merge"`` or ``"repair:merge"`` so each pipeline position
        checkpoints independently.

    Returns
    -------
    (partition, cluster_emds, n_merges)
    """
    if t < 0:
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

    # Partner search: a ClusteringEngine over the cluster-centroid matrix,
    # built lazily on the first merge (the loose-t common case never pays
    # for it).  Merges update it in place: the survivor's centroid row is
    # replaced (O(d)), the absorbed cluster is killed and masked out.
    # Deep cascades additionally get a block-pruned partner index over the
    # same centroids (also lazily built — it is derived state, so a resumed
    # loop starts it fresh); the flat engine scan stays both the small-G
    # path and the reference the index is pinned against.
    cengine: ClusteringEngine | None = None
    pindex: _PartnerIndex | None = None

    saved = progress.load(stage) if progress is not None else None
    if saved is not None:
        # Resume mid-loop: every decision input round-trips exactly (the
        # heap keeps its list order — same array, still a valid heap; g
        # and v are < 2^53, exact in float64; the RNG continues from its
        # serialized bit-generator state), so the merges that follow are
        # the ones the uninterrupted run would have made.
        meta = saved["meta"]
        lengths = saved["lengths"]
        flat = np.asarray(saved["flat"], dtype=np.int64)
        members = []
        offset = 0
        for length in lengths:
            if length < 0:
                members.append(None)
            else:
                members.append(flat[offset : offset + int(length)].copy())
                offset += int(length)
        n_groups = len(members)
        emds = [float(e) for e in saved["emds"]]
        sizes = [int(s) for s in saved["sizes"]]
        alive = [bool(a) for a in saved["alive"]]
        versions = [int(v) for v in saved["versions"]]
        heap = [
            (float(row[0]), int(row[1]), int(row[2]))
            for row in np.asarray(saved["heap"]).reshape(-1, 3)
        ]
        n_alive = int(meta["n_alive"])
        n_merges = int(meta["n_merges"])
        rng.bit_generator.state = meta["rng"]
        if meta["has_cengine"]:
            snap = saved["cengine"]
            cengine = ClusteringEngine(
                np.ascontiguousarray(np.asarray(snap["X"], dtype=np.float64)),
                backend=backend,
            )
            cengine.restore(snap)
    else:
        members = [m for m in partition.clusters()]
        n_groups = len(members)
        emds = [float(e) for e in model.partition_emds(members, sparse=True)]
        sizes = [len(m) for m in members]
        alive = [True] * n_groups
        n_alive = n_groups
        n_merges = 0

        # Worst-cluster selection: lazy-deletion max-heap on (EMD, cluster
        # id).  Only the surviving cluster's EMD changes per merge, so a
        # version counter per cluster invalidates its stale entries on the
        # fly; exact EMD ties pop the lowest cluster id first — the same
        # cluster the reference linear scan's ``max`` selected.
        versions = [0] * n_groups
        heap = [(-e, g, 0) for g, e in enumerate(emds)]
        heapq.heapify(heap)

    def worst_alive() -> int:
        while True:
            neg_e, g, v = heap[0]
            if alive[g] and v == versions[g]:
                return g
            heapq.heappop(heap)

    def snapshot_state() -> dict:
        live = [m for m in members if m is not None]
        return {
            "flat": np.concatenate(live) if live else np.empty(0, dtype=np.int64),
            "lengths": np.array(
                [-1 if m is None else len(m) for m in members], dtype=np.int64
            ),
            "emds": np.array(emds, dtype=np.float64),
            "sizes": np.array(sizes, dtype=np.int64),
            "alive": np.array(alive, dtype=bool),
            "versions": np.array(versions, dtype=np.int64),
            "heap": np.array(heap, dtype=np.float64).reshape(-1, 3),
            "meta": {
                "n_alive": n_alive,
                "n_merges": n_merges,
                "rng": rng.bit_generator.state,
                "has_cengine": cengine is not None,
            },
            **({"cengine": cengine.snapshot()} if cengine is not None else {}),
        }

    while n_alive > 1:
        if progress is not None:
            progress.tick(stage, n_merges, snapshot_state)
        worst = worst_alive()
        top = emds[worst]
        # Runner-up peek: pop the worst entry, clean stale entries off the
        # new top, read the second-best live EMD, restore.  Each stale
        # entry is popped exactly once over the whole run, so selection
        # stays amortized O(log G); the O(G) banded rescan below only runs
        # when the runner-up actually sits inside the tie band.
        top_entry = heapq.heappop(heap)
        runner_emd = -np.inf
        while heap:
            neg_e, g, v = heap[0]
            if alive[g] and v == versions[g]:
                runner_emd = -neg_e
                break
            heapq.heappop(heap)
        heapq.heappush(heap, top_entry)
        if runner_emd >= top - _TIE_BAND:
            # Sparse near-tie for the worst cluster: re-judge the banded
            # clusters with the dense arithmetic the reference linear scan
            # maximized (first index wins on exact dense ties).
            banded = [
                g
                for g in range(n_groups)
                if alive[g] and emds[g] >= top - _TIE_BAND
            ]
            worst, worst_emd = -1, -np.inf
            for g in banded:
                value = model.cluster_emd(members[g], sparse=False)
                if value > worst_emd:
                    worst, worst_emd = g, value
        elif abs(top - t) <= _TIE_BAND:
            worst_emd = model.cluster_emd(members[worst], sparse=False)
        else:
            worst_emd = top
        if worst_emd <= t:
            break
        if partner_policy == "nearest-qi":
            if cengine is None:
                # No merge has happened yet, so every initial cluster is
                # intact; the reference gather-and-mean keeps centroid
                # floats identical to the pre-engine implementation's.
                cengine = ClusteringEngine(
                    np.stack([qi_matrix[m].mean(axis=0) for m in members]),
                    backend=backend,
                )
            if pindex is None and qi_matrix.shape[1] > 0:
                pindex = _PartnerIndex(cengine, alive)
            if pindex is not None and n_alive > _INDEX_MIN_CLUSTERS:
                best_g = pindex.nearest(worst)
            else:
                best_g = _nearest_partner(cengine, worst)
        elif partner_policy == "lowest-emd":
            candidates = [g for g in range(n_groups) if alive[g] and g != worst]
            values = [
                model.cluster_emd(
                    np.concatenate([members[worst], members[g]]), sparse=True
                )
                for g in candidates
            ]
            lowest = min(values)
            near = [g for g, v in zip(candidates, values) if v <= lowest + _TIE_BAND]
            if len(near) > 1:
                # Sparse near-tie between merge partners: the dense
                # arithmetic picks, first index winning exact ties.
                best_g, best_emd = -1, np.inf
                for g in near:
                    value = model.cluster_emd(
                        np.concatenate([members[worst], members[g]]), sparse=False
                    )
                    if value < best_emd:
                        best_g, best_emd = g, value
            else:
                best_g = candidates[int(np.argmin(values))]
        else:  # random
            candidates = [g for g in range(n_groups) if alive[g] and g != worst]
            best_g = int(rng.choice(candidates))
        merged = np.concatenate([members[worst], members[best_g]])
        size_w, size_b = sizes[worst], sizes[best_g]
        if cengine is not None:
            cengine.replace_row(
                worst,
                (size_w * cengine.row(worst) + size_b * cengine.row(best_g))
                / (size_w + size_b),
            )
            cengine.kill_one(best_g)
            if pindex is not None:
                pindex.on_merge(worst, best_g)
        sizes[worst] = size_w + size_b
        members[worst] = merged
        emds[worst] = model.cluster_emd(merged, sparse=True)
        versions[worst] += 1
        heapq.heappush(heap, (-emds[worst], worst, versions[worst]))
        members[best_g] = None
        alive[best_g] = False
        n_alive -= 1
        n_merges += 1
        fault_point("merge.step")

    survivors = [(m, e) for m, e, a in zip(members, emds, alive) if a]
    # Partition relabels clusters by first appearance in record order, so
    # sort by each cluster's smallest record index to keep the EMD array
    # aligned with the returned cluster ids.
    survivors.sort(key=lambda pair: int(pair[0].min()))
    final = Partition.from_clusters([m for m, _ in survivors], data.n_records)
    final_emds = np.array([e for _, e in survivors])
    return final, final_emds, n_merges


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
