"""The canonical distance arithmetic, factored to one place.

Every squared-Euclidean distance this library computes on record matrices
— :func:`repro.distance.records.sq_distances_to`, the clustering engine's
masked buffer evaluations, and the serving path's nearest-representative
scans — runs the *same* column-sequential accumulation defined here:
plain elementwise ufuncs, columns left to right.  Unlike a BLAS product
or an ``einsum`` reduction (whose internal summation order depends on the
numpy build, SIMD width and block layout), this order is fully determined
by this module, so

* every caller computes bitwise-identical distances for the same row, and
  exact ties between records (ubiquitous for integer-valued or
  category-encoded data) are preserved everywhere;
* the arithmetic of one output row never depends on which other rows are
  evaluated alongside it — any row-blocking (``chunk_size`` cache
  chunking, or the compiled scan's own blocks) produces bit-for-bit the
  same buffer.

Selections over those distances follow one rule,
:func:`k_smallest_indices`: the k smallest (distance, index), in that
order.  It never depends on ``np.argpartition``'s tie order, which
follows numpy's SIMD dispatch and so differs between hosts; the
clustering engine's k-nearest step (:func:`k_nearest_live`) is the same
rule over a buffer with dead positions.

Historical note ("one last-ulp rounding"): the seed implementations
summed squares via ``einsum``; canonicalizing to this kernel changed
distance rounding in the last ulp, which on near-tie continuous data can
place a record differently than a pre-canonicalization run on some
particular numpy build would have.  The golden fixtures were generated on
this kernel (see ``scripts/generate_engine_golden.py``), so everything
downstream is pinned to it.

Nearest-representative queries go through a :class:`NearestIndex`, a
static kd-tree over the representative matrix built once per fitted
model (:class:`repro.serving.TransformModel` owns one).  It is plain
arrays: the representatives permuted into leaf order and stored
column-major, their original ids, and every node's bounding box in heap
order (node ``i`` has children ``2i+1`` and ``2i+2``).  The query is
exact, not approximate:

* a leaf is scanned with the canonical arithmetic above, so every
  distance it produces is bitwise the numpy kernel's;
* a node's lower bound squares the per-column gap from the query to the
  node's box and sums the squares in the same column order.  A point
  inside the box is at least that gap away in every column, and IEEE
  subtraction, multiplication and addition all round monotonically, so
  the rounded bound never exceeds the rounded canonical distance to any
  representative inside the box;
* a node is pruned only when its bound is *strictly* greater than the
  running best, and candidates compare as ``(distance, id)`` pairs, so
  an exact tie still resolves to the lowest representative id.

Whether to split at all is decided from the matrix's shape alone
(:func:`split_depth`): where a tree cannot prune — few representatives,
or so many columns that every box reaches every query — the index is a
single leaf, and the query is the brute scan.

The same tree, built over a fit's records and split by the same rule, is
the live index MDAV, V-MDAV and Algorithm 2 select from: a
:class:`LiveTree` adds per-node live counts and boxes that the compiled
kill refits to the live records, and its queries (the k nearest, the
farthest, the records at or above a distance) follow the selection rule
above — canonical distances, conservative bounds, strict pruning, the
lowest id on ties.

The merge phase's compiled step keeps its clusters in a
:class:`MergeState`, plain arrays as well: sizes, liveness, exact EMD
ratios, an indexed heap, member lists linked through the records and the
centroid columns, which ``_native``'s merge entry points update in
place.  Its spec is the merge loop in Python
(:mod:`repro.core.merge`).

This module deliberately imports nothing from the rest of the library
(the distance layer and the compute backend both sit on top of it) —
the one exception is its private sibling :mod:`repro.backend._native`,
whose compiled kd query, distance scan and k-nearest selection are
admitted only after a load-time differential self-check proves them
bitwise equal to the numpy specs defined here (Algorithm 2's refinement
has its spec in :mod:`repro.core.confidential`, and the live index's
queries are checked against the selections of these specs over the live
records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _native


def iter_blocks(n: int, block_size: int | None) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` row ranges covering ``0..n`` in blocks.

    ``block_size=None`` yields the single block ``(0, n)``.  Shared by the
    chunk-aware distance evaluations, the clustering engine and the
    compute backend, so "how large is a block" is decided in exactly one
    place.
    """
    if block_size is None:
        if n:
            yield 0, n
        return
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    for start in range(0, n, block_size):
        yield start, min(start + block_size, n)


def sq_distances_block(
    cols: np.ndarray,
    point: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Fill ``out[start:stop]`` with squared distances from ``point``.

    ``cols`` is the record matrix *transposed* (``cols[j]`` is column j —
    a plain view ``X.T`` works; the engine passes its column-major working
    copy), ``tmp`` a per-column difference scratch at least ``stop`` long.
    Requires at least one column; callers handle the d == 0 degenerate
    case (all distances zero) themselves.

    The accumulation is column-sequential, left to right, elementwise
    ufuncs only — the single definition of this library's distance
    arithmetic (see the module docstring).  Each output row depends only
    on its own inputs, so any ``(start, stop)`` blocking of a larger
    range produces bitwise-identical results.
    """
    seg = slice(start, stop)
    np.subtract(cols[0, seg], point[0], out=tmp[seg])
    np.multiply(tmp[seg], tmp[seg], out=out[seg])
    for j in range(1, len(point)):
        np.subtract(cols[j, seg], point[j], out=tmp[seg])
        tmp[seg] *= tmp[seg]
        out[seg] += tmp[seg]


def k_smallest_indices(d2: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest entries of ``d2``, ascending by
    ``(value, index)`` (every index when ``k >= len(d2)``).

    The one selection rule of every partitioner's "k nearest" step: the
    k-th smallest value bounds the selection, every entry at or below it
    is a candidate (so all boundary ties are present), and a stable sort
    of the candidates orders exact ties by index.  Nothing depends on
    ``np.argpartition``'s tie order, which follows numpy's SIMD dispatch
    and differs between hosts.  NaN sorts last, as in ``np.argsort``.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k >= len(d2):
        return np.argsort(d2, kind="stable")
    bound = np.partition(d2, k - 1)[k - 1]
    if np.isnan(bound):  # fewer than k non-NaN entries
        return np.argsort(d2, kind="stable")[:k]
    cand = np.flatnonzero(d2 <= bound)
    return cand[np.argsort(d2[cand], kind="stable")[:k]]


def k_nearest_live(
    d2: np.ndarray, alive: np.ndarray, m: int, k: int
) -> np.ndarray:
    """Positions ``p < m`` with ``alive[p]`` of the ``k`` smallest
    ``(d2[p], p)``, in that order (every live position when fewer).

    The clustering engine's k-nearest step over its distance buffer,
    whose positions ascend with record ids, so this is the (distance, id)
    order.  Runs the compiled one-pass selection in
    :mod:`repro.backend._native` when it loaded, else the numpy spec
    :func:`_k_nearest_live_numpy`; the load-time self-check proves the two
    equal on tie-heavy buffers.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    native = _native.load()
    if native is not None:
        got = native.k_nearest(d2, alive, m, k)
        if got is not None:
            return got
    return _k_nearest_live_numpy(d2, alive, m, k)


def _k_nearest_live_numpy(
    d2: np.ndarray, alive: np.ndarray, m: int, k: int
) -> np.ndarray:
    """The numpy spec of :func:`k_nearest_live`: gather the live
    positions (ascending), select by :func:`k_smallest_indices`."""
    live = np.flatnonzero(alive[:m])
    return live[k_smallest_indices(d2[live], k)]


#: Representatives per leaf that the split rule aims for.
LEAF_SIZE = 32


def split_depth(n_reps: int, width: int) -> int:
    """Depth of the kd-tree :func:`build_nearest_index` builds.

    A split tree halves its nodes down to leaves of ``LEAF_SIZE / 2`` to
    ``LEAF_SIZE`` representatives.  It is kept only when it is at least
    as deep as the matrix is wide, so that a root-to-leaf path can cut
    every column once; a shallower tree leaves boxes that span whole
    columns, which prune little and cost a bound per node.  Otherwise the
    depth is zero: one leaf, the brute scan.

    Set from a measured grid (per-row query cost, one leaf over the full
    tree, widths {1, 2, 4, 8, 12, 16} x {40, 400, 5000} representatives,
    lognormal and uniform tables; ``benchmarks/README.md``,
    ``benchmarks/bench_nearest_index_grid.py``): every split cell won, by
    1.16x to 30x, and every unsplit cell lost (down to 0.49x) or won at
    most 1.13x.
    """
    if width == 0 or n_reps <= LEAF_SIZE:
        return 0
    depth = int(np.ceil(np.log2(n_reps / LEAF_SIZE)))
    return depth if depth >= width else 0


@dataclass(frozen=True, eq=False)
class NearestIndex:
    """A static kd-tree over a representative matrix: plain arrays only.

    Built by :func:`build_nearest_index`; immutable, holds no C pointer
    and is safe to share between threads and forked processes.

    Attributes
    ----------
    reps:
        ``(R, d)`` representatives in id order (what the numpy spec,
        :func:`_nearest_block_numpy`, scans).
    repcols:
        ``(d, R)`` representatives permuted into leaf order, one column
        per row, so a leaf's column ``j`` is one contiguous run.
    ids:
        ``(R,)`` original id of each permuted representative.
    lo, hi:
        ``(n_nodes, d)`` bounding box of every node, heap order: node
        ``i``'s children are ``2i+1`` and ``2i+2``; the last
        ``n_nodes // 2 + 1`` nodes are the leaves.
    leaf_bounds:
        ``(n_leaves + 1,)``: leaf ``k`` holds the permuted
        representatives ``leaf_bounds[k]:leaf_bounds[k + 1]``.
    """

    reps: np.ndarray
    repcols: np.ndarray
    ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    leaf_bounds: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """``(R, d)`` of the indexed representative matrix."""
        return self.reps.shape

    @property
    def depth(self) -> int:
        """Tree depth (0: a single leaf, i.e. the brute scan)."""
        return (len(self.leaf_bounds) - 1).bit_length() - 1


def build_nearest_index(reps: np.ndarray) -> NearestIndex:
    """Index ``reps`` (2-D, at least one row) at the depth
    :func:`split_depth` picks."""
    reps = np.ascontiguousarray(reps, dtype=np.float64)
    if reps.ndim != 2:
        raise ValueError(f"reps must be 2-D, got shape {reps.shape}")
    if reps.shape[0] == 0:
        raise ValueError("reps must hold at least one representative")
    return _build_tree(reps, split_depth(*reps.shape))


def _build_tree(reps: np.ndarray, depth: int) -> NearestIndex:
    """A complete kd-tree of ``depth`` levels below the root.

    Every node splits at the count median of its widest column, so the
    sizes on one level differ by at most one and every leaf is non-empty
    while ``2**depth <= R``.  Built level by level with one sort per
    level.  Only the query's speed depends on how the points are split:
    each box is recomputed from the points that land in it, so any split
    gives exact answers.  The differential tests and the load-time
    self-check call this directly to force tree shapes the split rule
    would not pick.
    """
    n = reps.shape[0]
    if 2**depth > n:
        raise ValueError(f"depth {depth} leaves empty leaves for {n} representatives")
    perm = np.arange(n)
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.array([n], dtype=np.int64)
    los, his = [], []
    for level in range(depth + 1):
        pts = np.take(reps, perm, axis=0)
        los.append(np.minimum.reduceat(pts, starts, axis=0))
        his.append(np.maximum.reduceat(pts, starts, axis=0))
        if level == depth:
            break
        # Sort key: the node number plus the point's position in
        # [0, 0.5] along its node's widest column, so one sort orders
        # every node's points without mixing nodes.  Widths and offsets
        # are taken of halved coordinates (exact, barring subnormals), so
        # a column spanning more than the float range gives a ratio in
        # [0, 1] instead of inf / inf = NaN, which sorts last and mixes
        # the nodes.
        nodes = np.arange(len(starts))
        column = np.argmax(his[-1] * 0.5 - los[-1] * 0.5, axis=1)
        low = los[-1][nodes, column] * 0.5
        spread = his[-1][nodes, column] * 0.5 - low
        spread[spread == 0] = 1.0
        node_of = np.repeat(nodes, sizes)
        offset = pts[np.arange(n), column[node_of]] * 0.5 - low[node_of]
        perm = perm[np.argsort(node_of + 0.5 * (offset / spread[node_of]))]
        half = sizes // 2
        starts = np.column_stack([starts, starts + half]).ravel()
        sizes = np.column_stack([half, sizes - half]).ravel()
    return NearestIndex(
        reps=reps,
        repcols=np.ascontiguousarray(np.take(reps, perm, axis=0).T),
        ids=perm.astype(np.int64),
        lo=np.concatenate(los),
        hi=np.concatenate(his),
        leaf_bounds=np.append(starts, n).astype(np.int64),
    )


@dataclass(frozen=True, eq=False)
class LiveTree:
    """A kd-tree over all n records that tracks which are still live.

    Built by :func:`build_live_tree`; the tree of a :class:`NearestIndex`
    plus the state that :mod:`repro.backend._native`'s ``repro_live_kill``
    updates in place: per-node live counts, per-slot liveness, and boxes
    refit to the live records.  The live index of
    :mod:`repro.microagg.engine` owns one per fit and is its only writer.

    Attributes
    ----------
    cols, ids, leaf_bounds:
        As :class:`NearestIndex`'s ``repcols``, ``ids`` and
        ``leaf_bounds``: the ``(d, n)`` records in leaf order, each slot's
        record id, and the slots of every leaf.
    slot:
        ``(n,)`` slot of each record id (the inverse of ``ids``).
    lo, hi:
        ``(n_nodes, d)`` boxes in heap order; a node holding live records
        has exactly their bounding box.
    count:
        ``(n_nodes,)`` live records per node.
    alive:
        ``(n,)`` ``uint8`` liveness by slot.
    """

    cols: np.ndarray
    ids: np.ndarray
    slot: np.ndarray
    leaf_bounds: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray
    alive: np.ndarray


def build_live_tree(X: np.ndarray, depth: int) -> LiveTree:
    """Index the rows of ``X`` (finite, 2-D, C-contiguous float64, at
    least one column) in a :func:`_build_tree` of ``depth`` levels, every
    record live."""
    tree = _build_tree(X, depth)
    n = X.shape[0]
    slot = np.empty(n, dtype=np.int64)
    slot[tree.ids] = np.arange(n, dtype=np.int64)
    levels = [np.diff(tree.leaf_bounds)]
    while levels[-1].size > 1:
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    return LiveTree(
        cols=tree.repcols,
        ids=tree.ids,
        slot=slot,
        leaf_bounds=tree.leaf_bounds,
        lo=tree.lo,
        hi=tree.hi,
        count=np.concatenate(levels[::-1]),
        alive=np.ones(n, dtype=np.uint8),
    )


@dataclass(eq=False)
class MergeState:
    """The merge phase's clusters, as the compiled merge step updates them.

    Built by :func:`build_merge_state`; plain arrays that
    :mod:`repro.backend._native`'s ``repro_merge_*`` entry points read
    and update in place through a handle bound once
    (``_native.merge_handle``).  The compiled path of
    :func:`repro.core.merge.merge_to_t_closeness` owns one per phase and
    is its only writer.

    Attributes
    ----------
    d:
        How many centroid columns (quasi-identifier columns) there are.
    size:
        ``(G,)`` records per cluster.
    alive:
        ``(G,)`` ``uint8`` liveness.
    ratio:
        ``(G, 2)`` each cluster's exact EMD as (num, den).
    heap, where:
        ``(G,)`` the live clusters as a binary heap, the largest ratio
        first and the lowest id on exact ties, and each cluster's slot in
        it (-1 once absorbed).
    head, tail:
        ``(G,)`` first and last member of each cluster.
    next:
        ``(n,)`` the member after each record in its cluster's list; a
        merge splices the absorbed cluster's list after the survivor's.
    work:
        ``(4n,)`` the step's scratch.
    pair:
        ``(2,)`` the last step's (worst, partner).
    cols:
        ``(d, G)`` centroid columns; None until the first merge is due.
    """

    d: int
    size: np.ndarray
    alive: np.ndarray
    ratio: np.ndarray
    heap: np.ndarray
    where: np.ndarray
    head: np.ndarray
    tail: np.ndarray
    next: np.ndarray
    work: np.ndarray
    pair: np.ndarray
    cols: np.ndarray | None = None


def build_merge_state(
    sizes: np.ndarray, flat: np.ndarray, ratios, d: int
) -> MergeState:
    """The state of clusters ``g`` of ``sizes[g]`` records, listed one
    cluster after another in ``flat`` (int64 record ids), with exact EMD
    ratios ``ratios[g]`` as (num, den) and ``d`` centroid columns, every
    cluster live.  The links come from one pass over ``flat``; the heap
    is left to ``repro_merge_heapify``."""
    sizes = np.array(sizes, dtype=np.int64)
    n, G = flat.size, sizes.size
    ends = np.cumsum(sizes) - 1
    links = np.empty(n, dtype=np.int64)
    links[flat[:-1]] = flat[1:]
    links[flat[ends]] = -1
    return MergeState(
        d=d,
        size=sizes,
        alive=np.ones(G, dtype=np.uint8),
        ratio=np.array(ratios, dtype=np.int64).reshape(G, 2),
        heap=np.empty(G, dtype=np.int64),
        where=np.empty(G, dtype=np.int64),
        head=flat[ends - sizes + 1],
        tail=flat[ends],
        next=links,
        work=np.empty(4 * n, dtype=np.int64),
        pair=np.empty(2, dtype=np.int64),
    )


def nearest_block(
    cols: np.ndarray,
    index: NearestIndex,
    assignment: np.ndarray,
    best_d2: np.ndarray,
    d2: np.ndarray,
    tmp: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """Nearest-representative query for the record rows ``start:stop``.

    ``assignment``/``best_d2`` are the full-length running best id and
    squared distance; only their ``start:stop`` rows are touched, so row
    blocks can be evaluated in any order or in parallel.  A row's result
    is the lowest id among the representatives at the smallest canonical
    distance, or its running entry when none is strictly closer.

    When a host C compiler is available the query runs the compiled kd
    search in :mod:`repro.backend._native`, which prunes with the index's
    boxes and scans leaves with the canonical arithmetic (see the module
    docstring for why that is exact).  Otherwise — or with
    ``REPRO_NO_NATIVE=1``, or output buffers the C signature does not
    take — the numpy spec :func:`_nearest_block_numpy` scans
    ``index.reps``.  A load-time self-check enforces bitwise equality of
    the two before the compiled path is ever used.
    """
    if stop > start and index.shape[1]:
        native = _native.load()
        if native is not None:
            a_seg = assignment[start:stop]
            b_seg = best_d2[start:stop]
            if (
                a_seg.dtype == np.int64
                and b_seg.dtype == np.float64
                and a_seg.flags.c_contiguous
                and b_seg.flags.c_contiguous
            ):
                rows = np.ascontiguousarray(
                    cols.T[start:stop], dtype=np.float64
                )
                native.kd_nearest(rows, index, a_seg, b_seg)
                return
    _nearest_block_numpy(
        cols, index.reps, assignment, best_d2, d2, tmp, start, stop
    )


def _nearest_block_numpy(
    cols: np.ndarray,
    reps: np.ndarray,
    assignment: np.ndarray,
    best_d2: np.ndarray,
    d2: np.ndarray,
    tmp: np.ndarray,
    start: int,
    stop: int,
) -> None:
    """The canonical (pure-numpy) nearest scan — the arithmetic spec.

    :func:`nearest_block` delegates here when no native build is usable;
    the native body must match this bit for bit (see the differential
    suite and the load-time self-check).
    """
    seg = slice(start, stop)
    for g in range(reps.shape[0]):
        sq_distances_block(cols, reps[g], d2, tmp, start, stop)
        better = d2[seg] < best_d2[seg]
        assignment[seg][better] = g
        best_d2[seg][better] = d2[seg][better]
