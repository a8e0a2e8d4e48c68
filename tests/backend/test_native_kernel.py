"""Compiled kd query and engine scans == their numpy specs, bitwise.

``repro.backend._native`` builds a C kd-tree search over a
``kernels.NearestIndex`` with FP contraction disabled; its whole value
rests on producing *exactly* the assignments and squared distances of the
pure-numpy scan (``kernels._nearest_block_numpy``), ties included, under
any row blocking and any tree shape.  This suite is the differential
proof — from single-leaf indices (the brute scan) to trees forced down
to one representative per leaf — and it also pins the degrade paths: the
env kill-switch, and the dtype/contiguity guards that route unusual
buffers back to the numpy body.  The same goes for the clustering
engine's distance scan (``kernels.sq_distances_block``) and its k-nearest
selection (``kernels._k_nearest_live_numpy``, the lowest (distance,
position) first): dead rows, duplicate rows, half-integer grids, k = 1
to past the live count, windows shorter than the buffer, and the
load-time self-check rejecting a scan or a selection that is off.  And
for the live index's four entry points (``kernels.build_live_tree``):
k-nearest, farthest and band queries equal the lowest-id selections over
the live records' canonical distances through kills that empty leaves
and shrink boxes, at every forced depth, with counts and boxes exact
after every kill, squares overflowing to inf and NaN points declined; a
binding that breaks ties upward is rejected at load and fits fall back
to the scan engine.  And for the merge step: its exact stop test, its
statuses, and a library whose heap breaks exact ratio ties upward,
rejected at load so that fits take the merge's spec.

When the host has no usable compiler the fast-path tests skip (the
fallback behaviour and index-build tests still run): the library must
work identically, just slower.
"""

import ctypes
import sys
import threading

import numpy as np
import pytest

from repro.backend import SerialBackend, _native, kernels
from repro.core.confidential import SwapFrame, kernel_view
from repro.core.merge import microaggregation_merge
from repro.data import load_mcd
from repro.distance.emd import OrderedEMDFrame
from repro.microagg import ClusteringEngine, mdav
from repro.microagg.engine import live_set

from ..contexts import CONTEXTS


def run_numpy(X, reps, *, block=None):
    n = len(X)
    assignment = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    d2, tmp = np.empty(n), np.empty(n)
    for start, stop in kernels.iter_blocks(n, block):
        kernels._nearest_block_numpy(
            X.T, reps, assignment, best_d2, d2, tmp, start, stop
        )
    return assignment, best_d2


def run_dispatch(X, reps, *, block=None, index=None):
    """The dispatching query, over ``index`` or over ``reps`` indexed at
    the depth the split rule picks."""
    if index is None:
        index = kernels.build_nearest_index(reps)
    n = len(X)
    assignment = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    d2, tmp = np.empty(n), np.empty(n)
    for start, stop in kernels.iter_blocks(n, block):
        kernels.nearest_block(
            X.T, index, assignment, best_d2, d2, tmp, start, stop
        )
    return assignment, best_d2


def half_grid(rng, shape):
    """Half-integer grid values: exact cross-representative ties abound."""
    return np.round(rng.standard_normal(shape) * 2.0) / 2.0


def assert_matches_numpy(X, reps, *, depths=None, blocks=(None,)):
    """Every forced tree shape (default: all of them, one representative
    per leaf included) and every row blocking equals the numpy scan."""
    a_ref, b_ref = run_numpy(X, reps)
    if depths is None:
        depths = range(int(np.log2(len(reps))) + 1)
    for depth in depths:
        index = kernels._build_tree(np.ascontiguousarray(reps), depth)
        for block in blocks:
            a, b = run_dispatch(X, reps, block=block, index=index)
            np.testing.assert_array_equal(a_ref, a, err_msg=f"depth {depth}")
            np.testing.assert_array_equal(b_ref, b, err_msg=f"depth {depth}")
    return a_ref, b_ref


native_only = pytest.mark.skipif(
    _native.load() is None, reason="no usable C toolchain on this host"
)


@native_only
class TestBitwiseEquivalence:
    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    def test_random_continuous(self, block):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((257, 4))
        reps = rng.standard_normal((31, 4))
        a_ref, b_ref = run_numpy(X, reps)
        a, b = run_dispatch(X, reps, block=block)
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)

    def test_tie_heavy_grid_data(self):
        # Half-integer grids make exact cross-representative ties common;
        # both paths must pick the lowest representative id every time.
        rng = np.random.default_rng(12)
        X = np.round(rng.standard_normal((400, 3)) * 2.0) / 2.0
        reps = np.round(rng.standard_normal((40, 3)) * 2.0) / 2.0
        reps[17] = reps[4]  # duplicated representative
        a_ref, b_ref = run_numpy(X, reps)
        a, b = run_dispatch(X, reps)
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)
        assert not (a == 17).any()  # the duplicate never wins a tie

    def test_single_column_and_single_rep(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((50, 1))
        for reps in (rng.standard_normal((1, 1)), rng.standard_normal((5, 1))):
            a_ref, b_ref = run_numpy(X, reps)
            a, b = run_dispatch(X, reps)
            np.testing.assert_array_equal(a_ref, a)
            np.testing.assert_array_equal(b_ref, b)

    def test_noncontiguous_input_columns(self):
        # cols arrives as X.T (a strided view); the native path must
        # produce the same bits after its contiguous staging copy.
        rng = np.random.default_rng(14)
        X_wide = rng.standard_normal((100, 8))
        X = X_wide[:, ::2]  # non-contiguous 4-column view
        reps = rng.standard_normal((9, 4))
        a_ref, b_ref = run_numpy(np.ascontiguousarray(X), reps)
        n = len(X)
        a = np.zeros(n, dtype=np.int64)
        b = np.full(n, np.inf)
        kernels.nearest_block(
            X.T,
            kernels.build_nearest_index(reps),
            a,
            b,
            np.empty(n),
            np.empty(n),
            0,
            n,
        )
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)


class TestFallbackPaths:
    def test_kill_switch_pins_numpy_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_cached", _native._UNSET)
        assert _native.load() is None
        # Dispatch still answers correctly through the numpy body.
        rng = np.random.default_rng(15)
        X = rng.standard_normal((64, 2))
        reps = rng.standard_normal((6, 2))
        a_ref, b_ref = run_numpy(X, reps)
        a, b = run_dispatch(X, reps)
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)

    def test_unusual_output_dtype_falls_back(self):
        # int32 assignment buffers fail the native guard but must still
        # be filled correctly by the numpy body.
        rng = np.random.default_rng(16)
        X = rng.standard_normal((30, 3))
        reps = rng.standard_normal((4, 3))
        a_ref, _ = run_numpy(X, reps)
        n = len(X)
        a = np.zeros(n, dtype=np.int32)
        b = np.full(n, np.inf)
        kernels.nearest_block(
            X.T,
            kernels.build_nearest_index(reps),
            a,
            b,
            np.empty(n),
            np.empty(n),
            0,
            n,
        )
        np.testing.assert_array_equal(a_ref.astype(np.int32), a)

    def test_empty_block_is_a_no_op(self):
        index = kernels.build_nearest_index(np.zeros((3, 2)))
        a = np.full(5, -1, dtype=np.int64)
        b = np.full(5, np.inf)
        kernels.nearest_block(
            np.zeros((2, 5)), index, a, b, np.empty(5), np.empty(5), 2, 2
        )
        assert (a == -1).all()


@native_only
class TestKdQuery:
    """The tree path: every case compares assignments *and* best squared
    distances bitwise with the numpy scan."""

    def test_thousands_of_reps_on_half_integer_grid(self):
        rng = np.random.default_rng(21)
        X = half_grid(rng, (2000, 3))
        reps = half_grid(rng, (3000, 3))
        assert kernels.build_nearest_index(reps).depth > 0
        a_ref, b_ref = run_numpy(X, reps)
        a, b = run_dispatch(X, reps)
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)

    def test_duplicated_representative_never_wins_a_tie(self):
        rng = np.random.default_rng(22)
        reps = half_grid(rng, (600, 2))
        reps[517] = reps[9]
        X = np.vstack([reps[[9, 517]], half_grid(rng, (500, 2))])
        a, _ = assert_matches_numpy(X, reps, blocks=(None, 13))
        assert not (a == 517).any()
        assert a[0] == a[1] == 9

    def test_all_identical_representatives(self):
        rng = np.random.default_rng(23)
        reps = np.repeat(rng.standard_normal((1, 3)), 256, axis=0)
        X = rng.standard_normal((300, 3))
        a, _ = assert_matches_numpy(X, reps)
        assert (a == 0).all()

    def test_single_representative(self):
        rng = np.random.default_rng(24)
        X = rng.standard_normal((40, 4))
        a, _ = assert_matches_numpy(X, rng.standard_normal((1, 4)))
        assert (a == 0).all()

    def test_single_column(self):
        rng = np.random.default_rng(25)
        reps = half_grid(rng, (1000, 1))
        assert kernels.build_nearest_index(reps).depth > 0
        assert_matches_numpy(half_grid(rng, (800, 1)), reps)

    def test_squares_overflowing_to_inf(self):
        # ~1e154 squared is ~1e308: many squares and sums overflow to inf,
        # and a box's bound may reach inf only where every distance to its
        # representatives does.  The far rows overflow against every
        # representative and keep id 0.
        rng = np.random.default_rng(26)
        reps = rng.standard_normal((512, 2)) * 1e154
        X = np.vstack(
            [
                rng.standard_normal((300, 2)) * 1e154,
                rng.choice([-1.0, 1.0], (40, 2)) * 1.5e308,
            ]
        )
        with np.errstate(over="ignore"):
            _, b = assert_matches_numpy(X, reps, depths=(0, 3, 5, 9))
        assert np.isinf(b).any() and np.isfinite(b).any()

    @pytest.mark.parametrize("width,n_reps,split", [(4, 400, True), (8, 400, False)])
    def test_each_side_of_the_split_rule(self, width, n_reps, split):
        rng = np.random.default_rng(27)
        reps = half_grid(rng, (n_reps, width))
        X = half_grid(rng, (700, width))
        assert (kernels.build_nearest_index(reps).depth > 0) is split
        a_ref, b_ref = run_numpy(X, reps)
        a, b = run_dispatch(X, reps)
        np.testing.assert_array_equal(a_ref, a)
        np.testing.assert_array_equal(b_ref, b)

    @pytest.mark.parametrize("block", [1, 7, 64, 333])
    def test_row_blocking_invariance(self, block):
        rng = np.random.default_rng(28)
        reps = half_grid(rng, (900, 3))
        X = half_grid(rng, (1000, 3))
        assert_matches_numpy(X, reps, depths=(0, 5), blocks=(None, block))

    def test_tie_heavy_randomized_shapes(self):
        # Small integer grids with every forced depth: leaves from the
        # whole matrix down to a single representative.
        rng = np.random.default_rng(29)
        for _ in range(40):
            width = int(rng.integers(1, 6))
            n_reps = int(rng.integers(2, 200))
            reps = rng.integers(0, 3, (n_reps, width)).astype(float)
            X = rng.integers(0, 3, (int(rng.integers(1, 120)), width)).astype(float)
            assert_matches_numpy(X, reps, blocks=(None, 5))


class TestIndexBuild:
    def test_split_rule_is_depth_at_least_width(self):
        for n_reps, width, depth in [
            (32, 1, 0),  # a single leaf's worth: nothing to split
            (40, 1, 1),
            (40, 2, 0),
            (400, 4, 4),
            (400, 8, 0),
            (5000, 4, 8),
            (5000, 8, 8),
            (5000, 12, 0),
            (5000, 0, 0),
        ]:
            assert kernels.split_depth(n_reps, width) == depth, (n_reps, width)

    @pytest.mark.parametrize("depth", [0, 1, 4, 8])
    def test_tree_arrays_are_consistent(self, depth):
        rng = np.random.default_rng(30)
        reps = rng.standard_normal((300, 3))
        index = kernels._build_tree(reps, depth)
        assert index.depth == depth
        assert sorted(index.ids) == list(range(300))
        np.testing.assert_array_equal(index.repcols, reps[index.ids].T)
        sizes = np.diff(index.leaf_bounds)
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
        # Every node's box is exactly the box of the points under it.
        n_nodes = len(index.lo)
        assert n_nodes == 2 ** (depth + 1) - 1
        for node in range(n_nodes):
            level = (node + 1).bit_length() - 1
            first = (node + 1 - 2**level) * 2 ** (depth - level)
            lo_leaf, hi_leaf = first, first + 2 ** (depth - level)
            pts = reps[
                index.ids[index.leaf_bounds[lo_leaf] : index.leaf_bounds[hi_leaf]]
            ]
            np.testing.assert_array_equal(index.lo[node], pts.min(axis=0))
            np.testing.assert_array_equal(index.hi[node], pts.max(axis=0))

    @pytest.mark.parametrize("scale", [1.0, 1e307, 1.7e308])
    def test_boxes_hold_their_points_near_the_float_range(self, scale):
        # Columns spanning more than the largest float (-1.7e308 .. 1.7e308)
        # must still split without mixing nodes: every node's box is the
        # box of the points under it.
        rng = np.random.default_rng(31)
        reps = rng.integers(-1, 2, size=(64, 2)) * scale
        index = kernels._build_tree(reps, 5)
        depth = 5
        for node in range(len(index.lo)):
            level = (node + 1).bit_length() - 1
            first = (node + 1 - 2**level) * 2 ** (depth - level)
            lo_leaf, hi_leaf = first, first + 2 ** (depth - level)
            pts = reps[index.ids[index.leaf_bounds[lo_leaf] : index.leaf_bounds[hi_leaf]]]
            np.testing.assert_array_equal(index.lo[node], pts.min(axis=0))
            np.testing.assert_array_equal(index.hi[node], pts.max(axis=0))

    def test_depth_beyond_one_rep_per_leaf_is_rejected(self):
        with pytest.raises(ValueError):
            kernels._build_tree(np.zeros((5, 2)), 3)

    def test_reps_must_be_2d(self):
        with pytest.raises(ValueError):
            kernels.build_nearest_index(np.zeros(5))


@pytest.mark.parametrize("run", CONTEXTS)
class TestBackendsQueryTheIndex:
    """``assign_nearest`` over a prebuilt index and over a raw matrix
    equals the numpy scan's assignments — on the calling thread, from two
    threads sharing the index and in two forked processes."""

    def test_tree_index_and_raw_matrix(self, run):
        backend = SerialBackend()
        rng = np.random.default_rng(31)
        reps = half_grid(rng, (1500, 3))
        reps[1200] = reps[40]
        X = half_grid(rng, (3000, 3))
        index = kernels.build_nearest_index(reps)
        assert index.depth > 0
        a_ref, _ = run_numpy(X, reps)
        for by_index, by_matrix in run(
            lambda: (backend.assign_nearest(X, index), backend.assign_nearest(X, reps))
        ):
            np.testing.assert_array_equal(by_index, a_ref)
            np.testing.assert_array_equal(by_matrix, a_ref)

    def test_forced_deep_tree(self, run):
        backend = SerialBackend()
        rng = np.random.default_rng(32)
        reps = rng.integers(0, 4, (256, 2)).astype(float)
        X = rng.integers(0, 4, (500, 2)).astype(float)
        a_ref, _ = run_numpy(X, reps)
        index = kernels._build_tree(reps, 8)  # one representative per leaf
        for assignment in run(lambda: backend.assign_nearest(X, index)):
            np.testing.assert_array_equal(assignment, a_ref)


def test_threaded_shards_share_one_index():
    # More threads than cores, with a short switch interval: every thread
    # queries its own row shard against the same index, the way serving's
    # executor threads share one model's index.
    rng = np.random.default_rng(33)
    reps = half_grid(rng, (2000, 3))
    X = half_grid(rng, (6000, 3))
    index = kernels.build_nearest_index(reps)
    a_ref, _ = run_numpy(X, reps)
    backend = SerialBackend()
    shards = np.array_split(np.arange(len(X)), 8)
    results = [None] * len(shards)
    start = threading.Barrier(len(shards))

    def query(i):
        start.wait(timeout=60)
        results[i] = [backend.assign_nearest(X[shards[i]], index) for _ in range(5)]

    threads = [threading.Thread(target=query, args=(i,)) for i in range(len(shards))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows, runs in zip(shards, results):
        assert runs is not None  # the thread finished without raising
        for assignment in runs:
            np.testing.assert_array_equal(assignment, a_ref[rows])


def kernels_distances(X, point):
    """The numpy kernel's squared distances from ``point`` to every row."""
    n = len(X)
    out, tmp = np.empty(n), np.empty(n)
    kernels.sq_distances_block(np.ascontiguousarray(X.T), point, out, tmp, 0, n)
    return out


def lowest_id_selection(d2, alive, m, k):
    """Brute force: the live positions below ``m`` by (d2, position)."""
    live = np.flatnonzero(alive[:m])
    return live[np.lexsort((live, d2[live]))[:k]]


@native_only
class TestEngineScans:
    """The clustering engine's two compiled scans against their specs."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_distance_scan_is_the_numpy_kernel(self, d):
        rng = np.random.default_rng(40 + d)
        cols = half_grid(rng, (d, 500))
        cols[:, 300:340] = cols[:, 11:12]  # duplicate rows
        scan = _native.load().sq_distances
        for n in (500, 377, 1, 0):  # windows shorter than the buffer
            for point in (cols[:, 11].copy(), half_grid(rng, d)):
                want, tmp = np.full(500, -1.0), np.empty(500)
                kernels.sq_distances_block(cols, point, want, tmp, 0, n)
                got = np.full(500, -1.0)
                assert scan(cols, point, got, n)
                np.testing.assert_array_equal(got, want)

    def test_distance_scan_through_the_backend_and_engine(self):
        rng = np.random.default_rng(45)
        X = half_grid(rng, (300, 3))
        X[200:] = X[:100]
        engine = ClusteringEngine(X)
        engine.kill(np.arange(0, 300, 3))
        engine.kill(np.arange(1, 300, 3)[:60])  # compacts: window < buffer
        assert engine.window < 300
        live = engine.alive_ids()
        d2 = engine.eval_distances(X[7])
        np.testing.assert_array_equal(
            d2[engine.positions_of(live)], kernels_distances(X[live], X[7])
        )

    def test_unsupported_layouts_fall_back(self):
        rng = np.random.default_rng(46)
        X = half_grid(rng, (64, 3))
        scan = _native.load().sq_distances
        out = np.empty(64)
        assert not scan(X.T, X[0], out, 64)  # rows, not columns, contiguous
        assert not scan(X.T.copy(), X[0].astype(np.float32), out, 64)
        assert not scan(X.T.copy(), X[0], out, 65)  # past the buffer
        assert not scan(X.T.copy(), np.empty(0), out, 64)
        backend_out = np.empty(64)
        SerialBackend().eval_sq_distances(X.T, X[0], backend_out, np.empty(64), 64)
        np.testing.assert_array_equal(backend_out, kernels_distances(X, X[0]))

    def test_selection_equals_the_spec_on_ties(self):
        rng = np.random.default_rng(47)
        select = _native.load().k_nearest
        for trial in range(200):
            size = int(rng.integers(1, 400))
            if trial % 2:
                d2 = rng.integers(0, 3, size).astype(np.float64)  # dense ties
            else:
                d2 = np.round(rng.standard_normal(size) * 2.0) ** 2 / 4.0
            alive = rng.random(size) < rng.uniform(0.2, 1.0)
            m = int(rng.integers(0, size + 1))
            live = int(alive[:m].sum())
            for k in {1, 2, max(live - 1, 1), max(live, 1), live + 5}:
                want = kernels._k_nearest_live_numpy(d2, alive, m, k)
                np.testing.assert_array_equal(want, lowest_id_selection(d2, alive, m, k))
                np.testing.assert_array_equal(select(d2, alive, m, k), want)

    def test_selection_edge_cases(self):
        select = _native.load().k_nearest
        d2 = np.array([np.inf, 1.0, np.inf, 0.0, 1.0, np.inf])
        alive = np.array([True, True, False, True, True, True])
        np.testing.assert_array_equal(select(d2, alive, 6, 4), [3, 1, 4, 0])
        np.testing.assert_array_equal(select(d2, alive, 6, 9), [3, 1, 4, 0, 5])
        np.testing.assert_array_equal(select(d2, np.zeros(6, bool), 6, 3), [])
        np.testing.assert_array_equal(select(d2, alive, 0, 3), [])
        # NaN among the first k live distances: the kernel declines, and the
        # dispatcher's spec sorts NaN last, as np.argsort does.
        d2[1] = np.nan
        assert select(d2, alive, 6, 2) is None
        np.testing.assert_array_equal(kernels.k_nearest_live(d2, alive, 6, 3), [3, 4, 0])
        np.testing.assert_array_equal(select(d2, alive, 6, 1), [3])  # after the fill
        assert select(d2.astype(np.float32), alive, 6, 1) is None
        assert select(d2, alive.astype(np.int8), 6, 1) is None
        with pytest.raises(ValueError, match="positive"):
            kernels.k_nearest_live(d2, alive, 6, 0)


def upward(k_nearest):
    """A live k-nearest binding that orders equal distances by descending
    id: the right records, the wrong tie order."""

    def broken(tree, point, k, out_id, out_d2):
        got = k_nearest(tree, point, k, out_id, out_d2)
        order = np.lexsort((-out_id[:got], out_d2[:got]))
        out_id[:got], out_d2[:got] = out_id[:got][order], out_d2[:got][order]
        return got

    return broken


class LiveSpec:
    """A live tree beside the spec it must equal: the live records,
    ascending, and their canonical distances from a point."""

    def __init__(self, X, depth):
        self.X = X
        self.tree = kernels.build_live_tree(X, depth)
        self.handle = _native.live_handle(self.tree)
        self.addr = ctypes.addressof(self.handle)
        self.alive = np.ones(len(X), dtype=bool)

    def kill(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        _native.load().live_kill(self.addr, ids)
        self.alive[ids] = False

    def spec(self, point):
        live = np.flatnonzero(self.alive)
        return live, kernels_distances(self.X[live], point)

    def assert_queries_equal_the_spec(self, point):
        native = _native.load()
        live, d2 = self.spec(point)
        order = np.lexsort((live, d2))
        for k in {1, 2, max(live.size - 1, 1), max(live.size, 1), live.size + 3}:
            m = min(k, live.size)
            ids, dist = np.full(m, -7, dtype=np.int64), np.empty(m)
            assert native.live_k_nearest(self.addr, point, k, ids, dist) == m
            np.testing.assert_array_equal(ids, live[order[:m]])
            np.testing.assert_array_equal(dist, d2[order[:m]])
        top = np.empty(2)
        for margin in (0.0, 1e-6, 0.3):
            got = native.live_farthest(self.addr, point, margin, top)
            if not live.size:
                assert got == -1
                return
            assert got == live[np.argmax(d2)]  # the lowest id at the maximum
            assert top[0] == d2.max()
            if margin:
                # The runner-up reaches the band floor exactly when the
                # band holds a second record, and is then its distance.
                least = top[0] if top[0] == np.inf else top[0] - margin * (1 + top[0])
                band = np.sort(d2[d2 >= least])
                if band.size > 1:
                    assert top[1] == band[-2]
                else:
                    assert not top[1] >= least
        for least in (d2.max(), np.median(d2), d2.min(), -np.inf, np.inf):
            out = np.empty(live.size + 1, dtype=np.int64)
            found = native.live_at_or_above(self.addr, point, least, out, live.size + 1)
            np.testing.assert_array_equal(np.sort(out[:found]), live[d2 >= least])
            # A short output buffer still counts every record in the band.
            assert native.live_at_or_above(self.addr, point, least, out, 1) == found

    def assert_counts_and_boxes_exact(self):
        """Every node's live count, and every non-empty node's box, is
        that of the live records below it."""
        tree = self.tree
        depth = (len(tree.leaf_bounds) - 1).bit_length() - 1
        for node in range(len(tree.count)):
            level = (node + 1).bit_length() - 1
            first = (node + 1 - 2**level) * 2 ** (depth - level)
            slots = np.arange(
                tree.leaf_bounds[first], tree.leaf_bounds[first + 2 ** (depth - level)]
            )
            live = tree.ids[slots][self.alive[tree.ids[slots]]]
            assert tree.count[node] == live.size
            np.testing.assert_array_equal(tree.alive[slots], self.alive[tree.ids[slots]])
            if live.size:
                np.testing.assert_array_equal(tree.lo[node], self.X[live].min(axis=0))
                np.testing.assert_array_equal(tree.hi[node], self.X[live].max(axis=0))


def tie_heavy_table(rng, n, d, kind):
    if kind == "grid":
        return half_grid(rng, (n, d))
    if kind == "ints":
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    X = rng.standard_normal((n, d))
    X[n // 2 :] = X[: n - n // 2]  # every row duplicated
    return X


@native_only
class TestLiveIndex:
    """The live index's four entry points against the scan engine's
    rules (lowest id on exact ties), through kills that empty leaves and
    shrink boxes, at every forced depth."""

    @pytest.mark.parametrize("kind", ["grid", "ints", "dups"])
    def test_queries_through_kills_at_every_depth(self, kind):
        rng = np.random.default_rng({"grid": 60, "ints": 61, "dups": 62}[kind])
        for _ in range(6):
            n, d = int(rng.integers(2, 90)), int(rng.integers(1, 4))
            X = np.ascontiguousarray(tie_heavy_table(rng, n, d, kind))
            for depth in range(int(np.log2(n)) + 1):
                live = LiveSpec(X, depth)
                while live.alive.any():
                    ids = np.flatnonzero(live.alive)
                    for point in (X[ids[0]], X[rng.integers(n)], half_grid(rng, d)):
                        live.assert_queries_equal_the_spec(point)
                    live.kill(rng.choice(ids, min(ids.size, int(rng.integers(1, 6))), replace=False))
                    live.assert_counts_and_boxes_exact()
                live.assert_queries_equal_the_spec(X[0])  # nothing live

    def test_whole_leaves_emptied_from_the_outside_in(self):
        # MDAV's order: each batch is the records nearest the one farthest
        # from the centroid, so boxes shrink toward the middle.
        rng = np.random.default_rng(63)
        X = np.ascontiguousarray(half_grid(rng, (200, 3)))
        live = LiveSpec(X, 6)
        while live.alive.any():
            ids, d2 = live.spec(X[live.alive].mean(axis=0))
            far = X[ids[np.argmax(d2)]]
            ids, d2 = live.spec(far)
            live.kill(ids[np.lexsort((ids, d2))[:7]])
            live.assert_counts_and_boxes_exact()
            if live.alive.any():
                live.assert_queries_equal_the_spec(far)
                live.assert_queries_equal_the_spec(X[live.alive].mean(axis=0))
        assert (live.tree.count == 0).all()

    def test_squares_overflowing_to_inf_tie(self):
        rng = np.random.default_rng(64)
        X = half_grid(rng, (40, 2))
        X[[3, 17]] = 1e200
        X[25] = -1e200
        X = np.ascontiguousarray(X)
        live = LiveSpec(X, 4)
        with np.errstate(over="ignore"):
            for point in (X[3], X[25], X[0], np.array([1e200, -1e200])):
                live.assert_queries_equal_the_spec(point)
            live.kill([3, 0, 9])
            for point in (X[3], X[17], X[25]):
                live.assert_queries_equal_the_spec(point)
                live.assert_counts_and_boxes_exact()

    def test_nan_point_declines(self):
        X = np.ascontiguousarray(half_grid(np.random.default_rng(65), (20, 2)))
        live = LiveSpec(X, 2)
        native = _native.load()
        point = np.array([0.5, np.nan])
        ids, dist, top = np.empty(3, dtype=np.int64), np.empty(3), np.empty(2)
        assert native.live_k_nearest(live.addr, point, 3, ids, dist) == -1
        assert native.live_farthest(live.addr, point, 1e-6, top) == -1
        assert native.live_at_or_above(live.addr, point, 0.0, ids, 3) == -1

    def test_build_starts_with_every_record_live(self):
        rng = np.random.default_rng(66)
        X = np.ascontiguousarray(half_grid(rng, (77, 3)))
        for depth in (0, 1, 3, 6):
            live = LiveSpec(X, depth)
            assert live.tree.count[0] == 77
            np.testing.assert_array_equal(live.tree.ids[live.tree.slot], np.arange(77))
            live.assert_counts_and_boxes_exact()


@native_only
class TestAddressFallbacks:
    """The bindings read an array's address through ``ctypes.c_char
    .from_buffer``, which takes only writable, C-contiguous, non-empty
    arrays; every other array falls back to ``.ctypes.data`` and must give
    the spec's result."""

    def test_address_is_the_ctypes_address(self):
        rng = np.random.default_rng(48)
        base = half_grid(rng, (3, 40))
        frozen = base[0].copy()
        frozen.flags.writeable = False
        arrays = (base, base[1], base[:, 3:], frozen, np.empty(0), np.zeros(5, bool))
        for a in arrays:
            assert _native._address(a) == a.ctypes.data

    def test_read_only_point(self):
        rng = np.random.default_rng(49)
        cols = half_grid(rng, (3, 200))
        point = cols[:, 5].copy()
        point.flags.writeable = False
        want, tmp = np.empty(200), np.empty(200)
        kernels.sq_distances_block(cols, point, want, tmp, 0, 200)
        got = np.full(200, -1.0)
        assert _native.load().sq_distances(cols, point, got, 200)
        np.testing.assert_array_equal(got, want)

    def test_non_contiguous_columns(self):
        # A window of 120 records in a 300-record working copy: each
        # column is contiguous, the matrix is not.
        rng = np.random.default_rng(50)
        wide = half_grid(rng, (3, 300))
        wide[:, 60:80] = wide[:, 7:8]
        for cols in (wide[:, :120], wide[:, 40:160]):
            assert not cols.flags.c_contiguous
            point = wide[:, 7].copy()
            want, tmp = np.full(120, -1.0), np.empty(120)
            kernels.sq_distances_block(cols, point, want, tmp, 0, 120)
            got = np.full(120, -1.0)
            assert _native.load().sq_distances(cols, point, got, 120)
            np.testing.assert_array_equal(got, want)

    def test_read_only_selection_buffers(self):
        rng = np.random.default_rng(51)
        d2 = rng.integers(0, 3, 90).astype(np.float64)
        alive = rng.random(90) < 0.7
        d2.flags.writeable = alive.flags.writeable = False
        for k in (1, 7, 200):
            np.testing.assert_array_equal(
                _native.load().k_nearest(d2, alive, 90, k),
                kernels._k_nearest_live_numpy(d2, alive, 90, k),
            )

    def test_empty_arrays(self):
        native = _native.load()
        cols = half_grid(np.random.default_rng(52), (2, 10))
        assert native.sq_distances(cols, cols[:, 0].copy(), np.empty(0), 0)
        empty_d2, empty_alive = np.empty(0), np.empty(0, dtype=bool)
        np.testing.assert_array_equal(native.k_nearest(empty_d2, empty_alive, 0, 3), [])
        d2, alive = np.arange(6.0), np.ones(6, dtype=bool)
        np.testing.assert_array_equal(native.k_nearest(d2, alive, 0, 3), [])
        # An empty pool chunk: the kernel reports it exhausted (or the
        # cluster already within t), exactly as the spec does.
        frame = SwapFrame([OrderedEMDFrame(np.arange(12) % 4, 4)], 3, 0.05)
        for members in ([0, 4, 8], [0, 1, 2]):
            got_members = np.array(members, dtype=np.int64)
            spec_members = got_members.copy()
            pool = np.empty(0, dtype=np.int64)
            got = native.alg2_refine(frame, got_members, pool, 5)
            assert got == frame.refine(spec_members, pool, 5)
            np.testing.assert_array_equal(got_members, spec_members)


@native_only
class TestSelfCheck:
    def test_load_is_memoized(self):
        assert _native.load() is _native.load()

    def test_self_check_accepts_real_library(self):
        assert _native._self_check(_native.load())

    def test_self_check_forces_a_multi_level_tree(self, monkeypatch):
        # The fixture must run the box bounds and the deferred-node stack,
        # not only the leaf scan the split rule would pick for it.
        depths = []
        build = kernels._build_tree

        def spy(reps, depth):
            depths.append(depth)
            return build(reps, depth)

        monkeypatch.setattr(kernels, "_build_tree", spy)
        assert _native._self_check(_native.load())
        assert max(depths) >= 3 and 0 in depths

    @pytest.mark.parametrize("defect", ["bound", "tie"])
    def test_self_check_rejects_a_broken_query(self, defect):
        # A query that mis-prunes (scans only the first leaf) or breaks
        # ties toward the later representative must be rejected at load.
        def broken(rows, index, assignment, best_d2):
            bounds = index.leaf_bounds
            stop = bounds[1] if defect == "bound" else bounds[-1]
            for i, x in enumerate(rows):
                for p in range(stop):
                    diff = x - index.repcols[:, p]
                    d2 = float(np.sum(diff * diff))
                    if d2 < best_d2[i] or (defect == "tie" and d2 == best_d2[i]):
                        best_d2[i], assignment[i] = d2, index.ids[p]

        assert not _native._self_check(_native.load()._replace(kd_nearest=broken))

    def test_self_check_rejects_a_selection_breaking_ties_upward(self):
        # Equal distances must go to the lower position; a selection that
        # prefers the higher one (a stable sort of the reversed buffer)
        # must be rejected at load.
        def upward(d2, alive, m, k):
            live = np.flatnonzero(alive[:m])[::-1]
            return live[np.argsort(d2[live], kind="stable")[:k]]

        assert not _native._self_check(_native.load()._replace(k_nearest=upward))

    def test_self_check_rejects_a_live_query_breaking_ties_upward(self):
        native = _native.load()
        broken = native._replace(live_k_nearest=upward(native.live_k_nearest))
        assert not _native._self_check(broken)

    def test_self_check_rejects_a_farthest_query_missing_the_band(self):
        # With a margin, the farthest query must score the whole band
        # below the maximum; one that prunes at the maximum alone misses
        # runners-up in the band and must be rejected at load.
        native = _native.load()

        def maximum_only(tree, point, margin, out):
            return native.live_farthest(tree, point, 0.0, out)

        assert not _native._self_check(native._replace(live_farthest=maximum_only))

    def test_self_check_rejects_a_contracted_distance_scan(self):
        # One fused-looking rounding difference in the last column is enough.
        real = _native.load().sq_distances

        def off_by_an_ulp(cols, point, out, n):
            real(cols, point, out, n)
            out[:n] = np.nextafter(out[:n], np.inf)
            return True

        assert not _native._self_check(_native.load()._replace(sq_distances=off_by_an_ulp))


@native_only
def test_a_live_binding_breaking_ties_upward_is_rejected(monkeypatch):
    # Loaded with the broken binding, the library is rejected as a whole:
    # MDAV runs on the scan engine's numpy specs and gives their labels.
    bind = _native._bind_live

    def broken_bind(*fns):
        k_nearest, *rest = bind(*fns)
        return (upward(k_nearest), *rest)

    monkeypatch.setattr(_native, "_bind_live", broken_bind)
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    assert _native.load() is None
    X = half_grid(np.random.default_rng(67), (400, 2))
    assert kernels.split_depth(*X.shape) > 0
    assert isinstance(live_set(X), ClusteringEngine)
    rejected = mdav(X, 3)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    np.testing.assert_array_equal(rejected.labels, mdav(X, 3).labels)


class BoundMerge:
    """A merge state over one-record clusters with chosen initial ratios,
    ``d`` zero centroid columns and one ordered frame, bound to the step
    at ``t``."""

    def __init__(self, ratios, t, d=0):
        G = len(ratios)
        self.frame = OrderedEMDFrame(np.arange(G) % 3, 3)
        self.layout, self.tables = kernel_view([self.frame], [0])
        self.state = kernels.build_merge_state(np.ones(G), np.arange(G), ratios, d)
        self.handle = _native.merge_handle(
            self.state, self.layout, self.tables, *min(t, 1.0).as_integer_ratio()
        )
        self.addr = ctypes.addressof(self.handle)
        self.native = _native.load()
        self.native.merge_heapify(self.addr)

    def step(self):
        return self.native.merge_step(self.addr)

    def commit(self, worst, partner):
        return self.native.merge_commit(self.addr, worst, partner)


@native_only
class TestMergeStep:
    """The compiled merge step's decisions and statuses, beside the
    brute-force loop of the load-time self-check and the reference of
    ``tests/microagg/test_merge_reference.py``."""

    T_NUM = (0.1).as_integer_ratio()[0]

    @pytest.mark.parametrize(
        "ratio, t, stops",
        [
            ((1, 10), 0.1, True),  # 1/10 < the float 0.1
            ((T_NUM, 2**55), 0.1, True),  # exactly the float 0.1
            ((T_NUM + 1, 2**55), 0.1, False),
            ((1, 2**62), 1e-300, False),  # 2^-62 > 1e-300, t_exp > 128
            ((0, 1), 1e-300, True),
            ((0, 1), 0.0, True),
            ((1, 2**62), 0.0, False),
            ((2**62, 2**62), 1.0, True),
            ((2**62, 2**62), float("inf"), True),
        ],
    )
    def test_the_stop_test_is_exact(self, ratio, t, stops):
        bound = BoundMerge([ratio, (0, 1)], t)
        assert bound.step() == (_native.MERGE_STOP if stops else _native.MERGED)

    def test_centroids_are_bound_only_once_a_merge_is_due(self):
        bound = BoundMerge([(0, 1), (1, 2), (1, 2)], 0.0, d=2)
        heap = bound.state.heap.copy()
        assert bound.step() == _native.MERGE_NO_CENTROIDS
        np.testing.assert_array_equal(bound.state.heap, heap)
        assert bound.state.alive.all() and bound.handle.n_heap == 3
        bound.state.cols = np.zeros((2, 3))
        _native.bind_columns(bound.handle, bound.state.cols)
        # Ratio ties pop the lower id; distance ties pick the lower id.
        assert bound.step() == _native.MERGED
        assert bound.state.pair.tolist() == [1, 0]

    def test_commit_takes_only_two_distinct_live_clusters(self):
        bound = BoundMerge([(1, 2), (1, 3), (1, 4)], 0.0)
        for worst, partner in ((0, 0), (0, 3), (-1, 1), (3, 0)):
            assert bound.commit(worst, partner) == _native.MERGE_BAD_PAIR
        assert bound.commit(2, 0) == _native.MERGED
        assert bound.commit(1, 0) == _native.MERGE_BAD_PAIR
        assert bound.state.alive.tolist() == [0, 1, 1]

    def test_a_merged_cluster_past_the_exactness_bound_is_refused(self):
        bound = BoundMerge([(1, 2), (1, 3)], 0.0)
        bound.layout[0, 1] = 2**62  # c*n*m = 2*2*2**62 reaches 2**63
        assert bound.step() == _native.MERGE_PAST_BOUND


@native_only
def test_a_merge_heap_breaking_ratio_ties_upward_is_rejected(monkeypatch):
    # A library whose heap pops the higher id first among exact ratio ties
    # fails the merge step's self-check, after every other entry point
    # passed: load() returns None, and the fit takes the spec, with the
    # compiled step's labels.
    data = load_mcd(n=200)
    want = microaggregation_merge(data, 4, 0.1)
    rule = "return x > y || (x == y && a < b);"
    assert _native._SOURCE.count(rule) == 1
    upward = _native._SOURCE.replace(rule, "return x > y || (x == y && a > b);")
    checks = []
    check_merge = _native._check_merge

    def spy(native):
        checks.append(check_merge(native))
        return checks[-1]

    monkeypatch.setattr(_native, "_SOURCE", upward)
    monkeypatch.setattr(_native, "_check_merge", spy)
    monkeypatch.setattr(_native, "_cached", _native._UNSET)
    assert _native.load() is None
    assert checks == [False]
    got = microaggregation_merge(data, 4, 0.1)
    np.testing.assert_array_equal(got.partition.labels, want.partition.labels)
    assert got.cluster_emds.tobytes() == want.cluster_emds.tobytes()
    assert got.info == want.info
