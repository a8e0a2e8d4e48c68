"""Unit tests for the clustering engine's primitives.

The equivalence suite (``test_engine_equivalence.py``) proves whole
partitions match the reference implementations; these tests pin down the
individual primitives — masked selections, incremental centroid, window
compaction, tie-breaking, buffer reuse across kills — against direct numpy
oracles.
"""

import numpy as np
import pytest

from repro.backend import SerialBackend, _native, kernels
from repro.distance.records import (
    k_nearest_indices,
    pairwise_sq_distances,
    sq_distances_to,
)
from repro.microagg import ClusteringEngine
from repro.microagg import engine as live_sets
from repro.microagg.engine import LiveIndex, live_set


def make_engine(n=50, d=3, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return X, ClusteringEngine(X, **kwargs)


native_only = pytest.mark.skipif(
    _native.load() is None, reason="no usable C toolchain on this host"
)


def make_live_index(n=50, d=3, seed=0, depth=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    return X, LiveIndex(X, depth, _native.load())


class TestValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            ClusteringEngine(np.zeros(5))
        with pytest.raises(ValueError, match="at least one record"):
            ClusteringEngine(np.zeros((0, 3)))

    def test_rejects_bad_parameters(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="compact_ratio"):
            ClusteringEngine(X, compact_ratio=1.5)
        with pytest.raises(TypeError, match="chunk_size"):
            ClusteringEngine(X, chunk_size=16)  # the compiled scan has no knob

    def test_kill_dead_record_raises(self):
        _, engine = make_engine()
        engine.kill(np.array([3]))
        with pytest.raises(ValueError, match="already assigned"):
            engine.kill(np.array([3]))

    def test_kill_duplicate_ids_in_one_batch_raises(self):
        _, engine = make_engine()
        n_alive = engine.n_alive
        with pytest.raises(ValueError, match="unique"):
            engine.kill(np.array([3, 3]))
        assert engine.n_alive == n_alive

    @pytest.mark.parametrize("bad", [-1, -2, 10, 11])
    def test_ids_outside_the_records_rejected(self, bad):
        # A negative id would read the position map from the end and
        # alias a live record: -1 is record 9, -2 record 8.
        _, engine = make_engine(n=10, d=2)
        for attempt in (
            lambda: engine.kill(np.array([bad])),
            lambda: engine.kill(np.array([0, bad])),
            lambda: engine.kill_one(bad),
            lambda: engine.replace_row(bad, np.zeros(2)),
        ):
            with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
                attempt()
        assert engine.n_alive == 10
        np.testing.assert_array_equal(engine.alive_ids(), np.arange(10))

    def test_kill_takes_a_scalar_id(self):
        _, engine = make_engine(n=10, d=2)
        engine.kill(np.int64(0))
        engine.kill(7)
        np.testing.assert_array_equal(engine.alive_ids(), [1, 2, 3, 4, 5, 6, 8, 9])

    def test_rejected_batch_changes_nothing(self):
        X, engine = make_engine(n=10, d=2)
        engine.kill(np.array([4]))
        before = engine.centroid_fast()
        for batch in ([1, 4], [2, 2], [3, -1]):
            with pytest.raises(ValueError):
                engine.kill(np.array(batch))
        assert engine.n_alive == 9
        np.testing.assert_array_equal(engine.centroid_fast(), before)

    def test_centroid_requires_alive(self):
        _, engine = make_engine(n=2)
        engine.kill(np.array([0, 1]))
        with pytest.raises(ValueError, match="alive"):
            engine.centroid()


class TestSelections:
    def test_distances_match_reference_kernel(self):
        X, engine = make_engine()
        p = X[7]
        d2 = engine.eval_distances(p)
        np.testing.assert_array_equal(d2, sq_distances_to(X, p))

    def test_nearest_value_is_nonnegative_at_zero_distance(self):
        # A query point coinciding with a live record must report exactly
        # 0.0, never a cancellation artefact below zero (which would flip
        # vmdav's gamma=0 extension test against the reference behaviour).
        X, engine = make_engine()
        rec, value = engine.nearest_with_value(X[21].copy())
        assert rec == 21
        assert value == 0.0

    def test_farthest_and_nearest_against_oracle(self):
        X, engine = make_engine()
        dead = np.array([0, 5, 9])
        engine.kill(dead)
        alive = np.setdiff1d(np.arange(50), dead)
        p = X.mean(axis=0)
        d2 = sq_distances_to(X[alive], p)
        assert engine.farthest(p) == alive[np.argmax(d2)]
        near, value = engine.nearest_with_value(p)
        assert near == alive[np.argmin(d2)]
        assert value == pytest.approx(d2.min(), abs=1e-12)

    def test_k_nearest_matches_reference_selection(self):
        X, engine = make_engine()
        dead = np.arange(0, 50, 7)
        engine.kill(dead)
        alive = np.setdiff1d(np.arange(50), dead)
        ids = engine.k_nearest(6, point=X[1])
        expected = alive[k_nearest_indices(X[alive], X[1], 6)]
        np.testing.assert_array_equal(ids, expected)

    def test_sorted_alive_orders_by_distance_then_id(self):
        X, engine = make_engine()
        ids = engine.k_nearest(engine.n_alive, point=X[3])
        d2 = sq_distances_to(X, X[3])
        expected = np.argsort(d2, kind="stable")
        np.testing.assert_array_equal(ids, expected)

    def test_duplicate_ties_break_to_lowest_id(self):
        X = np.zeros((6, 2))
        X[4] = X[2] = [1.0, 1.0]  # two identical far points
        engine = ClusteringEngine(X)
        assert engine.farthest(np.zeros(2)) == 2
        # All-zero rows tie at distance 0; ids win in ascending order.
        np.testing.assert_array_equal(
            engine.k_nearest(3, point=np.zeros(2)), [0, 1, 3]
        )
        # Values in {0, 1, 2} queried at 0: the k-th distance is tied many
        # ways, and argpartition's tie order (which follows numpy's SIMD
        # dispatch) picked other ids in over half of these cases.
        rng = np.random.default_rng(12)
        for _ in range(60):
            n = int(rng.integers(30, 300))
            X = rng.integers(0, 3, size=(n, 1)).astype(float)
            engine = ClusteringEngine(X)
            dead = rng.choice(n, size=int(rng.integers(0, n // 2)), replace=False)
            engine.kill(dead)
            live = engine.alive_ids()
            k = int(rng.integers(1, live.size + 1))
            order = np.lexsort((live, X[live, 0] ** 2))
            np.testing.assert_array_equal(
                engine.k_nearest(k, point=np.zeros(1)), live[order[:k]]
            )

    def test_buffer_reuse_after_kill_sees_fresh_mask(self):
        X, engine = make_engine()
        p = X[0]
        first = engine.farthest(p)
        engine.kill(np.array([first]))
        second = engine.farthest()  # reuse: same distances, fewer alive
        alive = np.setdiff1d(np.arange(50), [first])
        d2 = sq_distances_to(X[alive], p)
        assert second == alive[np.argmax(d2)]
        assert second != first


class TestStateMaintenance:
    def test_centroid_is_bitwise_reference_mean(self):
        X, engine = make_engine()
        rng = np.random.default_rng(1)
        alive = np.ones(50, dtype=bool)
        for _ in range(8):
            candidates = np.flatnonzero(alive)
            kill = rng.choice(candidates, size=4, replace=False)
            engine.kill(kill)
            alive[kill] = False
            # centroid(): exactly the reference X[remaining].mean(axis=0);
            # centroid_fast(): running sum, equal to float precision only.
            np.testing.assert_array_equal(
                engine.centroid(), X[alive].mean(axis=0)
            )
            np.testing.assert_allclose(
                engine.centroid_fast(), X[alive].mean(axis=0), atol=1e-10
            )
            np.testing.assert_array_equal(engine.alive_ids(), np.flatnonzero(alive))

    def test_univariate_input_is_never_aliased_or_mutated(self):
        # For d=1 the transpose of a contiguous matrix is itself contiguous;
        # the working copy must still be a real copy, or compaction would
        # write through into the caller's array.
        from repro.microagg import mdav

        rng = np.random.default_rng(8)
        X = rng.normal(size=(100, 1))
        engine = ClusteringEngine(X)
        assert not np.shares_memory(engine._XwT, X)
        original = X.copy()
        mdav(X, 2)  # large enough that compaction fires
        np.testing.assert_array_equal(X, original)

    def test_double_kill_after_compaction_raises(self):
        # Stale positions of compacted-away records must not alias live
        # window slots: the liveness guard has to stay loud.
        _, engine = make_engine(n=200, seed=9, compact_ratio=0.7)
        engine.kill(np.arange(100))
        assert engine.stats["n_compactions"] >= 1
        n_alive_before = engine.n_alive
        with pytest.raises(ValueError, match="already assigned"):
            engine.kill(np.array([5]))
        assert engine.n_alive == n_alive_before
        np.testing.assert_array_equal(engine.alive_ids(), np.arange(100, 200))

    def test_compaction_preserves_results(self):
        # A low ratio forces many compactions; selections must be unaffected.
        X, eager = make_engine(n=200, seed=3, compact_ratio=0.95)
        _, lazy = make_engine(n=200, seed=3, compact_ratio=None)
        rng = np.random.default_rng(4)
        for _ in range(30):
            p = X[rng.integers(0, 200)]
            a, b = eager.k_nearest(3, point=p), lazy.k_nearest(3, point=p)
            np.testing.assert_array_equal(a, b)
            assert eager.farthest(p) == lazy.farthest(p)
            eager.kill(a)
            lazy.kill(b)
        assert eager.stats["n_compactions"] > 0
        assert lazy.stats["n_compactions"] == 0
        assert eager.window < 200

    def test_chunked_evaluation_is_bitwise_identical(self):
        # The kernel is row-wise, so the block layout cannot change results.
        X, whole = make_engine(n=97, seed=5)
        p = X[13]
        chunked = np.empty(97)
        SerialBackend().eval_sq_distances(X.T.copy(), p, chunked, np.empty(97), 97, 16)
        np.testing.assert_array_equal(whole.eval_distances(p), chunked)
        np.testing.assert_array_equal(chunked, sq_distances_to(X, p))

    def test_positions_survive_until_compaction(self):
        X, engine = make_engine(n=64, compact_ratio=0.5)
        ids = np.arange(64)
        seen = engine.n_compactions
        pos = engine.positions_of(ids)
        np.testing.assert_array_equal(pos, ids)  # identity before compaction
        engine.kill(np.arange(0, 40))  # triggers a compaction
        assert engine.n_compactions == seen + 1
        fresh = engine.positions_of(engine.alive_ids())
        np.testing.assert_array_equal(fresh, np.arange(engine.n_alive))


class TestChunkedPairwise:
    def test_chunked_matches_direct(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(37, 4))
        direct = pairwise_sq_distances(X)
        chunked = pairwise_sq_distances(X, chunk_size=8)
        np.testing.assert_allclose(chunked, direct, atol=1e-12)

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="block_size"):
            pairwise_sq_distances(np.zeros((4, 2)), chunk_size=-1)


def stable_order(X, ids, point):
    """``ids`` sorted by (canonical distance to ``point``, id)."""
    return ids[np.lexsort((ids, sq_distances_to(X[ids], point)))]


class TestKNearestSorted:
    """``k_nearest`` is the k-prefix of the stable (distance, id) sort."""

    def test_matches_sorted_alive_prefix_bitwise(self):
        X, engine = make_engine(n=120, d=2, seed=7)
        engine.eval_distances(X[3])
        full = stable_order(X, np.arange(120), X[3])
        for k in (1, 5, 40, 119, 120, 500):
            np.testing.assert_array_equal(engine.k_nearest(k), full[:k])

    def test_boundary_ties_match_stable_order(self):
        # Duplicate rows create exact zero-distance and boundary ties; the
        # selection must reproduce the stable (distance, id) order of the
        # full sort, including ties at the k-th value.
        rng = np.random.default_rng(11)
        X = rng.integers(0, 3, size=(90, 2)).astype(float)
        engine = ClusteringEngine(X)
        engine.eval_distances(X[0])
        full = stable_order(X, np.arange(90), X[0])
        for k in (1, 4, 17, 50, 89):
            np.testing.assert_array_equal(engine.k_nearest(k), full[:k])

    def test_respects_kills(self):
        X, engine = make_engine(n=40, d=2, seed=3)
        engine.eval_distances(X[0])
        engine.kill(engine.k_nearest(5))
        rest = engine.k_nearest(35)
        assert rest.size == 35
        np.testing.assert_array_equal(
            rest, stable_order(X, engine.alive_ids(), X[0])
        )


class TestReplaceRow:
    def test_updates_row_distances_and_centroid(self):
        X, engine = make_engine(n=30, d=3, seed=5)
        new_row = np.full(3, 0.25)
        engine.replace_row(4, new_row)
        np.testing.assert_array_equal(engine.row(4), new_row)
        d2 = engine.eval_distances(new_row)
        assert d2[engine.positions_of(np.array([4]))[0]] == 0.0
        mutated = X.copy()
        mutated[4] = new_row
        np.testing.assert_allclose(
            engine.centroid_fast(), mutated.mean(axis=0), atol=1e-12
        )

    def test_never_writes_through_to_caller_array(self):
        rng = np.random.default_rng(9)
        X = np.ascontiguousarray(rng.normal(size=(12, 2)))
        engine = ClusteringEngine(X)
        before = X.copy()
        engine.replace_row(0, np.zeros(2))
        np.testing.assert_array_equal(X, before)

    def test_dead_or_bad_rows_rejected(self):
        X, engine = make_engine(n=10, d=2, seed=1)
        engine.kill(np.array([3]))
        with pytest.raises(ValueError, match="already assigned"):
            engine.replace_row(3, np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            engine.replace_row(0, np.zeros(5))

    def test_ids_at_inverts_positions_of(self):
        X, engine = make_engine(n=25, d=2, seed=2)
        ids = np.array([1, 7, 19])
        np.testing.assert_array_equal(
            engine.ids_at(engine.positions_of(ids)), ids
        )


@native_only
class TestLiveIndex:
    """The live index's own rules: the scan engine's kill guards, point
    reuse, the structure :func:`live_set` picks, and equal selections."""

    def test_kill_dead_record_raises(self):
        _, live = make_live_index()
        live.kill(np.array([3]))
        with pytest.raises(ValueError, match="already assigned"):
            live.kill(np.array([3]))

    def test_kill_duplicate_ids_in_one_batch_raises(self):
        _, live = make_live_index()
        with pytest.raises(ValueError, match="unique"):
            live.kill(np.array([3, 3]))
        assert live.n_alive == 50

    @pytest.mark.parametrize("bad", [-1, -2, 10, 11])
    def test_ids_outside_the_records_rejected(self, bad):
        _, live = make_live_index(n=10, d=2, depth=2)
        for batch in ([bad], [0, bad]):
            with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
                live.kill(np.array(batch))
        assert live.n_alive == 10
        np.testing.assert_array_equal(live.alive_ids(), np.arange(10))

    def test_kill_takes_a_scalar_id(self):
        _, live = make_live_index(n=10, d=2, depth=2)
        live.kill(np.int64(0))
        live.kill(7)
        np.testing.assert_array_equal(live.alive_ids(), [1, 2, 3, 4, 5, 6, 8, 9])

    def test_rejected_batch_changes_nothing(self):
        X, live = make_live_index(n=10, d=2, depth=2)
        live.kill(np.array([4]))
        before = live.centroid_fast()
        counts = live._tree.count.copy()
        for batch in ([1, 4], [2, 2], [3, -1]):
            with pytest.raises(ValueError):
                live.kill(np.array(batch))
        assert live.n_alive == 9
        np.testing.assert_array_equal(live.centroid_fast(), before)
        np.testing.assert_array_equal(live._tree.count, counts)
        assert live.farthest(X[4]) != 4

    def test_running_sum_and_centroids_equal_the_scan_engine(self):
        X, live = make_live_index(n=60, d=3, depth=4)
        engine = ClusteringEngine(X)
        for batch in ([0, 5, 9], [12], [30, 31, 2, 44]):
            live.kill(batch)
            engine.kill(batch)
            np.testing.assert_array_equal(live.centroid_fast(), engine.centroid_fast())
            np.testing.assert_array_equal(live.centroid(), engine.centroid())
            np.testing.assert_array_equal(live.alive_ids(), engine.alive_ids())
            assert live.n_alive == engine.n_alive

    def test_selections_equal_the_scan_engine(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(120, 2)).astype(float)
        for depth in (1, 3, 6):
            engine = ClusteringEngine(X)
            live = LiveIndex(X, depth, _native.load())
            while engine.n_alive:
                assert live.farthest_from_centroid() == engine.farthest_from_centroid()
                seed = engine.alive_ids()[-1]
                for k in (1, 4, engine.n_alive + 2):
                    np.testing.assert_array_equal(
                        live.k_nearest(k, X[seed]), engine.k_nearest(k, X[seed])
                    )
                assert live.farthest() == engine.farthest()  # the last point
                assert live.nearest_with_value(X[0]) == engine.nearest_with_value(X[0])
                batch = engine.k_nearest(5, X[engine.farthest(X[seed])])
                live.kill(batch)
                engine.kill(batch)

    def test_point_none_needs_a_point_and_points_are_checked(self):
        X, live = make_live_index()
        with pytest.raises(ValueError, match="no query point"):
            live.farthest()
        with pytest.raises(ValueError, match="shape"):
            live.k_nearest(2, np.zeros(2))
        with pytest.raises(ValueError, match="positive"):
            live.k_nearest(0, X[0])
        point = X[0].copy()
        first = live.farthest(point)
        point[:] = 100.0  # the live index keeps its own copy
        assert live.farthest() == first

    def test_nan_point_takes_the_numpy_spec(self):
        X = np.ascontiguousarray(np.arange(40.0).reshape(20, 2))
        live = LiveIndex(X, 3, _native.load())
        engine = ClusteringEngine(X)
        point = np.array([np.nan, 1.0])
        for structure in (live, engine):
            structure.kill([3, 4])
        with np.errstate(invalid="ignore"):
            assert live.farthest(point) == engine.farthest(point) == 0
            assert live.nearest_with_value(point)[0] == engine.nearest_with_value(point)[0]
            np.testing.assert_array_equal(live.k_nearest(3, point), engine.k_nearest(3, point))

    def test_partitions_near_the_float_range_equal_the_scan_engine(self, monkeypatch):
        # Coordinates of +-1.7e308 overflow column widths, distances and
        # the running sum (to inf, then inf - inf = NaN centroids, which the
        # live index answers through the numpy spec): MDAV and V-MDAV must
        # still make the scan engine's choices.
        from repro.microagg import mdav, vmdav

        rng = np.random.default_rng(7)
        with np.errstate(all="ignore"):
            for _ in range(30):
                n, d = int(rng.integers(8, 60)), int(rng.integers(1, 3))
                scale = rng.choice([1.0, 1e307, 1.7e308], size=(n, 1))
                X = rng.integers(-1, 2, size=(n, d)) * scale
                k = int(rng.integers(1, 4))
                labels = {}
                for depth in (lambda n, d: 0, lambda n, d: int(np.log2(n))):
                    monkeypatch.setattr(live_sets, "split_depth", depth)
                    labels[depth(n, d) > 0] = (
                        mdav(X, k).labels,
                        vmdav(X, k, gamma=0.5).labels,
                    )
                    assert isinstance(live_set(X), LiveIndex) == (depth(n, d) > 0)
                for scan, index in zip(labels[False], labels[True]):
                    np.testing.assert_array_equal(index, scan)

    def test_live_set_picks_the_index_only_where_it_applies(self, monkeypatch):
        rng = np.random.default_rng(6)
        narrow = rng.normal(size=(2000, 3))
        assert isinstance(live_set(narrow), LiveIndex)
        # Four columns get the index; five do not, although the split rule
        # gives 2,000 x 5 a tree (the index lost there on uniform tables).
        four, five = rng.uniform(size=(2000, 4)), rng.uniform(size=(2000, 5))
        assert kernels.split_depth(*five.shape) > 0
        assert isinstance(live_set(four), LiveIndex)
        assert isinstance(live_set(five), ClusteringEngine)
        # A wide one-hot table: the split rule keeps one leaf.
        onehot = np.eye(16)[rng.integers(0, 16, 2000)]
        assert isinstance(live_set(onehot), ClusteringEngine)
        assert isinstance(live_set(narrow[:20]), ClusteringEngine)  # one leaf
        for bad in (np.nan, np.inf, -np.inf):
            X = narrow.copy()
            X[17, 1] = bad
            assert isinstance(live_set(X), ClusteringEngine)
        backend = SerialBackend()
        assert live_set(onehot, backend=backend).backend is backend
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_cached", _native._UNSET)
        assert isinstance(live_set(narrow), ClusteringEngine)


@pytest.mark.parametrize("structure", ["scan", "index"])
def test_farthest_from_centroid_with_squares_overflowing(structure, monkeypatch):
    # The band below an infinite maximum is every record at inf (not the
    # NaN of inf - inf, which left no candidate); the exact re-judge then
    # takes the lowest id among them.
    if structure == "index":
        if _native.load() is None:
            pytest.skip("no usable C toolchain on this host")
        monkeypatch.setattr(live_sets, "split_depth", lambda n, d: 2)
    X = np.array([[3.0], [1e200], [-1e200], [0.0], [1.0], [2.0], [5.0]])
    live = live_set(X)
    assert isinstance(live, LiveIndex) == (structure == "index")
    remaining = np.arange(7)
    with np.errstate(over="ignore"):
        for gone, want in ((1, 1), (2, 0), (6, 6)):
            # The reference: argmax over the exact centroid's distances.
            exact = sq_distances_to(X[remaining], X[remaining].mean(axis=0))
            assert remaining[np.argmax(exact)] == want
            assert live.farthest_from_centroid() == want
            live.kill([gone])
            remaining = remaining[remaining != gone]
