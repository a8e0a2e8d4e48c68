"""Tests for the Partition container and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microagg import Partition, PartitionError


class TestConstruction:
    def test_labels_relabelled_contiguous(self):
        p = Partition([5, 5, 9, 9, 5])
        np.testing.assert_array_equal(p.labels, [0, 0, 1, 1, 0])
        assert p.n_clusters == 2

    def test_first_appearance_order(self):
        p = Partition([3, 0, 3, 0])
        np.testing.assert_array_equal(p.labels, [0, 1, 0, 1])

    def test_relabel_equals_the_sorted_first_appearance_rule(self):
        # Dense labels take the scatter-min relabel, sparse ones np.unique;
        # both must number clusters by first appearance.
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            top = int(rng.choice([1, n // 3 + 1, n, 5 * n, 10**9]))
            raw = rng.integers(0, top, n, dtype=np.uint64 if top > n else np.int64)
            _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
            want = np.argsort(np.argsort(first))[inverse]
            p = Partition(raw)
            np.testing.assert_array_equal(p.labels, want)
            assert p.labels.dtype == np.int64
            assert p.n_clusters == len(first)

    def test_huge_label_values_allocate_nothing_proportional(self):
        p = Partition([0, 10**12, 0])
        np.testing.assert_array_equal(p.labels, [0, 1, 0])
        assert p.n_clusters == 2
        np.testing.assert_array_equal(Partition([2**62, 7, 2**62]).labels, [0, 1, 0])

    def test_integral_floats_accepted(self):
        p = Partition(np.array([0.0, 1.0]))
        assert p.n_clusters == 2

    def test_fractional_floats_rejected(self):
        with pytest.raises(PartitionError, match="integers"):
            Partition(np.array([0.5, 1.0]))

    def test_negative_rejected(self):
        with pytest.raises(PartitionError, match="non-negative"):
            Partition([-1, 0])

    def test_empty_rejected(self):
        with pytest.raises(PartitionError, match="at least one"):
            Partition([])

    def test_2d_rejected(self):
        with pytest.raises(PartitionError, match="1-D"):
            Partition(np.zeros((2, 2), dtype=int))

    def test_from_clusters(self):
        p = Partition.from_clusters([[0, 2], [1, 3]], 4)
        np.testing.assert_array_equal(p.labels, [0, 1, 0, 1])

    def test_from_clusters_overlap_rejected(self):
        with pytest.raises(PartitionError, match="two clusters"):
            Partition.from_clusters([[0, 1], [1, 2]], 3)

    def test_from_clusters_uncovered_rejected(self):
        with pytest.raises(PartitionError, match="not assigned"):
            Partition.from_clusters([[0, 1]], 3)

    def test_from_clusters_empty_cluster_rejected(self):
        with pytest.raises(PartitionError, match="empty"):
            Partition.from_clusters([[0, 1], []], 2)

    def test_from_clusters_out_of_range_rejected(self):
        with pytest.raises(PartitionError, match="outside"):
            Partition.from_clusters([[0, 5]], 2)

    @pytest.mark.parametrize(
        "clusters, n, message",
        [
            ([[0, 1], [], [2]], 3, "cluster 1 is empty"),
            ([[0, 1], [2, 9], [-1]], 3, r"cluster 1 references records outside \[0, 3\)"),
            ([[0], [1, -1], [2]], 3, r"cluster 1 references records outside \[0, 3\)"),
            ([[0], [1, 2], [2, 3], [1]], 4, r"record 2 assigned to two clusters \(1 and 2\)"),
            ([[0], [3, 1, 3], [2]], 4, "record 3 listed twice in cluster 1"),
            ([[0, 4], [1]], 5, r"2 record\(s\) not assigned to any cluster \(first: 2\)"),
            # Mixed defects: the lowest offending cluster wins, whatever
            # the kind, and within one cluster the first kind listed.
            ([[0, 1], [1], [7]], 3, r"record 1 assigned to two clusters \(0 and 1\)"),
            ([[0, 9], [], [0]], 3, r"cluster 0 references records outside \[0, 3\)"),
            ([[0], [1, 1], [], [5]], 6, "record 1 listed twice in cluster 1"),
            ([[0], [2, 0, 2, 9]], 3, r"cluster 1 references records outside \[0, 3\)"),
            ([[0], [2, 0, 2]], 3, r"record 0 assigned to two clusters \(0 and 1\)"),
            ([[1, 1], [0, 1]], 2, "record 1 listed twice in cluster 0"),
        ],
    )
    def test_from_clusters_names_the_first_offending_cluster(self, clusters, n, message):
        with pytest.raises(PartitionError, match=f"^{message}$"):
            Partition.from_clusters(clusters, n)
        arrays = [np.asarray(c, dtype=np.int64) for c in clusters]
        with pytest.raises(PartitionError, match=f"^{message}$"):
            Partition.from_clusters(arrays, n)

    def test_from_clusters_rejects_non_integer_members(self):
        # Truncating them would silently place records 0 and 1.
        with pytest.raises(PartitionError, match="cluster 0 holds the non-integer record 0.5"):
            Partition.from_clusters([[0.5, 1.7], [2, 3]], 4)
        with pytest.raises(PartitionError, match="cluster 1 holds the non-integer record nan"):
            Partition.from_clusters([np.array([0, 1]), np.array([2.0, np.nan])], 4)
        with pytest.raises(PartitionError, match="cluster 1 holds the non-integer record 0.5"):
            Partition.from_clusters([[1], [0, 0.5], [7]], 3)
        for clusters in ([["a", "b"]], [[0], ["1"]], [[[0, 1]]], [[0], [[1, 2]]]):
            with pytest.raises(PartitionError, match="flat sequences of integer record"):
                Partition.from_clusters(clusters, 2)

    def test_from_clusters_accepts_integral_floats_and_iterables(self):
        want = Partition([0, 1, 0, 1])
        assert Partition.from_clusters([[0.0, 2.0], np.array([1.0, 3.0])], 4) == want
        assert Partition.from_clusters([range(0, 4, 2), iter([3, 1])], 4) == want
        assert Partition.from_clusters((c for c in [[2, 0], [1, 3]]), 4) == want
        # Bools are taken as 0 and 1, as the per-cluster int64 cast took them.
        assert Partition.from_clusters([[True], np.array([False])], 2) == Partition([0, 1])

    def test_single_cluster(self):
        p = Partition.single_cluster(4)
        assert p.n_clusters == 1
        assert p.min_size == 4

    def test_single_cluster_validates(self):
        with pytest.raises(PartitionError, match="positive"):
            Partition.single_cluster(0)


class TestAccessors:
    @pytest.fixture
    def p(self):
        return Partition([0, 1, 0, 1, 0, 2])

    def test_sizes(self, p):
        np.testing.assert_array_equal(p.sizes(), [3, 2, 1])

    def test_min_max_mean(self, p):
        assert p.min_size == 1
        assert p.max_size == 3
        assert p.mean_size == 2.0

    def test_cluster_members(self, p):
        np.testing.assert_array_equal(p.cluster(0), [0, 2, 4])
        np.testing.assert_array_equal(p.cluster(2), [5])

    def test_cluster_out_of_range(self, p):
        with pytest.raises(PartitionError, match="out of range"):
            p.cluster(3)

    def test_clusters_iteration_covers_everything(self, p):
        seen = np.concatenate(list(p.clusters()))
        np.testing.assert_array_equal(np.sort(seen), np.arange(6))

    def test_labels_read_only(self, p):
        with pytest.raises(ValueError):
            p.labels[0] = 9


class TestInvariantsAndOps:
    def test_validate_min_size_passes(self):
        Partition([0, 0, 1, 1]).validate_min_size(2)

    def test_validate_min_size_fails(self):
        with pytest.raises(PartitionError, match="smaller than k=2"):
            Partition([0, 0, 1]).validate_min_size(2)

    def test_validate_min_size_bad_k(self):
        with pytest.raises(PartitionError, match="positive"):
            Partition([0]).validate_min_size(0)

    def test_merge(self):
        p = Partition([0, 1, 2, 1])
        merged = p.merge(0, 2)
        assert merged.n_clusters == 2
        assert merged.labels[0] == merged.labels[2]

    def test_merge_self_rejected(self):
        with pytest.raises(PartitionError, match="itself"):
            Partition([0, 1]).merge(0, 0)

    def test_merge_out_of_range(self):
        with pytest.raises(PartitionError, match="out of range"):
            Partition([0, 1]).merge(0, 5)

    def test_equality_is_grouping_not_numbering(self):
        assert Partition([0, 0, 1]) == Partition([7, 7, 3])
        assert Partition([0, 0, 1]) != Partition([0, 1, 1])

    def test_equality_non_partition(self):
        assert Partition([0]) != "zzz"

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 6), min_size=1, max_size=60)
    )
    def test_clusters_partition_the_records(self, labels):
        """Invariant: clusters are disjoint and cover all records."""
        p = Partition(labels)
        all_members = np.concatenate(list(p.clusters()))
        assert len(all_members) == p.n_records
        np.testing.assert_array_equal(np.sort(all_members), np.arange(p.n_records))
        assert p.sizes().sum() == p.n_records

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 4), min_size=2, max_size=40),
        seed=st.integers(0, 100),
    )
    def test_merge_reduces_cluster_count_by_one(self, labels, seed):
        p = Partition(labels)
        if p.n_clusters < 2:
            return
        rng = np.random.default_rng(seed)
        g1, g2 = rng.choice(p.n_clusters, size=2, replace=False)
        merged = p.merge(int(g1), int(g2))
        assert merged.n_clusters == p.n_clusters - 1
        assert merged.n_records == p.n_records
