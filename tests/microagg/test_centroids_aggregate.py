"""Tests for aggregation operators and anonymized-release construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import AttributeRole, Microdata, nominal, numeric, ordinal
from repro.microagg import (
    Partition,
    aggregate_partition,
    cluster_centroids,
    centroid_value,
    nominal_centroid,
    numeric_centroid,
    ordinal_centroid,
)


class TestCentroidOperators:
    def test_numeric_mean(self):
        assert numeric_centroid(np.array([1.0, 2.0, 6.0])) == pytest.approx(3.0)

    def test_numeric_empty(self):
        with pytest.raises(ValueError, match="empty"):
            numeric_centroid(np.array([]))

    def test_ordinal_lower_median(self):
        assert ordinal_centroid(np.array([0, 1, 2, 3])) == 1
        assert ordinal_centroid(np.array([0, 1, 2])) == 1
        assert ordinal_centroid(np.array([5])) == 5

    def test_ordinal_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ordinal_centroid(np.array([]))

    def test_nominal_mode(self):
        assert nominal_centroid(np.array([2, 2, 1]), 3) == 2

    def test_nominal_tie_breaks_low(self):
        assert nominal_centroid(np.array([1, 0]), 2) == 0

    def test_nominal_validation(self):
        with pytest.raises(ValueError, match="empty"):
            nominal_centroid(np.array([]), 2)
        with pytest.raises(ValueError, match="n_categories"):
            nominal_centroid(np.array([0]), 0)

    def test_dispatch(self):
        assert centroid_value(np.array([2.0, 4.0]), numeric("x")) == 3.0
        assert centroid_value(
            np.array([0, 2, 2]), ordinal("x", ("a", "b", "c"))
        ) == 2.0
        assert centroid_value(
            np.array([0, 1, 1]), nominal("x", ("a", "b"))
        ) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_minimizes_sse_property(self, values):
        """The mean beats any member value as an SSE representative."""
        arr = np.asarray(values)
        mean = numeric_centroid(arr)
        sse_mean = ((arr - mean) ** 2).sum()
        for candidate in arr:
            assert sse_mean <= ((arr - candidate) ** 2).sum() + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(codes=st.lists(st.integers(0, 9), min_size=1, max_size=50))
    def test_median_minimizes_l1_property(self, codes):
        arr = np.asarray(codes)
        med = ordinal_centroid(arr)
        cost = np.abs(arr - med).sum()
        for candidate in range(10):
            assert cost <= np.abs(arr - candidate).sum()

    @settings(max_examples=40, deadline=None)
    @given(codes=st.lists(st.integers(0, 5), min_size=1, max_size=50))
    def test_mode_minimizes_changes_property(self, codes):
        arr = np.asarray(codes)
        mode = nominal_centroid(arr, 6)
        changed = (arr != mode).sum()
        for candidate in range(6):
            assert changed <= (arr != candidate).sum()


@pytest.fixture
def dataset():
    schema = [
        numeric("a", role=AttributeRole.QUASI_IDENTIFIER),
        ordinal("o", ("x", "y", "z"), role=AttributeRole.QUASI_IDENTIFIER),
        nominal("c", ("p", "q"), role=AttributeRole.QUASI_IDENTIFIER),
        numeric("secret", role=AttributeRole.CONFIDENTIAL),
    ]
    return Microdata(
        {
            "a": np.array([0.0, 2.0, 10.0, 20.0]),
            "o": np.array([0, 2, 1, 1]),
            "c": np.array([0, 0, 1, 1]),
            "secret": np.array([5.0, 6.0, 7.0, 8.0]),
        },
        schema,
    )


class TestAggregatePartition:
    def test_quasi_identifiers_replaced_by_centroids(self, dataset):
        p = Partition([0, 0, 1, 1])
        out = aggregate_partition(dataset, p)
        np.testing.assert_allclose(out.values("a"), [1.0, 1.0, 15.0, 15.0])
        np.testing.assert_array_equal(out.values("o"), [0, 0, 1, 1])
        np.testing.assert_array_equal(out.values("c"), [0, 0, 1, 1])

    def test_confidential_untouched(self, dataset):
        out = aggregate_partition(dataset, Partition([0, 0, 1, 1]))
        np.testing.assert_array_equal(out.values("secret"), [5.0, 6.0, 7.0, 8.0])

    def test_column_constant_within_cluster(self, dataset):
        p = Partition([0, 1, 0, 1])
        out = aggregate_partition(dataset, p)
        for members in p.clusters():
            for name in dataset.quasi_identifiers:
                assert len(np.unique(out.values(name)[members])) == 1

    def test_mean_preserved_globally(self, dataset):
        """Aggregating with the mean preserves each numeric QI's global mean."""
        out = aggregate_partition(dataset, Partition([0, 0, 1, 1]))
        assert out.values("a").mean() == pytest.approx(dataset.values("a").mean())

    def test_explicit_names(self, dataset):
        out = aggregate_partition(dataset, Partition([0, 0, 1, 1]), names=["a"])
        np.testing.assert_array_equal(out.values("o"), dataset.values("o"))

    def test_partition_size_mismatch(self, dataset):
        with pytest.raises(ValueError, match="partition covers"):
            aggregate_partition(dataset, Partition([0, 0]))

    def test_no_columns(self, dataset):
        stripped = dataset.with_roles(confidential=["secret"])
        with pytest.raises(ValueError, match="no columns"):
            aggregate_partition(stripped, Partition([0, 0, 1, 1]))


class TestClusterCentroids:
    def test_values(self, dataset):
        p = Partition([0, 0, 1, 1])
        table = cluster_centroids(dataset, p)
        np.testing.assert_allclose(table[:, 0], [1.0, 15.0])  # mean of "a"
        np.testing.assert_array_equal(table[:, 1], [0, 1])  # ordinal medians
        np.testing.assert_array_equal(table[:, 2], [0, 1])  # nominal modes

    def test_shape(self, dataset):
        table = cluster_centroids(dataset, Partition([0, 1, 2, 3]), names=["a"])
        assert table.shape == (4, 1)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="partition covers"):
            cluster_centroids(dataset, Partition([0]))
        with pytest.raises(ValueError, match="no columns"):
            cluster_centroids(dataset, Partition([0, 0, 1, 1]), names=[])

    def test_equals_centroid_value_per_cluster_bitwise(self):
        # One cluster of every size 1..300 (plus a second of a few sizes,
        # so clusters of one size share a member matrix), shuffled over
        # the records; each representative must be exactly what
        # centroid_value computes on the cluster's own members.
        rng = np.random.default_rng(21)
        sizes = np.concatenate([np.arange(1, 301), [5, 5, 64, 129, 300]])
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        n = labels.size
        data = Microdata(
            {
                "a": 30_000.0 * np.exp(rng.standard_normal(n)),
                "o": rng.integers(0, 7, size=n),
                "c": rng.integers(0, 4, size=n),
            },
            [
                numeric("a", role=AttributeRole.QUASI_IDENTIFIER),
                ordinal("o", tuple("abcdefg"), role=AttributeRole.QUASI_IDENTIFIER),
                nominal("c", tuple("wxyz"), role=AttributeRole.QUASI_IDENTIFIER),
            ],
        )
        partition = Partition(labels)
        table = cluster_centroids(data, partition)
        for g, members in enumerate(partition.clusters()):
            for j, name in enumerate(("a", "o", "c")):
                want = centroid_value(data.values(name)[members], data.spec(name))
                assert table[g, j] == want, (g, name)
