"""Tests for Algorithm 1 (microaggregation + merging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfidentialModel, merge_to_t_closeness, microaggregation_merge
from repro.core.merge import _centroid_matrix
from repro.data import AttributeRole, Microdata, load_mcd, numeric
from repro.microagg import Partition, mdav, vmdav


@pytest.fixture(scope="module")
def mcd_small():
    return load_mcd(n=240)


def random_dataset(n, seed):
    rng = np.random.default_rng(seed)
    return Microdata(
        {
            "q1": rng.normal(size=n),
            "q2": rng.normal(size=n),
            "secret": rng.permutation(np.arange(float(n))),
        },
        [
            numeric("q1", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("q2", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("secret", role=AttributeRole.CONFIDENTIAL),
        ],
    )


class TestAlgorithm1:
    def test_result_is_t_close_and_k_anonymous(self, mcd_small):
        result = microaggregation_merge(mcd_small, k=3, t=0.15)
        assert result.satisfies_t
        result.partition.validate_min_size(3)

    def test_loose_t_means_no_merging(self, mcd_small):
        result = microaggregation_merge(mcd_small, k=5, t=1.0)
        assert result.info["n_merges"] == 0
        assert result.partition.n_clusters == result.info["initial_clusters"]

    def test_strict_t_collapses_to_single_cluster(self):
        data = random_dataset(60, 0)
        result = microaggregation_merge(data, k=2, t=0.0001)
        assert result.partition.n_clusters == 1
        assert result.max_emd == pytest.approx(0.0, abs=1e-9)

    def test_stricter_t_gives_larger_clusters(self, mcd_small):
        loose = microaggregation_merge(mcd_small, k=3, t=0.25)
        strict = microaggregation_merge(mcd_small, k=3, t=0.05)
        assert strict.mean_cluster_size >= loose.mean_cluster_size

    def test_emds_consistent_with_model(self, mcd_small):
        result = microaggregation_merge(mcd_small, k=4, t=0.12)
        model = ConfidentialModel(mcd_small)
        recomputed = model.partition_emds(list(result.partition.clusters()))
        np.testing.assert_allclose(result.cluster_emds, recomputed, atol=1e-12)

    def test_custom_partitioner(self, mcd_small):
        result = microaggregation_merge(
            mcd_small, k=3, t=0.2, partitioner=lambda X, k: vmdav(X, k, gamma=0.5)
        )
        assert result.satisfies_t
        result.partition.validate_min_size(3)

    def test_rank_mode(self, mcd_small):
        result = microaggregation_merge(mcd_small, k=3, t=0.2, emd_mode="rank")
        assert result.satisfies_t
        assert result.info["emd_mode"] == "rank"

    def test_algorithm_label(self, mcd_small):
        result = microaggregation_merge(mcd_small, k=2, t=0.3)
        assert result.algorithm == "merge"
        assert "merge" in result.summary()

    def test_validation(self, mcd_small):
        with pytest.raises(ValueError, match="k must be"):
            microaggregation_merge(mcd_small, k=0, t=0.1)
        with pytest.raises(ValueError, match="k must be"):
            microaggregation_merge(mcd_small, k=10_000, t=0.1)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(20, 80),
        k=st.integers(2, 6),
        t=st.floats(0.02, 0.4),
        seed=st.integers(0, 100),
    )
    def test_always_t_close_property(self, n, k, t, seed):
        """Algorithm 1 terminates with a t-close k-anonymous partition."""
        data = random_dataset(n, seed)
        result = microaggregation_merge(data, k=k, t=t)
        assert result.satisfies_t
        result.partition.validate_min_size(k)
        assert result.partition.sizes().sum() == n


class TestMergePhaseAlone:
    def test_merges_worst_cluster_first(self):
        data = random_dataset(40, 3)
        partition = mdav(data.qi_matrix(), 4)
        model = ConfidentialModel(data)
        before = model.partition_emds(list(partition.clusters()))
        target_t = float(np.sort(before)[-2])  # only the worst violates
        merged, emds, n_merges = merge_to_t_closeness(data, partition, target_t)
        assert n_merges >= 1
        assert emds.max() <= target_t + 1e-12

    def test_no_merge_needed(self):
        data = random_dataset(30, 4)
        partition = mdav(data.qi_matrix(), 3)
        merged, emds, n_merges = merge_to_t_closeness(data, partition, 1.0)
        assert n_merges == 0
        assert merged == partition

    def test_negative_t_rejected(self):
        data = random_dataset(10, 5)
        with pytest.raises(ValueError, match="t must be"):
            merge_to_t_closeness(data, Partition.single_cluster(10), -0.5)

    @pytest.mark.parametrize("n_records", [8, 12])
    def test_partition_of_another_table_rejected(self, n_records):
        # The compiled step reads the frames by record id, so a partition
        # that does not cover exactly the model's records is refused
        # before any pointer is passed.
        data = random_dataset(10, 5)
        with pytest.raises(ValueError, match="covers"):
            merge_to_t_closeness(data, Partition.single_cluster(n_records), 0.1)

    def test_single_cluster_input_is_fixed_point(self):
        data = random_dataset(12, 6)
        partition = Partition.single_cluster(12)
        merged, emds, n_merges = merge_to_t_closeness(data, partition, 0.0)
        assert merged.n_clusters == 1
        assert n_merges == 0
        assert emds[0] == pytest.approx(0.0, abs=1e-12)

    def test_merge_count_bounded_by_initial_clusters(self):
        data = random_dataset(60, 7)
        partition = mdav(data.qi_matrix(), 2)
        _, _, n_merges = merge_to_t_closeness(data, partition, 0.05)
        assert n_merges <= partition.n_clusters - 1


class TestPartnerCentroids:
    @pytest.mark.parametrize("d", [1, 3])
    def test_grouped_means_are_the_per_cluster_means_bitwise(self, d):
        # One cluster of every size 1..300 plus repeats of a few sizes,
        # shuffled over the records: the size-grouped centroid matrix the
        # partner engine starts from must be each cluster's own
        # qi_matrix[members].mean(axis=0), bit for bit.
        rng = np.random.default_rng(22)
        sizes = np.concatenate([np.arange(1, 301), [5, 5, 64, 129, 300]])
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        X = 30_000.0 * np.exp(rng.standard_normal((labels.size, d)))
        X[::7] = np.round(X[::7])
        partition = Partition(labels)
        got = _centroid_matrix(X, partition)
        assert got.shape == (len(sizes), d)
        for g, members in enumerate(partition.clusters()):
            assert got[g].tobytes() == X[members].mean(axis=0).tobytes(), g
