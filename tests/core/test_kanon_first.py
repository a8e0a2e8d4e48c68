"""Tests for Algorithm 2 (k-anonymity-first t-aware microaggregation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kanonymity_first, microaggregation_merge
from repro.core.kanon_first import _generate_cluster
from repro.core.confidential import ConfidentialModel
from repro.data import AttributeRole, Microdata, load_mcd, numeric
from repro.microagg import ClusteringEngine


def engine_over(X, remaining=None):
    """Engine whose live set is ``remaining`` (default: all records)."""
    engine = ClusteringEngine(X)
    if remaining is not None:
        dead = np.setdiff1d(np.arange(X.shape[0]), remaining)
        if dead.size:
            engine.kill(dead)
    return engine


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


class TestGenerateCluster:
    def test_returns_all_when_fewer_than_2k(self):
        data = random_dataset(30, 0)
        X = data.qi_matrix()
        model = ConfidentialModel(data)
        remaining = np.arange(7)
        members, swaps = _generate_cluster(
            engine_over(X, remaining), 0, model.swap_frame(4, 0.1)
        )
        np.testing.assert_array_equal(members, remaining)
        assert swaps == 0

    def test_cluster_has_exactly_k_records(self):
        data = random_dataset(40, 1)
        X = data.qi_matrix()
        model = ConfidentialModel(data)
        members, _ = _generate_cluster(engine_over(X), 0, model.swap_frame(5, 0.05))
        assert len(members) == 5
        assert len(np.unique(members)) == 5

    def test_no_swaps_when_t_loose(self):
        data = random_dataset(40, 2)
        X = data.qi_matrix()
        model = ConfidentialModel(data)
        members, swaps = _generate_cluster(engine_over(X), 0, model.swap_frame(5, 1.0))
        assert swaps == 0
        # Without swaps the cluster is exactly the seed's k nearest records.
        from repro.distance import k_nearest_indices

        expected = k_nearest_indices(X, X[0], 5)
        np.testing.assert_array_equal(np.sort(members), np.sort(expected))

    def test_swaps_reduce_emd(self):
        data = random_dataset(60, 3)
        X = data.qi_matrix()
        model = ConfidentialModel(data)
        strict_members, swaps = _generate_cluster(
            engine_over(X), 0, model.swap_frame(4, 0.01)
        )
        loose_members, _ = _generate_cluster(engine_over(X), 0, model.swap_frame(4, 1.0))
        assert swaps > 0
        assert model.cluster_emd(strict_members) <= model.cluster_emd(loose_members)


class TestAlgorithm2:
    def test_t_close_k_anonymous(self, mcd_small):
        result = kanonymity_first(mcd_small, k=3, t=0.15)
        assert result.satisfies_t
        result.partition.validate_min_size(3)

    def test_cluster_sizes_closer_to_k_than_algorithm1(self, mcd_small):
        """The paper's headline Table 1 vs Table 2 comparison."""
        a1 = microaggregation_merge(mcd_small, k=3, t=0.13)
        a2 = kanonymity_first(mcd_small, k=3, t=0.13)
        assert a2.mean_cluster_size <= a1.mean_cluster_size

    def test_without_merge_fallback_sizes_stay_k(self, mcd_small):
        result = kanonymity_first(mcd_small, k=4, t=0.13, merge_fallback=False)
        assert result.info["n_merges"] == 0
        # Clusters never grow beyond 2k-1 without merging.
        assert result.partition.max_size <= 2 * 4 - 1

    def test_merge_fallback_only_when_needed(self, mcd_small):
        result = kanonymity_first(mcd_small, k=3, t=0.25)
        raw = kanonymity_first(mcd_small, k=3, t=0.25, merge_fallback=False)
        if raw.satisfies_t:
            assert result.info["n_merges"] == 0

    def test_swaps_counted(self, mcd_small):
        strict = kanonymity_first(mcd_small, k=3, t=0.05)
        loose = kanonymity_first(mcd_small, k=3, t=0.5)
        assert strict.info["n_swaps"] > loose.info["n_swaps"]

    def test_rank_mode_rejected(self, mcd_small):
        with pytest.raises(ValueError, match="distinct"):
            kanonymity_first(mcd_small, k=3, t=0.1, emd_mode="rank")

    def test_validation(self, mcd_small):
        with pytest.raises(ValueError, match="k must be"):
            kanonymity_first(mcd_small, k=0, t=0.1)
        with pytest.raises(ValueError, match="t must be"):
            kanonymity_first(mcd_small, k=2, t=-1.0)

    def test_algorithm_label(self, mcd_small):
        result = kanonymity_first(mcd_small, k=2, t=0.3)
        assert result.algorithm == "kanon-first"

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(20, 70),
        k=st.integers(2, 5),
        t=st.floats(0.05, 0.4),
        seed=st.integers(0, 50),
    )
    def test_always_valid_property(self, n, k, t, seed):
        """Algorithm 2 (with fallback) yields t-close k-anonymous output."""
        data = random_dataset(n, seed)
        result = kanonymity_first(data, k=k, t=t)
        assert result.satisfies_t
        result.partition.validate_min_size(k)
        assert result.partition.sizes().sum() == n

    def test_nominal_confidential_supported(self):
        """Algorithm 2 works with a nominal confidential attribute."""
        from repro.data import nominal

        rng = np.random.default_rng(8)
        n = 60
        data = Microdata(
            {
                "q1": rng.normal(size=n),
                "disease": rng.integers(0, 3, size=n),
            },
            [
                numeric("q1", role=AttributeRole.QUASI_IDENTIFIER),
                nominal(
                    "disease", ("a", "b", "c"), role=AttributeRole.CONFIDENTIAL
                ),
            ],
        )
        result = kanonymity_first(data, k=3, t=0.25)
        assert result.satisfies_t
        result.partition.validate_min_size(3)
