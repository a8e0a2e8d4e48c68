"""Tests for the ordered / nominal / hierarchical EMD implementations.

The two hand-computed anchors come from the worked example in the original
t-closeness paper (Li et al., ICDE 2007): against a table whose salary
column holds the nine equally spaced values 3k..11k, the class
{3k, 4k, 5k} has EMD 0.375 and the class {3k, 5k, 11k} has EMD 0.167.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_salary_toy
from repro.distance import (
    ClusterEMDTracker,
    OrderedEMDFrame,
    OrderedEMDReference,
    Taxonomy,
    emd_hierarchical,
    emd_nominal,
    emd_ordered,
)

SALARIES = np.arange(3000.0, 12000.0, 1000.0)  # 3k..11k


class TestOrderedEMDHandChecked:
    def test_icde07_low_diversity_class(self):
        assert emd_ordered([3000, 4000, 5000], SALARIES) == pytest.approx(0.375)

    def test_icde07_spread_class(self):
        assert emd_ordered([3000, 5000, 11000], SALARIES) == pytest.approx(1 / 6)

    def test_salary_toy_matches_anchors(self):
        toy = load_salary_toy()
        ref = OrderedEMDReference(toy.values("salary"))
        assert ref.emd([3000, 4000, 5000]) == pytest.approx(0.375)
        assert ref.emd([3000, 5000, 11000]) == pytest.approx(1 / 6)

    def test_whole_dataset_has_zero_emd(self):
        assert emd_ordered(SALARIES, SALARIES) == pytest.approx(0.0, abs=1e-12)

    def test_single_extreme_value_near_one(self):
        # All mass at the bottom bin: EMD = mean rank distance = 0.5.
        assert emd_ordered([3000], SALARIES) == pytest.approx(0.5)

    def test_symmetric_classes_same_emd(self):
        low = emd_ordered([3000, 4000], SALARIES)
        high = emd_ordered([10000, 11000], SALARIES)
        assert low == pytest.approx(high)


class TestOrderedEMDReference:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            OrderedEMDReference(SALARIES, mode="euclid")

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="non-empty"):
            OrderedEMDReference([])

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            OrderedEMDReference(np.zeros((2, 2)))

    def test_bins_of_round_trip(self):
        ref = OrderedEMDReference(SALARIES)
        bins = ref.bins_of([5000.0, 3000.0, 11000.0])
        np.testing.assert_array_equal(ref.bin_values[bins], [5000.0, 3000.0, 11000.0])

    def test_bins_of_unknown_value(self):
        ref = OrderedEMDReference(SALARIES)
        with pytest.raises(ValueError, match="not present"):
            ref.bins_of([1234.5])

    def test_bins_of_requires_distinct_mode(self):
        ref = OrderedEMDReference(SALARIES, mode="rank")
        with pytest.raises(ValueError, match="distinct"):
            ref.bins_of([3000.0])

    def test_emd_of_bins_matches_emd(self):
        ref = OrderedEMDReference(SALARIES)
        values = [3000.0, 4000.0, 5000.0]
        assert ref.emd_of_bins(ref.bins_of(values)) == pytest.approx(ref.emd(values))

    def test_emd_of_histogram_shape_check(self):
        ref = OrderedEMDReference(SALARIES)
        with pytest.raises(ValueError, match="shape"):
            ref.emd_of_histogram(np.zeros(3))

    def test_histogram_unknown_value_rank_mode(self):
        ref = OrderedEMDReference(SALARIES, mode="rank")
        with pytest.raises(ValueError, match="not present"):
            ref.histogram([1.0])

    def test_single_bin_dataset_emd_zero(self):
        ref = OrderedEMDReference([7.0, 7.0, 7.0])
        assert ref.emd([7.0]) == 0.0

    def test_duplicated_dataset_distinct_mode(self):
        # Dataset {1,1,2}: q = (2/3, 1/3). Cluster {2}: p = (0, 1).
        # cumsum diff = (-2/3, 0) -> EMD = (2/3) / (m-1=1) = 2/3.
        assert emd_ordered([2.0], [1.0, 1.0, 2.0]) == pytest.approx(2 / 3)

    def test_rank_mode_spreads_ties(self):
        # Dataset {1,1,2}: three rank slots, value 1 owns slots 0-1.
        # Cluster {1}: p = (1/2, 1/2, 0); q = 1/3 each.
        # cumsums: 1/6, 1/3, 0 -> EMD = (1/6 + 1/3) / 2 = 1/4.
        assert emd_ordered([1.0], [1.0, 1.0, 2.0], mode="rank") == pytest.approx(0.25)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(
            st.integers(min_value=0, max_value=50), min_size=2, max_size=40
        ),
        seed=st.integers(0, 1000),
    )
    def test_rank_equals_distinct_without_ties(self, data, seed):
        dataset = np.unique(np.asarray(data, dtype=float))
        if len(dataset) < 2:
            dataset = np.array([0.0, 1.0])
        rng = np.random.default_rng(seed)
        cluster = rng.choice(dataset, size=rng.integers(1, len(dataset) + 1), replace=False)
        d = emd_ordered(cluster, dataset, mode="distinct")
        r = emd_ordered(cluster, dataset, mode="rank")
        assert d == pytest.approx(r, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        dataset=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=60,
        ),
        seed=st.integers(0, 1000),
    )
    def test_emd_bounded_in_unit_interval(self, dataset, seed):
        dataset = np.asarray(dataset)
        rng = np.random.default_rng(seed)
        cluster = rng.choice(dataset, size=rng.integers(1, len(dataset) + 1), replace=False)
        for mode in ("distinct", "rank"):
            value = emd_ordered(cluster, dataset, mode=mode)
            assert -1e-12 <= value <= 1.0 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        dataset=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    def test_emd_identity_property(self, dataset):
        """EMD of the whole dataset against itself is zero in both modes."""
        for mode in ("distinct", "rank"):
            assert emd_ordered(dataset, dataset, mode=mode) == pytest.approx(
                0.0, abs=1e-9
            )


def dense_numerator(frame, bins):
    """Definition-2 numerator S of a cluster: sum_i |n*cumC_i - c*cumN_i|."""
    cluster = np.cumsum(np.bincount(np.asarray(bins), minlength=frame.m))
    return int(np.abs(frame.n * cluster - len(bins) * frame.cum).sum())


class TestClusterEMDTracker:
    @pytest.fixture
    def frame(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=200)
        return OrderedEMDFrame(OrderedEMDReference(values).bins_of(values), 200)

    def test_requires_distinct_mode(self):
        # Rank mode has no per-record bins to build an integer frame from.
        ref = OrderedEMDReference(SALARIES, mode="rank")
        with pytest.raises(ValueError, match="distinct"):
            ClusterEMDTracker(OrderedEMDFrame(ref.bins_of(SALARIES), ref.m), [0])

    def test_rejects_empty_cluster(self, frame):
        with pytest.raises(ValueError, match="non-empty"):
            ClusterEMDTracker(frame, np.array([], dtype=int))

    def test_initial_emd_matches_direct(self, frame):
        bins = np.array([0, 10, 50, 120, 199])
        tracker = ClusterEMDTracker(frame, bins)
        assert tracker.numerator == dense_numerator(frame, bins)

    def test_swap_emds_match_full_recompute(self, frame):
        rng = np.random.default_rng(9)
        bins = rng.choice(200, size=8, replace=False)
        tracker = ClusterEMDTracker(frame, bins)
        add_bin = 137
        scored = tracker.swap_numerators(bins, add_bin)
        for j, removed in enumerate(bins):
            new_bins = bins.copy()
            new_bins[j] = add_bin
            assert scored[j] == dense_numerator(frame, new_bins)

    def test_emd_with_swap_matches_swap_emds(self, frame):
        # Scoring one removal alone equals its entry in the vectorized pass.
        bins = np.array([3, 77, 150])
        tracker = ClusterEMDTracker(frame, bins)
        scored = tracker.swap_numerators(bins, 42)
        for j, removed in enumerate(bins):
            assert tracker.swap_numerators([removed], 42)[0] == scored[j]

    def test_apply_swap_updates_state(self, frame):
        bins = np.array([3, 77, 150])
        tracker = ClusterEMDTracker(frame, bins)
        target = tracker.swap_numerators([77], 42)[0]
        tracker.apply_swap(77, 42)
        assert tracker.numerator == target
        assert tracker.numerator == dense_numerator(frame, [3, 42, 150])

    def test_noop_swap(self, frame):
        tracker = ClusterEMDTracker(frame, np.array([5, 6]))
        before = tracker.numerator
        assert tracker.swap_numerators([5], 5)[0] == before
        tracker.apply_swap(5, 5)
        assert tracker.numerator == before

    def test_swap_out_of_range(self, frame):
        tracker = ClusterEMDTracker(frame, np.array([5]))
        with pytest.raises(IndexError, match="out of range"):
            tracker.swap_numerators([5], 10_000)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_many_random_swaps_stay_consistent(self, seed):
        """Tracker numerator equals the from-scratch one after a swap walk."""
        rng = np.random.default_rng(seed)
        dataset = rng.normal(size=60)
        ref = OrderedEMDReference(dataset)
        frame = OrderedEMDFrame(ref.bins_of(dataset), ref.m)
        bins = rng.choice(60, size=5, replace=False)
        tracker = ClusterEMDTracker(frame, bins)
        for _ in range(15):
            j = rng.integers(0, 5)
            add = int(rng.integers(0, ref.m))
            tracker.apply_swap(int(bins[j]), add)
            bins[j] = add
        assert tracker.numerator == dense_numerator(frame, bins)
        assert tracker.numerator / (5 * 60 * frame.weight) == pytest.approx(
            ref.emd_of_bins(bins)
        )


class TestNominalEMD:
    def test_identical_distributions(self):
        assert emd_nominal([0, 1, 2], [0, 1, 2], 3) == 0.0

    def test_disjoint_distributions(self):
        assert emd_nominal([0, 0], [1, 1], 2) == pytest.approx(1.0)

    def test_half_overlap(self):
        # p = (1, 0), q = (0.5, 0.5) -> TV = 0.5
        assert emd_nominal([0, 0], [0, 1], 2) == pytest.approx(0.5)

    def test_validates_code_range(self):
        with pytest.raises(ValueError, match="outside"):
            emd_nominal([5], [0], 2)

    def test_validates_n_categories(self):
        with pytest.raises(ValueError, match="n_categories"):
            emd_nominal([0], [0], 0)

    def test_validates_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            emd_nominal([], [0], 2)

    @settings(max_examples=50, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        other=st.lists(st.integers(0, 4), min_size=1, max_size=30),
    )
    def test_bounded_and_symmetric(self, codes, other):
        forward = emd_nominal(codes, other, 5)
        backward = emd_nominal(other, codes, 5)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0


class TestHierarchicalEMD:
    @pytest.fixture
    def tree(self):
        return Taxonomy.from_nested(
            {
                "Any": {
                    "Respiratory": ["flu", "pneumonia", "bronchitis"],
                    "Gastric": ["gastritis", "gastric-ulcer", "stomach-cancer"],
                }
            }
        )

    def test_identical_distributions(self, tree):
        labels = ["flu", "gastritis", "pneumonia"]
        assert emd_hierarchical(labels, labels, tree) == pytest.approx(0.0)

    def test_within_subtree_cheaper_than_across(self, tree):
        dataset = ["flu", "pneumonia", "gastritis", "gastric-ulcer"]
        within = emd_hierarchical(["flu", "pneumonia"], dataset, tree)
        across = emd_hierarchical(["flu", "flu"], dataset, tree)
        assert within < across

    def test_all_mass_across_root(self, tree):
        # Cluster entirely respiratory vs dataset entirely gastric:
        # all mass crosses the root (height 2 / H 2 = 1) -> EMD 1.
        value = emd_hierarchical(
            ["flu", "pneumonia"], ["gastritis", "stomach-cancer"], tree
        )
        assert value == pytest.approx(1.0)

    def test_sibling_move_costs_half(self, tree):
        # {flu} vs {pneumonia}: mass 1 moves within "Respiratory"
        # (node height 1, H = 2) -> EMD = 0.5.
        assert emd_hierarchical(["flu"], ["pneumonia"], tree) == pytest.approx(0.5)

    def test_flat_taxonomy_equals_nominal(self):
        categories = ["a", "b", "c", "d"]
        flat = Taxonomy.flat(categories)
        rng = np.random.default_rng(3)
        cluster = rng.choice(categories, size=10).tolist()
        dataset = rng.choice(categories, size=40).tolist()
        nominal_value = emd_nominal(
            [categories.index(x) for x in cluster],
            [categories.index(x) for x in dataset],
            len(categories),
        )
        assert emd_hierarchical(cluster, dataset, flat) == pytest.approx(nominal_value)

    def test_unknown_label_rejected(self, tree):
        with pytest.raises(ValueError, match="not a leaf"):
            emd_hierarchical(["measles"], ["flu"], tree)

    def test_empty_rejected(self, tree):
        with pytest.raises(ValueError, match="non-empty"):
            emd_hierarchical([], ["flu"], tree)
