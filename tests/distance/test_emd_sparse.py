"""Differential tests: the exact integer EMD paths vs the dense definition.

``OrderedEMDFrame.numerator`` is the O(c log m) segment evaluation of a
cluster's EMD numerator S (EMD = S / (c*n*w)) that every algorithm decides
on, and Algorithm 2's trackers (``ClusterEMDTracker``,
``NominalClusterTracker``) score and commit swaps on the same numerators;
every value must equal the *dense* Definition-2 numerator (explicit
histogram, cumulative sum, absolute sum) exactly.  Both are exercised on
any cluster, any swap, and adversarial shapes: clusters spanning empty
bins, single-bin clusters, all-duplicate datasets, a one-bin reference
(m=1), and — exhaustively — every multiset cluster and every
(remove, add) pair over small bin grids.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfidentialModel
from repro.data import AttributeRole, Microdata, numeric
from repro.distance.emd import (
    ClusterEMDTracker,
    NominalClusterTracker,
    NominalEMDFrame,
    NominalEMDReference,
    OrderedEMDFrame,
    OrderedEMDReference,
)

#: The dense float EMD sums the numerator's terms in float; agreement with
#: S / (c*n*w) is asserted to well below any float decision margin.
ATOL = 1e-12


def ordered_frame(values):
    """Distinct-mode reference and integer frame of one dataset column."""
    ref = OrderedEMDReference(values, mode="distinct")
    return ref, OrderedEMDFrame(ref.bins_of(values), ref.m)


def dense_numerator(frame, bins):
    """The Definition-2 numerator S of a cluster, densely over every bin."""
    c = len(bins)
    cluster = np.bincount(np.asarray(bins), minlength=frame.m)
    if isinstance(frame, NominalEMDFrame):
        return int(np.abs(frame.n * cluster - c * frame.counts).sum())
    gap = frame.n * np.cumsum(cluster) - c * frame.cum
    return int(np.abs(gap).sum())


def dense_swap_numerator(frame, bins, j, add_bin):
    """Dense S of ``bins`` with member ``j`` replaced by ``add_bin``."""
    swapped = np.asarray(bins).copy()
    swapped[j] = add_bin
    return dense_numerator(frame, swapped)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 120),
    c=st.integers(1, 15),
    tied=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_sparse_matches_dense(n, c, tied, seed):
    rng = np.random.default_rng(seed)
    if tied:
        values = rng.integers(0, max(2, n // 3), size=n).astype(float)
    else:
        values = rng.permutation(np.arange(float(n)))
    ref, frame = ordered_frame(values)
    bins = ref.bins_of(rng.choice(values, size=min(c, n), replace=False))
    assert frame.numerator(bins) == dense_numerator(frame, bins)
    assert frame.numerator(bins) / (len(bins) * n * frame.weight) == pytest.approx(
        ref.emd_of_bins(bins), abs=ATOL
    )


def test_sparse_requires_distinct_mode():
    """Rank mode has no per-record bins, so a rank-mode model has no
    integer frames to refine swaps on."""
    data = Microdata(
        {"qi": np.arange(5.0), "secret": np.arange(5.0)},
        [
            numeric("qi", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("secret", role=AttributeRole.CONFIDENTIAL),
        ],
    )
    with pytest.raises(ValueError, match="distinct"):
        ConfidentialModel(data, emd_mode="rank").swap_frame(2, 0.1)


def test_sparse_full_table_is_zero():
    _, frame = ordered_frame(np.arange(9.0))
    assert frame.numerator(frame.bins) == dense_numerator(frame, frame.bins) == 0


def test_sparse_single_bin_dataset():
    _, frame = ordered_frame(np.full(4, 2.5))
    bins = np.array([0, 0])
    assert frame.numerator(bins) == dense_numerator(frame, bins) == 0


class TestSparseAdversarial:
    """Hand-picked shapes where segment bookkeeping is easiest to get wrong."""

    def test_cluster_spanning_empty_bins(self):
        # Dataset mass concentrated at the ends; the cluster sits on bins
        # 0 and m-1 with a long run of interior bins it never touches —
        # one giant segment whose crossing point lies strictly inside.
        values = np.concatenate([np.zeros(5), np.arange(1.0, 9.0), np.full(5, 9.0)])
        ref, frame = ordered_frame(values)
        bins = np.array([0, ref.m - 1])
        assert frame.numerator(bins) == dense_numerator(frame, bins)

    def test_single_bin_cluster_each_position(self):
        ref, frame = ordered_frame(np.arange(7.0))
        for b in range(ref.m):
            bins = np.array([b])
            assert frame.numerator(bins) == dense_numerator(frame, bins)

    def test_all_duplicates_cluster(self):
        _, frame = ordered_frame(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 4.0]))
        bins = np.zeros(6, dtype=int)  # six copies of the first bin
        assert frame.numerator(bins) == dense_numerator(frame, bins)

    def test_m_equals_one(self):
        # Degenerate reference: every dataset value identical, one bin,
        # denom clamped to 1; every cluster has EMD exactly 0.
        ref, frame = ordered_frame(np.full(6, 42.0))
        assert frame.weight == 1
        for c in (1, 2, 5):
            bins = np.zeros(c, dtype=int)
            assert ref.emd_of_bins(bins) == 0.0
            assert frame.numerator(bins) == 0
            tracker = ClusterEMDTracker(frame, bins)
            assert tracker.numerator == 0
            assert (tracker.swap_numerators(bins, 0) == 0).all()

    def test_cluster_size_larger_than_bins(self):
        _, frame = ordered_frame(np.array([0.0, 0.0, 1.0, 1.0, 2.0]))
        bins = np.array([0, 0, 1, 1, 2, 2, 2])
        assert frame.numerator(bins) == dense_numerator(frame, bins)


class TestTrackerDifferential:
    """The incremental swap numerators vs the dense definitional numerator."""

    @settings(max_examples=60)
    @given(
        n=st.integers(2, 80),
        c=st.integers(1, 10),
        tied=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_swap_emds_match_dense_definition(self, n, c, tied, seed):
        rng = np.random.default_rng(seed)
        if tied:
            values = rng.integers(0, max(2, n // 3), size=n).astype(float)
        else:
            values = rng.permutation(np.arange(float(n)))
        ref, frame = ordered_frame(values)
        bins = rng.integers(0, ref.m, size=c)
        tracker = ClusterEMDTracker(frame, bins)
        assert tracker.numerator == dense_numerator(frame, bins)
        add_bin = int(rng.integers(0, ref.m))
        scores = tracker.swap_numerators(bins, add_bin)
        for j in range(c):
            assert scores[j] == dense_swap_numerator(frame, bins, j, add_bin)
        # The numerator is the dense float EMD over c*n*w.
        assert tracker.numerator / (c * n * frame.weight) == pytest.approx(
            ref.emd_of_bins(bins), abs=ATOL
        )

    @settings(max_examples=40)
    @given(n=st.integers(2, 60), c=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_random_swap_walk_stays_on_dense_definition(self, n, c, seed):
        """After any sequence of applied swaps, the committed numerator is
        the dense definition's numerator of the current cluster."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, max(2, n // 2), size=n).astype(float)
        ref, frame = ordered_frame(values)
        bins = rng.integers(0, ref.m, size=c)
        tracker = ClusterEMDTracker(frame, bins)
        for _ in range(12):
            j = int(rng.integers(c))
            add = int(rng.integers(ref.m))
            scored = tracker.swap_numerators(bins[j : j + 1], add)[0]
            tracker.apply_swap(int(bins[j]), add)
            bins[j] = add
            assert tracker.numerator == scored == dense_numerator(frame, bins)

    def test_exhaustive_small_m(self):
        """Every multiset cluster x every (remove, add) pair, m in 1..4.

        Small grids are where segment edge cases concentrate (leading
        segment empty, add_bin below/above every member, total mass on
        the last bin); enumeration leaves no corner unvisited.
        """
        for m in range(1, 5):
            # A dataset with m distinct values, mildly non-uniform.
            values = np.repeat(np.arange(float(m)), np.arange(1, m + 1))
            ref, frame = ordered_frame(values)
            assert ref.m == m
            for c in range(1, 4):
                for bins in itertools.combinations_with_replacement(range(m), c):
                    bins = np.array(bins)
                    tracker = ClusterEMDTracker(frame, bins)
                    assert tracker.numerator == dense_numerator(frame, bins)
                    for j, add in itertools.product(range(c), range(m)):
                        expected = dense_swap_numerator(frame, bins, j, add)
                        assert tracker.swap_numerators(bins, add)[j] == expected
                        assert (
                            tracker.swap_numerators(bins[j : j + 1], add)[0]
                            == expected
                        )


class TestSwapContract:
    """Regression tests for the unified swap-contract of both trackers.

    The two scorers historically drifted: the ordered docstring documented
    per-member semantics the nominal one lacked, the nominal scorer
    silently accepted out-of-range (even negative) bins via wrap-around
    indexing, and neither stated what committing an impossible removal
    does.  Both now share one contract: replace-at-constant-size
    semantics, ``remove_bin == add_bin`` scores exactly the current
    numerator, out-of-range bins raise ``IndexError`` everywhere, and
    committing a removal from an empty bin raises ``ValueError``.
    """

    @pytest.fixture
    def ordered(self):
        rng = np.random.default_rng(3)
        _, frame = ordered_frame(rng.integers(0, 12, size=40).astype(float))
        bins = np.array([0, 2, 2, 5, 8])
        return ClusterEMDTracker(frame, bins), bins

    @pytest.fixture
    def nominal(self):
        codes = np.array([0, 0, 1, 2, 2, 2, 3, 4] * 3)
        frame = NominalEMDFrame(NominalEMDReference(codes, 5).bins_of(codes), 5)
        bins = np.array([0, 2, 2, 3])
        return NominalClusterTracker(frame, bins), bins

    @pytest.mark.parametrize("which", ["ordered", "nominal"])
    def test_noop_swap_scores_current_emd_exactly(self, which, request):
        tracker, bins = request.getfixturevalue(which)
        base = tracker.numerator
        scores = tracker.swap_numerators(bins, int(bins[1]))
        noop = bins == bins[1]
        assert (scores[noop] == base).all()
        tracker.apply_swap(int(bins[1]), int(bins[1]))
        assert tracker.numerator == base

    @pytest.mark.parametrize("which", ["ordered", "nominal"])
    def test_out_of_range_bins_raise_everywhere(self, which, request):
        tracker, bins = request.getfixturevalue(which)
        m = tracker.frame.m
        for bad in (-1, m, m + 7):
            with pytest.raises(IndexError, match="out of range"):
                tracker.swap_numerators(np.array([bad]), 0)
            with pytest.raises(IndexError, match="out of range"):
                tracker.swap_numerators(bins, bad)
            with pytest.raises(IndexError, match="out of range"):
                tracker.apply_swap(bad, 0)
            with pytest.raises(IndexError, match="out of range"):
                tracker.apply_swap(0, bad)

    @pytest.mark.parametrize("which", ["ordered", "nominal"])
    def test_removing_a_non_member_raises(self, which, request):
        tracker, bins = request.getfixturevalue(which)
        absent = next(
            b for b in range(tracker.frame.m) if b not in set(bins.tolist())
        )
        with pytest.raises(ValueError, match="not a member"):
            tracker.apply_swap(absent, int(bins[0]))

    @pytest.mark.parametrize("which", ["ordered", "nominal"])
    def test_replace_semantics_constant_size(self, which, request):
        """Swaps are simultaneous remove+add at constant cluster size: the
        scored value equals the from-scratch numerator of the swapped
        multiset, never of a (c-1)-sized intermediate."""
        tracker, bins = request.getfixturevalue(which)
        add = int(bins[0])  # present elsewhere too: exercises multiplicity
        scores = tracker.swap_numerators(bins, add)
        for j in range(len(bins)):
            assert scores[j] == dense_swap_numerator(tracker.frame, bins, j, add)

    def test_ordered_apply_commits_the_scored_value(self, ordered):
        tracker, bins = ordered
        add = (int(bins[-1]) + 1) % tracker.frame.m
        scores = tracker.swap_numerators(bins, add)
        tracker.apply_swap(int(bins[2]), add)
        assert tracker.numerator == scores[2]

    def test_nominal_apply_consistent_with_scoring(self, nominal):
        tracker, bins = nominal
        add = (int(bins[-1]) + 1) % tracker.frame.m
        scores = tracker.swap_numerators(bins, add)
        tracker.apply_swap(int(bins[2]), add)
        assert tracker.numerator == scores[2]
