"""Tests for the ConfidentialModel / ClusterTrackerSet abstraction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfidentialModel
from repro.core.confidential import check_exact_bound
from repro.distance import NominalEMDFrame
from repro.data import AttributeRole, Microdata, nominal, numeric, ordinal
from repro.microagg import Partition
from repro.distance import OrderedEMDReference, emd_nominal


@pytest.fixture
def numeric_data():
    rng = np.random.default_rng(11)
    return Microdata(
        {
            "qi": rng.normal(size=40),
            "secret": rng.permutation(np.arange(40.0)),
        },
        [
            numeric("qi", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("secret", role=AttributeRole.CONFIDENTIAL),
        ],
    )


@pytest.fixture
def mixed_conf_data():
    rng = np.random.default_rng(12)
    return Microdata(
        {
            "qi": rng.normal(size=30),
            "salary": rng.permutation(np.arange(30.0)),
            "disease": rng.integers(0, 4, size=30),
        },
        [
            numeric("qi", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("salary", role=AttributeRole.CONFIDENTIAL),
            nominal("disease", ("a", "b", "c", "d"), role=AttributeRole.CONFIDENTIAL),
        ],
    )


class TestConfidentialModel:
    def test_requires_confidential_attribute(self):
        md = Microdata({"x": [1.0, 2.0]}, [numeric("x")])
        with pytest.raises(ValueError, match="no confidential"):
            ConfidentialModel(md)

    def test_cluster_emd_matches_reference(self, numeric_data):
        model = ConfidentialModel(numeric_data)
        ref = OrderedEMDReference(numeric_data.values("secret"))
        members = np.array([0, 5, 9])
        expected = ref.emd(numeric_data.values("secret")[members])
        assert model.cluster_emd(members) == pytest.approx(expected)

    def test_cluster_emd_max_over_attributes(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        members = np.array([0, 1, 2])
        salary_ref = OrderedEMDReference(mixed_conf_data.values("salary"))
        salary_emd = salary_ref.emd(mixed_conf_data.values("salary")[members])
        disease_emd = emd_nominal(
            mixed_conf_data.values("disease")[members],
            mixed_conf_data.values("disease"),
            4,
        )
        assert model.cluster_emd(members) == pytest.approx(
            max(salary_emd, disease_emd)
        )

    def test_empty_cluster_rejected(self, numeric_data):
        model = ConfidentialModel(numeric_data)
        with pytest.raises(ValueError, match="non-empty"):
            model.cluster_emd(np.array([], dtype=int))

    def test_partition_emds(self, numeric_data):
        model = ConfidentialModel(numeric_data)
        clusters = [np.array([0, 1]), np.array([2, 3, 4])]
        emds = model.partition_emds(clusters)
        assert emds.shape == (2,)
        assert emds[0] == pytest.approx(model.cluster_emd(clusters[0]))

    def test_emd_ratio_is_the_exact_dense_emd(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        frame = model.swap_frame(2, 0.1)
        rng = np.random.default_rng(0)
        clusters = [rng.choice(30, size=c, replace=False) for c in (1, 2, 5, 13, 30)]
        for members in clusters:
            assert Fraction(*model.emd_ratio(members)) == dense_emd(frame, members)
        # Reported EMDs are those ratios, correctly rounded.
        assert model.partition_emds(clusters).tolist() == [
            float(dense_emd(frame, members)) for members in clusters
        ]

    def test_rank_mode_emd_ratio_is_the_float_emd(self, numeric_data):
        model = ConfidentialModel(numeric_data, emd_mode="rank")
        members = np.array([3, 17, 29])
        assert Fraction(*model.emd_ratio(members)) == Fraction(
            model.cluster_emd(members)
        )

    def test_rank_mode_evaluation(self, numeric_data):
        model = ConfidentialModel(numeric_data, emd_mode="rank")
        assert not model.supports_trackers
        # Tie-free data: rank EMD equals distinct EMD.
        distinct = ConfidentialModel(numeric_data)
        members = np.array([3, 17, 29])
        assert model.cluster_emd(members) == pytest.approx(
            distinct.cluster_emd(members)
        )

    def test_rank_mode_rejects_trackers(self, numeric_data):
        model = ConfidentialModel(numeric_data, emd_mode="rank")
        with pytest.raises(ValueError, match="distinct"):
            model.swap_frame(2, 0.1)

    def test_ordinal_confidential_supported(self):
        md = Microdata(
            {
                "qi": np.arange(6.0),
                "level": np.array([0, 0, 1, 1, 2, 2]),
            },
            [
                numeric("qi", role=AttributeRole.QUASI_IDENTIFIER),
                ordinal("level", ("lo", "mid", "hi"), role=AttributeRole.CONFIDENTIAL),
            ],
        )
        model = ConfidentialModel(md)
        # Cluster {lo, mid, hi} mirrors the table distribution exactly.
        assert model.cluster_emd(np.array([0, 2, 4])) == pytest.approx(0.0)
        # Cluster of only "lo" is maximally skewed.
        assert model.cluster_emd(np.array([0, 1])) > 0.3


def dense_emd(frame, members) -> Fraction:
    """Max-over-attributes Definition-2 EMD, densely and exactly."""
    worst, c = Fraction(0), len(members)
    for f in frame.frames:
        cluster = np.bincount(f.bins[members], minlength=f.m)
        if isinstance(f, NominalEMDFrame):
            s = np.abs(f.n * cluster - c * f.counts).sum()
        else:
            s = np.abs(f.n * np.cumsum(cluster) - c * f.cum).sum()
        worst = max(worst, Fraction(int(s), c * f.n * f.weight))
    return worst


def exact_emd(frame, tracker, c) -> Fraction:
    """The tracker set's score as the cluster EMD: score / (c*n*W)."""
    common = frame.scales[0] * frame.frames[0].weight
    return Fraction(tracker.score, c * frame.n * common)


class TestEmdRatios:
    """``emd_ratios`` is ``emd_ratio`` per cluster, in one pass."""

    @staticmethod
    def tables(rng):
        n = int(rng.integers(2, 90))
        qi = numeric("qi", role=AttributeRole.QUASI_IDENTIFIER)
        dup = rng.integers(0, max(2, n // 4), size=n).astype(float)  # shared bins
        disease = rng.integers(0, 3, size=n)
        yield "ordered", Microdata(
            {"qi": np.zeros(n), "x": dup},
            [qi, numeric("x", role=AttributeRole.CONFIDENTIAL)],
        )
        yield "nominal", Microdata(
            {"qi": np.zeros(n), "d": disease},
            [qi, nominal("d", ("a", "b", "c"), role=AttributeRole.CONFIDENTIAL)],
        )
        yield "two attributes", Microdata(
            {"qi": np.zeros(n), "x": dup, "d": disease},
            [
                qi,
                numeric("x", role=AttributeRole.CONFIDENTIAL),
                nominal("d", ("a", "b", "c"), role=AttributeRole.CONFIDENTIAL),
            ],
        )
        yield "one bin", Microdata(
            {"qi": np.zeros(n), "flat": np.full(n, 3.0), "x": dup},
            [
                qi,
                numeric("flat", role=AttributeRole.CONFIDENTIAL),
                numeric("x", role=AttributeRole.CONFIDENTIAL),
            ],
        )

    @staticmethod
    def clusters(rng, n):
        """Singletons, small clusters and a few large merged ones."""
        labels = rng.integers(0, max(1, n // 3), size=n)
        labels[rng.random(n) < 0.2] = rng.integers(0, 3)  # merged: large
        singles = rng.random(n) < 0.15
        labels[singles] = n + np.arange(singles.sum())  # singletons
        return list(Partition(labels).clusters())

    def test_equals_emd_ratio_per_cluster(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            for kind, data in self.tables(rng):
                model = ConfidentialModel(data)
                clusters = self.clusters(rng, data.n_records)
                want = [model.emd_ratio(members) for members in clusters]
                assert model.emd_ratios(clusters) == want, kind

    def test_partition_emds_round_the_same_ratios(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        clusters = np.array_split(np.random.default_rng(3).permutation(30), 7)
        np.testing.assert_array_equal(
            model.partition_emds(clusters),
            [num / den for num, den in map(model.emd_ratio, clusters)],
        )

    def test_rank_mode_and_validation(self, numeric_data):
        model = ConfidentialModel(numeric_data, emd_mode="rank")
        clusters = np.array_split(np.arange(40), 6)
        assert model.emd_ratios(clusters) == list(map(model.emd_ratio, clusters))
        assert model.emd_ratios([]) == []
        with pytest.raises(ValueError, match="non-empty"):
            model.emd_ratios([np.arange(3), np.arange(0)])


class TestMergedClusterRatios:
    """The merge loop scores every merged cluster with :meth:`emd_ratio`,
    whose ordered numerator is one segment evaluation over the merged
    cluster's sorted bins (no ``np.unique``)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_merge_sequences(self, seed):
        # Duplicate-heavy ordered bins, a nominal attribute, two attributes
        # and a one-bin frame; along a random merge sequence every merged
        # cluster's ratio equals the one-pass emd_ratios (np.unique
        # segments) and the dense Definition-2 Fraction.
        rng = np.random.default_rng(seed)
        for kind, data in TestEmdRatios.tables(rng):
            model = ConfidentialModel(data)
            frame = model.swap_frame(1, 1.0)
            clusters = TestEmdRatios.clusters(rng, data.n_records)
            live = list(range(len(clusters)))
            while len(live) > 1:
                a, b = (int(g) for g in rng.choice(live, 2, replace=False))
                clusters[a] = np.concatenate([clusters[a], clusters[b]])
                live.remove(b)
                num, den = model.emd_ratio(clusters[a])
                assert (num, den) == model.emd_ratios([clusters[a]])[0], kind
                assert Fraction(num, den) == dense_emd(frame, clusters[a]), kind


class TestClusterTrackerSet:
    def test_tracker_emd_matches_model(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        members = np.array([0, 7, 14])
        frame = model.swap_frame(3, 0.1)
        tracker = frame.tracker(members)
        assert exact_emd(frame, tracker, 3) == dense_emd(frame, members)
        assert float(exact_emd(frame, tracker, 3)) == pytest.approx(
            model.cluster_emd(members)
        )

    def test_swap_emds_match_full_recompute(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        members = np.array([0, 7, 14, 21])
        frame = model.swap_frame(4, 0.1)
        tracker = frame.tracker(members)
        candidate = 3
        scores = tracker.swap_scores(members, candidate)
        unit = exact_emd(frame, tracker, 4) / tracker.score
        for j in range(len(members)):
            swapped = members.copy()
            swapped[j] = candidate
            assert scores[j] * unit == dense_emd(frame, swapped)

    def test_apply_swap_consistency(self, mixed_conf_data):
        model = ConfidentialModel(mixed_conf_data)
        members = np.array([2, 9, 16])
        frame = model.swap_frame(3, 0.1)
        tracker = frame.tracker(members)
        tracker.apply_swap(9, 25)
        members[1] = 25
        assert exact_emd(frame, tracker, 3) == dense_emd(frame, members)

    def test_empty_cluster_rejected(self, numeric_data):
        frame = ConfidentialModel(numeric_data).swap_frame(2, 0.1)
        with pytest.raises(ValueError, match="non-empty"):
            frame.tracker(np.array([], dtype=int))

    def test_random_walk_consistency(self, mixed_conf_data):
        rng = np.random.default_rng(13)
        model = ConfidentialModel(mixed_conf_data)
        members = np.array([0, 5, 10, 15])
        frame = model.swap_frame(4, 0.1)
        tracker = frame.tracker(members)
        for _ in range(25):
            j = int(rng.integers(len(members)))
            candidate = int(rng.integers(mixed_conf_data.n_records))
            tracker.apply_swap(int(members[j]), candidate)
            members[j] = candidate
            emd = exact_emd(frame, tracker, 4)
            assert emd == dense_emd(frame, members)
            assert tracker.overshoots() == (emd > Fraction(0.1))


class TestSwapFrame:
    def test_threshold_is_exact_at_t(self, numeric_data):
        """A cluster whose EMD is exactly t (as rationals) stays within t;
        Fraction(t) of the float t decides, with no tolerance."""
        model = ConfidentialModel(numeric_data)
        members = np.array([0, 1])
        frame = model.swap_frame(2, 0.5)
        exact = exact_emd(frame, frame.tracker(members), 2)
        assert not model.swap_frame(2, exact).tracker(members).overshoots()
        below = np.nextafter(float(exact), 0.0)
        if Fraction(below) < exact:
            assert model.swap_frame(2, below).tracker(members).overshoots()

    def test_bound_edge(self):
        # 2**63 - 1 = 7**2 * 73 * 127 * 337 * 92737 * 649657
        check_exact_bound(49, 73 * 127 * 337, 92737 * 649657)
        with pytest.raises(ValueError, match=r"2\*\*63"):
            check_exact_bound(2, 2**31, 2**31)
