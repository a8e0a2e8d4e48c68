"""Tests for the high-level anonymize() API and result object."""

import numpy as np
import pytest

from repro import (
    METHODS,
    Anonymizer,
    KAnonymity,
    TCloseness,
    TClosenessResult,
    anonymize,
)
from repro.core import ConfidentialModel
from repro.data import AttributeRole, Microdata, load_mcd, numeric
from repro.microagg import Partition


@pytest.fixture(scope="module")
def mcd_small():
    return load_mcd(n=200)


class TestAnonymizeFunction:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_all_methods_produce_t_close_release(self, mcd_small, method):
        release, result = anonymize(mcd_small, k=3, t=0.2, method=method)
        assert result.satisfies_t
        result.partition.validate_min_size(3)
        assert release.n_records == mcd_small.n_records

    def test_release_qis_constant_within_clusters(self, mcd_small):
        release, result = anonymize(mcd_small, k=4, t=0.2)
        for members in result.partition.clusters():
            for name in mcd_small.quasi_identifiers:
                assert len(np.unique(release.values(name)[members])) == 1

    def test_release_confidential_untouched(self, mcd_small):
        release, _ = anonymize(mcd_small, k=4, t=0.2)
        np.testing.assert_array_equal(
            release.values("FEDTAX"), mcd_small.values("FEDTAX")
        )

    def test_identifiers_dropped_from_release(self):
        rng = np.random.default_rng(0)
        data = Microdata(
            {
                "ssn": np.arange(40.0),
                "q": rng.normal(size=40),
                "s": rng.permutation(np.arange(40.0)),
            },
            [
                numeric("ssn", role=AttributeRole.IDENTIFIER),
                numeric("q", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("s", role=AttributeRole.CONFIDENTIAL),
            ],
        )
        release, _ = anonymize(data, k=2, t=0.3)
        assert "ssn" not in release.attribute_names

    def test_unknown_method(self, mcd_small):
        with pytest.raises(ValueError, match="unknown method"):
            anonymize(mcd_small, k=2, t=0.2, method="magic")

    def test_method_kwargs_forwarded(self, mcd_small):
        _, result = anonymize(
            mcd_small, k=3, t=0.3, method="kanon-first", merge_fallback=False
        )
        assert result.info["merge_fallback"] is False


class TestAnonymizerClass:
    def test_anonymize_and_result(self, mcd_small):
        anonymizer = Anonymizer(KAnonymity(5) & TCloseness(0.15))
        release = anonymizer.fit_transform(mcd_small)
        assert release.n_records == mcd_small.n_records
        assert anonymizer.result_ is not None
        assert anonymizer.result_.satisfies_t

    def test_unknown_method_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown method"):
            Anonymizer(KAnonymity(2) & TCloseness(0.1), method="nope")

    def test_result_none_before_run(self):
        assert Anonymizer(KAnonymity(2) & TCloseness(0.1)).result_ is None


class TestResultObject:
    def test_emd_count_must_match_clusters(self):
        with pytest.raises(ValueError, match="EMD values"):
            TClosenessResult(
                algorithm="merge",
                k=2,
                t=0.1,
                partition=Partition([0, 0, 1, 1]),
                cluster_emds=np.array([0.1]),
            )

    def test_properties(self):
        result = TClosenessResult(
            algorithm="merge",
            k=2,
            t=0.2,
            partition=Partition([0, 0, 1, 1, 1]),
            cluster_emds=np.array([0.05, 0.15]),
        )
        assert result.max_emd == pytest.approx(0.15)
        assert result.satisfies_t
        assert result.min_cluster_size == 2
        assert result.mean_cluster_size == 2.5

    def test_summary_flags_violation(self):
        result = TClosenessResult(
            algorithm="merge",
            k=2,
            t=0.1,
            partition=Partition([0, 0, 1, 1]),
            cluster_emds=np.array([0.05, 0.35]),
        )
        assert not result.satisfies_t
        assert "NOT t-close" in result.summary()


class TestCrossAlgorithmShape:
    def test_paper_ordering_alg3_beats_alg1_on_cluster_size(self, mcd_small):
        """Average cluster size: Algorithm 3 <= Algorithm 2 <= Algorithm 1.

        This is the consistent ordering in Tables 1-3 of the paper for
        moderate t; cluster size is the primary driver of information loss.
        """
        t = 0.10
        _, a1 = anonymize(mcd_small, k=3, t=t, method="merge")
        _, a2 = anonymize(mcd_small, k=3, t=t, method="kanon-first")
        _, a3 = anonymize(mcd_small, k=3, t=t, method="tclose-first")
        assert a3.mean_cluster_size <= a2.mean_cluster_size <= a1.mean_cluster_size

    def test_all_results_verifiable_externally(self, mcd_small):
        """Each algorithm's reported EMDs match an independent recompute."""
        model = ConfidentialModel(mcd_small)
        for method in sorted(METHODS):
            _, result = anonymize(mcd_small, k=3, t=0.15, method=method)
            recomputed = model.partition_emds(list(result.partition.clusters()))
            np.testing.assert_allclose(
                result.cluster_emds, recomputed, atol=1e-12, err_msg=method
            )
