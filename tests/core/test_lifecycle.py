"""Tests for the fit/transform lifecycle, model serialization and repair."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Anonymizer,
    DistinctLDiversity,
    KAnonymity,
    PSensitivity,
    TCloseness,
    anonymize,
)
from repro.core.base import TClosenessResult
from repro.core.model import NotFittedError, RunReport
from repro.core.policy import PrivacyPolicy
from repro.core.repair import (
    PolicyInfeasibleError,
    cluster_distinct_counts,
    enforce_policy,
)
from repro.data import AttributeRole, Microdata, load_mcd, load_salary_toy, numeric
from repro.microagg import Partition
from repro.privacy import is_k_anonymous, is_t_close


@pytest.fixture(scope="module")
def mcd_small():
    return load_mcd(n=200)


@pytest.fixture(scope="module")
def fitted(mcd_small):
    policy = KAnonymity(4) & TCloseness(0.2) & DistinctLDiversity(2)
    return Anonymizer(policy).fit(mcd_small)


class TestFit:
    def test_fit_returns_self_and_sets_state(self, mcd_small, fitted):
        assert fitted.is_fitted
        assert fitted.release_.n_records == mcd_small.n_records
        assert fitted.result_.partition.min_size >= 4
        assert fitted.result_.satisfies_t

    def test_report_structure(self, fitted):
        report = fitted.report_
        assert isinstance(report, RunReport)
        assert report.algorithm == "tclose-first"
        assert report.policy == "k=4,t=0.2,l=2"
        assert report.satisfied
        assert set(report.timings) == {"cluster", "repair", "aggregate", "verify"}
        assert all(seconds >= 0.0 for seconds in report.timings.values())
        assert report.achieved["k"] >= 4
        assert report.achieved["t"] <= 0.2 + 1e-12
        assert report.achieved["l"] >= 2
        # Algorithm-specific counters survive under details.
        assert "effective_k" in report.details

    def test_report_dict_round_trip(self, fitted):
        report = fitted.report_
        assert RunReport.from_dict(report.to_dict()) == report

    def test_policy_accepts_spec_string(self, mcd_small):
        model = Anonymizer("k=3,t=0.25", method="merge").fit(mcd_small)
        assert model.result_.algorithm == "merge"
        assert model.result_.partition.min_size >= 3

    def test_unknown_method_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown method"):
            Anonymizer("k=2,t=0.1", method="wizardry")

    def test_unfitted_operations_raise(self, mcd_small):
        model = Anonymizer("k=2,t=0.3")
        with pytest.raises(NotFittedError):
            model.transform(mcd_small)
        with pytest.raises(NotFittedError):
            model.save("/tmp/never-written.npz")
        with pytest.raises(NotFittedError):
            model.audit()

    def test_fit_transform_matches_release(self, mcd_small):
        model = Anonymizer("k=3,t=0.25")
        release = model.fit_transform(mcd_small)
        assert release is model.release_


class TestShimEquivalence:
    """anonymize() must be a behavior-preserving shim over the lifecycle."""

    def test_release_and_result_match_lifecycle(self, mcd_small):
        release_a, result_a = anonymize(mcd_small, 4, 0.2, method="merge")
        model = Anonymizer(KAnonymity(4) & TCloseness(0.2), method="merge")
        model.fit(mcd_small)
        assert release_a.equals(model.release_)
        assert result_a.partition == model.result_.partition
        np.testing.assert_array_equal(
            result_a.cluster_emds, model.result_.cluster_emds
        )
        assert result_a.info == model.result_.info

    def test_merge_fallback_false_keeps_raw_partition(self, mcd_small):
        """The explicit opt-out must bypass the repair phase entirely."""
        _, result = anonymize(
            mcd_small, 3, 0.01, method="kanon-first", merge_fallback=False
        )
        assert result.info["merge_fallback"] is False
        assert "repair_merges" not in result.info


class TestTransform:
    def test_transform_maps_to_fitted_representatives(self, mcd_small, fitted):
        batch = mcd_small.subset(np.arange(40))
        served = fitted.transform(batch)
        assert served.n_records == 40
        # Every served quasi-identifier row is one of the fitted
        # representatives (categorical codes included).
        serving = fitted.transform_model_
        reps = {tuple(row) for row in serving.representatives}
        qi = served.matrix(serving.qi_names)
        for row in qi:
            assert tuple(row) in reps
        # Confidential values pass through untouched.
        for name in mcd_small.confidential:
            np.testing.assert_array_equal(
                served.values(name), batch.values(name)
            )

    def test_transform_drops_identifiers(self, mcd_small):
        rng = np.random.default_rng(3)
        data = Microdata(
            {
                "ssn": np.arange(60.0),
                "q1": rng.normal(size=60),
                "q2": rng.normal(size=60),
                "s": rng.permutation(np.arange(60.0)),
            },
            [
                numeric("ssn", role=AttributeRole.IDENTIFIER),
                numeric("q1", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("q2", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("s", role=AttributeRole.CONFIDENTIAL),
            ],
        )
        model = Anonymizer("k=3,t=0.3").fit(data)
        served = model.transform(data.subset(np.arange(10)))
        assert "ssn" not in served.attribute_names

    def test_transform_rejects_mismatched_schema(self, fitted):
        rng = np.random.default_rng(0)
        stranger = Microdata(
            {"x": rng.normal(size=10)},
            [numeric("x", role=AttributeRole.QUASI_IDENTIFIER)],
        )
        with pytest.raises(ValueError, match="missing quasi-identifier"):
            fitted.transform(stranger)

    def test_assign_is_nearest_in_fit_geometry(self, mcd_small, fitted):
        batch = mcd_small.subset(np.arange(25))
        assignment = fitted.assign(batch)
        serving = fitted.transform_model_
        encoded = serving.encoder.encode(batch.matrix(serving.qi_names))
        reps = serving.encoded_representatives
        for i, g in enumerate(assignment):
            d2 = ((reps - encoded[i]) ** 2).sum(axis=1)
            assert d2[g] == pytest.approx(d2.min())


class TestSaveLoad:
    def test_round_trip_preserves_transform_bit_for_bit(
        self, mcd_small, fitted, tmp_path
    ):
        npz_path, sidecar = fitted.save(tmp_path / "model.npz")
        assert npz_path.exists() and sidecar.exists()
        loaded = Anonymizer.load(npz_path)
        batch = mcd_small.subset(np.arange(80))
        a, b = fitted.transform(batch), loaded.transform(batch)
        assert a.schema == b.schema
        for name in a.attribute_names:
            np.testing.assert_array_equal(a.values(name), b.values(name))

    def test_round_trip_preserves_result_and_report(self, fitted, tmp_path):
        loaded = Anonymizer.load(fitted.save(tmp_path / "m")[0])
        assert loaded.policy == fitted.policy
        assert loaded.method == fitted.method
        assert loaded.result_.partition == fitted.result_.partition
        np.testing.assert_array_equal(
            loaded.result_.cluster_emds, fitted.result_.cluster_emds
        )
        assert loaded.report_ == fitted.report_

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rows=st.lists(st.integers(0, 199), min_size=1, max_size=40))
    def test_round_trip_transform_property(self, mcd_small, fitted, tmp_path, rows):
        """Satellite property: save -> load -> transform is bit-for-bit
        identical to the in-memory model, for arbitrary serving batches
        (duplicates and any row order included)."""
        loaded = Anonymizer.load(fitted.save(tmp_path / "prop")[0])
        batch = mcd_small.subset(np.asarray(rows))
        a, b = fitted.transform(batch), loaded.transform(batch)
        for name in a.attribute_names:
            np.testing.assert_array_equal(a.values(name), b.values(name))

    def test_version_guard(self, fitted, tmp_path):
        from repro.core.model import MODEL_FORMAT_VERSION
        from repro.runtime import ArtifactVersionError

        npz_path, sidecar = fitted.save(tmp_path / "model.npz")
        payload = sidecar.read_text().replace(
            f'"format_version": {MODEL_FORMAT_VERSION}', '"format_version": 99'
        )
        sidecar.write_text(payload)
        with pytest.raises(ArtifactVersionError, match="format version"):
            Anonymizer.load(npz_path)


class TestRepair:
    def test_distinct_counts(self):
        data = load_salary_toy()
        partition = Partition([0, 0, 0, 1, 1, 1, 2, 2, 2])
        counts = cluster_distinct_counts(data, partition)
        # salary is tie-free (3 distinct per cluster); disease has
        # duplicates within clusters.
        assert counts.shape == (3,)
        assert (counts >= 1).all() and (counts <= 3).all()

    def test_noop_returns_same_object(self, mcd_small):
        _, result = anonymize(mcd_small, 3, 0.2)
        repaired = enforce_policy(
            mcd_small, result, KAnonymity(3) & TCloseness(0.2)
        )
        assert repaired is result

    def test_repairs_t_violation_by_merging(self, mcd_small):
        from repro.core.tclose_first import tcloseness_first

        raw = tcloseness_first(mcd_small, 3, 0.25)
        # Fabricate a violating result: split the table into halves by
        # confidential rank — maximally t-distant clusters.
        order = np.argsort(mcd_small.values(mcd_small.confidential[0]))
        labels = np.zeros(mcd_small.n_records, dtype=np.int64)
        labels[order[mcd_small.n_records // 2 :]] = 1
        bad = TClosenessResult(
            algorithm="tclose-first",
            k=3,
            t=0.05,
            partition=Partition(labels),
            cluster_emds=np.array([0.5, 0.5]),
            info=dict(raw.info),
        )
        repaired = enforce_policy(
            mcd_small, bad, KAnonymity(3) & TCloseness(0.05)
        )
        assert repaired is not bad
        assert repaired.info["repair_merges"] >= 1
        assert is_t_close(mcd_small, 0.05, classes=repaired.partition)

    def test_repairs_diversity_violation(self):
        # Two spatial clusters whose confidential values are constant
        # within one of them: distinct count 1 < l=2 forces a merge.
        qi = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
        conf = np.array([5.0, 5.0, 5.0, 1.0, 2.0, 3.0])
        data = Microdata(
            {"q": qi, "s": conf},
            [
                numeric("q", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("s", role=AttributeRole.CONFIDENTIAL),
            ],
        )
        result = TClosenessResult(
            algorithm="merge",
            k=3,
            t=1.0,
            partition=Partition([0, 0, 0, 1, 1, 1]),
            cluster_emds=np.array([0.4, 0.4]),
            info={"emd_mode": "distinct"},
        )
        policy = KAnonymity(3) & TCloseness(1.0) & DistinctLDiversity(2)
        repaired = enforce_policy(data, result, policy)
        assert repaired.info["diversity_merges"] == 1
        assert cluster_distinct_counts(data, repaired.partition).min() >= 2

    def test_infeasible_policy_raises(self):
        data = Microdata(
            {
                "q": np.arange(6.0),
                "s": np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]),
            },
            [
                numeric("q", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("s", role=AttributeRole.CONFIDENTIAL),
            ],
        )
        with pytest.raises(PolicyInfeasibleError, match="only 2"):
            Anonymizer("k=2,t=1.0,l=5").fit(data)

    def test_audit_follows_fitted_emd_mode(self):
        """A policy enforced under rank-mode EMDs must be audited under
        rank-mode EMDs, not the distinct-mode default (on tied data the
        two legitimately disagree)."""
        from repro.privacy.tcloseness import t_closeness_level

        rng = np.random.default_rng(9)
        data = Microdata(
            {
                "q1": rng.normal(size=80),
                "q2": rng.normal(size=80),
                "s": rng.integers(0, 4, size=80).astype(float),  # heavy ties
            },
            [
                numeric("q1", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("q2", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("s", role=AttributeRole.CONFIDENTIAL),
            ],
        )
        model = Anonymizer("k=3,t=0.2", method="tclose-first", emd_mode="rank")
        model.fit(data)
        verdict = model.audit(posture=False)
        assert verdict.report is None  # posture=False skips the full report
        (k_check, t_check) = verdict.checks
        assert t_check.achieved == pytest.approx(
            t_closeness_level(model.release_, emd_mode="rank")
        )

    def test_fit_with_diversity_policy_passes_audit(self, mcd_small):
        policy = KAnonymity(3) & TCloseness(0.25) & PSensitivity(3)
        model = Anonymizer(policy).fit(mcd_small)
        assert model.report_.satisfied
        verdict = model.audit(mcd_small)
        assert verdict.satisfied
        assert is_k_anonymous(model.release_, 3)

    def test_policy_without_t_runs_plain_microaggregation(self, mcd_small):
        model = Anonymizer(PrivacyPolicy(KAnonymity(5)), method="merge")
        model.fit(mcd_small)
        assert model.result_.partition.min_size >= 5
        assert model.report_.achieved == {"k": 5.0}
