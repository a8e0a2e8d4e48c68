"""Tests pinning the properties of the paper's surrogate data sets.

These assertions pin what the surrogate generators' docstrings promise:
record counts, schema shape, and the correlation regimes the paper's
analysis attributes the algorithms' behaviour to.
"""

import numpy as np
import pytest

from repro.data import (
    CENSUS_N,
    HCD_CORRELATION,
    MCD_CORRELATION,
    PD_CORRELATION,
    load_adult,
    load_census,
    load_hcd,
    load_mcd,
    load_patient_discharge,
    load_salary_toy,
    load_uniform_toy,
    multiple_correlation,
)


class TestCensusSurrogate:
    def test_record_count(self):
        assert load_census().n_records == CENSUS_N == 1080

    def test_attribute_names(self):
        assert load_census().attribute_names == (
            "TAXINC",
            "POTHVAL",
            "FEDTAX",
            "FICA",
        )

    def test_mcd_roles(self):
        mcd = load_mcd()
        assert mcd.quasi_identifiers == ("TAXINC", "POTHVAL")
        assert mcd.confidential == ("FEDTAX",)
        assert "FICA" not in mcd.attribute_names

    def test_hcd_roles(self):
        hcd = load_hcd()
        assert hcd.confidential == ("FICA",)
        assert "FEDTAX" not in hcd.attribute_names

    def test_mcd_correlation_regime(self):
        mcd = load_mcd()
        r = multiple_correlation(mcd.values("FEDTAX"), mcd.qi_matrix(scale="none"))
        assert r == pytest.approx(MCD_CORRELATION, abs=0.05)

    def test_hcd_correlation_regime(self):
        hcd = load_hcd()
        r = multiple_correlation(hcd.values("FICA"), hcd.qi_matrix(scale="none"))
        assert r == pytest.approx(HCD_CORRELATION, abs=0.03)

    def test_confidential_values_tie_free(self):
        census = load_census()
        for name in ("FEDTAX", "FICA"):
            values = census.values(name)
            assert len(np.unique(values)) == len(values)

    def test_all_values_positive(self):
        census = load_census()
        for name in census.attribute_names:
            assert (census.values(name) >= 0).all()

    def test_income_marginals_right_skewed(self):
        census = load_census()
        for name in ("TAXINC", "POTHVAL"):
            values = census.values(name)
            assert values.mean() > np.median(values)  # long right tail

    def test_deterministic_given_seed(self):
        assert load_census(seed=42).equals(load_census(seed=42))

    def test_different_seed_differs(self):
        assert not load_census(seed=1).equals(load_census(seed=2))

    def test_custom_n(self):
        assert load_mcd(n=200).n_records == 200

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="at least"):
            load_census(n=2)


class TestPatientDischargeSurrogate:
    def test_shape(self):
        pd = load_patient_discharge(n=500)
        assert pd.n_records == 500
        assert len(pd.quasi_identifiers) == 7
        assert pd.confidential == ("CHARGE",)

    def test_default_n_matches_paper(self):
        from repro.data import PATIENT_DISCHARGE_N

        assert PATIENT_DISCHARGE_N == 23_435

    def test_correlation_regime(self):
        pd = load_patient_discharge(n=10_000)
        r = multiple_correlation(pd.values("CHARGE"), pd.qi_matrix(scale="none"))
        assert r == pytest.approx(PD_CORRELATION, abs=0.05)

    def test_qis_are_discrete(self):
        pd = load_patient_discharge(n=300)
        for name in pd.quasi_identifiers:
            values = pd.values(name)
            np.testing.assert_array_equal(values, np.round(values))

    def test_age_bounds(self):
        pd = load_patient_discharge(n=5_000)
        age = pd.values("AGE")
        assert age.min() >= 0 and age.max() <= 100

    def test_length_of_stay_at_least_one_day(self):
        pd = load_patient_discharge(n=5_000)
        assert pd.values("LENGTH_OF_STAY").min() >= 1

    def test_charge_tie_free(self):
        pd = load_patient_discharge(n=5_000)
        charge = pd.values("CHARGE")
        assert len(np.unique(charge)) == len(charge)

    def test_deterministic(self):
        a = load_patient_discharge(n=100)
        b = load_patient_discharge(n=100)
        assert a.equals(b)

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="at least"):
            load_patient_discharge(n=2)


class TestAdultSurrogate:
    def test_shape_and_roles(self):
        adult = load_adult(n=1_000)
        assert adult.n_records == 1_000
        assert set(adult.quasi_identifiers) == {
            "age",
            "education",
            "hours_per_week",
            "race",
            "sex",
        }
        assert set(adult.confidential) == {"occupation", "income_class"}

    def test_education_income_dependence(self):
        adult = load_adult(n=10_000)
        edu = adult.values("education")
        inc = adult.values("income_class").astype(float)
        high = inc[edu >= 12].mean()
        low = inc[edu <= 8].mean()
        assert high > low + 0.15  # degree holders earn >50K far more often

    def test_capital_gain_mostly_zero(self):
        adult = load_adult(n=10_000)
        frac_zero = (adult.values("capital_gain") == 0).mean()
        assert 0.85 < frac_zero < 0.98

    def test_category_codes_valid(self):
        adult = load_adult(n=2_000)
        for spec in adult.schema:
            if spec.is_categorical:
                codes = adult.values(spec.name)
                assert codes.min() >= 0
                assert codes.max() < spec.n_categories

    def test_minimum_n(self):
        with pytest.raises(ValueError, match="at least"):
            load_adult(n=3)


class TestToyData:
    def test_salary_toy_shape(self):
        toy = load_salary_toy()
        assert toy.n_records == 9
        assert toy.confidential == ("salary",)

    def test_salary_values_equally_spaced(self):
        toy = load_salary_toy()
        salary = np.sort(toy.values("salary"))
        np.testing.assert_array_equal(np.diff(salary), 1000.0)

    def test_uniform_toy_ranks_distinct(self):
        toy = load_uniform_toy(n=20)
        secret = toy.values("secret")
        np.testing.assert_array_equal(np.sort(secret), np.arange(1.0, 21.0))

    def test_uniform_toy_validation(self):
        with pytest.raises(ValueError, match="at least"):
            load_uniform_toy(n=1)
