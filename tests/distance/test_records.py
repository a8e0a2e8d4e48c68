"""Tests for record-distance helpers and the mixed-type embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import AttributeRole, Microdata, nominal, numeric, ordinal
from repro.distance import (
    QIEncoder,
    centroid,
    encode_mixed,
    farthest_index,
    k_nearest_indices,
    nearest_index,
    pairwise_sq_distances,
    sq_distances_to,
)


class TestSqDistances:
    def test_known_values(self):
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(sq_distances_to(X, np.zeros(2)), [0.0, 25.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            sq_distances_to(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            sq_distances_to(np.zeros((2, 3)), np.zeros(2))

    @settings(max_examples=25, deadline=None)
    @given(
        X=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
            elements=st.floats(-100, 100),
        )
    )
    def test_matches_norm_definition(self, X):
        x = X[0]
        expected = np.linalg.norm(X - x, axis=1) ** 2
        np.testing.assert_allclose(sq_distances_to(X, x), expected, atol=1e-8)

    def test_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        D = pairwise_sq_distances(X)
        np.testing.assert_allclose(D, D.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-9)

    def test_pairwise_matches_rowwise(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(8, 2))
        D = pairwise_sq_distances(X)
        for i in range(8):
            np.testing.assert_allclose(D[i], sq_distances_to(X, X[i]), atol=1e-9)

    def test_pairwise_validates(self):
        with pytest.raises(ValueError, match="2-D"):
            pairwise_sq_distances(np.zeros(3))


class TestSelectors:
    def test_centroid(self):
        X = np.array([[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_allclose(centroid(X), [1.0, 2.0])

    def test_centroid_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            centroid(np.empty((0, 2)))

    def test_farthest_nearest(self):
        X = np.array([[0.0], [5.0], [1.0]])
        assert farthest_index(X, np.array([0.0])) == 1
        assert nearest_index(X, np.array([0.9])) == 2

    def test_k_nearest_sorted(self):
        X = np.array([[0.0], [5.0], [1.0], [3.0]])
        np.testing.assert_array_equal(
            k_nearest_indices(X, np.array([0.0]), 3), [0, 2, 3]
        )

    def test_k_nearest_k_larger_than_n(self):
        X = np.array([[0.0], [5.0]])
        np.testing.assert_array_equal(k_nearest_indices(X, np.array([4.0]), 10), [1, 0])

    def test_k_nearest_validates_k(self):
        with pytest.raises(ValueError, match="positive"):
            k_nearest_indices(np.zeros((2, 1)), np.zeros(1), 0)

    def test_k_nearest_stable_on_ties(self):
        X = np.array([[1.0], [1.0], [1.0]])
        np.testing.assert_array_equal(k_nearest_indices(X, np.array([1.0]), 2), [0, 1])
        # Values in {0, 1, 2} queried at 0 tie at the k-th distance many
        # ways; the lowest indices win, whatever argpartition's tie order.
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(30, 300))
            X = rng.integers(0, 3, size=(n, 1)).astype(float)
            k = int(rng.integers(1, n + 1))
            order = np.lexsort((np.arange(n), X[:, 0] ** 2))
            np.testing.assert_array_equal(
                k_nearest_indices(X, np.zeros(1), k), order[:k]
            )


class TestEncodeMixed:
    @pytest.fixture
    def mixed(self):
        schema = [
            numeric("age", role=AttributeRole.QUASI_IDENTIFIER),
            ordinal("level", ("low", "mid", "high"), role=AttributeRole.QUASI_IDENTIFIER),
            nominal("city", ("paris", "rome"), role=AttributeRole.QUASI_IDENTIFIER),
            numeric("salary", role=AttributeRole.CONFIDENTIAL),
        ]
        return Microdata(
            {
                "age": np.array([20.0, 40.0, 60.0]),
                "level": np.array([0, 1, 2]),
                "city": np.array([0, 0, 1]),
                "salary": np.array([1.0, 2.0, 3.0]),
            },
            schema,
        )

    def test_pure_numeric_standardized(self):
        md = Microdata(
            {"a": np.array([1.0, 2.0, 3.0])},
            [numeric("a", role=AttributeRole.QUASI_IDENTIFIER)],
        )
        X = encode_mixed(md)
        assert X.mean() == pytest.approx(0.0, abs=1e-12)
        assert X.std() == pytest.approx(1.0, abs=1e-12)

    def test_mixed_shape(self, mixed):
        X = encode_mixed(mixed)
        # age (1) + level (1) + city one-hot (2) = 4 columns
        assert X.shape == (3, 4)

    def test_nominal_distance_is_one(self, mixed):
        X = encode_mixed(mixed, names=("city",))
        d2 = np.sum((X[0] - X[2]) ** 2)
        assert d2 == pytest.approx(1.0)
        assert np.sum((X[0] - X[1]) ** 2) == pytest.approx(0.0)

    def test_ordinal_distance_normalized(self, mixed):
        X = encode_mixed(mixed, names=("level",))
        assert abs(X[2, 0] - X[0, 0]) == pytest.approx(1.0)
        assert abs(X[1, 0] - X[0, 0]) == pytest.approx(0.5)

    def test_numeric_range_normalized_in_mixed_mode(self, mixed):
        X = encode_mixed(mixed, names=("age", "city"))
        assert X[:, 0].min() == 0.0
        assert X[:, 0].max() == 1.0

    def test_defaults_to_quasi_identifiers(self, mixed):
        X = encode_mixed(mixed)
        assert X.shape[1] == 4  # salary (confidential) not included

    def test_constant_numeric_column(self):
        md = Microdata(
            {
                "a": np.array([5.0, 5.0]),
                "c": np.array([0, 1]),
            },
            [
                numeric("a", role=AttributeRole.QUASI_IDENTIFIER),
                nominal("c", ("x", "y"), role=AttributeRole.QUASI_IDENTIFIER),
            ],
        )
        X = encode_mixed(md)
        np.testing.assert_array_equal(X[:, 0], [0.0, 0.0])


class TestQIEncoder:
    """The fitted encoder must reproduce encode_mixed exactly on fit data."""

    @pytest.fixture
    def mixed(self):
        schema = [
            numeric("age", role=AttributeRole.QUASI_IDENTIFIER),
            ordinal("level", ("low", "mid", "high"), role=AttributeRole.QUASI_IDENTIFIER),
            nominal("city", ("paris", "rome"), role=AttributeRole.QUASI_IDENTIFIER),
            numeric("salary", role=AttributeRole.CONFIDENTIAL),
        ]
        return Microdata(
            {
                "age": np.array([20.0, 40.0, 60.0]),
                "level": np.array([0, 1, 2]),
                "city": np.array([0, 0, 1]),
                "salary": np.array([1.0, 2.0, 3.0]),
            },
            schema,
        )

    def test_matches_encode_mixed_on_mixed_fit_data(self, mixed):
        encoder = QIEncoder.fit(mixed)
        np.testing.assert_array_equal(
            encoder.encode_data(mixed), encode_mixed(mixed)
        )

    def test_matches_encode_mixed_on_numeric_fit_data(self):
        rng = np.random.default_rng(11)
        md = Microdata(
            {"a": rng.normal(size=30), "b": rng.normal(size=30) * 100},
            [
                numeric("a", role=AttributeRole.QUASI_IDENTIFIER),
                numeric("b", role=AttributeRole.QUASI_IDENTIFIER),
            ],
        )
        encoder = QIEncoder.fit(md)
        np.testing.assert_array_equal(encoder.encode_data(md), encode_mixed(md))

    def test_batch_uses_fit_geometry_not_its_own(self, mixed):
        encoder = QIEncoder.fit(mixed)
        batch = mixed.subset([0])  # a 1-record batch: own range would collapse
        encoded = encoder.encode_data(batch)
        np.testing.assert_array_equal(encoded, encode_mixed(mixed)[[0]])

    def test_dict_round_trip_is_exact(self, mixed):
        import json

        encoder = QIEncoder.fit(mixed)
        payload = json.loads(json.dumps(encoder.to_dict()))
        clone = QIEncoder.from_dict(payload)
        np.testing.assert_array_equal(
            encoder.encode_data(mixed), clone.encode_data(mixed)
        )

    def test_rejects_wrong_width_and_bad_codes(self, mixed):
        encoder = QIEncoder.fit(mixed)
        with pytest.raises(ValueError, match="shape"):
            encoder.encode(np.zeros((2, 5)))
        bad = mixed.matrix(encoder.names)
        bad[0, 2] = 7  # nominal code outside the fitted categories
        with pytest.raises(ValueError, match="codes outside"):
            encoder.encode(bad)
