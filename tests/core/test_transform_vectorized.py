"""Serving-path regression: backend ``assign`` == the old per-cluster loop.

``Anonymizer.assign`` used to scan the fitted representatives in a Python
loop (one canonical-kernel dispatch per cluster, strict-less update); it
now issues one backend-executed nearest-representative query
(:meth:`repro.backend.ComputeBackend.assign_nearest`).  This suite pins

* bitwise equality of the new query against a re-implementation of the
  retired loop on a 10k-record serving batch (heavy exact ties included,
  where a changed tie rule would flip assignments);
* serial/threaded equality of ``assign`` and ``transform``;
* backend choice-independence across ``save``/``load``: a model fitted
  and saved under one backend must transform identically when loaded
  under any other.
"""

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness
from repro.data import AttributeRole, Microdata, numeric

from ..backends import threaded_for_tests

BATCH_ROWS = 10_000


def reference_assign(model, batch):
    """The retired per-cluster Python loop, verbatim."""
    from repro.distance.records import sq_distances_to

    encoded = model._encoder.encode(batch.matrix(model._qi_names))
    n = encoded.shape[0]
    best_d2 = np.full(n, np.inf)
    assignment = np.zeros(n, dtype=np.int64)
    for g, rep in enumerate(model._encoded_representatives):
        d2 = sq_distances_to(encoded, rep)
        better = d2 < best_d2
        assignment[better] = g
        best_d2[better] = d2[better]
    return assignment


def make_dataset(n, seed, *, grid=False):
    """Income-shaped fit table; ``grid=True`` coarsens QIs so exact
    distance ties between distinct records are plentiful."""
    rng = np.random.default_rng(seed)
    columns, schema = {}, []
    for i in range(3):
        values = 30_000.0 * np.exp(0.5 * rng.standard_normal(n))
        if grid:
            values = np.round(values / 10_000.0) * 10_000.0
        columns[f"qi{i}"] = values
        schema.append(numeric(f"qi{i}", role=AttributeRole.QUASI_IDENTIFIER))
    columns["secret"] = rng.permutation(np.arange(float(n)))
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    return Microdata(columns, schema)


@pytest.fixture(scope="module")
def fitted():
    return Anonymizer(KAnonymity(5) & TCloseness(0.3)).fit(make_dataset(800, 0))


@pytest.fixture(scope="module")
def fitted_grid():
    return Anonymizer(KAnonymity(4) & TCloseness(0.4)).fit(
        make_dataset(600, 1, grid=True)
    )


@pytest.fixture(scope="module")
def batch_10k():
    return make_dataset(BATCH_ROWS, 2)


class TestAssignMatchesRetiredLoop:
    def test_fixtures_are_index_sized(self, fitted, fitted_grid):
        # Both models split into a kd-tree, so the bitwise tests below
        # cover the tree query, not only the single-leaf scan.
        for model in (fitted, fitted_grid):
            assert model.transform_model_.nearest_index.depth > 0

    def test_10k_batch_bitwise(self, fitted, batch_10k):
        np.testing.assert_array_equal(
            fitted.assign(batch_10k), reference_assign(fitted, batch_10k)
        )

    def test_tie_heavy_batch_bitwise(self, fitted_grid):
        batch = make_dataset(2_000, 3, grid=True)
        np.testing.assert_array_equal(
            fitted_grid.assign(batch), reference_assign(fitted_grid, batch)
        )

    def test_fit_table_assigns_to_own_clusters(self, fitted_grid):
        """Sanity: the reference loop itself is the behaviour transform
        promises — batch == fit table maps each record into a cluster whose
        representative it is nearest to."""
        data = make_dataset(600, 1, grid=True)
        assignment = fitted_grid.assign(data)
        assert assignment.shape == (600,)
        assert assignment.min() >= 0
        assert assignment.max() < fitted_grid.result_.partition.n_clusters


class TestBackendChoiceIndependence:
    def test_assign_serial_vs_threaded(self, fitted, batch_10k):
        serial = fitted.assign(batch_10k)
        threaded_model = Anonymizer(
            fitted.policy, backend=threaded_for_tests()
        )
        # Share the fitted state without refitting the clustering.
        threaded_model.__dict__.update(
            {k: v for k, v in fitted.__dict__.items() if k != "backend"}
        )
        np.testing.assert_array_equal(serial, threaded_model.assign(batch_10k))

    def test_transform_serial_vs_threaded(self, fitted, batch_10k):
        released_serial = fitted.transform(batch_10k)
        threaded_model = Anonymizer(
            fitted.policy, backend=threaded_for_tests()
        )
        threaded_model.__dict__.update(
            {k: v for k, v in fitted.__dict__.items() if k != "backend"}
        )
        released_threaded = threaded_model.transform(batch_10k)
        for name in released_serial.attribute_names:
            np.testing.assert_array_equal(
                released_serial.values(name), released_threaded.values(name)
            )

    def test_save_load_transform_identical_under_any_backend(
        self, fitted, batch_10k, tmp_path
    ):
        npz, _ = fitted.save(tmp_path / "model.npz")
        loaded_serial = Anonymizer.load(npz, backend="serial")
        loaded_threaded = Anonymizer.load(npz, backend=threaded_for_tests())
        out_fitted = fitted.transform(batch_10k)
        out_serial = loaded_serial.transform(batch_10k)
        out_threaded = loaded_threaded.transform(batch_10k)
        for name in out_fitted.attribute_names:
            np.testing.assert_array_equal(
                out_fitted.values(name), out_serial.values(name)
            )
            np.testing.assert_array_equal(
                out_fitted.values(name), out_threaded.values(name)
            )

    def test_fit_identical_under_backends(self):
        data = make_dataset(300, 7, grid=True)
        serial = Anonymizer(KAnonymity(4) & TCloseness(0.3)).fit(data)
        threaded = Anonymizer(
            KAnonymity(4) & TCloseness(0.3), backend=threaded_for_tests()
        ).fit(data)
        np.testing.assert_array_equal(
            serial.result_.partition.labels, threaded.result_.partition.labels
        )
        np.testing.assert_array_equal(
            serial.result_.cluster_emds, threaded.result_.cluster_emds
        )
        for name in serial.release_.attribute_names:
            np.testing.assert_array_equal(
                serial.release_.values(name), threaded.release_.values(name)
            )
