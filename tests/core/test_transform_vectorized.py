"""Serving-path regression: backend ``assign`` == the old per-cluster loop.

``Anonymizer.assign`` used to scan the fitted representatives in a Python
loop (one canonical-kernel dispatch per cluster, strict-less update); it
now issues one backend-executed nearest-representative query
(:meth:`repro.backend.SerialBackend.assign_nearest`).  This suite pins

* bitwise equality of the new query against a re-implementation of the
  retired loop on a 10k-record serving batch (heavy exact ties included,
  where a changed tie rule would flip assignments);
* equality of ``assign`` and ``transform`` called from two threads at
  once with the single-threaded answers;
* backend choice-independence: every form the ``backend=`` argument
  takes — ``None``, ``"serial"`` or a substituted :class:`SerialBackend`
  subclass — fits, saves/loads and transforms identically.
"""

from collections import Counter

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness
from repro.backend import SerialBackend
from repro.data import AttributeRole, Microdata, numeric

from ..contexts import run_threaded

BATCH_ROWS = 10_000


def reference_assign(model, batch):
    """The retired per-cluster Python loop, verbatim."""
    from repro.distance.records import sq_distances_to

    serving = model.transform_model_
    encoded = serving.encoder.encode(batch.matrix(serving.qi_names))
    n = encoded.shape[0]
    best_d2 = np.full(n, np.inf)
    assignment = np.zeros(n, dtype=np.int64)
    for g, rep in enumerate(serving.encoded_representatives):
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


class CountingBackend(SerialBackend):
    """A substituted backend: counts the primitive calls it is handed."""

    def __init__(self):
        self.calls = Counter()

    def eval_sq_distances(self, *args, **kwargs):
        self.calls["eval_sq_distances"] += 1
        return super().eval_sq_distances(*args, **kwargs)

    def refine_swaps(self, *args, **kwargs):
        self.calls["refine_swaps"] += 1
        return super().refine_swaps(*args, **kwargs)

    def assign_nearest(self, *args, **kwargs):
        self.calls["assign_nearest"] += 1
        return super().assign_nearest(*args, **kwargs)


def assert_same_release(expected, got):
    for name in expected.attribute_names:
        np.testing.assert_array_equal(expected.values(name), got.values(name))


class TestBackendChoiceIndependence:
    def test_assign_serial_vs_threaded(self, fitted, batch_10k):
        serial = fitted.assign(batch_10k)
        for threaded in run_threaded(lambda: fitted.assign(batch_10k)):
            np.testing.assert_array_equal(serial, threaded)

    def test_transform_serial_vs_threaded(self, fitted, batch_10k):
        released_serial = fitted.transform(batch_10k)
        for released in run_threaded(lambda: fitted.transform(batch_10k)):
            assert_same_release(released_serial, released)

    def test_save_load_transform_identical_under_any_backend(
        self, fitted, batch_10k, tmp_path
    ):
        npz, _ = fitted.save(tmp_path / "model.npz")
        out_fitted = fitted.transform(batch_10k)
        substituted = CountingBackend()
        for backend in (None, "serial", substituted):
            loaded = Anonymizer.load(npz, backend=backend)
            assert_same_release(out_fitted, loaded.transform(batch_10k))
        assert substituted.calls["assign_nearest"] > 0

    def test_fit_identical_under_backends(self):
        data = make_dataset(300, 7, grid=True)
        policy = KAnonymity(4) & TCloseness(0.3)
        default = Anonymizer(policy).fit(data)
        substituted = CountingBackend()
        for backend in ("serial", substituted):
            other = Anonymizer(policy, backend=backend).fit(data)
            np.testing.assert_array_equal(
                default.result_.partition.labels, other.result_.partition.labels
            )
            np.testing.assert_array_equal(
                default.result_.cluster_emds, other.result_.cluster_emds
            )
            assert_same_release(default.release_, other.release_)
        # The substituted instance really ran the fit's distance work.
        assert substituted.calls["eval_sq_distances"] > 0

    def test_kanon_first_fit_refines_through_the_backend(self):
        data = make_dataset(300, 7, grid=True)
        policy = KAnonymity(4) & TCloseness(0.1)
        default = Anonymizer(policy, method="kanon-first").fit(data)
        substituted = CountingBackend()
        other = Anonymizer(policy, method="kanon-first", backend=substituted).fit(data)
        np.testing.assert_array_equal(
            default.result_.partition.labels, other.result_.partition.labels
        )
        assert other.result_.info["n_swaps"] > 0
        # Algorithm 2's swap refinement ran on the substituted instance.
        assert substituted.calls["refine_swaps"] > 0
