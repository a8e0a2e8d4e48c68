"""TransformModel split: delegation equivalence and the single-encode pin.

The refactor's contract: ``Anonymizer.transform``/``assign`` delegate to
an internal :class:`~repro.serving.TransformModel`, so the served path
and the direct path are one implementation — pinned bitwise here — and
every batch is schema-scanned and encoded **exactly once** per call
(call-count tests; the pre-split code scanned the schema twice per
``transform``).  Loading the transform-time state alone from a saved
artifact — plain or memory-mapped — must reproduce the same results.
"""

import json

import numpy as np
import pytest

from repro import Anonymizer
from repro.backend import SerialBackend
from repro.core.validation import BatchSchemaError
from repro.distance.records import QIEncoder
from repro.runtime.atomic import ArtifactVersionError
from repro.serving import TransformModel

from .conftest import make_dataset


def assert_same_release(a, b):
    """Bitwise equality of two released batches, column by column."""
    assert a.attribute_names == b.attribute_names
    for name in a.attribute_names:
        np.testing.assert_array_equal(a.values(name), b.values(name))


class TestSplitEquivalence:
    def test_anonymizer_exposes_its_split(self, fitted):
        split = TransformModel.from_anonymizer(fitted)
        assert split is fitted.transform_model_
        assert len(split.representatives) == fitted.result_.partition.n_clusters
        np.testing.assert_array_equal(
            split.encoded_representatives, split.encoder.encode(split.representatives)
        )

    def test_transform_bitwise_equal(self, fitted, batch):
        assert_same_release(
            fitted.transform(batch), fitted.transform_model_.transform(batch)
        )

    def test_assign_bitwise_equal(self, fitted, batch):
        np.testing.assert_array_equal(
            fitted.assign(batch), fitted.transform_model_.assign(batch)
        )

    def test_staged_pipeline_equals_transform(self, fitted, batch):
        split = fitted.transform_model_
        encoded = split.encode_batch(batch)
        assignment = split.assign_encoded(encoded)
        assert_same_release(
            split.apply_assignment(batch, assignment), fitted.transform(batch)
        )

    def test_batch_schema_delegates(self, fitted, batch):
        assert fitted.batch_schema() == fitted.transform_model_.batch_schema()
        header = tuple(batch.attribute_names)
        assert fitted.batch_schema(header) == (
            fitted.transform_model_.batch_schema(header)
        )

    def test_describe_is_json_ready(self, fitted):
        described = fitted.transform_model_.describe()
        json.dumps(described)
        assert described["n_clusters"] == fitted.result_.partition.n_clusters
        assert described["quasi_identifiers"] == list(fitted.transform_model_.qi_names)


class TestNearestIndex:
    def test_assign_queries_the_index_built_at_construction(self, fitted, batch):
        split = fitted.transform_model_
        seen = []

        class Spy(SerialBackend):
            def assign_nearest(self, X, reps):
                seen.append(reps)
                return super().assign_nearest(X, reps)

        expected = split.assign(batch)
        np.testing.assert_array_equal(split.assign(batch, backend=Spy()), expected)
        assert seen == [split.nearest_index]
        assert split.nearest_index.reps is split.encoded_representatives

    def test_loaded_model_rebuilds_the_same_index(self, fitted, tmp_path):
        npz, _ = fitted.save(tmp_path / "model.npz")
        source = fitted.transform_model_.nearest_index
        loaded = TransformModel.load(npz, mmap_mode="r").nearest_index
        for name in ("repcols", "ids", "lo", "hi", "leaf_bounds"):
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(source, name)
            )


class TestSingleEncodePerBatch:
    """The satellite audit finding, pinned.

    The pre-split ``transform`` ran the batch schema scan twice (once
    itself, once again inside ``assign``); the encoder ran once.  The
    staged pipeline must do exactly one scan and one encode per
    ``transform``/``assign`` call.
    """

    @pytest.fixture()
    def counted(self, monkeypatch):
        counts = {"encode": 0, "check": 0}
        real_encode = QIEncoder.encode
        real_check = TransformModel.check_batch

        def counting_encode(self, values):
            counts["encode"] += 1
            return real_encode(self, values)

        def counting_check(self, incoming):
            counts["check"] += 1
            return real_check(self, incoming)

        monkeypatch.setattr(QIEncoder, "encode", counting_encode)
        monkeypatch.setattr(TransformModel, "check_batch", counting_check)
        return counts

    def test_transform_scans_and_encodes_once(self, fitted, batch, counted):
        fitted.transform(batch)
        assert counted == {"encode": 1, "check": 1}

    def test_assign_scans_and_encodes_once(self, fitted, batch, counted):
        fitted.assign(batch)
        assert counted == {"encode": 1, "check": 1}


class TestBatchValidation:
    def test_missing_qi_column_rejected(self, fitted, batch):
        broken = batch.drop(["qi1"])
        with pytest.raises(BatchSchemaError, match="qi1"):
            fitted.transform_model_.transform(broken)

    def test_anonymizer_rejects_identically(self, fitted, batch):
        broken = batch.drop(["qi1"])
        with pytest.raises(BatchSchemaError, match="qi1"):
            fitted.transform(broken)


class TestArtifactLoad:
    def test_load_transform_equals_source(self, fitted, batch, tmp_path):
        npz, _ = fitted.save(tmp_path / "model.npz")
        split = TransformModel.load(npz)
        assert_same_release(split.transform(batch), fitted.transform(batch))

    def test_mmap_load_equals_copy_load(self, fitted, batch, tmp_path):
        npz, _ = fitted.save(tmp_path / "model.npz")
        mapped = TransformModel.load(npz, mmap_mode="r")
        assert not mapped.representatives.flags.writeable
        assert_same_release(mapped.transform(batch), fitted.transform(batch))

    def test_anonymizer_mmap_load_equals_copy_load(
        self, fitted, batch, tmp_path
    ):
        npz, _ = fitted.save(tmp_path / "model.npz")
        mapped = Anonymizer.load(npz, mmap_mode="r")
        assert_same_release(mapped.transform(batch), fitted.transform(batch))
        np.testing.assert_array_equal(
            mapped.result_.partition.labels, fitted.result_.partition.labels
        )

    def test_version_skew_rejected(self, fitted, tmp_path):
        npz, sidecar = fitted.save(tmp_path / "model.npz")
        payload = json.loads(sidecar.read_text())
        payload["format_version"] = 99
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(ArtifactVersionError, match="99"):
            TransformModel.load(npz)

    def test_loaded_split_serves_fresh_batches(self, fitted, tmp_path):
        npz, _ = fitted.save(tmp_path / "model.npz")
        split = TransformModel.load(npz, mmap_mode="r")
        fresh = make_dataset(64, 9)
        np.testing.assert_array_equal(
            split.assign(fresh), fitted.assign(fresh)
        )
