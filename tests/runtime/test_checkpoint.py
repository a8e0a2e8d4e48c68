"""Tests for state serialization, the checkpoint store and progress ticks."""

import json

import numpy as np
import pytest

from repro import KAnonymity, TCloseness
from repro.runtime import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMissingError,
    ArtifactVersionError,
    CheckpointStore,
    FitProgress,
)
from repro.runtime import checkpoint as checkpoint_mod
from repro.runtime.checkpoint import (
    accepts_progress,
    read_state_file,
    write_state_bytes,
)
from repro.runtime.serialize import data_fingerprint, pack_state, unpack_state


def _config():
    policy = KAnonymity(4) & TCloseness(0.2)
    return {"policy": policy.to_dict(), "method": "kanon-first", "repair": True}


class TestStateSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        tree = {
            "members": np.arange(10, dtype=np.int64),
            "emds": rng.random(7),
            "nested": {"deep": {"x": rng.standard_normal(3)}},
            "meta": {
                "n_swaps": 42,
                "flag": True,
                "none": None,
                "rng": rng.bit_generator.state,
            },
        }
        arrays, scalars = pack_state(tree)
        back = unpack_state(arrays, scalars)
        assert back["members"].tobytes() == tree["members"].tobytes()
        assert back["emds"].tobytes() == tree["emds"].tobytes()
        assert (
            back["nested"]["deep"]["x"].tobytes()
            == tree["nested"]["deep"]["x"].tobytes()
        )
        assert back["meta"]["n_swaps"] == 42
        assert back["meta"]["flag"] is True
        assert back["meta"]["none"] is None
        # The RNG state dict (with > 2**64 integers) survives exactly.
        assert back["meta"]["rng"] == tree["meta"]["rng"]

    def test_state_file_round_trip(self, tmp_path):
        tree = {"x": np.linspace(0, 1, 5), "meta": {"units": 3}}
        path = tmp_path / "state.npz"
        path.write_bytes(write_state_bytes(tree))
        back = read_state_file(path)
        assert back["x"].tobytes() == tree["x"].tobytes()
        assert back["meta"]["units"] == 3

    def test_state_file_version_guard(self, tmp_path, monkeypatch):
        tree = {"x": np.arange(3)}
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_FORMAT_VERSION", 99)
        blob = write_state_bytes(tree)
        monkeypatch.undo()
        path = tmp_path / "state.npz"
        path.write_bytes(blob)
        with pytest.raises(ArtifactVersionError, match="format version"):
            read_state_file(path)

    def test_fingerprint_separates_data_and_config(self, mcd_small):
        config = _config()
        base = data_fingerprint(mcd_small, config)
        assert base == data_fingerprint(mcd_small, config)
        other = dict(config, method="merge")
        assert base != data_fingerprint(mcd_small, other)

    def test_accepts_progress(self):
        def with_kw(data, *, progress=None):
            return None

        def without(data, **kwargs):
            return None

        assert accepts_progress(with_kw)
        assert not accepts_progress(without)


class TestCheckpointStore:
    def test_fresh_open_writes_layout(self, tmp_path, mcd_small):
        store = CheckpointStore.open(
            tmp_path / "ck", config=_config(), data=mcd_small
        )
        names = sorted(p.name for p in (tmp_path / "ck").iterdir())
        assert names == ["config.json", "data.npz", "manifest.json"]
        assert store.config["method"] == "kanon-first"
        loaded = store.load_data()
        for name in mcd_small.attribute_names:
            assert (
                loaded.values(name).tobytes() == mcd_small.values(name).tobytes()
            )

    def test_reopen_same_fingerprint(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        CheckpointStore.open(directory, config=_config(), data=mcd_small)
        again = CheckpointStore.open(directory, config=_config(), data=mcd_small)
        assert again.fingerprint == CheckpointStore.load(directory).fingerprint

    def test_open_refuses_different_fit(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        CheckpointStore.open(directory, config=_config(), data=mcd_small)
        other = dict(_config(), method="merge")
        with pytest.raises(ArtifactError, match="different fit"):
            CheckpointStore.open(directory, config=other, data=mcd_small)

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactMissingError, match="no checkpoint found"):
            CheckpointStore.load(tmp_path / "nowhere")

    def test_phase_lifecycle_clears_progress(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        store = CheckpointStore.open(directory, config=_config(), data=mcd_small)
        store.write_progress("alg2", 10, {"x": np.arange(3)})
        store.write_progress("alg2", 20, {"x": np.arange(6)})
        assert store.progress_units("alg2") == 20
        # Sequence-numbered: superseded snapshot is gone, latest remains.
        progress_files = sorted(directory.glob("progress-*.npz"))
        assert [p.name for p in progress_files] == ["progress-alg2.000002.npz"]

        assert not store.phase_done("cluster")
        store.complete_phase("cluster", {"labels": np.arange(8), "meta": {"s": 1}})
        assert store.phase_done("cluster")
        assert store.load_progress("alg2") is None
        assert list(directory.glob("progress-*.npz")) == []
        back = store.load_phase("cluster")
        assert back["labels"].tolist() == list(range(8))

        # A fresh handle on the directory sees the same committed view.
        resumed = CheckpointStore.load(directory)
        assert resumed.phase_done("cluster")
        assert resumed.load_progress("alg2") is None

    def test_corrupt_phase_file_detected(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        store = CheckpointStore.open(directory, config=_config(), data=mcd_small)
        store.complete_phase("cluster", {"labels": np.arange(4)})
        target = directory / "phase-cluster.npz"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            CheckpointStore.load(directory).load_phase("cluster")

    def test_mixed_directory_detected(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        CheckpointStore.open(directory, config=_config(), data=mcd_small)
        config_path = directory / "config.json"
        payload = json.loads(config_path.read_text())
        payload["fingerprint"] = "f" * 64
        config_path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactCorruptError, match="different runs"):
            CheckpointStore.load(directory)

    def test_manifest_version_guard(self, tmp_path, mcd_small):
        directory = tmp_path / "ck"
        CheckpointStore.open(directory, config=_config(), data=mcd_small)
        manifest_path = directory / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["format_version"] = 99
        manifest_path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactVersionError, match="format version 99"):
            CheckpointStore.load(directory)

    def test_format_1_alg2_checkpoint_refused(self, tmp_path, mcd_small, monkeypatch):
        """A mid-refinement Algorithm 2 checkpoint written by a format-1
        build (float tracker snapshot, pending queue) cannot be resumed."""
        from repro import Anonymizer
        from repro.runtime import faults
        from repro.runtime.faults import InjectedFault

        assert checkpoint_mod.CHECKPOINT_FORMAT_VERSION == 4
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_FORMAT_VERSION", 1)
        directory = tmp_path / "ck"
        faults.arm_from_spec("alg2.swap@30")
        with pytest.raises(InjectedFault):
            Anonymizer(KAnonymity(4) & TCloseness(0.08), method="kanon-first").fit(
                mcd_small, checkpoint=directory, checkpoint_every_swaps=4
            )
        monkeypatch.undo()
        with pytest.raises(ArtifactVersionError, match="format version 1"):
            Anonymizer.resume(directory)

    def test_format_2_merge_checkpoint_refused(self, tmp_path, mcd_small, monkeypatch):
        """A mid-merge checkpoint written by a format-2 build (float EMDs,
        heap and version counters beside the members) cannot be resumed."""
        from repro import Anonymizer
        from repro.runtime import faults
        from repro.runtime.faults import InjectedFault

        assert checkpoint_mod.CHECKPOINT_FORMAT_VERSION == 4
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_FORMAT_VERSION", 2)
        directory = tmp_path / "ck"
        faults.arm_from_spec("merge.step@5")
        with pytest.raises(InjectedFault):
            Anonymizer(KAnonymity(4) & TCloseness(0.1), method="merge").fit(
                mcd_small, checkpoint=directory, checkpoint_every_merges=2
            )
        monkeypatch.undo()
        with pytest.raises(ArtifactVersionError, match="format version 2"):
            Anonymizer.resume(directory)

    def test_format_3_checkpoint_refused(self, tmp_path, mcd_small, monkeypatch):
        """A mid-refinement Algorithm 2 checkpoint written by a format-3
        build (the clustering engine's private arrays beside the finished
        clusters) cannot be resumed."""
        from repro import Anonymizer
        from repro.runtime import faults
        from repro.runtime.faults import InjectedFault

        assert checkpoint_mod.CHECKPOINT_FORMAT_VERSION == 4
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_FORMAT_VERSION", 3)
        directory = tmp_path / "ck"
        faults.arm_from_spec("alg2.swap@30")
        with pytest.raises(InjectedFault):
            Anonymizer(KAnonymity(4) & TCloseness(0.08), method="kanon-first").fit(
                mcd_small, checkpoint=directory, checkpoint_every_swaps=4
            )
        monkeypatch.undo()
        with pytest.raises(ArtifactVersionError, match="format version 3"):
            Anonymizer.resume(directory)

    def test_verify_against_other_data(self, tmp_path, mcd_small):
        from repro.data import load_mcd

        directory = tmp_path / "ck"
        store = CheckpointStore.open(directory, config=_config(), data=mcd_small)
        store.verify_against(mcd_small)
        with pytest.raises(ArtifactError, match="different data"):
            store.verify_against(load_mcd(n=150))


class TestFitProgress:
    def test_cadence_gates_writes(self, tmp_path, mcd_small):
        store = CheckpointStore.open(
            tmp_path / "ck", config=_config(), data=mcd_small
        )
        progress = FitProgress(store, every_swaps=10, every_merges=2)
        calls = []

        def state():
            calls.append(1)
            return {"x": np.arange(2)}

        assert not progress.tick("alg2", 5, state)
        assert calls == []  # the thunk never ran below the cadence
        assert progress.tick("alg2", 10, state)
        assert not progress.tick("alg2", 15, state)
        assert progress.tick("alg2", 20, state)
        # Merge stages use the merge cadence.
        assert not progress.tick("alg2:merge", 1, state)
        assert progress.tick("alg2:merge", 2, state)

    def test_force_bypasses_cadence(self, tmp_path, mcd_small):
        store = CheckpointStore.open(
            tmp_path / "ck", config=_config(), data=mcd_small
        )
        progress = FitProgress(store, every_swaps=1000)
        assert progress.tick("alg2", 1, lambda: {"x": np.arange(1)}, force=True)
        assert store.progress_units("alg2") == 1

    def test_load_restores_cadence_origin(self, tmp_path, mcd_small):
        store = CheckpointStore.open(
            tmp_path / "ck", config=_config(), data=mcd_small
        )
        progress = FitProgress(store, every_swaps=10)
        progress.tick("alg2", 10, lambda: {"x": np.arange(1)})
        fresh = FitProgress(store, every_swaps=10)
        assert fresh.load("alg2") is not None
        # Units 15 is only 5 past the restored snapshot: gate stays closed.
        assert not fresh.tick("alg2", 15, lambda: {"x": np.arange(1)})
        assert fresh.tick("alg2", 20, lambda: {"x": np.arange(1)})

    def test_rejects_bad_cadence(self, tmp_path, mcd_small):
        store = CheckpointStore.open(
            tmp_path / "ck", config=_config(), data=mcd_small
        )
        with pytest.raises(ValueError, match="cadence"):
            FitProgress(store, every_swaps=0)
