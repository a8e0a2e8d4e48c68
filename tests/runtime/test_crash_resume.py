"""Crash/resume determinism matrix.

The central robustness guarantee: a fit killed at *any* checkpoint
boundary — between phases, mid-swap-refinement, mid-merge, even between
a checkpoint's temp write and its rename — and then resumed produces
labels, EMDs and counters **bit-for-bit identical** to an uninterrupted
run.  The matrix kills fits at every planted fault point across the
algorithm paths (Algorithm 2 / kanon-first, Algorithm 3 / tclose-first,
Algorithm 1 / merge, and the policy-repair merge loop), the merge loop on
its compiled step and on its Python spec (killed on one, resumed on
either), fits killed on a worker thread, plus honest ``os._exit`` process
kills through the CLI.
"""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro import Anonymizer, DistinctLDiversity, KAnonymity, TCloseness
from repro.core.confidential import UNLIMITED, ConfidentialModel
from repro.core.kanon_first import kanonymity_first
from repro.core.merge import _CompiledMerges
from repro.core.repair import enforce_policy
from repro.data import load_mcd, write_csv
from repro.microagg.engine import ClusteringEngine
from repro.runtime import (
    ArtifactMissingError,
    CheckpointStore,
    FitProgress,
    faults,
)
from repro.runtime.faults import EXIT_CODE, InjectedFault

from ..contexts import run_serial, run_threaded
from ..microagg.test_merge_reference import PATHS, merge_path

#: Tight cadences so even a 200-record fit crosses many checkpoints.
CADENCE = dict(checkpoint_every_swaps=40, checkpoint_every_merges=2)


@pytest.fixture(scope="module")
def goldens(mcd_small):
    """Uninterrupted reference fits, one per (method, policy) under test."""
    configs = {
        "kanon-first": KAnonymity(4) & TCloseness(0.08),
        "tclose-first": KAnonymity(4) & TCloseness(0.15),
        "merge": KAnonymity(4) & TCloseness(0.1),
    }
    return {
        method: Anonymizer(policy, method=method).fit(mcd_small)
        for method, policy in configs.items()
    }


def crash_then_resume(data, golden, method, spec, directory, *, run=run_serial):
    """Kill a checkpointed fit at ``spec``, resume, assert bitwise equality.

    ``run`` is the execution context (``tests.contexts``) the killed fit
    runs in; the resume always runs on the calling thread.
    """
    ck = Path(directory) / "ck"
    faults.arm_from_spec(spec)
    died = False
    try:
        run(
            lambda: Anonymizer(golden.policy, method=method).fit(
                data, checkpoint=ck, **CADENCE
            )
        )
    except InjectedFault:
        died = True
    finally:
        faults.clear()
    assert died, f"fault {spec!r} never fired on {method}"
    resumed = Anonymizer.resume(ck)
    assert_bitwise_equal(resumed, golden)
    return resumed


def assert_bitwise_equal(resumed, golden):
    np.testing.assert_array_equal(
        resumed.result_.partition.labels, golden.result_.partition.labels
    )
    assert (
        resumed.result_.cluster_emds.tobytes()
        == golden.result_.cluster_emds.tobytes()
    )
    assert resumed.result_.info == golden.result_.info
    assert resumed.release_.equals(golden.release_)


class TestKanonFirstMatrix:
    """Algorithm 2: kills inside swap refinement, the merge fallback, and
    at every phase boundary."""

    @pytest.mark.parametrize(
        "spec",
        [
            "progress:alg2@1",
            "progress:alg2@4",
            "alg2.swap@1",
            "alg2.swap@300",
            "alg2.cluster@2",
            "alg2.cluster@25",
            "merge.step@1",
            "merge.step@10",
            "progress:alg2:merge@2",
            "atomic.replace@5",
            "fit.phase:cluster",
            "fit.phase:repair",
            "fit.phase:aggregate",
            "fit.phase:verify",
        ],
    )
    def test_kill_and_resume(self, mcd_small, goldens, tmp_path, spec):
        crash_then_resume(
            mcd_small, goldens["kanon-first"], "kanon-first", spec, tmp_path
        )

    def test_double_kill(self, mcd_small, goldens, tmp_path):
        """Two successive kills with a resume between them still converge."""
        ck = tmp_path / "ck"
        golden = goldens["kanon-first"]
        for spec in ("alg2.swap@100", "merge.step@5"):
            faults.arm_from_spec(spec)
            with pytest.raises(InjectedFault):
                try:
                    Anonymizer(golden.policy, method="kanon-first").fit(
                        mcd_small, checkpoint=ck, **CADENCE
                    )
                finally:
                    faults.clear()
        resumed = Anonymizer.resume(ck)
        assert_bitwise_equal(resumed, golden)

    def test_rerunning_identical_command_continues(
        self, mcd_small, goldens, tmp_path
    ):
        """`fit --checkpoint DIR` re-run verbatim after a crash continues
        (same fingerprint re-opens the directory) — no --resume needed."""
        ck = tmp_path / "ck"
        golden = goldens["kanon-first"]
        faults.arm_from_spec("alg2.swap@250")
        with pytest.raises(InjectedFault):
            try:
                Anonymizer(golden.policy, method="kanon-first").fit(
                    mcd_small, checkpoint=ck, **CADENCE
                )
            finally:
                faults.clear()
        again = Anonymizer(golden.policy, method="kanon-first").fit(
            mcd_small, checkpoint=ck, **CADENCE
        )
        assert_bitwise_equal(again, golden)


class _BetweenClusters(FitProgress):
    """Progress whose refinement never stops for a tick, so every
    ``"alg2"`` snapshot lands between two clusters."""

    def units_until_due(self, stage, units):
        return UNLIMITED


class TestKanonFirstBetweenClusters:
    """Algorithm 2 resumed from a snapshot taken between clusters, at every
    cluster boundary.  An odd cluster seeds from the distance buffer the
    previous cluster's seeding filled, so those resumes must rebuild it."""

    def test_kill_after_every_cluster(self, mcd_small, tmp_path):
        k, t = 4, 0.08
        golden = kanonymity_first(mcd_small, k, t)
        parities = set()
        for n in range(1, golden.info["clusters_before_merge"] + 1):
            directory = tmp_path / f"ck{n}"
            store = CheckpointStore.open(
                directory, config={"unit": "alg2"}, data=mcd_small
            )
            faults.arm_from_spec(f"alg2.cluster@{n}")
            with pytest.raises(InjectedFault):
                try:
                    kanonymity_first(
                        mcd_small, k, t, progress=_BetweenClusters(store, every_swaps=1)
                    )
                finally:
                    faults.clear()
            store = CheckpointStore.load(directory)
            saved = store.load_progress("alg2")
            if saved is not None:
                assert "cluster" not in saved
                parities.add(saved["meta"]["parity"])
            resumed = kanonymity_first(
                mcd_small, k, t, progress=_BetweenClusters(store, every_swaps=1)
            )
            np.testing.assert_array_equal(
                resumed.partition.labels, golden.partition.labels
            )
            assert resumed.cluster_emds.tobytes() == golden.cluster_emds.tobytes()
            assert resumed.info == golden.info
        assert parities == {0, 1}


class TestMergeCentroidReplay:
    """A resumed merge loop rebuilds the merged clusters' centroid rows
    bitwise: from the kill on, it makes the uninterrupted fit's row
    updates, row bytes included.  Labels alone miss a replay that rebuilds
    centroids any other way.  On the spec the updates are the partner
    engine's ``replace_row`` calls; on the compiled step, the survivor's
    centroid column after each step and each replayed commit."""

    def test_replace_row_calls_continue_bitwise(self, tmp_path, monkeypatch):
        data = load_mcd(n=300)
        policy = KAnonymity(3) & TCloseness(0.05)
        calls = []
        replace_row = ClusteringEngine.replace_row
        step, commit = _CompiledMerges.step, _CompiledMerges.commit

        def recording(engine, record_id, row):
            calls.append((int(record_id), np.asarray(row, dtype=np.float64).tobytes()))
            replace_row(engine, record_id, row)

        def survivor_row(merges, worst):
            calls.append((worst, merges._state.cols[:, worst].tobytes()))

        def recording_step(merges):
            pair = step(merges)
            if pair is not None:
                survivor_row(merges, pair[0])
            return pair

        def recording_commit(merges, worst, partner):
            commit(merges, worst, partner)
            survivor_row(merges, worst)

        monkeypatch.setattr(ClusteringEngine, "replace_row", recording)
        monkeypatch.setattr(_CompiledMerges, "step", recording_step)
        monkeypatch.setattr(_CompiledMerges, "commit", recording_commit)
        # Both paths, in a loop rather than a fixture, so the test id
        # predates the compiled step.
        for path in PATHS:
            with merge_path(path):
                calls.clear()
                golden = Anonymizer(policy, method="merge").fit(data)
                expected = list(calls)
                n_merges = golden.result_.info["n_merges"]
                assert len(expected) == n_merges > 6
                for n in np.linspace(1, n_merges, 6).astype(int):
                    ck = tmp_path / f"{path}-ck{n}"
                    faults.arm_from_spec(f"merge.step@{n}")
                    with pytest.raises(InjectedFault):
                        try:
                            Anonymizer(policy, method="merge").fit(
                                data, checkpoint=ck, **CADENCE
                            )
                        finally:
                            faults.clear()
                    calls.clear()
                    resumed = Anonymizer.resume(ck, **CADENCE)
                    assert_bitwise_equal(resumed, golden)
                    tail = expected[n - 1 :]
                    assert calls[len(calls) - len(tail) :] == tail, (
                        f"{path}: killed at merge {n}"
                    )


class TestMergeStepOnBothPaths:
    """``merge.step`` kills at several merges, each fit killed on one path
    (the compiled step or the Python spec) and resumed on one: the
    checkpoint holds decisions only, so every pairing, across paths
    included, resumes bit for bit into the uninterrupted fit."""

    @pytest.mark.parametrize("n", [1, 4, 25])
    @pytest.mark.parametrize(
        "killed_on, resumed_on",
        [("kernel", "kernel"), ("spec", "spec"), ("kernel", "spec"), ("spec", "kernel")],
    )
    def test_kill_and_resume(self, mcd_small, goldens, tmp_path, killed_on, resumed_on, n):
        golden = goldens["merge"]
        ck = tmp_path / "ck"
        with merge_path(killed_on):
            faults.arm_from_spec(f"merge.step@{n}")
            with pytest.raises(InjectedFault):
                try:
                    Anonymizer(golden.policy, method="merge").fit(
                        mcd_small, checkpoint=ck, **CADENCE
                    )
                finally:
                    faults.clear()
        with merge_path(resumed_on):
            assert_bitwise_equal(Anonymizer.resume(ck), golden)


class TestTcloseFirstMatrix:
    """Algorithm 3 path: phase-boundary kills (its clustering is one-shot
    bucketed partitioning — no long refinement loop to checkpoint inside)."""

    @pytest.mark.parametrize(
        "spec",
        ["fit.phase:cluster", "fit.phase:aggregate", "fit.phase:verify"],
    )
    def test_kill_and_resume(self, mcd_small, goldens, tmp_path, spec):
        crash_then_resume(
            mcd_small, goldens["tclose-first"], "tclose-first", spec, tmp_path
        )


class TestMergeMatrix:
    """Algorithm 1 path: kills inside its merge loop and at boundaries."""

    @pytest.mark.parametrize(
        "spec",
        [
            "merge.step@1",
            "merge.step@25",
            "progress:alg1:merge@3",
            "fit.phase:cluster",
            "fit.phase:aggregate",
        ],
    )
    def test_kill_and_resume(self, mcd_small, goldens, tmp_path, spec):
        crash_then_resume(mcd_small, goldens["merge"], "merge", spec, tmp_path)


class TestThreadedBackendMatrix:
    """The resume guarantee holds for a fit killed on a worker thread (as a
    fit submitted to an executor runs): resumed on the calling thread, it
    matches the golden bit-for-bit."""

    @pytest.mark.parametrize(
        "spec", ["alg2.swap@200", "merge.step@5", "fit.phase:cluster"]
    )
    def test_kill_and_resume_threaded(self, mcd_small, goldens, tmp_path, spec):
        crash_then_resume(
            mcd_small,
            goldens["kanon-first"],
            "kanon-first",
            spec,
            tmp_path,
            run=partial(run_threaded, workers=1),
        )


class TestRepairMergeResume:
    """The policy-repair merge loop (``repair:merge`` stage) resumes
    bitwise — exercised directly: healthy fits rarely need repair merges,
    so the loop is driven on a deliberately violating partition."""

    def _violating_result(self, mcd_small):
        # A k-anonymous fit under a loose t leaves plenty of clusters
        # above a tight t — enforcing that tight t then merges for real.
        model = Anonymizer(
            KAnonymity(3) & TCloseness(0.9), method="tclose-first"
        ).fit(mcd_small)
        return model.result_

    def test_crash_inside_repair_merge(self, mcd_small, tmp_path):
        result = self._violating_result(mcd_small)
        policy = KAnonymity(3) & TCloseness(0.1)
        golden = enforce_policy(mcd_small, result, policy)
        assert golden.info["repair_merges"] > 0  # the loop actually runs

        store = CheckpointStore.open(
            tmp_path / "ck", config={"unit": "repair"}, data=mcd_small
        )
        progress = FitProgress(store, every_merges=2)
        faults.arm_from_spec("merge.step@3")
        with pytest.raises(InjectedFault):
            try:
                enforce_policy(mcd_small, result, policy, progress=progress)
            finally:
                faults.clear()

        fresh = FitProgress(CheckpointStore.load(tmp_path / "ck"), every_merges=2)
        repaired = enforce_policy(mcd_small, result, policy, progress=fresh)
        np.testing.assert_array_equal(
            repaired.partition.labels, golden.partition.labels
        )
        assert repaired.cluster_emds.tobytes() == golden.cluster_emds.tobytes()
        assert repaired.info == golden.info


class TestResumeErrors:
    def test_resume_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactMissingError, match="no checkpoint"):
            Anonymizer.resume(tmp_path / "nowhere")

    def test_resume_of_completed_run(self, mcd_small, goldens, tmp_path):
        golden = goldens["kanon-first"]
        ck = tmp_path / "ck"
        Anonymizer(golden.policy, method="kanon-first").fit(
            mcd_small, checkpoint=ck, **CADENCE
        )
        resumed = Anonymizer.resume(ck)
        assert_bitwise_equal(resumed, golden)


class TestProcessKillViaCLI:
    """An honest ``os._exit`` kill (no Python unwinding at all), injected
    into a subprocess via ``REPRO_FAULTS``, resumed through the CLI."""

    ARGS = [
        "--qi",
        "TAXINC,POTHVAL",
        "--confidential",
        "FEDTAX",
        "--require",
        "k=4,t=0.08",
        "--method",
        "kanon-first",
    ]

    def _run(self, argv, *, env_faults=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env.pop("REPRO_FAULTS", None)
        if env_faults:
            env["REPRO_FAULTS"] = env_faults
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_exit_kill_then_cli_resume(self, tmp_path):
        csv = tmp_path / "census.csv"
        write_csv(load_mcd(n=200), csv)
        golden_model = tmp_path / "golden.npz"
        golden_release = tmp_path / "golden-release.csv"
        proc = self._run(
            [
                "fit",
                str(csv),
                str(golden_model),
                *self.ARGS,
                "--release",
                str(golden_release),
            ]
        )
        assert proc.returncode == 0, proc.stderr

        ck = tmp_path / "ck"
        model = tmp_path / "model.npz"
        release = tmp_path / "release.csv"
        killed = self._run(
            ["fit", str(csv), str(model), *self.ARGS, "--checkpoint", str(ck)],
            env_faults="alg2.swap@150=exit",
        )
        assert killed.returncode == EXIT_CODE
        assert not model.exists()  # died mid-fit: no artifact at all

        resumed = self._run(
            [
                "fit",
                str(csv),
                str(model),
                *self.ARGS,
                "--resume",
                str(ck),
                "--release",
                str(release),
            ]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert release.read_bytes() == golden_release.read_bytes()
        with np.load(model) as got, np.load(golden_model) as want:
            assert set(got.files) == set(want.files)
            for name in got.files:
                assert got[name].tobytes() == want[name].tobytes()

    def test_cli_resume_missing_directory_exits_2(self, tmp_path):
        proc = self._run(
            [
                "fit",
                "unused.csv",
                str(tmp_path / "m.npz"),
                *self.ARGS,
                "--resume",
                str(tmp_path / "nowhere"),
            ]
        )
        assert proc.returncode == 2
        assert "no checkpoint found" in proc.stderr
