"""Checkpoint store and progress ticks for resumable fits.

A checkpoint directory is a self-contained, crash-consistent record of
one fit in flight:

``config.json``
    The fit configuration (policy, method, kwargs) plus the content
    fingerprint tying the checkpoint to one (data, config) pair.
``data.npz``
    The input table itself, so ``Anonymizer.resume(dir)`` needs nothing
    but the directory.
``phase-<name>.npz``
    Output of a completed pipeline phase (cluster / repair / verify); the
    aggregate phase, cheap to recompute, records only its completion.
``progress-<stage>.<seq>.npz``
    Intra-phase snapshot from inside a long loop (Algorithm 2's swap
    refinement, the merge loops), sequence-numbered.  It records the
    loop's decisions so far, which a resume replays.
``manifest.json``
    The *commit record*: which phase/progress files are current, with
    their SHA-256 checksums.  Every state write lands fully (atomic
    temp+rename) **before** the manifest is atomically replaced, and
    superseded files are unlinked only **after** the manifest commit —
    so a crash at any instant leaves the directory describing one
    consistent, resumable view (either the old state or the new, never
    a torn mix).

All snapshot payloads go through :mod:`repro.runtime.serialize`, which
round-trips numpy arrays bitwise — the foundation of the resume
guarantee that a killed-and-resumed fit equals an uninterrupted one
bit for bit.
"""

from __future__ import annotations

import inspect
import io
import json
from pathlib import Path
from typing import Callable

import numpy as np

from ..data.dataset import Microdata
from .atomic import (
    ArtifactCorruptError,
    ArtifactError,
    ArtifactMissingError,
    ArtifactVersionError,
    atomic_write_bytes,
    atomic_write_json,
    read_json,
    read_npz,
    sha256_bytes,
    sweep_tmp_files,
    verify_checksum,
)
from .faults import fault_point
from .serialize import (
    data_fingerprint,
    microdata_from_state,
    microdata_to_state,
    pack_state,
    unpack_state,
)

#: Bumped whenever the on-disk checkpoint layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 4

_META_KEY = "__meta__"


def accepts_progress(fn) -> bool:
    """Whether a callable takes an explicit ``progress`` keyword.

    Mirrors :func:`repro.backend.base.accepts_backend`: only an explicit
    parameter counts — a ``**kwargs`` catch-all does not advertise
    checkpoint support.
    """
    try:
        parameters = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    return "progress" in parameters


# -- state files ---------------------------------------------------------------


def write_state_bytes(tree: dict) -> bytes:
    """Serialize a state tree to self-contained ``.npz`` bytes.

    Arrays are stored under their flat ``/``-joined keys; scalars travel
    as JSON embedded in a ``__meta__`` byte array, so a state file can be
    read back with nothing but the file itself.
    """
    arrays, scalars = pack_state(tree)
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "scalars": scalars,
    }
    payload = dict(arrays)
    payload[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


def read_state_file(path: Path, *, kind: str = "checkpoint state") -> dict:
    """Read a state tree written by :func:`write_state_bytes`."""
    arrays = read_npz(path, kind=kind)
    blob = arrays.pop(_META_KEY, None)
    if blob is None:
        raise ArtifactCorruptError(
            f"{kind} {path} has no embedded metadata; the file is not a "
            "repro state file or was written by an incompatible version"
        )
    try:
        meta = json.loads(bytes(blob).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactCorruptError(
            f"{kind} {path} has unreadable embedded metadata ({exc}); the "
            "file is corrupted — recreate the checkpoint"
        ) from None
    version = meta.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{kind} {path} has format version {version}, this build reads "
            f"version {CHECKPOINT_FORMAT_VERSION}; re-run the fit to produce "
            "a fresh checkpoint"
        )
    return unpack_state(arrays, meta["scalars"])


def _stage_slug(stage: str) -> str:
    return stage.replace(":", "-")


class CheckpointStore:
    """Crash-consistent store of one fit's phase and progress snapshots.

    Use :meth:`open` when starting a (possibly restarted) checkpointed
    fit and :meth:`load` when resuming from a directory alone.
    """

    _MANIFEST = "manifest.json"
    _CONFIG = "config.json"
    _DATA = "data.npz"

    def __init__(self, directory: Path, manifest: dict, config: dict) -> None:
        self.directory = Path(directory)
        self._manifest = manifest
        self._config = config

    # -- construction ----------------------------------------------------------

    @classmethod
    def open(cls, directory, *, config: dict, data: Microdata) -> "CheckpointStore":
        """Create (or re-open) a checkpoint directory for a fit.

        A fresh directory is initialised with the config, the data and an
        empty manifest.  If the directory already holds a checkpoint for
        the *same* data and configuration (matching fingerprint), it is
        re-opened as-is — re-running the identical ``fit --checkpoint DIR``
        command after a crash simply continues, and by the bitwise resume
        guarantee produces the same output an uninterrupted run would.
        A checkpoint for *different* data or config is refused rather
        than overwritten.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sweep_tmp_files(directory)
        fingerprint = data_fingerprint(data, config)
        manifest_path = directory / cls._MANIFEST
        if manifest_path.exists():
            manifest = read_json(manifest_path, kind="checkpoint manifest")
            cls._check_manifest(manifest, manifest_path)
            if manifest.get("fingerprint") != fingerprint:
                raise ArtifactError(
                    f"checkpoint directory {directory} belongs to a different "
                    "fit (data or configuration fingerprint mismatch); use a "
                    "fresh directory, or resume the original fit with "
                    "Anonymizer.resume / `fit --resume`"
                )
            config = read_json(directory / cls._CONFIG, kind="checkpoint config")[
                "config"
            ]
            return cls(directory, manifest, config)
        atomic_write_json(
            directory / cls._CONFIG,
            {
                "format_version": CHECKPOINT_FORMAT_VERSION,
                "fingerprint": fingerprint,
                "config": config,
            },
        )
        data_bytes = write_state_bytes(microdata_to_state(data))
        atomic_write_bytes(directory / cls._DATA, data_bytes)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "data_checksum": sha256_bytes(data_bytes),
            "phases": {},
            "progress": {},
        }
        store = cls(directory, manifest, config)
        store._commit()
        return store

    @classmethod
    def load(cls, directory) -> "CheckpointStore":
        """Open an existing checkpoint directory for resuming."""
        directory = Path(directory)
        manifest_path = directory / cls._MANIFEST
        if not directory.is_dir() or not manifest_path.exists():
            raise ArtifactMissingError(
                f"no checkpoint found at {directory}: missing "
                f"{cls._MANIFEST}; pass the directory given to "
                "fit(checkpoint=...) / `fit --checkpoint`"
            )
        sweep_tmp_files(directory)
        manifest = read_json(manifest_path, kind="checkpoint manifest")
        cls._check_manifest(manifest, manifest_path)
        config_payload = read_json(directory / cls._CONFIG, kind="checkpoint config")
        if config_payload.get("fingerprint") != manifest.get("fingerprint"):
            raise ArtifactCorruptError(
                f"checkpoint config {directory / cls._CONFIG} does not match "
                "the manifest fingerprint; the directory mixes files from "
                "different runs — start a fresh checkpointed fit"
            )
        return cls(directory, manifest, config_payload["config"])

    @staticmethod
    def _check_manifest(manifest: dict, path: Path) -> None:
        version = manifest.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ArtifactVersionError(
                f"checkpoint manifest {path} has format version {version}, "
                f"this build reads version {CHECKPOINT_FORMAT_VERSION}; "
                "re-run the fit to produce a fresh checkpoint"
            )
        for key in ("fingerprint", "phases", "progress"):
            if key not in manifest:
                raise ArtifactCorruptError(
                    f"checkpoint manifest {path} is missing its {key!r} "
                    "entry; the file is truncated or hand-edited — start a "
                    "fresh checkpointed fit"
                )

    # -- accessors -------------------------------------------------------------

    @property
    def config(self) -> dict:
        """The fit configuration recorded at checkpoint creation."""
        return self._config

    @property
    def fingerprint(self) -> str:
        return self._manifest["fingerprint"]

    def load_data(self) -> Microdata:
        """The input table embedded in the checkpoint, verified."""
        path = self.directory / self._DATA
        verify_checksum(
            path, self._manifest["data_checksum"], kind="checkpoint data"
        )
        return microdata_from_state(read_state_file(path, kind="checkpoint data"))

    def verify_against(self, data: Microdata) -> None:
        """Refuse to resume against data/config the checkpoint wasn't built on."""
        fingerprint = data_fingerprint(data, self._config)
        if fingerprint != self.fingerprint:
            raise ArtifactError(
                f"checkpoint {self.directory} was created for different data "
                "than supplied; resume with the embedded data "
                "(Anonymizer.resume(dir)) or start a fresh fit"
            )

    # -- phase snapshots -------------------------------------------------------

    def phase_done(self, name: str) -> bool:
        """Whether phase ``name`` has a committed snapshot."""
        return name in self._manifest["phases"]

    def load_phase(self, name: str) -> dict:
        """The committed output state of phase ``name``, verified."""
        entry = self._manifest["phases"][name]
        path = self.directory / entry["file"]
        verify_checksum(path, entry["checksum"], kind=f"phase checkpoint {name!r}")
        return read_state_file(path, kind=f"phase checkpoint {name!r}")

    def complete_phase(self, name: str, state: dict) -> None:
        """Record a phase's output and retire all intra-phase progress.

        The phase file is durably written first; the manifest commit then
        switches the current view in one atomic rename; only afterwards
        are the superseded progress files unlinked.
        """
        file_name = f"phase-{name}.npz"
        payload = write_state_bytes(state)
        atomic_write_bytes(self.directory / file_name, payload)
        stale = [entry["file"] for entry in self._manifest["progress"].values()]
        self._manifest["phases"][name] = {
            "file": file_name,
            "checksum": sha256_bytes(payload),
        }
        self._manifest["progress"] = {}
        self._commit()
        for old in stale:
            (self.directory / old).unlink(missing_ok=True)

    # -- intra-phase progress --------------------------------------------------

    def load_progress(self, stage: str) -> dict | None:
        """The latest progress snapshot for ``stage`` (None if none yet)."""
        entry = self._manifest["progress"].get(stage)
        if entry is None:
            return None
        path = self.directory / entry["file"]
        verify_checksum(
            path, entry["checksum"], kind=f"progress checkpoint {stage!r}"
        )
        return read_state_file(path, kind=f"progress checkpoint {stage!r}")

    def progress_units(self, stage: str) -> int:
        """Unit counter recorded with ``stage``'s latest snapshot (0 if none)."""
        entry = self._manifest["progress"].get(stage)
        return int(entry["units"]) if entry else 0

    def write_progress(self, stage: str, units: int, state: dict) -> None:
        """Snapshot in-flight loop state (sequence-numbered, commit-last)."""
        previous = self._manifest["progress"].get(stage)
        seq = (previous["seq"] + 1) if previous else 1
        file_name = f"progress-{_stage_slug(stage)}.{seq:06d}.npz"
        payload = write_state_bytes(state)
        atomic_write_bytes(self.directory / file_name, payload)
        self._manifest["progress"][stage] = {
            "file": file_name,
            "checksum": sha256_bytes(payload),
            "seq": seq,
            "units": int(units),
        }
        self._commit()
        if previous:
            (self.directory / previous["file"]).unlink(missing_ok=True)

    # -- internals -------------------------------------------------------------

    def _commit(self) -> None:
        atomic_write_json(self.directory / self._MANIFEST, self._manifest)


class FitProgress:
    """Cadenced progress ticks inside long algorithm loops.

    The algorithms call :meth:`tick` at every safe snapshot point with
    the current unit counter (accepted swaps, merges) and a *thunk* that
    builds the state tree; the thunk only runs when the cadence gate
    opens, so disarmed ticks stay cheap.  Cadence never changes computed
    values — only how often they are persisted — so any cadence yields
    the same fitted output.

    Stages whose name ends in ``merge`` are gated by ``every_merges``;
    every other stage (the swap-refinement loops) by ``every_swaps``.
    """

    def __init__(
        self,
        store: CheckpointStore,
        *,
        every_swaps: int = 2048,
        every_merges: int = 64,
    ) -> None:
        if every_swaps < 1 or every_merges < 1:
            raise ValueError("checkpoint cadence must be >= 1")
        self.store = store
        self.every_swaps = int(every_swaps)
        self.every_merges = int(every_merges)
        self._last_units: dict[str, int] = {}

    def _cadence(self, stage: str) -> int:
        return self.every_merges if stage.endswith("merge") else self.every_swaps

    def load(self, stage: str) -> dict | None:
        """Resume state for a stage, if a progress snapshot exists."""
        state = self.store.load_progress(stage)
        if state is not None:
            self._last_units[stage] = self.store.progress_units(stage)
        return state

    def units_until_due(self, stage: str, units: int) -> int:
        """Units left, from ``units``, until :meth:`tick` next writes (>= 1).

        At least 1 even when a tick is already due, so a loop that runs
        to this many units between ticks always advances.
        """
        return max(1, self._last_units.get(stage, 0) + self._cadence(stage) - units)

    def tick(
        self,
        stage: str,
        units: int,
        state_fn: Callable[[], dict],
        *,
        force: bool = False,
    ) -> bool:
        """Maybe persist a snapshot at a safe point; returns True if written."""
        due = units - self._last_units.get(stage, 0) >= self._cadence(stage)
        if not (force or due):
            return False
        self.store.write_progress(stage, units, state_fn())
        self._last_units[stage] = units
        fault_point(f"progress:{stage}")
        return True
