"""Fitted anonymization models: fit → transform → save/load.

:func:`repro.anonymize` is one-shot: partition, aggregate, release.  A
production deployment amortizes that work — the expensive clustering runs
once on a reference table (**fit**), and the fitted state (partition,
per-cluster representatives, the declared privacy policy and a structured
:class:`RunReport`) then serves incoming batches (**transform**) by
mapping each new record onto the nearest fitted representative, exactly
the generalization a k-anonymous release promises.  The fitted state
serializes to an ``.npz`` + JSON sidecar pair (:meth:`Anonymizer.save` /
:meth:`Anonymizer.load`), so a model fitted offline ships to stateless
server workers.

    >>> from repro import Anonymizer, KAnonymity, TCloseness
    >>> model = Anonymizer(KAnonymity(5) & TCloseness(0.15)).fit(data)
    >>> release = model.release_                 # the fitted table's release
    >>> served = model.transform(batch)          # new records, same geometry
    >>> model.save("model.npz")                  # + model.json sidecar

Long fits are crash-safe: ``fit(data, checkpoint=dir)`` snapshots every
phase boundary (and progress inside the long clustering loops) to a
:class:`~repro.runtime.CheckpointStore`, and ``Anonymizer.resume(dir)``
continues a killed run with output **bit-for-bit identical** to an
uninterrupted one.  All artifact writes are atomic and checksummed
(:mod:`repro.runtime.atomic`); damaged or version-skewed files surface as
typed :class:`~repro.runtime.ArtifactError`\\ s.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ..backend import SerialBackend, accepts_backend, resolve_backend
from ..data.attributes import AttributeSpec
from ..data.dataset import Microdata
from ..distance.records import QIEncoder
from ..microagg.aggregate import cluster_centroids
from ..microagg.partition import Partition
from ..registry import METHODS
from ..runtime.atomic import array_checksums, atomic_write_json, atomic_write_npz
from ..runtime.checkpoint import CheckpointStore, FitProgress, accepts_progress
from ..runtime.faults import fault_point
from ..runtime.serialize import spec_from_dict, spec_to_dict
from .base import TClosenessResult
from .policy import PrivacyPolicy, as_policy
from .repair import enforce_policy
from .validation import validate_fit_data

# Imported last, on purpose: repro.serving.model depends only on leaf core
# modules (policy, validation) — never on this one — so the core↔serving
# cycle resolves here.  MODEL_FORMAT_VERSION stays importable from this
# module (it describes Anonymizer.save's artifact, and tests pin it here);
# its definition moved next to the shared artifact reader.
from ..serving.model import (
    MODEL_FORMAT_VERSION,
    TransformModel,
    read_model_artifact,
)

#: Pipeline phases of one fit, in execution order.
FIT_PHASES = ("cluster", "repair", "aggregate", "verify")


@dataclass(frozen=True)
class RunReport:
    """Structured diagnostics of one ``fit`` run.

    Replaces spelunking through the untyped ``info`` dict: the quantities
    every release decision needs are first-class fields, per-phase timings
    are a mapping, and algorithm-specific counters stay available under
    ``details``.

    Attributes
    ----------
    algorithm:
        Registered method name that produced the partition.
    policy:
        Canonical spec string of the declared policy (``"k=5,t=0.15"``).
    n_records, n_clusters, min_cluster_size, mean_cluster_size, max_emd:
        Shape and achieved t-closeness of the fitted partition.
    satisfied:
        Whether the fitted partition meets every declared requirement.
    achieved:
        Measured level per requirement key (``{"k": 5, "t": 0.12, ...}``).
    timings:
        Wall-clock seconds per phase: ``cluster``, ``repair``,
        ``aggregate``, ``verify``.  For a resumed fit, phases completed
        before the crash report the time recorded at their checkpoint.
    details:
        Algorithm-specific counters (the former ``info`` dict, plus the
        repair counters when the repair phase engaged).
    """

    algorithm: str
    policy: str
    n_records: int
    n_clusters: int
    min_cluster_size: int
    mean_cluster_size: float
    max_emd: float
    satisfied: bool
    achieved: Mapping[str, float] = field(default_factory=dict)
    timings: Mapping[str, float] = field(default_factory=dict)
    details: Mapping[str, object] = field(default_factory=dict)

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            "Run report",
            "----------",
            f"algorithm        : {self.algorithm}",
            f"policy           : {self.policy} "
            f"({'satisfied' if self.satisfied else 'NOT satisfied'})",
            f"records          : {self.n_records}",
            f"clusters         : {self.n_clusters} "
            f"(min {self.min_cluster_size}, avg {self.mean_cluster_size:.1f})",
            f"max EMD          : {self.max_emd:.4f}",
        ]
        for key in sorted(self.achieved):
            lines.append(f"achieved {key:<8}: {self.achieved[key]:g}")
        for phase in FIT_PHASES:
            if phase in self.timings:
                lines.append(f"{phase + ' time':<17}: {self.timings[phase]:.3f}s")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready payload (numpy scalars coerced to Python numbers)."""
        return {
            "algorithm": self.algorithm,
            "policy": self.policy,
            "n_records": int(self.n_records),
            "n_clusters": int(self.n_clusters),
            "min_cluster_size": int(self.min_cluster_size),
            "mean_cluster_size": float(self.mean_cluster_size),
            "max_emd": float(self.max_emd),
            "satisfied": bool(self.satisfied),
            "achieved": {k: float(v) for k, v in self.achieved.items()},
            "timings": {k: float(v) for k, v in self.timings.items()},
            "details": _json_safe(dict(self.details)),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        return cls(**payload)


class NotFittedError(RuntimeError):
    """Raised when a lifecycle operation needs a fitted model."""


class Anonymizer:
    """Policy-driven anonymization model with a fit/transform lifecycle.

    Parameters
    ----------
    policy:
        A :class:`~repro.core.policy.PrivacyPolicy`, a single requirement,
        a spec string (``"k=5,t=0.15"``) or a mapping (``{"k": 5}``).
    method:
        Registered algorithm name (see ``repro.METHODS``); the method
        receives the policy's k and t, and the repair phase enforces any
        further requirements (l-diversity, p-sensitivity) by merging.
    repair:
        Run the post-clustering policy repair (:func:`~repro.core.repair.enforce_policy`).
        Disable only to study an algorithm's raw output — the released
        table may then violate the declared policy.
    backend:
        Compute backend executing the hot primitives of every phase —
        clustering, repair and batch ``transform``/``assign`` serving:
        ``"serial"``, a :class:`~repro.backend.SerialBackend` instance,
        or ``None`` for the shared one.  The choice is *not* serialized —
        :meth:`load` takes its own ``backend`` argument.
    method_kwargs:
        Forwarded to the algorithm (e.g. ``partitioner=`` for ``"merge"``).
    """

    def __init__(
        self,
        policy: PrivacyPolicy | object,
        *,
        method: str = "tclose-first",
        repair: bool = True,
        backend: SerialBackend | str | None = None,
        **method_kwargs: object,
    ) -> None:
        self.policy = as_policy(policy)
        self._method_fn = METHODS.resolve(method)  # eager: unknown names fail here
        self.method = method
        self.repair = repair
        self.backend = resolve_backend(backend)  # eager: unknown names fail here
        self.method_kwargs = method_kwargs
        self._fitted = False
        self.result_: TClosenessResult | None = None
        self.release_: Microdata | None = None
        self.report_: RunReport | None = None
        self._serving: TransformModel | None = None

    # -- lifecycle ---------------------------------------------------------------

    def fit(
        self,
        data: Microdata,
        *,
        checkpoint: str | Path | None = None,
        checkpoint_every_swaps: int = 2048,
        checkpoint_every_merges: int = 64,
    ) -> "Anonymizer":
        """Cluster ``data`` under the policy and keep the fitted state.

        Phases (timed individually in ``report_.timings``): **cluster**
        (the registered algorithm at the policy's k and t), **repair**
        (policy enforcement by merging — a no-op when the algorithm's
        output already complies), **aggregate** (per-cluster
        representatives and the fitted table's release) and **verify**
        (measuring every declared requirement on the fitted partition).

        With ``checkpoint=dir``, every phase boundary — and progress
        inside the long swap/merge loops, every ``checkpoint_every_swaps``
        accepted swaps / ``checkpoint_every_merges`` merges — is durably
        snapshotted to ``dir``, and :meth:`resume` continues a killed run
        bit-for-bit.  Checkpoint cadence never changes the fitted output,
        only how often it is persisted.  Re-running the identical
        checkpointed fit after a crash also simply continues.
        """
        validate_fit_data(data, k=self.policy.k)
        store: CheckpointStore | None = None
        progress: FitProgress | None = None
        if checkpoint is not None:
            store = CheckpointStore.open(
                checkpoint, config=self._fit_config(), data=data
            )
            progress = FitProgress(
                store,
                every_swaps=checkpoint_every_swaps,
                every_merges=checkpoint_every_merges,
            )
        return self._run_fit(data, store, progress)

    @classmethod
    def resume(
        cls,
        checkpoint: str | Path,
        *,
        backend: SerialBackend | str | None = None,
        checkpoint_every_swaps: int = 2048,
        checkpoint_every_merges: int = 64,
    ) -> "Anonymizer":
        """Continue a killed checkpointed fit from its directory alone.

        The checkpoint embeds the input data and the full fit
        configuration, so only the directory is needed; completed phases
        are loaded (the aggregate phase is recomputed), the interrupted
        phase replays the decisions of its last progress snapshot, and
        the finished model is **bit-for-bit identical** to
        what the uninterrupted run would have produced (labels, EMDs,
        counters — pinned by the crash/resume test matrix).  ``backend``
        is a pure execution choice, as in :meth:`load`.
        """
        store = CheckpointStore.load(checkpoint)
        config = store.config
        model = cls(
            PrivacyPolicy.from_dict(config["policy"]),
            method=config["method"],
            repair=config["repair"],
            backend=backend,
            **config["method_kwargs"],
        )
        data = store.load_data()
        progress = FitProgress(
            store,
            every_swaps=checkpoint_every_swaps,
            every_merges=checkpoint_every_merges,
        )
        return model._run_fit(data, store, progress)

    def _fit_config(self) -> dict:
        """JSON-able fit configuration (checkpoint identity, minus cadence)."""
        config = {
            "policy": self.policy.to_dict(),
            "method": self.method,
            "repair": bool(self.repair),
            "method_kwargs": dict(self.method_kwargs),
        }
        try:
            json.dumps(config, sort_keys=True)
        except TypeError:
            raise ValueError(
                "checkpointed fits require JSON-serializable method kwargs; "
                f"got {self.method_kwargs!r} — pass registered names instead "
                "of callables, or fit without checkpoint="
            ) from None
        return config

    def _run_fit(
        self,
        data: Microdata,
        store: CheckpointStore | None,
        progress: FitProgress | None,
    ) -> "Anonymizer":
        """The phase pipeline: cluster → repair → aggregate → verify.

        Each phase either replays from its checkpoint (already done) or
        computes and — when checkpointing — durably commits its output
        before the next phase starts.  The ``fit.phase:<name>`` fault
        points fire right after each commit, the exact boundary the
        crash/resume matrix kills at.
        """
        timings: dict[str, float] = {}
        t_level = self.policy.t if self.policy.t is not None else math.inf

        def run_phase(name: str, compute, to_state, from_state):
            if store is not None and store.phase_done(name):
                state = store.load_phase(name)
                timings[name] = float(state.get("seconds", 0.0))
                return from_state(state)
            start = time.perf_counter()
            value = compute()
            timings[name] = time.perf_counter() - start
            if store is not None:
                state = to_state(value)
                state["seconds"] = timings[name]
                store.complete_phase(name, state)
                fault_point(f"fit.phase:{name}")
            return value

        def compute_cluster():
            method_kwargs = dict(self.method_kwargs)
            if accepts_backend(self._method_fn):
                method_kwargs.setdefault("backend", self.backend)
            if progress is not None and accepts_progress(self._method_fn):
                method_kwargs.setdefault("progress", progress)
            return self._method_fn(data, self.policy.k, t_level, **method_kwargs)

        result = run_phase(
            "cluster", compute_cluster, _result_to_state, _result_from_state
        )

        def compute_repair():
            if not self.repair:
                return result
            kwargs = {}
            if progress is not None:
                kwargs["progress"] = progress
            return enforce_policy(
                data, result, self.policy, backend=self.backend, **kwargs
            )

        result = run_phase(
            "repair", compute_repair, _result_to_state, _result_from_state
        )

        def compute_aggregate():
            qi_names = data.quasi_identifiers
            representatives = cluster_centroids(data, result.partition, qi_names)
            labels = result.partition.labels
            release = data.with_columns(
                {name: representatives[labels, j] for j, name in enumerate(qi_names)}
            ).drop_identifiers()
            encoder = QIEncoder.fit(data, qi_names)
            encoded = encoder.encode(representatives)
            return release, qi_names, representatives, encoder, encoded

        # The aggregate is a deterministic function of (data, partition)
        # that costs a fraction of a second, so its checkpoint is only a
        # completion marker and a resume recomputes it.
        release, qi_names, representatives, encoder, encoded = run_phase(
            "aggregate",
            compute_aggregate,
            lambda value: {},
            lambda state: compute_aggregate(),
        )

        def compute_verify():
            return self._measure(data, result)

        result_final = result
        achieved, satisfied = run_phase(
            "verify",
            compute_verify,
            lambda value: {
                "achieved": {k: float(v) for k, v in value[0].items()},
                "satisfied": bool(value[1]),
            },
            lambda state: (dict(state["achieved"]), bool(state["satisfied"])),
        )

        self.result_ = result_final
        self.release_ = release
        self.report_ = RunReport(
            algorithm=result_final.algorithm,
            policy=self.policy.spec(),
            n_records=data.n_records,
            n_clusters=result_final.partition.n_clusters,
            min_cluster_size=result_final.min_cluster_size,
            mean_cluster_size=result_final.mean_cluster_size,
            max_emd=result_final.max_emd,
            satisfied=satisfied,
            achieved=achieved,
            timings=timings,
            details=dict(result_final.info),
        )
        self._serving = TransformModel(
            schema=data.schema,
            qi_names=qi_names,
            representatives=representatives,
            encoder=encoder,
            policy=self.policy,
            method=self.method,
            algorithm=result_final.algorithm,
            report=self.report_.to_dict(),
            backend=self.backend,
            encoded_representatives=encoded,
        )
        self._fitted = True
        return self

    def _measure(
        self, data: Microdata, result: TClosenessResult
    ) -> tuple[dict[str, float], bool]:
        """Achieved level per declared requirement, on the fitted partition."""
        from .policy import (  # local: keep module-level imports acyclic-simple
            DistinctLDiversity,
            KAnonymity,
            PSensitivity,
            TCloseness,
        )
        from .repair import cluster_distinct_counts

        achieved: dict[str, float] = {}
        satisfied = True
        distinct: int | None = None
        for req in self.policy:
            if isinstance(req, KAnonymity):
                level: float = result.partition.min_size
            elif isinstance(req, TCloseness):
                level = result.max_emd
            elif isinstance(req, (DistinctLDiversity, PSensitivity)):
                if distinct is None:
                    distinct = int(
                        cluster_distinct_counts(data, result.partition).min()
                    )
                level = distinct
            else:  # pragma: no cover - future requirement types
                continue
            achieved[req.key] = float(level)
            satisfied = satisfied and req.satisfied_by(level)
        return achieved, satisfied

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    # -- transform-time state (owned by the serving split) -------------------------

    @property
    def transform_model_(self) -> TransformModel | None:
        """The fitted :class:`~repro.serving.TransformModel` (None unfitted).

        The minimal transform-time state — schema, quasi-identifier
        names, representatives, encoder, policy metadata — split out of
        this class so the serving layer never holds fit-time engine
        state.  ``transform``/``assign`` delegate to it, so both paths
        are one implementation and stay bit-for-bit identical.
        """
        return self._serving

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "this Anonymizer is not fitted; call fit(data) or load(path) first"
            )

    def fit_transform(self, data: Microdata) -> Microdata:
        """Fit on ``data`` and return its release (the one-shot path)."""
        return self.fit(data).release_

    def transform(self, batch: Microdata) -> Microdata:
        """Anonymize new records against the fitted representatives.

        Each batch record's quasi-identifiers are replaced by those of the
        nearest fitted cluster representative (squared Euclidean distance
        in the *fit* data's encoded geometry; exact ties resolve to the
        lowest cluster id).  Confidential and non-confidential columns
        pass through untouched; identifier columns are dropped.

        Delegates to the fitted :class:`~repro.serving.TransformModel`'s
        staged pipeline: one schema scan, one encoding and one backend
        query per batch (the pre-split code scanned the schema twice).
        """
        self._require_fitted()
        return self._serving.transform(batch, backend=self.backend)

    def assign(self, batch: Microdata) -> np.ndarray:
        """Nearest fitted cluster id for each batch record.

        One backend-executed nearest-representative query
        (:meth:`~repro.backend.SerialBackend.assign_nearest`) over the
        whole batch — the canonical distance kernel per record against
        every fitted representative, exact ties to the lowest cluster id,
        bit-for-bit the per-cluster loop this replaced (pinned by
        ``tests/core/test_transform_vectorized.py``).
        """
        self._require_fitted()
        return self._serving.assign(batch, backend=self.backend)

    def _check_batch_schema(self, batch: Microdata) -> None:
        """Validate a serving batch (delegates to the serving split)."""
        self._serving.check_batch(batch)

    def batch_schema(
        self, available: tuple[str, ...] | None = None
    ) -> tuple[AttributeSpec, ...]:
        """Schema for reading serving batches (e.g. ``read_csv(path, schema=...)``).

        The fitted schema minus identifier columns (a serving batch should
        not carry direct identifiers; any that do appear are dropped by
        :meth:`transform` anyway).  With ``available`` (e.g. a CSV header),
        the schema is additionally filtered to the columns actually
        present — every quasi-identifier must still be among them.
        """
        self._require_fitted()
        return self._serving.batch_schema(available)

    # -- policy audit -------------------------------------------------------------

    def audit(self, original: Microdata | None = None, *, posture: bool = True):
        """Independent policy audit of the fitted release.

        Recomputes every declared requirement from the released table alone
        (see :func:`repro.privacy.audit.audit_policy`) — nothing is trusted
        from the fit run.  The EMD flavour follows the fitted run's
        ``emd_mode`` (recorded in ``result_.info``, so it survives
        ``save``/``load``): a policy enforced under rank-mode EMDs is
        audited under rank-mode EMDs.  ``posture=False`` skips the bundled
        model-agnostic posture report and computes only the
        per-requirement verdicts.
        """
        self._require_fitted()
        from ..privacy.audit import audit_policy  # local: privacy imports core

        return audit_policy(
            self.release_,
            self.policy,
            original,
            emd_mode=str(self.result_.info.get("emd_mode", "distinct")),
            posture=posture,
        )

    # -- serialization ------------------------------------------------------------

    def save(self, path: str | Path) -> tuple[Path, Path]:
        """Write the fitted model to ``path`` (.npz) + a ``.json`` sidecar.

        The npz holds the arrays (partition labels, per-cluster EMDs, raw
        quasi-identifier representatives); the sidecar holds everything
        human-auditable — policy, schema, encoder parameters, the run
        report — plus a SHA-256 checksum of every array, which
        :meth:`load` verifies.  Both files are written atomically
        (temp + fsync + rename), npz first: a crash mid-save leaves
        either the old pair intact or a pair whose mismatch :meth:`load`
        detects with a typed error — never a silently inconsistent model.
        Returns the two paths written.
        """
        self._require_fitted()
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        sidecar = path.with_suffix(".json")
        serving = self._serving
        arrays = {
            "labels": np.asarray(self.result_.partition.labels),
            "cluster_emds": np.asarray(self.result_.cluster_emds),
            "representatives": np.asarray(serving.representatives),
        }
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "policy": self.policy.to_dict(),
            "method": self.method,
            "algorithm": self.result_.algorithm,
            "result_k": int(self.result_.k),
            "result_t": _json_float(self.result_.t),
            "info": _json_safe(dict(self.result_.info)),
            "qi_names": list(serving.qi_names),
            "schema": [spec_to_dict(s) for s in serving.schema],
            "encoder": serving.encoder.to_dict(),
            "report": self.report_.to_dict(),
            "checksums": array_checksums(arrays),
        }
        atomic_write_npz(path, arrays)
        atomic_write_json(sidecar, payload)
        return path, sidecar

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        backend: SerialBackend | str | None = None,
        mmap_mode: str | None = None,
    ) -> "Anonymizer":
        """Rebuild a fitted model from :meth:`save` output.

        The loaded model serves ``transform``/``assign``/``save`` and keeps
        ``result_`` and ``report_``; the fitted table itself is not stored,
        so ``release_`` is None and ``fit`` must be called with data to
        refit.  ``backend`` selects the compute backend for serving (the
        fitted state records none).

        ``mmap_mode="r"`` memory-maps the artifact's arrays read-only in
        place instead of copying them into private memory, so multiple
        serving workers loading the same model share one set of
        page-cache pages (see :func:`repro.runtime.atomic.read_npz`);
        the loaded state is value-identical either way.

        Artifact damage surfaces as typed errors instead of numpy
        tracebacks: a missing file raises
        :class:`~repro.runtime.ArtifactMissingError`, truncation /
        bit flips / an npz–sidecar mismatch raise
        :class:`~repro.runtime.ArtifactCorruptError`, and a format the
        build cannot read raises
        :class:`~repro.runtime.ArtifactVersionError`.
        """
        payload, arrays, _ = read_model_artifact(path, mmap_mode=mmap_mode)
        model = cls(
            PrivacyPolicy.from_dict(payload["policy"]),
            method=payload["method"],
            backend=backend,
        )
        model.result_ = TClosenessResult(
            algorithm=payload["algorithm"],
            k=payload["result_k"],
            t=_from_json_float(payload["result_t"]),
            partition=Partition(arrays["labels"]),
            cluster_emds=arrays["cluster_emds"],
            info=dict(payload["info"]),
        )
        model._serving = TransformModel.from_artifact(
            payload, arrays, backend=model.backend
        )
        model.report_ = RunReport.from_dict(payload["report"])
        model._fitted = True
        return model

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self._fitted else "unfitted"
        return (
            f"Anonymizer(policy={self.policy.spec()!r}, "
            f"method={self.method!r}, {state})"
        )


# -- (de)serialization helpers ----------------------------------------------------

#: Backwards-compatible aliases (the canonical versions moved to
#: :mod:`repro.runtime.serialize`, shared with the checkpoint store).
_spec_to_dict = spec_to_dict
_spec_from_dict = spec_from_dict


def _result_to_state(result: TClosenessResult) -> dict:
    """Checkpoint state tree of one algorithm result (bitwise arrays)."""
    return {
        "labels": np.asarray(result.partition.labels),
        "cluster_emds": np.asarray(result.cluster_emds),
        "meta": {
            "algorithm": result.algorithm,
            "k": int(result.k),
            "t": _json_float(result.t),
            "info": _json_safe(dict(result.info)),
        },
    }


def _result_from_state(state: dict) -> TClosenessResult:
    """Inverse of :func:`_result_to_state`."""
    meta = state["meta"]
    return TClosenessResult(
        algorithm=meta["algorithm"],
        k=int(meta["k"]),
        t=_from_json_float(meta["t"]),
        partition=Partition(state["labels"]),
        cluster_emds=state["cluster_emds"],
        info=dict(meta["info"]),
    )


def _json_float(value: float) -> float | str:
    """JSON has no inf/nan literals; encode them as strings."""
    value = float(value)
    if math.isfinite(value):
        return value
    return repr(value)


def _from_json_float(value: float | str) -> float:
    return float(value)


def _json_safe(obj: object) -> object:
    """Recursively coerce numpy scalars/arrays to JSON-ready Python values."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    return obj
