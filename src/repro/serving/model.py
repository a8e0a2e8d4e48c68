"""The minimal transform-time model — what a serving worker actually holds.

A fitted :class:`~repro.core.model.Anonymizer` carries two kinds of state:
the *fit-time* artifacts (the partition, per-cluster EMDs, the structured
run report, and — during ``fit`` itself — live engine buffers and EMD
trackers) and the *transform-time* state that serving a batch actually
needs: the per-cluster quasi-identifier representatives, the fitted
:class:`~repro.distance.records.QIEncoder`, the batch schema to validate
against, and the declared policy/audit metadata.  :class:`TransformModel`
is exactly that second half, split out so the serving path — registry
loads, the coalescing batcher, every HTTP worker — never holds (or pays
the memory of) fit-time engine state.  ``Anonymizer`` delegates its own
``transform``/``assign`` to an internal :class:`TransformModel`, so both
paths are one implementation and stay bit-for-bit identical.

The batch pipeline is deliberately staged::

    encoded = model.encode_batch(batch)     # schema check + ONE encode
    ids     = model.assign_encoded(encoded) # one backend kd query
    release = model.apply_assignment(batch, ids)

so callers that need the intermediate products (the serving cache keys on
encoded rows; the batcher coalesces ``assign_encoded`` calls) reuse the
same single encoding instead of re-deriving it — the schema is scanned
once and the encoder runs once per batch, pinned by a call-count test.

The model builds a static kd index over its encoded representatives
(:class:`~repro.backend.kernels.NearestIndex`) once, at construction, and
every assign query runs against it; the index is derived state, never
written into model artifacts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from ..backend import SerialBackend, resolve_backend
from ..backend.kernels import build_nearest_index
from ..core.policy import PrivacyPolicy, as_policy
from ..core.validation import BatchSchemaError
from ..data.attributes import AttributeRole, AttributeSpec
from ..data.dataset import Microdata
from ..distance.records import QIEncoder
from ..runtime.atomic import (
    ArtifactVersionError,
    read_json,
    read_npz,
    verify_array_checksums,
)
from ..runtime.serialize import spec_from_dict

#: On-disk model format version (bump on incompatible layout changes).
#: Version 2 added content checksums to the sidecar (atomic save/load).
#: Owned here because both loaders — ``Anonymizer.load`` and
#: :meth:`TransformModel.load` — read the same artifact pair.
MODEL_FORMAT_VERSION = 2


def read_model_artifact(
    path: str | Path, *, mmap_mode: str | None = None
) -> tuple[dict, dict[str, np.ndarray], Path]:
    """Read and verify a saved model's ``(sidecar payload, arrays, npz path)``.

    The shared reading half of ``Anonymizer.save``'s artifact contract:
    resolve the ``.npz`` + ``.json`` pair, check the format version,
    load the arrays (``mmap_mode="r"`` maps them read-only in place, so
    concurrent serving workers share one set of page-cache pages instead
    of each copying the arrays) and verify every recorded content
    checksum.  Damage surfaces as the typed
    :class:`~repro.runtime.ArtifactError` hierarchy.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    sidecar = path.with_suffix(".json")
    payload = read_json(sidecar, kind="model")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ArtifactVersionError(
            f"model {sidecar} has format version {version!r}, this build "
            f"reads version {MODEL_FORMAT_VERSION}; re-save the model "
            "with a matching library version"
        )
    arrays = read_npz(path, kind="model", mmap_mode=mmap_mode)
    verify_array_checksums(
        arrays, payload.get("checksums", {}), source=path, kind="model"
    )
    return payload, arrays, path


class TransformModel:
    """Transform-time half of a fitted anonymization model.

    Parameters
    ----------
    schema:
        The fitted table's :class:`~repro.data.attributes.AttributeSpec`
        tuple (what serving batches are validated against).
    qi_names:
        Quasi-identifier column names, in representative-column order.
    representatives:
        ``(n_clusters, len(qi_names))`` raw representative values — the
        rows a transformed record's quasi-identifiers are replaced with.
    encoder:
        The fit-time :class:`~repro.distance.records.QIEncoder`; embeds
        incoming batches into the *fit* data's geometry.
    policy:
        Declared :class:`~repro.core.policy.PrivacyPolicy` (any
        ``as_policy`` coercible).
    method, algorithm:
        Registered method name the model was fitted with, and the
        algorithm recorded in its result (metadata only on this path).
    report:
        JSON payload of the fit's :class:`~repro.core.model.RunReport`
        (exposed by the serving API's model listing; optional).
    backend:
        Default compute backend for :meth:`assign_encoded`; every query
        method also takes a per-call override.
    encoded_representatives:
        Pre-encoded representatives; derived from ``encoder`` when
        omitted.

    Attributes
    ----------
    nearest_index:
        The :class:`~repro.backend.kernels.NearestIndex` over
        ``encoded_representatives`` that every assign query runs against,
        built here once (a couple of milliseconds for thousands of
        representatives) and shared by every request.
    """

    def __init__(
        self,
        *,
        schema: tuple[AttributeSpec, ...],
        qi_names: tuple[str, ...],
        representatives: np.ndarray,
        encoder: QIEncoder,
        policy: PrivacyPolicy | object,
        method: str = "tclose-first",
        algorithm: str | None = None,
        report: Mapping[str, object] | None = None,
        backend: SerialBackend | str | None = None,
        encoded_representatives: np.ndarray | None = None,
    ) -> None:
        self.schema = tuple(schema)
        self.qi_names = tuple(qi_names)
        self.representatives = np.asarray(representatives)
        self.encoder = encoder
        self.policy = as_policy(policy)
        self.method = method
        self.algorithm = algorithm if algorithm is not None else method
        self.report = dict(report) if report else {}
        self.backend = resolve_backend(backend)
        if encoded_representatives is None:
            encoded_representatives = encoder.encode(self.representatives)
        self.encoded_representatives = np.asarray(encoded_representatives)
        self.nearest_index = build_nearest_index(self.encoded_representatives)
        self._schema_index = {s.name: s for s in self.schema}

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_anonymizer(cls, model) -> "TransformModel":
        """The transform-time state of a fitted ``Anonymizer`` (shared arrays)."""
        serving = model.transform_model_
        if serving is None:  # pragma: no cover - guarded by _require_fitted
            raise ValueError("the Anonymizer is not fitted")
        return serving

    @classmethod
    def from_artifact(
        cls,
        payload: dict,
        arrays: Mapping[str, np.ndarray],
        *,
        backend: SerialBackend | str | None = None,
    ) -> "TransformModel":
        """Build from a verified model artifact's sidecar payload + arrays."""
        return cls(
            schema=tuple(spec_from_dict(d) for d in payload["schema"]),
            qi_names=tuple(payload["qi_names"]),
            representatives=arrays["representatives"],
            encoder=QIEncoder.from_dict(payload["encoder"]),
            policy=PrivacyPolicy.from_dict(payload["policy"]),
            method=payload["method"],
            algorithm=payload["algorithm"],
            report=payload.get("report"),
            backend=backend,
        )

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        backend: SerialBackend | str | None = None,
        mmap_mode: str | None = None,
    ) -> "TransformModel":
        """Load only the transform-time state from ``Anonymizer.save`` output.

        Reads the same ``.npz`` + ``.json`` artifact pair as
        ``Anonymizer.load`` (same typed errors on damage) but rebuilds
        none of the fit-time state — no partition, no cluster EMDs, no
        result object — so a serving worker's per-model footprint is the
        representatives plus a handful of floats.  ``mmap_mode="r"``
        memory-maps the arrays read-only, letting every worker process
        that loads the same artifact share one set of page-cache pages.
        """
        payload, arrays, _ = read_model_artifact(path, mmap_mode=mmap_mode)
        return cls.from_artifact(payload, arrays, backend=backend)

    # -- shape --------------------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Number of fitted cluster representatives."""
        return int(self.representatives.shape[0])

    # -- the staged batch pipeline ------------------------------------------------

    def check_batch(self, batch: Microdata) -> None:
        """Validate a serving batch against the fitted schema (one scan).

        Every quasi-identifier column must be present with the fitted kind
        and category set; anything else raises
        :class:`~repro.core.validation.BatchSchemaError`.
        """
        for name in self.qi_names:
            if name not in batch:
                raise BatchSchemaError(
                    f"batch is missing quasi-identifier column {name!r}"
                )
            fitted, incoming = self._schema_index[name], batch.spec(name)
            if fitted.kind is not incoming.kind or fitted.categories != incoming.categories:
                raise BatchSchemaError(
                    f"batch column {name!r} does not match the fitted schema "
                    f"(fitted {fitted.kind}/{len(fitted.categories)} categories, "
                    f"batch {incoming.kind}/{len(incoming.categories)})"
                )

    def encode_batch(self, batch: Microdata) -> np.ndarray:
        """Schema-check then encode a batch's quasi-identifiers — once.

        The single entry point producing the encoded query matrix every
        downstream consumer (distance query, serving cache key, batcher)
        reuses; ``transform``/``assign`` each call this exactly one time
        per batch (pinned by a call-count test), where the pre-split code
        scanned the schema twice per ``transform``.
        """
        self.check_batch(batch)
        return self.encoder.encode(batch.matrix(self.qi_names))

    def assign_encoded(
        self,
        encoded: np.ndarray,
        *,
        backend: SerialBackend | None = None,
    ) -> np.ndarray:
        """Nearest fitted cluster id per pre-encoded row.

        One backend ``assign_nearest`` query against the model's kd index:
        bitwise the canonical distance kernel per row against every
        fitted representative, exact ties to the lowest cluster id.
        Per-row results are independent of which other rows share the
        call — the property the coalescing batcher's bit-for-bit contract
        rests on.
        """
        backend = self.backend if backend is None else backend
        return backend.assign_nearest(encoded, self.nearest_index)

    def assign(
        self,
        batch: Microdata,
        *,
        backend: SerialBackend | None = None,
    ) -> np.ndarray:
        """Nearest fitted cluster id for each batch record."""
        return self.assign_encoded(self.encode_batch(batch), backend=backend)

    def apply_assignment(
        self, batch: Microdata, assignment: np.ndarray
    ) -> Microdata:
        """Build the anonymized batch from per-record cluster ids.

        Replaces each record's quasi-identifiers with its assigned
        cluster's representative values; confidential and other columns
        pass through untouched, identifier columns are dropped.
        """
        replacements = {
            name: self.representatives[assignment, j]
            for j, name in enumerate(self.qi_names)
        }
        return batch.with_columns(replacements).drop_identifiers()

    def transform(
        self,
        batch: Microdata,
        *,
        backend: SerialBackend | None = None,
    ) -> Microdata:
        """Anonymize new records against the fitted representatives.

        ``encode_batch`` → ``assign_encoded`` → ``apply_assignment``: one
        schema scan, one encoding, one backend query per batch.
        """
        encoded = self.encode_batch(batch)
        assignment = self.assign_encoded(encoded, backend=backend)
        return self.apply_assignment(batch, assignment)

    # -- serving metadata ----------------------------------------------------------

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
        specs = tuple(
            s for s in self.schema if s.role is not AttributeRole.IDENTIFIER
        )
        if available is not None:
            present = set(available)
            missing = [n for n in self.qi_names if n not in present]
            if missing:
                raise BatchSchemaError(
                    f"batch is missing quasi-identifier column(s) {missing}"
                )
            specs = tuple(s for s in specs if s.name in present)
        return specs

    def describe(self) -> dict:
        """JSON-ready metadata for the serving API's model listing."""
        return {
            "policy": self.policy.spec(),
            "method": self.method,
            "algorithm": self.algorithm,
            "n_clusters": self.n_clusters,
            "quasi_identifiers": list(self.qi_names),
            "satisfied": self.report.get("satisfied"),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransformModel(policy={self.policy.spec()!r}, "
            f"method={self.method!r}, n_clusters={self.n_clusters})"
        )
