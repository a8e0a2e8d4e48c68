"""State-tree serialization for checkpoints and artifacts.

Checkpoint state is produced by the algorithms as *nested dicts* whose
leaves are numpy arrays or JSON-able scalars (the decisions a loop has
taken so far: clusters carved, pairs merged).  This module flattens such
a tree into the two things an ``.npz`` + manifest pair can hold — a flat
mapping of arrays (keys joined with ``/``) and a JSON-able scalar tree —
and reassembles the identical tree on load.  Arrays round-trip bitwise
(dtype, shape and bytes), scalars through JSON (arbitrary-precision ints
included, which the RNG bit-generator state needs).

It also owns the :class:`~repro.data.dataset.Microdata` ↔ state-tree
conversion (a checkpoint directory embeds its input data so a resumed
process needs nothing but the directory) and the content fingerprint
that ties a checkpoint to one (data, configuration) pair.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Mapping

import numpy as np

from ..data.attributes import AttributeKind, AttributeRole, AttributeSpec
from ..data.dataset import Microdata

_SEP = "/"


def pack_state(tree: Mapping) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a nested state tree into ``(arrays, scalars)``.

    Array leaves land in ``arrays`` under their ``/``-joined path;
    everything else (bool/int/float/str/None, and dicts of such — e.g. an
    RNG bit-generator state) lands in the JSON-able ``scalars`` tree at
    the same position.  Keys must not contain ``/``.
    """
    arrays: dict[str, np.ndarray] = {}
    scalars: dict = {}

    def walk(node: Mapping, prefix: str, meta: dict) -> None:
        for key, value in node.items():
            key = str(key)
            if _SEP in key:
                raise ValueError(f"state key {key!r} must not contain {_SEP!r}")
            path = f"{prefix}{key}"
            if isinstance(value, np.ndarray):
                arrays[path] = value
            elif isinstance(value, dict) and not _is_scalar_dict(value):
                sub: dict = {}
                walk(value, f"{path}{_SEP}", sub)
                if sub:
                    meta[key] = sub
            else:
                meta[key] = _to_scalar(value)

    walk(tree, "", scalars)
    return arrays, scalars


def _is_scalar_dict(value: dict) -> bool:
    """Dicts with no array anywhere below are stored as one JSON leaf
    (keeps e.g. ``rng.bit_generator.state`` intact, big ints and all)."""
    for v in value.values():
        if isinstance(v, np.ndarray):
            return False
        if isinstance(v, dict) and not _is_scalar_dict(v):
            return False
    return True


def _to_scalar(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    return value


def unpack_state(arrays: Mapping[str, np.ndarray], scalars: Mapping) -> dict:
    """Inverse of :func:`pack_state`."""
    tree: dict = json.loads(json.dumps(scalars))  # deep copy, plain types
    for path, arr in arrays.items():
        node = tree
        parts = path.split(_SEP)
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = arr
    return tree


# -- Microdata <-> state tree --------------------------------------------------


def spec_to_dict(spec: AttributeSpec) -> dict:
    """JSON payload of one attribute spec (shared by models/checkpoints)."""
    return {
        "name": spec.name,
        "kind": spec.kind.value,
        "role": spec.role.value,
        "categories": list(spec.categories),
    }


def spec_from_dict(payload: dict) -> AttributeSpec:
    """Inverse of :func:`spec_to_dict`."""
    return AttributeSpec(
        name=payload["name"],
        kind=AttributeKind(payload["kind"]),
        role=AttributeRole(payload["role"]),
        categories=tuple(payload["categories"]),
    )


def microdata_to_state(data: Microdata) -> dict:
    """State tree holding a full table (columns by position + schema)."""
    state: dict = {
        "schema": {"specs": [spec_to_dict(s) for s in data.schema]},
    }
    for i, name in enumerate(data.attribute_names):
        state[f"col{i}"] = np.asarray(data.values(name))
    return state


def microdata_from_state(state: dict) -> Microdata:
    """Inverse of :func:`microdata_to_state`."""
    schema = [spec_from_dict(d) for d in state["schema"]["specs"]]
    columns = {s.name: state[f"col{i}"] for i, s in enumerate(schema)}
    return Microdata(columns, schema, validate=False)


def data_fingerprint(data: Microdata, config: dict) -> str:
    """Content hash tying a checkpoint to one (data, configuration) pair.

    Covers the schema, every column's exact bytes, and the canonical JSON
    of the fit configuration — anything that can change the fitted output
    changes the fingerprint, so a resume against different data or a
    different policy is refused instead of silently producing a hybrid.
    """
    digest = hashlib.sha256()
    digest.update(
        json.dumps([spec_to_dict(s) for s in data.schema], sort_keys=True).encode()
    )
    for name in data.attribute_names:
        col = np.ascontiguousarray(data.values(name))
        digest.update(str(col.dtype).encode())
        digest.update(col.tobytes())
    digest.update(json.dumps(config, sort_keys=True).encode())
    return digest.hexdigest()
