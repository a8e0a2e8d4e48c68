"""Record-to-record distances for the partition step of microaggregation.

Microaggregation clusters records by similarity of their quasi-identifiers.
For purely numeric quasi-identifiers the convention (Domingo-Ferrer &
Mateo-Sanz 2002) is Euclidean distance on standardized attributes; for mixed
numeric/categorical quasi-identifiers we provide a Gower-compatible
embedding so the same Euclidean machinery (and thus the same MDAV code)
applies:

* numeric columns are range-normalized to [0, 1];
* ordinal columns are mapped to rank / (m - 1) in [0, 1];
* nominal columns are one-hot encoded and scaled by 1/sqrt(2), so the
  squared distance between two records differing in that attribute is
  exactly 1 — the Gower contribution.
"""

from __future__ import annotations

import numpy as np

# Re-exported for callers that block their own evaluations or select their
# own k nearest: the canonical kernel, the block iterator and the selection
# rule live in repro.backend.kernels (shared with the clustering engine and
# the compute backend).
from ..backend.kernels import iter_blocks, k_smallest_indices, sq_distances_block
from ..data.attributes import AttributeKind
from ..data.dataset import Microdata

__all__ = [
    "QIEncoder",
    "centroid",
    "encode_mixed",
    "farthest_index",
    "iter_blocks",
    "k_nearest_indices",
    "k_smallest_indices",
    "nearest_index",
    "pairwise_sq_distances",
    "sq_distances_block",
    "sq_distances_to",
]


def sq_distances_to(X: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from one point ``x`` to every row of ``X``.

    This is the library's *canonical* distance arithmetic — one call of
    :func:`repro.backend.kernels.sq_distances_block` over the whole
    matrix.  The squares are accumulated column by column, left to right,
    with plain elementwise ufuncs; unlike a BLAS product or an ``einsum``
    reduction (whose internal summation order depends on the numpy build,
    SIMD width and block layout), that order is fully determined by the
    shared kernel — so the clustering engine and every compute backend,
    which evaluate the same kernel over their own buffers and blockings,
    produce bitwise-identical distances, and exact ties between records
    (ubiquitous for integer-valued or category-encoded data) are preserved
    everywhere.
    """
    X = np.asarray(X, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if x.shape != (X.shape[1],):
        raise ValueError(f"x must have shape ({X.shape[1]},), got {x.shape}")
    n, d = X.shape
    if d == 0 or n == 0:
        return np.zeros(n)
    out = np.empty(n)
    tmp = np.empty(n)
    sq_distances_block(X.T, x, out, tmp, 0, n)
    return out


def pairwise_sq_distances(
    X: np.ndarray, *, chunk_size: int | None = None
) -> np.ndarray:
    """Full n x n matrix of squared Euclidean distances.

    Parameters
    ----------
    X:
        Record matrix (n x d).
    chunk_size:
        When given, the Gram product and the broadcast sums are evaluated in
        row blocks of at most ``chunk_size`` rows, so the only full-size
        allocation is the n x n result itself (peak *scratch* memory is
        O(chunk_size * n) instead of a second n x n temporary).  ``None``
        evaluates in one shot, which is fastest while everything fits in
        memory.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    if chunk_size is None:
        d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
        # Clamp tiny negatives produced by floating point cancellation.
        np.maximum(d2, 0.0, out=d2)
        return d2
    d2 = np.empty((n, n))
    for start, stop in iter_blocks(n, chunk_size):
        block = d2[start:stop]
        np.matmul(X[start:stop], X.T, out=block)
        block *= -2.0
        block += sq[start:stop, None]
        block += sq[None, :]
        np.maximum(block, 0.0, out=block)
    return d2


def centroid(X: np.ndarray) -> np.ndarray:
    """Mean record of a matrix of records."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be a non-empty 2-D matrix, got shape {X.shape}")
    return X.mean(axis=0)


def farthest_index(X: np.ndarray, x: np.ndarray) -> int:
    """Index of the row of ``X`` farthest from ``x`` (ties -> lowest index)."""
    return int(np.argmax(sq_distances_to(X, x)))


def nearest_index(X: np.ndarray, x: np.ndarray) -> int:
    """Index of the row of ``X`` nearest to ``x`` (ties -> lowest index)."""
    return int(np.argmin(sq_distances_to(X, x)))


def k_nearest_indices(X: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` rows of ``X`` nearest to ``x``, ascending by
    (distance, index): :func:`k_smallest_indices` on the canonical
    distances."""
    return k_smallest_indices(sq_distances_to(X, x), k)


def encode_mixed(
    data: Microdata,
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Embed (possibly mixed-type) columns into a Euclidean space.

    Returns a float matrix where squared Euclidean distances reproduce a
    Gower-style dissimilarity: range-normalized squared difference for
    numeric, normalized rank difference for ordinal, 0/1 for nominal.

    Purely numeric inputs are standardized instead (zero mean, unit
    variance), matching the microaggregation literature's convention.
    """
    if names is None:
        names = data.quasi_identifiers or data.attribute_names
    specs = [data.spec(name) for name in names]
    if all(s.is_numeric for s in specs):
        return data.matrix(names, scale="standardize")

    blocks: list[np.ndarray] = []
    for spec in specs:
        column = data.values(spec.name).astype(np.float64)
        if spec.kind is AttributeKind.NUMERIC:
            lo, hi = column.min(), column.max()
            span = hi - lo if hi > lo else 1.0
            blocks.append(((column - lo) / span)[:, None])
        elif spec.kind is AttributeKind.ORDINAL:
            denom = max(spec.n_categories - 1, 1)
            blocks.append((column / denom)[:, None])
        else:  # NOMINAL: one-hot / sqrt(2) => squared distance 1 across categories
            onehot = np.zeros((len(column), spec.n_categories))
            onehot[np.arange(len(column)), column.astype(np.int64)] = 1.0
            blocks.append(onehot / np.sqrt(2.0))
    return np.hstack(blocks)


class QIEncoder:
    """Parametric form of :func:`encode_mixed`, fitted once and reusable.

    :func:`encode_mixed` derives its normalization (column means/stds, or
    ranges for the Gower embedding) from the table it encodes — correct for
    one-shot anonymization, but a fitted model serving incoming batches
    must embed *new* records into the geometry of the *fit* data, not into
    each batch's own.  ``QIEncoder`` captures those parameters at fit time;
    :meth:`encode` then reproduces ``encode_mixed(fit_data, names)``
    bit-for-bit on the fit table (same expressions, same stored scalars)
    and applies the identical map to any later matrix.

    The fitted state is a handful of floats per column, (de)serializable
    via :meth:`to_dict`/:meth:`from_dict` — this is what makes
    ``Anonymizer.save``/``load`` round-trip ``transform`` exactly.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        kinds: tuple[str, ...],
        params: tuple[tuple[float, ...], ...],
        standardized: bool,
    ) -> None:
        self.names = tuple(names)
        self.kinds = tuple(kinds)
        self.params = tuple(tuple(float(p) for p in ps) for ps in params)
        self.standardized = bool(standardized)

    @classmethod
    def fit(cls, data: Microdata, names: tuple[str, ...] | None = None) -> "QIEncoder":
        """Capture the encoding parameters of ``data`` (see :func:`encode_mixed`)."""
        if names is None:
            names = data.quasi_identifiers or data.attribute_names
        specs = [data.spec(name) for name in names]
        kinds = tuple(str(s.kind) for s in specs)
        if all(s.is_numeric for s in specs):
            mat = data.matrix(names)
            mean = mat.mean(axis=0)
            std = mat.std(axis=0)
            std[std == 0.0] = 1.0
            params = tuple((m, s) for m, s in zip(mean, std))
            return cls(tuple(names), kinds, params, standardized=True)
        params_list: list[tuple[float, ...]] = []
        for spec in specs:
            column = data.values(spec.name).astype(np.float64)
            if spec.kind is AttributeKind.NUMERIC:
                lo, hi = column.min(), column.max()
                span = hi - lo if hi > lo else 1.0
                params_list.append((float(lo), float(span)))
            elif spec.kind is AttributeKind.ORDINAL:
                params_list.append((float(max(spec.n_categories - 1, 1)),))
            else:
                params_list.append((float(spec.n_categories),))
        return cls(tuple(names), kinds, tuple(params_list), standardized=False)

    def encode(self, matrix: np.ndarray) -> np.ndarray:
        """Embed a raw value/code matrix (columns parallel to ``names``)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.names):
            raise ValueError(
                f"matrix must have shape (n, {len(self.names)}), got {matrix.shape}"
            )
        if self.standardized:
            mean = np.array([p[0] for p in self.params])
            std = np.array([p[1] for p in self.params])
            return (matrix - mean) / std
        blocks: list[np.ndarray] = []
        for j, (kind, params) in enumerate(zip(self.kinds, self.params)):
            column = matrix[:, j]
            if kind == "numeric":
                lo, span = params
                blocks.append(((column - lo) / span)[:, None])
            elif kind == "ordinal":
                blocks.append((column / params[0])[:, None])
            else:
                n_categories = int(params[0])
                codes = column.astype(np.int64)
                if codes.size and (codes.min() < 0 or codes.max() >= n_categories):
                    raise ValueError(
                        f"column {self.names[j]!r} has codes outside "
                        f"[0, {n_categories})"
                    )
                onehot = np.zeros((len(column), n_categories))
                onehot[np.arange(len(column)), codes] = 1.0
                blocks.append(onehot / np.sqrt(2.0))
        return np.hstack(blocks)

    def encode_data(self, data: Microdata) -> np.ndarray:
        """Embed the ``names`` columns of a :class:`Microdata` table."""
        return self.encode(data.matrix(self.names))

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready parameters (floats survive exactly via ``repr``)."""
        return {
            "names": list(self.names),
            "kinds": list(self.kinds),
            "params": [list(ps) for ps in self.params],
            "standardized": self.standardized,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QIEncoder":
        """Inverse of :meth:`to_dict`."""
        return cls(
            tuple(payload["names"]),
            tuple(payload["kinds"]),
            tuple(tuple(ps) for ps in payload["params"]),
            bool(payload["standardized"]),
        )
