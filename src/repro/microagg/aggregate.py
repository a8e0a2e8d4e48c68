"""Build the anonymized release from a partition.

Given a partition of the records, the release is obtained by replacing the
quasi-identifier values of every record with its cluster's representative
(mean / median / mode depending on attribute kind).  Confidential attributes
are released *unperturbed*: within an equivalence class their empirical
distribution is exactly what t-closeness constrains, and perturbing them
would destroy the guarantee's meaning.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..data.attributes import AttributeKind, AttributeSpec
from ..data.dataset import Microdata
from .partition import Partition


def aggregate_partition(
    data: Microdata,
    partition: Partition,
    names: Sequence[str] | None = None,
) -> Microdata:
    """Replace columns by within-cluster representatives.

    Parameters
    ----------
    data:
        The original microdata.
    partition:
        Cluster assignment over the records of ``data``.
    names:
        Columns to aggregate; defaults to the quasi-identifiers (the
        k-anonymity semantics).  Confidential columns are left untouched
        unless explicitly named.

    Returns
    -------
    Microdata
        A new dataset where, within every cluster, each aggregated column is
        constant (the cluster representative).
    """
    if partition.n_records != data.n_records:
        raise ValueError(
            f"partition covers {partition.n_records} records, "
            f"dataset has {data.n_records}"
        )
    if names is None:
        names = data.quasi_identifiers
    if not names:
        raise ValueError("no columns to aggregate (dataset has no quasi-identifiers)")
    names = tuple(names)
    representatives = cluster_centroids(data, partition, names)
    labels = partition.labels
    return data.with_columns(
        {name: representatives[labels, j] for j, name in enumerate(names)}
    )


def cluster_centroids(
    data: Microdata,
    partition: Partition,
    names: Sequence[str] | None = None,
) -> np.ndarray:
    """Matrix of cluster representatives (n_clusters x len(names)).

    Row ``g`` holds cluster ``g``'s representative for each requested column
    (categorical columns as codes).  Useful for reporting and for distance
    computations between clusters (Algorithm 1's merge step).

    Clusters of one size are evaluated together, as one ``(clusters,
    size)`` member matrix per column
    (:meth:`~repro.microagg.partition.Partition.size_groups`), so the
    cost is a few numpy calls per distinct size instead of one per
    (cluster, column); every value is bitwise
    :func:`~repro.microagg.centroids.centroid_value` of its cluster.
    """
    if partition.n_records != data.n_records:
        raise ValueError(
            f"partition covers {partition.n_records} records, "
            f"dataset has {data.n_records}"
        )
    if names is None:
        names = data.quasi_identifiers
    names = tuple(names)
    if not names:
        raise ValueError("no columns requested")
    columns = [(data.values(name), data.spec(name)) for name in names]
    out = np.empty((partition.n_clusters, len(names)), dtype=np.float64)
    for groups, rows in partition.size_groups():
        for j, (column, spec) in enumerate(columns):
            out[groups, j] = _centroid_rows(column[rows], spec)
    return out


def _centroid_rows(values: np.ndarray, spec: AttributeSpec) -> np.ndarray:
    """:func:`~repro.microagg.centroids.centroid_value` of every row of a
    ``(clusters, size)`` matrix, bitwise: the row mean (numpy reduces each
    contiguous row as it reduces a 1-D array), the lower median of the
    sorted row, or the lowest most frequent code."""
    if spec.kind is AttributeKind.NUMERIC:
        return values.astype(np.float64).mean(axis=1)
    if spec.kind is AttributeKind.ORDINAL:
        return np.sort(values, axis=1)[:, (values.shape[1] - 1) // 2]
    width = max(spec.n_categories, int(values.max()) + 1)
    keys = values + width * np.arange(len(values))[:, None]
    counts = np.bincount(keys.ravel(), minlength=width * len(values))
    return counts.reshape(len(values), width).argmax(axis=1)
