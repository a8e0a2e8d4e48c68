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

from ..data.dataset import Microdata
from .centroids import centroid_value
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
    out = np.empty((partition.n_clusters, len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        spec = data.spec(name)
        column = data.values(name)
        for g, members in enumerate(partition.clusters()):
            out[g, j] = centroid_value(column[members], spec)
    return out
