"""Cluster partitions of a record set.

A :class:`Partition` is the output of every partitioner in this library
(MDAV, V-MDAV, optimal univariate, and the three t-closeness algorithms):
an assignment of each of the n records to exactly one cluster.  It carries
the invariant checks that k-anonymity rests on (every record assigned,
clusters disjoint, minimum cluster size) and the merge operation Algorithm 1
is built from.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class PartitionError(ValueError):
    """Raised when a partition violates a structural invariant."""


_MALFORMED = "cluster members must be flat sequences of integer record indices"


class Partition:
    """Assignment of n records to contiguous cluster ids ``0..n_clusters-1``.

    Parameters
    ----------
    labels:
        Integer array of shape (n,); ``labels[i]`` is the cluster of record
        ``i``.  Labels are relabelled to be contiguous and ordered by first
        appearance, so two partitions that group records identically compare
        equal regardless of how the caller numbered the clusters.
    """

    __slots__ = ("_labels", "_n_clusters", "_members")

    def __init__(self, labels: Sequence[int] | np.ndarray) -> None:
        raw = np.asarray(labels)
        if raw.ndim != 1:
            raise PartitionError(f"labels must be 1-D, got shape {raw.shape}")
        if raw.size == 0:
            raise PartitionError("partition must cover at least one record")
        if raw.dtype.kind not in "iu":
            if raw.dtype.kind == "f" and np.array_equal(raw, raw.astype(np.int64)):
                raw = raw.astype(np.int64)
            else:
                raise PartitionError(f"labels must be integers, got dtype {raw.dtype}")
        if raw.min() < 0:
            raise PartitionError("labels must be non-negative")
        # Relabel to contiguous ids in order of first appearance.
        n = raw.size
        top = int(raw.max())
        if top < n:
            # Labels below n (every partitioner's): each label's first
            # position by one scatter-min, then each position's count of
            # clusters opened at or before it; no sort.
            first = np.full(top + 1, n, dtype=np.intp)
            np.minimum.at(first, raw, np.arange(n))
            opens = np.zeros(n, dtype=np.int64)
            opens[first[first < n]] = 1
            self._labels = (np.cumsum(opens) - 1)[first[raw]]
        else:
            # Sparse labels: nothing proportional to the largest value.
            _, first_pos, inverse = np.unique(
                raw, return_index=True, return_inverse=True
            )
            order = np.argsort(np.argsort(first_pos))
            self._labels = order[inverse].astype(np.int64)
        self._n_clusters = int(self._labels.max()) + 1
        self._members: list[np.ndarray] | None = None

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_clusters(
        cls, clusters: Iterable[Sequence[int] | np.ndarray], n_records: int
    ) -> "Partition":
        """Build from explicit clusters given as record-index collections.

        One pass over all members: one concatenate, one ``np.repeat`` of
        the cluster ids, one ``bincount`` check and one scatter, however
        many clusters there are.  Integral floats and bools are taken as
        integers.

        Raises
        ------
        PartitionError
            Naming the first offending cluster, and within it the first
            of: it is empty, holds a non-integer, references a record
            outside ``0..n_records-1``, repeats a record of an earlier
            cluster, or lists a record twice.  With no such cluster, a
            record is in no cluster.
        """
        parts = [m if isinstance(m, np.ndarray) else list(m) for m in clusters]
        sizes = [len(m) for m in parts]
        owner = np.repeat(np.arange(len(parts), dtype=np.int64), sizes)
        try:
            flat = np.concatenate(parts) if parts else owner
        except ValueError:  # members nested to different depths
            raise PartitionError(_MALFORMED) from None
        if flat.ndim != 1 or flat.dtype.kind not in "biuf":
            raise PartitionError(_MALFORMED)
        ok = 0 not in sizes and flat.size == n_records
        if ok and flat.dtype.kind == "f":
            ok = bool((flat == np.trunc(flat)).all())
        if ok and flat.size:
            ok = flat.min() >= 0 and flat.max() < n_records
        if ok:
            flat = flat.astype(np.int64, copy=False)
            ok = bool((np.bincount(flat, minlength=n_records) == 1).all())
        if not ok:
            raise PartitionError(_first_defect(parts, n_records))
        labels = np.empty(n_records, dtype=np.int64)
        labels[flat] = owner
        return cls(labels)

    @classmethod
    def single_cluster(cls, n_records: int) -> "Partition":
        """The trivial partition with all records in one cluster."""
        if n_records <= 0:
            raise PartitionError("n_records must be positive")
        return cls(np.zeros(n_records, dtype=np.int64))

    # -- basic accessors ------------------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """Read-only view of the cluster id of each record."""
        view = self._labels.view()
        view.flags.writeable = False
        return view

    @property
    def n_records(self) -> int:
        return self._labels.size

    @property
    def n_clusters(self) -> int:
        return self._n_clusters

    def sizes(self) -> np.ndarray:
        """Array of cluster sizes indexed by cluster id."""
        return np.bincount(self._labels, minlength=self._n_clusters)

    @property
    def min_size(self) -> int:
        return int(self.sizes().min())

    @property
    def max_size(self) -> int:
        return int(self.sizes().max())

    @property
    def mean_size(self) -> float:
        return self.n_records / self.n_clusters

    def cluster(self, g: int) -> np.ndarray:
        """Record indices of cluster ``g`` (ascending)."""
        if not 0 <= g < self._n_clusters:
            raise PartitionError(
                f"cluster id {g} out of range [0, {self._n_clusters})"
            )
        return self._member_lists()[g]

    def clusters(self) -> Iterator[np.ndarray]:
        """Iterate clusters as index arrays, in cluster-id order."""
        return iter(self._member_lists())

    def size_groups(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Clusters grouped by size, one ``(ids, rows)`` pair per distinct
        size s, ascending.

        ``ids`` holds the ids of the clusters of s records, ascending, and
        ``rows`` is the ``(len(ids), s)`` matrix whose row i lists cluster
        ``ids[i]``'s records in ascending order, as :meth:`cluster` does.
        Per-cluster statistics then cost a few numpy calls per distinct
        size instead of one per cluster.
        """
        sizes = self.sizes()
        order = np.argsort(self._labels, kind="stable")
        starts = np.cumsum(sizes) - sizes
        for size in np.unique(sizes):
            ids = np.flatnonzero(sizes == size)
            yield ids, order[starts[ids, None] + np.arange(size)]

    def _member_lists(self) -> list[np.ndarray]:
        if self._members is None:
            order = np.argsort(self._labels, kind="stable")
            boundaries = np.searchsorted(
                self._labels[order], np.arange(self._n_clusters + 1)
            )
            self._members = [
                order[boundaries[g] : boundaries[g + 1]]
                for g in range(self._n_clusters)
            ]
        return self._members

    # -- invariants -------------------------------------------------------------------

    def validate_min_size(self, k: int) -> None:
        """Raise :class:`PartitionError` unless every cluster has >= k records.

        This is the structural condition under which replacing
        quasi-identifiers by cluster centroids yields k-anonymity.
        """
        if k <= 0:
            raise PartitionError(f"k must be positive, got {k}")
        sizes = self.sizes()
        bad = np.flatnonzero(sizes < k)
        if bad.size:
            raise PartitionError(
                f"{bad.size} cluster(s) smaller than k={k} "
                f"(cluster {bad[0]} has {sizes[bad[0]]} records)"
            )

    # -- operations ----------------------------------------------------------------------

    def merge(self, g1: int, g2: int) -> "Partition":
        """Return a new partition with clusters ``g1`` and ``g2`` merged."""
        for g in (g1, g2):
            if not 0 <= g < self._n_clusters:
                raise PartitionError(
                    f"cluster id {g} out of range [0, {self._n_clusters})"
                )
        if g1 == g2:
            raise PartitionError("cannot merge a cluster with itself")
        labels = self._labels.copy()
        labels[labels == g2] = g1
        return Partition(labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._labels, other._labels)

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(self._labels.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = self.sizes()
        return (
            f"Partition({self.n_records} records, {self.n_clusters} clusters, "
            f"sizes {int(sizes.min())}..{int(sizes.max())})"
        )


def _first_defect(parts: list, n_records: int) -> str:
    """Why ``parts`` is not a partition of ``0..n_records-1``.

    The error path of :meth:`Partition.from_clusters`: a cluster-by-cluster
    scan that stops at the first offending cluster and reports, within it,
    the first defect in the order that method lists them.
    """
    labels = np.full(n_records, -1, dtype=np.int64)
    for g, members in enumerate(parts):
        idx = np.asarray(members)
        if idx.size == 0:
            return f"cluster {g} is empty"
        if idx.dtype.kind == "f":
            fractional = idx != np.trunc(idx)  # NaN included
            if fractional.any():
                return f"cluster {g} holds the non-integer record {idx[fractional][0]}"
        if idx.min() < 0 or idx.max() >= n_records:
            return f"cluster {g} references records outside [0, {n_records})"
        idx = idx.astype(np.int64)
        taken = labels[idx] != -1
        if taken.any():
            dup = idx[taken][0]
            return f"record {dup} assigned to two clusters ({labels[dup]} and {g})"
        labels[idx] = g
        if np.unique(idx).size != idx.size:
            seen: set[int] = set()
            for record in idx.tolist():
                if record in seen:
                    return f"record {record} listed twice in cluster {g}"
                seen.add(record)
    uncovered = np.flatnonzero(labels == -1)
    return (
        f"{uncovered.size} record(s) not assigned to any cluster "
        f"(first: {uncovered[0]})"
    )
