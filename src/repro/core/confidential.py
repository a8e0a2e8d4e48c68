"""Uniform EMD evaluation over a dataset's confidential attributes.

The three anonymization algorithms need to answer the same two questions
for arbitrary record subsets:

* "what is this cluster's EMD to the whole table?" — where EMD is the
  ordered EMD for numeric/ordinal confidential attributes and the
  equal-ground-distance EMD for nominal ones, maximized over attributes
  when a data set declares several confidential columns;
* (Algorithm 2 only) "how would the EMD change if record *b* in the
  cluster were replaced by record *a*?" — evaluated for every member b at
  once, thousands of times, so it must be incremental.

:class:`ConfidentialModel` wraps a dataset and exposes both, hiding the
attribute-kind dispatch and the tracker bookkeeping.
"""

from __future__ import annotations

import numpy as np

from ..data.attributes import AttributeKind
from ..data.dataset import Microdata
from ..distance.emd import (
    ClusterEMDTracker,
    NominalClusterTracker,
    NominalEMDReference,
    OrderedEMDReference,
)
from ..registry import EMD_MODES


class ConfidentialModel:
    """EMD evaluators for every confidential attribute of one dataset.

    Parameters
    ----------
    data:
        Dataset with at least one attribute whose role is ``CONFIDENTIAL``.
    emd_mode:
        ``"distinct"`` (Li et al. bins; supports incremental trackers) or
        ``"rank"`` (the propositions' per-record bins; evaluation only).
    """

    def __init__(self, data: Microdata, *, emd_mode: str = "distinct") -> None:
        names = data.confidential
        if not names:
            raise ValueError(
                "dataset declares no confidential attributes; assign roles "
                "with Microdata.with_roles(confidential=[...])"
            )
        self.attribute_names = names
        self.emd_mode = emd_mode
        self.n_records = data.n_records
        self._refs: list[object] = []
        self._bins: list[np.ndarray | None] = []
        for name in names:
            spec = data.spec(name)
            column = data.values(name)
            if spec.kind is AttributeKind.NOMINAL:
                ref = NominalEMDReference(column, spec.n_categories)
                self._refs.append(ref)
                self._bins.append(column.astype(np.int64))
            else:
                mode_spec = EMD_MODES.resolve(emd_mode)
                ref = mode_spec.make(column.astype(np.float64))
                self._refs.append(ref)
                if mode_spec.supports_trackers:
                    self._bins.append(ref.bins_of(column.astype(np.float64)))
                else:
                    self._bins.append(None)
        self._values = [data.values(name) for name in names]
        self._specs = [data.spec(name) for name in names]

    @property
    def supports_trackers(self) -> bool:
        """Whether incremental swap evaluation is available (distinct mode)."""
        return all(b is not None for b in self._bins)

    # -- one-shot evaluation -------------------------------------------------------

    def cluster_emd(self, members: np.ndarray, *, sparse: bool = False) -> float:
        """EMD of the cluster given by record indices (max over attributes).

        ``sparse=True`` evaluates ordered distinct-mode attributes with the
        O(c log m) segment path
        (:meth:`OrderedEMDReference.emd_of_bins_sparse`) instead of the
        dense O(m) histogram; the two agree to the last float ulp (same
        terms, different summation grouping).  The merge phase runs sparse;
        the dense default remains the Definition-2 reference arithmetic the
        formal verifier (:mod:`repro.privacy.tcloseness`) applies.
        """
        members = np.asarray(members)
        if members.size == 0:
            raise ValueError("cluster must be non-empty")
        worst = 0.0
        for ref, bins, values in zip(self._refs, self._bins, self._values):
            if sparse and bins is not None and isinstance(ref, OrderedEMDReference):
                value = ref.emd_of_bins_sparse(bins[members])
            elif bins is not None:
                value = ref.emd_of_bins(bins[members])
            else:
                value = ref.emd(values[members])
            worst = max(worst, value)
        return worst

    def partition_emds(
        self, clusters: list[np.ndarray], *, sparse: bool = True
    ) -> np.ndarray:
        """Per-cluster EMD for an explicit list of clusters.

        With ``sparse=True`` (the bulk-reporting default), ordered
        distinct-mode attributes are evaluated with
        :meth:`OrderedEMDReference.emd_of_bins_sparse` (O(c log m) per
        cluster instead of O(m)), which can differ from the dense
        :meth:`cluster_emd` in the last float ulp.  Pass ``sparse=False``
        wherever the value feeds a *verification verdict* against a
        threshold — the formal t-closeness verifier does — so the verdict
        uses exactly the dense Definition-2 evaluation.  The algorithms'
        own decisions (swap refinement, merge selection) run on the sparse
        evaluations, whose agreement with the dense definition is pinned by
        the differential suite in ``tests/distance/test_emd_sparse.py`` and
        the end-to-end golden fixtures.
        """
        if not clusters:
            return np.array([])
        worst = np.zeros(len(clusters))
        for ref, bins, values in zip(self._refs, self._bins, self._values):
            if sparse and bins is not None and isinstance(ref, OrderedEMDReference):
                per_cluster = [
                    ref.emd_of_bins_sparse(bins[members]) for members in clusters
                ]
            elif bins is not None:
                per_cluster = [ref.emd_of_bins(bins[members]) for members in clusters]
            else:
                per_cluster = [ref.emd(values[members]) for members in clusters]
            np.maximum(worst, per_cluster, out=worst)
        return worst

    # -- incremental evaluation (Algorithm 2) -----------------------------------------

    def make_tracker(self, members: np.ndarray) -> "ClusterTrackerSet":
        """Incremental evaluator seeded with a cluster's record indices."""
        if not self.supports_trackers:
            raise ValueError(
                "incremental trackers require emd_mode='distinct' "
                "(rank mode has no per-record bins)"
            )
        return ClusterTrackerSet(self, np.asarray(members))


class ClusterTrackerSet:
    """Max-over-attributes incremental EMD for one mutable cluster.

    All methods address records by their *record index* in the original
    dataset; the per-attribute bin translation happens internally.
    """

    def __init__(self, model: ConfidentialModel, members: np.ndarray) -> None:
        if members.size == 0:
            raise ValueError("cluster must be non-empty")
        self._model = model
        self._trackers = []
        for ref, bins in zip(model._refs, model._bins):
            member_bins = bins[members]
            if isinstance(ref, NominalEMDReference):
                self._trackers.append((NominalClusterTracker(ref, member_bins), bins))
            else:
                self._trackers.append((ClusterEMDTracker(ref, member_bins), bins))

    @property
    def emd(self) -> float:
        """Current cluster EMD (max over confidential attributes).

        The fast sparse evaluation — within ~1e-14 of :attr:`exact_emd`;
        decisions landing inside that float-resolution band should consult
        the exact value.
        """
        return max(tracker.emd for tracker, _ in self._trackers)

    @property
    def exact_emd(self) -> float:
        """Cluster EMD in the dense reference arithmetic (tie adjudication)."""
        return max(tracker.exact_emd for tracker, _ in self._trackers)

    def bins_key(self, record: int) -> tuple[int, ...]:
        """Per-attribute bins of one record — records sharing a key are
        interchangeable for swap scoring (identical scores, all paths)."""
        return tuple(int(bins[record]) for _, bins in self._trackers)

    def exact_swap_emd(self, member_record: int, new_record: int) -> float:
        """One swap's cluster EMD in the dense reference arithmetic."""
        return max(
            tracker.exact_swap_emd(int(bins[member_record]), int(bins[new_record]))
            for tracker, bins in self._trackers
        )

    def swap_emds(self, member_records: np.ndarray, new_record: int) -> np.ndarray:
        """Cluster EMD after replacing each member by ``new_record``.

        Returns one value per entry of ``member_records``; each is the
        max-over-attributes EMD of the hypothetical cluster.
        """
        member_records = np.asarray(member_records)
        out: np.ndarray | None = None
        for tracker, bins in self._trackers:
            scores = tracker.swap_emds(bins[member_records], int(bins[new_record]))
            out = scores if out is None else np.maximum(out, scores)
        if out is None:
            raise ValueError("tracker set has no confidential attributes")
        return out

    def swap_emds_batch(
        self, member_records: np.ndarray, new_records: np.ndarray
    ) -> np.ndarray:
        """:meth:`swap_emds` for a block of incoming candidates at once.

        Returns a ``(len(new_records), len(member_records))`` matrix whose
        row ``b`` is bitwise the vector ``swap_emds(member_records,
        new_records[b])`` would produce (each per-attribute batch scorer
        guarantees row-for-row identity, and the max-over-attributes here
        is elementwise).  The pass is read-only on every tracker; this
        is the primitive behind
        :meth:`repro.backend.SerialBackend.score_swaps`.
        """
        member_records = np.asarray(member_records)
        new_records = np.asarray(new_records)
        out: np.ndarray | None = None
        for tracker, bins in self._trackers:
            scores = tracker.swap_emds_batch(bins[member_records], bins[new_records])
            out = scores if out is None else np.maximum(out, scores, out=out)
        if out is None:
            raise ValueError("tracker set has no confidential attributes")
        return out

    def apply_swap(self, removed_record: int, added_record: int) -> None:
        """Commit the replacement of one member record by another."""
        for tracker, bins in self._trackers:
            tracker.apply_swap(int(bins[removed_record]), int(bins[added_record]))

    def snapshot(self) -> dict:
        """Per-attribute tracker snapshots for an exact-resume checkpoint."""
        return {
            f"t{i}": tracker.snapshot()
            for i, (tracker, _) in enumerate(self._trackers)
        }

    @classmethod
    def from_snapshot(
        cls, model: ConfidentialModel, state: dict
    ) -> "ClusterTrackerSet":
        """Rebuild a tracker set against the (deterministically rebuilt)
        confidential model, continuing bit-for-bit."""
        trackers = cls.__new__(cls)
        trackers._model = model
        trackers._trackers = []
        for i, (ref, bins) in enumerate(zip(model._refs, model._bins)):
            sub = state[f"t{i}"]
            if isinstance(ref, NominalEMDReference):
                tracker = NominalClusterTracker.from_snapshot(ref, sub)
            else:
                tracker = ClusterEMDTracker.from_snapshot(ref, sub)
            trackers._trackers.append((tracker, bins))
        return trackers
