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

Both are decided exactly, since ties are common.
:class:`ConfidentialModel` answers the first as an exact ratio
(:meth:`~ConfidentialModel.emd_ratio`, the merge phase's keys) and, for
the verifier and the generalization baselines, as the dense Definition-2
float (:meth:`~ConfidentialModel.cluster_emd`); its
:meth:`~ConfidentialModel.swap_frame` builds the :class:`SwapFrame` that
answers the second in integers, per fit, with :class:`ClusterTrackerSet`
as the incremental scorer.
"""

from __future__ import annotations

import math

import numpy as np

from ..data.attributes import AttributeKind
from ..data.dataset import Microdata
from ..distance.emd import NominalEMDFrame, NominalEMDReference, OrderedEMDFrame
from ..registry import EMD_MODES


class ConfidentialModel:
    """EMD evaluators for every confidential attribute of one dataset.

    Parameters
    ----------
    data:
        Dataset with at least one attribute whose role is ``CONFIDENTIAL``.
    emd_mode:
        ``"distinct"`` (Li et al. bins; exact integer frames) or
        ``"rank"`` (the propositions' per-record bins; float evaluation
        only).
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
        self._frames: list | None = None
        self._view: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def supports_trackers(self) -> bool:
        """Whether incremental swap evaluation is available (distinct mode)."""
        return all(b is not None for b in self._bins)

    def _integer_frames(self) -> list:
        """One integer frame per attribute, None where rank mode has no
        per-record bins; built on first use, so a model that only
        verifies never pays for them."""
        if self._frames is None:
            self._frames = []
            for ref, bins in zip(self._refs, self._bins):
                nominal = isinstance(ref, NominalEMDReference)
                kind = NominalEMDFrame if nominal else OrderedEMDFrame
                self._frames.append(None if bins is None else kind(bins, ref.m))
        return self._frames

    # -- one-shot evaluation -------------------------------------------------------

    def cluster_emd(self, members: np.ndarray) -> float:
        """Dense Definition-2 float EMD of a cluster (max over attributes).

        The arithmetic the formal verifier (:mod:`repro.privacy.tcloseness`)
        and the generalization baselines apply; the algorithms decide on
        :meth:`emd_ratio`.
        """
        members = np.asarray(members)
        if members.size == 0:
            raise ValueError("cluster must be non-empty")
        worst = 0.0
        for ref, bins, values in zip(self._refs, self._bins, self._values):
            if bins is not None:
                value = ref.emd_of_bins(bins[members])
            else:
                value = ref.emd(values[members])
            worst = max(worst, value)
        return worst

    def emd_ratio(self, members: np.ndarray) -> tuple[int, int]:
        """A cluster's EMD as an exact ratio ``(num, den)``, den > 0.

        The max over attributes of S_a / (c·n·w_a), from the integer
        frames (:class:`~repro.distance.OrderedEMDFrame`,
        :class:`~repro.distance.NominalEMDFrame`); a rank-mode attribute
        contributes its float EMD's exact ``as_integer_ratio()``.  Raises
        ``ValueError`` when c·n·m reaches 2**63 (:func:`check_exact_bound`).
        """
        members = np.asarray(members)
        c = members.size
        if c == 0:
            raise ValueError("cluster must be non-empty")
        num, den = 0, 1
        for frame, ref, values in zip(self._integer_frames(), self._refs, self._values):
            if frame is None:
                s, d = ref.emd(values[members]).as_integer_ratio()
            else:
                check_exact_bound(c, frame.n, frame.m)
                s, d = frame.numerator(frame.bins[members]), c * frame.n * frame.weight
            if s * den > num * d:
                num, den = s, d
        return num, den

    def emd_ratios(self, clusters: list[np.ndarray]) -> list[tuple[int, int]]:
        """Every cluster's :meth:`emd_ratio`, in one pass per attribute.

        The members of all clusters are grouped by (cluster, bin) with one
        sort; an ordered attribute then evaluates
        :meth:`~repro.distance.OrderedEMDFrame.segment_sums`'s formula
        over every cluster's segments at once, a nominal one sums
        ``|n*C_i - c*counts[i]|`` over the categories its members hold
        plus ``c*counts[i]`` for the rest.  The integers equal
        :meth:`emd_ratio`'s, cluster by cluster; a rank-mode attribute
        keeps the per-cluster float.
        """
        if not clusters:
            return []
        sizes = np.array([len(members) for members in clusters], dtype=np.int64)
        if sizes.min() == 0:
            raise ValueError("cluster must be non-empty")
        flat = np.concatenate(clusters)
        owner = np.repeat(np.arange(len(clusters), dtype=np.int64), sizes)
        ratios = [(0, 1)] * len(clusters)
        for frame, ref, values in zip(self._integer_frames(), self._refs, self._values):
            if frame is None:
                terms = [ref.emd(values[m]).as_integer_ratio() for m in clusters]
            else:
                check_exact_bound(int(sizes.max()), frame.n, frame.m)
                nums = _cluster_numerators(frame, owner, frame.bins[flat], sizes)
                scale = frame.n * frame.weight
                terms = [(s, c * scale) for s, c in zip(nums.tolist(), sizes.tolist())]
            ratios = [
                (s, d) if s * den > num * d else (num, den)
                for (num, den), (s, d) in zip(ratios, terms)
            ]
        return ratios

    def partition_emds(self, clusters: list[np.ndarray]) -> np.ndarray:
        """Per-cluster EMD: :meth:`emd_ratios`, correctly rounded to float."""
        return np.array([num / den for num, den in self.emd_ratios(clusters)])

    def kernel_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The compiled merge step's view of the integer frames.

        :func:`kernel_view` with every threshold 0 (the merge step reads
        none), built once per model.  Distinct mode only
        (:attr:`supports_trackers`).
        """
        if self._view is None:
            frames = self._integer_frames()
            self._view = kernel_view(frames, [0] * len(frames))
        return self._view

    # -- exact swap refinement (Algorithm 2) ------------------------------------------

    def swap_frame(self, k: int, t: float) -> "SwapFrame":
        """Algorithm 2's exact-integer frame for one fit at (k, t).

        Reuses the model's integer frames.  Raises ``ValueError`` in rank
        mode (no per-record bins) and past the exactness bound
        (:func:`check_exact_bound`).
        """
        if not self.supports_trackers:
            raise ValueError(
                "exact swap refinement requires emd_mode='distinct' "
                "(rank mode has no per-record bins)"
            )
        return SwapFrame(self._integer_frames(), k, t)


def _cluster_numerators(
    frame, owner: np.ndarray, bins: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """The numerator S of every cluster for one integer frame.

    ``owner`` and ``bins`` give each member's cluster and bin; ``sizes``
    the cluster sizes.  One sort of the (cluster, bin) keys yields every
    cluster's distinct bins and their counts.
    """
    m = frame.m
    keys, counts = np.unique(owner * m + bins, return_counts=True)
    d_owner, d_bin = np.divmod(keys, m)
    if isinstance(frame, NominalEMDFrame):
        # Categories a cluster does not hold contribute c*counts[i] each,
        # c*n in all; the ones it holds swap that for |n*C_i - c*counts[i]|.
        c = sizes[d_owner]
        held = frame.counts[d_bin]
        terms = np.abs(frame.n * counts - c * held) - c * held
        return sizes * frame.n + _sum_by(terms, d_owner, len(sizes))
    # A cluster with distinct bins u_1 < ... < u_r holds r + 1 segments,
    # [0, u_1), [u_1, u_2), ..., [u_r, m), on which its cumulative count is
    # 0, C_1, C_1 + C_2, ..., c.  Distinct entry i of cluster g opens
    # segment i + g + 1 and closes segment i + g.
    n_seg = len(keys) + len(sizes)
    shift = np.arange(len(keys)) + d_owner
    starts = np.zeros(n_seg, dtype=np.int64)
    starts[shift + 1] = d_bin
    stops = np.full(n_seg, m, dtype=np.int64)
    stops[shift] = d_bin
    before = np.cumsum(sizes) - sizes  # members of earlier clusters
    consts = np.zeros(n_seg, dtype=np.int64)
    consts[shift + 1] = np.cumsum(counts) - before[d_owner]
    seg_owner = np.zeros(n_seg, dtype=np.int64)
    seg_owner[shift + 1] = d_owner
    seg_owner[shift] = d_owner
    terms = frame.segment_sums(starts, stops, consts, sizes[seg_owner])
    return _sum_by(terms, seg_owner, len(sizes))


def _sum_by(values: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Exact int64 sums of ``values`` per group (``groups`` ascending,
    every group present)."""
    return np.add.reduceat(values, np.searchsorted(groups, np.arange(n_groups)))


#: c·n·m must stay below this for the integer arithmetic on a cluster of
#: c records: every numerator S and every product inside its segment sums
#: is below c·n·m.
EXACT_BOUND = 2**63

#: Statuses of one refinement call (:meth:`SwapFrame.refine`).
CONVERGED, CHUNK_EXHAUSTED, BUDGET_SPENT = 0, 1, 2

#: A refinement budget that never binds (every swap consumes a record).
UNLIMITED = 2**62


def kernel_view(frames, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """The compiled kernels' view of integer frames, as ``(layout, tables)``.

    ``layout[a]`` is (kind, m, w, T) of attribute a, kind 1 when nominal,
    with T its entry of ``thresholds``; ``tables[a]`` holds the addresses
    of the record-bin map and of (cum, prefix), or (counts, counts) when
    nominal.  The frames own the arrays, so they must outlive any call
    that reads the view.  Algorithm 2's refinement
    (:class:`SwapFrame`) and the merge step
    (:meth:`ConfidentialModel.kernel_view`) both read the frames through
    it.
    """
    layout = np.array(
        [
            [isinstance(frame, NominalEMDFrame), frame.m, frame.weight, bound]
            for frame, bound in zip(frames, thresholds)
        ],
        dtype=np.int64,
    )
    arrays = [
        (f.bins, f.counts, f.counts)
        if isinstance(f, NominalEMDFrame)
        else (f.bins, f.cum, f.prefix)
        for f in frames
    ]
    tables = np.array([[a.ctypes.data for a in row] for row in arrays], dtype=np.uintp)
    return layout, tables


def check_exact_bound(c: int, n: int, m: int) -> None:
    """Raise ``ValueError`` unless c·n·m < :data:`EXACT_BOUND` (2**63)."""
    if c * n * m >= EXACT_BOUND:
        raise ValueError(
            f"c*n*m = {c}*{n}*{m} reaches 2**63: exact integer EMD numerators "
            "of a c-record cluster need c*n*m < 2**63 for every confidential "
            "attribute"
        )


class SwapFrame:
    """Exact decision rule of Algorithm 2's swap refinement for one fit.

    Holds one integer frame per confidential attribute
    (:class:`~repro.distance.OrderedEMDFrame` or
    :class:`~repro.distance.NominalEMDFrame`) and, for clusters of exactly
    k records, the integer thresholds of t.  Attribute a of a cluster has
    the numerator S_a and the EMD S_a / (k·n·w_a); every decision is
    integer arithmetic:

    * the cluster *overshoots* t iff some S_a > T_a, with
      T_a = floor(Fraction(t)·k·n·w_a), computed from the exact integer
      ratio of the float t (EMD <= 1 lets t clamp at 1);
    * a cluster's *score* is max_a S_a / w_a, kept as the integer
      max_a S_a·(W / w_a) over W = lcm(w_a);
    * a candidate takes the member whose swap scores lowest (first member
      on ties) and is accepted only if that score is strictly below the
      current one.

    :meth:`refine` is the Python spec of that loop; the compiled kernel
    behind :meth:`repro.backend.SerialBackend.refine_swaps` reads the same
    frames through :attr:`layout` and :attr:`tables` (addresses in
    :attr:`kernel_args`).
    """

    def __init__(self, frames, k: int, t: float) -> None:
        self.frames = list(frames)
        self.k = int(k)
        self.n = self.frames[0].n
        for frame in self.frames:
            check_exact_bound(self.k, self.n, frame.m)
        weights = [frame.weight for frame in self.frames]
        common = math.lcm(*weights)
        self.scales = [common // w for w in weights]
        num, den = min(t, 1.0).as_integer_ratio()  # exact, like Fraction(t)
        self.thresholds = [num * self.k * self.n * w // den for w in weights]
        self.layout, self.tables = kernel_view(self.frames, self.thresholds)
        #: The frame's leading kernel arguments, converted once per fit.
        self.kernel_args = (
            self.layout.ctypes.data,
            self.tables.ctypes.data,
            len(self.frames),
            self.n,
        )

    def tracker(self, members: np.ndarray) -> "ClusterTrackerSet":
        """Incremental scorer seeded with a cluster's record indices."""
        return ClusterTrackerSet(self, members)

    def refine(
        self, members: np.ndarray, pool: np.ndarray, budget: int
    ) -> tuple[int, int, int]:
        """Refine ``members`` (k record ids, edited in place) over ``pool``.

        While the cluster overshoots t: stop once ``budget`` swaps were
        accepted (:data:`BUDGET_SPENT`) or the pool chunk is used up
        (:data:`CHUNK_EXHAUSTED`); otherwise take the next pool record,
        score its swap against every member and accept the best one if it
        strictly lowers the score.  Returns ``(swaps, consumed, status)``,
        status :data:`CONVERGED` once the cluster is within t.
        """
        if len(members) != self.k:
            raise ValueError(f"a refined cluster has k={self.k} members")
        tracker = self.tracker(members)
        swaps = consumed = 0
        while tracker.overshoots():
            if swaps >= budget:
                return swaps, consumed, BUDGET_SPENT
            if consumed == len(pool):
                return swaps, consumed, CHUNK_EXHAUSTED
            y = int(pool[consumed])
            consumed += 1
            scores = tracker.swap_scores(members, y)
            best = min(scores)
            if best < tracker.score:
                j = scores.index(best)
                tracker.apply_swap(int(members[j]), y)
                members[j] = y
                swaps += 1
        return swaps, consumed, CONVERGED


class ClusterTrackerSet:
    """Exact max-over-attributes swap scoring for one mutable cluster.

    All methods address records by their *record index* in the original
    dataset; the per-attribute bin translation happens internally.
    Scores are :class:`SwapFrame`'s integers.
    """

    def __init__(self, frame: SwapFrame, members: np.ndarray) -> None:
        members = np.asarray(members, dtype=np.int64)
        if members.size == 0:
            raise ValueError("cluster must be non-empty")
        self._frame = frame
        self._trackers = [f.tracker(f.bins[members]) for f in frame.frames]

    @property
    def numerators(self) -> list[int]:
        """Current numerator S_a of every attribute."""
        return [tracker.numerator for tracker in self._trackers]

    @property
    def score(self) -> int:
        """Current score max_a S_a·(W / w_a)."""
        return max(s * w for s, w in zip(self.numerators, self._frame.scales))

    def overshoots(self) -> bool:
        """Whether the cluster's EMD exceeds t (k-record clusters)."""
        thresholds = self._frame.thresholds
        return any(s > bound for s, bound in zip(self.numerators, thresholds))

    def swap_scores(self, member_records: np.ndarray, new_record: int) -> list[int]:
        """Score after replacing each of ``member_records`` by ``new_record``."""
        columns = []
        for tracker, scale in zip(self._trackers, self._frame.scales):
            bins = tracker.frame.bins
            s = tracker.swap_numerators(bins[member_records], int(bins[new_record]))
            columns.append([value * scale for value in s.tolist()])
        return [max(row) for row in zip(*columns)]

    def apply_swap(self, removed_record: int, added_record: int) -> None:
        """Commit the replacement of one member record by another."""
        for tracker in self._trackers:
            bins = tracker.frame.bins
            tracker.apply_swap(int(bins[removed_record]), int(bins[added_record]))
