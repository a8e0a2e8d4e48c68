"""Earth Mover's Distance (EMD) between confidential-attribute distributions.

t-Closeness (Li, Li & Venkatasubramanian, ICDE 2007) compares the
distribution of the confidential attribute inside an equivalence class
against its distribution over the whole table.  Three ground distances are
implemented, matching the original paper and the needs of Soria-Comas et
al.'s microaggregation algorithms:

``ordered`` (numerical / ordinal attributes)
    Bins are the sorted attribute values; moving mass from bin *i* to bin
    *j* costs ``|i - j| / (m - 1)``.  The EMD then has the closed form

    .. math:: EMD(P, Q) = \\frac{1}{m-1} \\sum_{i=1}^{m}
              \\Bigl| \\sum_{j \\le i} (p_j - q_j) \\Bigr|

    Two flavours are provided.  ``distinct`` mode (the Li et al. definition)
    uses one bin per *distinct* dataset value.  ``rank`` mode uses one bin
    per *record* (n bins of mass 1/n), which is the formulation under which
    the paper's Propositions 1 and 2 are stated; ties are handled by
    spreading a value's mass uniformly over its tied rank slots.  The two
    coincide when all dataset values are distinct.

``nominal``
    Equal ground distance between any two categories; the EMD degenerates
    to total variation distance, ``0.5 * sum_i |p_i - q_i|``.

``hierarchical``
    Ground distance derived from a value taxonomy
    (:class:`~repro.distance.taxonomy.Taxonomy`); mass moving across a
    subtree boundary pays that subtree's height over the tree height.

The module also provides :class:`OrderedEMDReference` — a precomputed frame
for evaluating many clusters against one dataset, including the sparse
segment-wise evaluation that costs O(c log m) per cluster instead of O(m) —
and :class:`ClusterEMDTracker`, the sparse incremental evaluator for the
replace-one-record updates that dominate Algorithm 2's running time.
"""

from __future__ import annotations

from dataclasses import dataclass as _dataclass
from typing import Callable as _Callable, Sequence

import numpy as np

from ..registry import register_emd_mode
from .taxonomy import Taxonomy


def _as_1d_float(values: object, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return arr


class OrderedEMDReference:
    """Precomputed frame for ordered EMD of clusters against one dataset.

    Builds the bin grid and the dataset's distribution once, then evaluates
    any cluster in O(c + m) where c is the cluster size and m the number of
    bins.  All of this library's t-closeness checks and all three paper
    algorithms funnel through this class.

    Parameters
    ----------
    dataset_values:
        Confidential attribute column of the *entire* original dataset.
    mode:
        ``"distinct"`` — one bin per distinct value (Li et al. definition);
        ``"rank"`` — one bin per record (the propositions' formulation).
    """

    __slots__ = (
        "mode",
        "bin_values",
        "q",
        "m",
        "_denom",
        "_tie_lo",
        "_tie_width",
        "_qcum",
        "_qcum_prefix",
    )

    def __init__(self, dataset_values: Sequence[float], *, mode: str = "distinct") -> None:
        values = _as_1d_float(dataset_values, "dataset_values")
        if mode not in ("distinct", "rank"):
            raise ValueError(f"mode must be 'distinct' or 'rank', got {mode!r}")
        self.mode = mode
        n = len(values)
        if mode == "distinct":
            self.bin_values, counts = np.unique(values, return_counts=True)
            self.q = counts.astype(np.float64) / n
        else:
            sorted_values = np.sort(values)
            self.bin_values = sorted_values
            self.q = np.full(n, 1.0 / n)
            # Tie bookkeeping: a value occupying sorted slots [lo, lo+width)
            # spreads its mass uniformly over those slots.
            uniq, lo, width = np.unique(
                sorted_values, return_index=True, return_counts=True
            )
            self._tie_lo = dict(zip(uniq.tolist(), lo.tolist()))
            self._tie_width = dict(zip(uniq.tolist(), width.tolist()))
        self.m = len(self.bin_values)
        self._denom = float(max(self.m - 1, 1))
        self._qcum: np.ndarray | None = None
        self._qcum_prefix: np.ndarray | None = None

    # -- bin mapping -------------------------------------------------------------

    def bins_of(self, values: Sequence[float]) -> np.ndarray:
        """Map values (which must occur in the dataset) to bin indices.

        Only meaningful in ``distinct`` mode, where every value owns exactly
        one bin.  Raises if a value is not a dataset value — clusters are
        subsets of the dataset by construction, so a miss is a caller bug.
        """
        if self.mode != "distinct":
            raise ValueError("bins_of is only defined for mode='distinct'")
        arr = _as_1d_float(values, "values")
        idx = np.searchsorted(self.bin_values, arr)
        idx = np.clip(idx, 0, self.m - 1)
        if not np.array_equal(self.bin_values[idx], arr):
            missing = arr[self.bin_values[idx] != arr]
            raise ValueError(
                f"{missing.size} value(s) not present in the reference dataset "
                f"(first: {missing[0]!r})"
            )
        return idx

    def histogram(self, values: Sequence[float]) -> np.ndarray:
        """Cluster distribution (probability mass per bin) for given values."""
        arr = _as_1d_float(values, "values")
        c = len(arr)
        p = np.zeros(self.m)
        if self.mode == "distinct":
            np.add.at(p, self.bins_of(arr), 1.0 / c)
            return p
        for v in arr.tolist():
            try:
                lo = self._tie_lo[v]
                width = self._tie_width[v]
            except KeyError:
                raise ValueError(
                    f"value {v!r} not present in the reference dataset"
                ) from None
            p[lo : lo + width] += 1.0 / (c * width)
        return p

    # -- EMD evaluation -------------------------------------------------------------

    def emd_of_histogram(self, p: np.ndarray) -> float:
        """EMD of an explicit cluster histogram against the dataset."""
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.m,):
            raise ValueError(f"histogram must have shape ({self.m},), got {p.shape}")
        return float(np.abs(np.cumsum(p - self.q)).sum() / self._denom)

    def emd(self, cluster_values: Sequence[float]) -> float:
        """EMD between a cluster's values and the dataset distribution."""
        return self.emd_of_histogram(self.histogram(cluster_values))

    def emd_of_bins(self, bins: np.ndarray, cluster_size: int | None = None) -> float:
        """EMD of a cluster given directly as bin indices (``distinct`` mode)."""
        if self.mode != "distinct":
            raise ValueError("emd_of_bins is only defined for mode='distinct'")
        bins = np.asarray(bins)
        c = cluster_size if cluster_size is not None else len(bins)
        if c <= 0:
            raise ValueError("cluster_size must be positive")
        p = np.bincount(bins, minlength=self.m).astype(np.float64) / c
        return self.emd_of_histogram(p)

    def _ensure_prefix(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazily built cumulative distribution and its prefix sums.

        ``qcum[i] = sum_{j<=i} q_j`` and ``qprefix[i] = sum_{j<i} qcum[j]``;
        together they let any segment sum of ``|const - qcum|`` be evaluated
        with two lookups (see :meth:`_segment_abs_sums`).  Built once per
        reference and shared by every sparse evaluation against it.
        """
        if self._qcum is None:
            self._qcum = np.cumsum(self.q)
            self._qcum_prefix = np.concatenate([[0.0], np.cumsum(self._qcum)])
        return self._qcum, self._qcum_prefix

    def _segment_abs_sums(
        self, starts: np.ndarray, stops: np.ndarray, consts: np.ndarray
    ) -> np.ndarray:
        """Sum of ``|consts_j - qcum_i|`` over segments ``[starts_j, stops_j)``.

        ``consts`` holds the cluster's (constant) cumulative mass on each
        segment; it may be 1-D ``(S,)`` for one cluster or 2-D ``(R, S)``
        for R candidate clusters sharing one segment grid — the reduction
        runs over the last axis either way.  Within a segment ``qcum`` is
        non-decreasing, so ``|const - qcum|`` changes sign at most once; the
        crossing is located by binary search and both halves collapse to
        prefix-sum lookups.
        """
        qcum, qprefix = self._ensure_prefix()
        # First bin index in each segment where cum_q exceeds the constant.
        cross = np.clip(np.searchsorted(qcum, consts, side="right"), starts, stops)
        below = consts * (cross - starts) - (qprefix[cross] - qprefix[starts])
        above = (qprefix[stops] - qprefix[cross]) - consts * (stops - cross)
        return (below + above).sum(axis=-1)

    def emd_of_bins_sparse(
        self, bins: np.ndarray, cluster_size: int | None = None
    ) -> float:
        """EMD of a cluster of bin indices, in O(c log m) instead of O(m).

        Mathematically identical to :meth:`emd_of_bins` but evaluated
        segment-wise: between two consecutive (sorted) member bins the
        cluster's cumulative mass is constant, so the sum of
        ``|cum_p - cum_q|`` over the segment reduces to two prefix-sum
        lookups around the point where the dataset's cumulative distribution
        crosses that constant.  Results can differ from the dense evaluation
        in the last float ulp (different summation order).  This is the
        evaluation the incremental trackers (:class:`ClusterEMDTracker`) and
        all bulk reporting
        (:meth:`repro.core.confidential.ConfidentialModel.partition_emds`)
        are built on; the dense form remains the *definitional* reference,
        pinned to this one by the differential tests in
        ``tests/distance/test_emd_sparse.py``.
        """
        if self.mode != "distinct":
            raise ValueError("emd_of_bins_sparse is only defined for mode='distinct'")
        bins = np.asarray(bins)
        c = cluster_size if cluster_size is not None else len(bins)
        if c <= 0:
            raise ValueError("cluster_size must be positive")
        uniq, counts = np.unique(bins, return_counts=True)
        # Segment j covers bin range [starts[j], stops[j]) where the
        # cluster's cumulative mass is the constant consts[j]; the leading
        # segment [0, first member bin) carries constant 0.
        consts = np.concatenate([[0.0], np.cumsum(counts) / c])
        starts = np.concatenate([[0], uniq])
        stops = np.concatenate([uniq, [self.m]])
        return float(self._segment_abs_sums(starts, stops, consts) / self._denom)


def _insert_at(arr: np.ndarray, idx: int, value) -> np.ndarray:
    """``np.insert(arr, idx, value)`` for 1-D arrays, without its ~25 µs of
    axis-normalization overhead — these arrays are cluster-sized (a handful
    of elements) and the swap loop edits them tens of thousands of times."""
    out = np.empty(arr.size + 1, dtype=arr.dtype)
    out[:idx] = arr[:idx]
    out[idx] = value
    out[idx + 1 :] = arr[idx:]
    return out


def _delete_at(arr: np.ndarray, idx: int) -> np.ndarray:
    """``np.delete(arr, idx)`` for 1-D arrays (see :func:`_insert_at`)."""
    out = np.empty(arr.size - 1, dtype=arr.dtype)
    out[:idx] = arr[:idx]
    out[idx:] = arr[idx + 1 :]
    return out


class ClusterEMDTracker:
    """Incremental ordered-EMD evaluator for one mutable cluster.

    Keeps the cluster as a *sorted multiset of member bins* — O(c) state for
    a cluster of c records, independent of the m dataset bins — plus the
    current EMD as a cached float, so that

    * reading the current EMD is O(1) (:attr:`emd`);
    * *evaluating* a swap (replace the member at bin ``b`` with a candidate
      at bin ``a``) costs O(c log m): the swapped cluster's cumulative mass
      is piecewise constant over at most c + 2 segments, and each segment
      collapses to two prefix-sum lookups against the reference's cached
      cumulative distribution
      (:meth:`OrderedEMDReference._segment_abs_sums`, the engine under
      :meth:`OrderedEMDReference.emd_of_bins_sparse`).  All |C| candidate
      removals share one segment grid and are scored in a single
      vectorized O(c^2 log m) pass (:meth:`swap_emds`) — replacing the
      dense O(|C| x m) broadcast that dominated Algorithm 2's swap phase;
    * *applying* a swap is an O(c) delta update of the sorted member array
      (:meth:`apply_swap`); the cached EMD is refreshed with the same
      segment evaluation the swap was scored with, so the committed value
      equals the score bit-for-bit.

    Swap-contract (shared with :class:`NominalClusterTracker`): a swap
    *replaces* one member — remove at ``remove_bin`` and add at ``add_bin``
    happen simultaneously at constant cluster size (no intermediate
    c - 1-sized cluster); ``remove_bin == add_bin`` is a no-op and scores
    exactly the current :attr:`emd`; bins outside ``[0, m)`` raise
    ``IndexError``; *committing* a removal at a bin that holds no member
    raises ``ValueError``.

    Sparse and dense sums of the same terms can land an ulp apart, and an
    ulp is enough to break an exact tie between two candidate swaps
    differently than the dense predecessor did.  For callers that need the
    predecessor's decisions bit-for-bit (Algorithm 2's golden-pinned swap
    loop), :attr:`exact_emd` and :meth:`exact_swap_emd` reproduce the dense
    tracker's arithmetic *including its path dependence*: the cumulative
    difference vector is materialized lazily from the initial members plus
    the applied-swap history (replayed as the dense O(m) range updates) and
    kept incrementally up to date afterwards.  The fast sparse values stay
    within ~1e-14 of these, so consulting them is only ever needed inside a
    float-resolution decision band.

    This is the data structure that brings the paper's Algorithm 2 from
    unusably slow to the O(n^2/k)–O(n^3/k) envelope the paper reports.
    """

    __slots__ = (
        "ref",
        "size",
        "_member_bins",
        "_emd",
        "_uniq",
        "_cum_counts",
        "_last_scores",
        "_initial_bins",
        "_history",
        "_dense_cum",
        "_dense_emd",
    )

    def __init__(self, ref: OrderedEMDReference, member_bins: np.ndarray) -> None:
        if ref.mode != "distinct":
            raise ValueError("ClusterEMDTracker requires a 'distinct'-mode reference")
        member_bins = np.asarray(member_bins, dtype=np.int64)
        if member_bins.size == 0:
            raise ValueError("cluster must be non-empty")
        if member_bins.min() < 0 or member_bins.max() >= ref.m:
            raise IndexError(f"member bins out of range [0, {ref.m})")
        self.ref = ref
        self.size = int(member_bins.size)
        self._member_bins = np.sort(member_bins)
        self._emd = ref.emd_of_bins_sparse(self._member_bins)
        self._rebuild_grid_cache()
        self._initial_bins = member_bins.copy()
        self._history: list[tuple[int, int]] = []
        self._dense_cum: np.ndarray | None = None
        self._dense_emd = 0.0

    def _rebuild_grid_cache(self) -> None:
        """Per-cluster prefix sums over the member multiset.

        ``_uniq`` holds the distinct member bins and ``_cum_counts[i]`` the
        number of members at or below ``_uniq[i]`` — the add_bin-independent
        half of every scoring grid.  Built from scratch (O(c log c)) at
        construction; accepted swaps maintain it by the O(c) integer delta
        of :meth:`_shift_grid_cache` instead — the arrays are exact integer
        state, so the two routes are indistinguishable to every scorer.
        """
        self._uniq, counts = np.unique(self._member_bins, return_counts=True)
        self._cum_counts = np.cumsum(counts)
        self._last_scores: tuple[np.ndarray, int, np.ndarray] | None = None

    def _shift_grid_cache(self, remove_bin: int, add_bin: int) -> None:
        """Delta-update ``_uniq``/``_cum_counts`` for one committed swap.

        Exactly the arrays :meth:`_rebuild_grid_cache` would recompute
        (all-integer bookkeeping, so equality is exact, not approximate),
        without the per-swap ``np.unique`` sort that dominated the commit
        cost of accept-heavy refinement runs.
        """
        uniq, cum = self._uniq, self._cum_counts
        ri = int(np.searchsorted(uniq, remove_bin))
        count_r = int(cum[ri]) - (int(cum[ri - 1]) if ri else 0)
        if count_r > 1:
            cum[ri:] -= 1
        else:
            uniq = _delete_at(uniq, ri)
            cum = _delete_at(cum, ri)
            cum[ri:] -= 1
        ai = int(np.searchsorted(uniq, add_bin))
        if ai < uniq.size and uniq[ai] == add_bin:
            cum[ai:] += 1
        else:
            uniq = _insert_at(uniq, ai, add_bin)
            cum = _insert_at(cum, ai, int(cum[ai - 1]) if ai else 0)
            cum[ai:] += 1
        self._uniq, self._cum_counts = uniq, cum
        self._last_scores = None

    @property
    def emd(self) -> float:
        """Current EMD of the tracked cluster to the dataset (cached)."""
        return self._emd

    # -- dense reference arithmetic (tie adjudication) -------------------------

    def _materialize_dense(self) -> np.ndarray:
        """Cumulative difference vector, exactly as the dense tracker held it.

        Rebuilt from the initial members and the applied-swap history so the
        float state is *path-dependent* in the same way: the dense tracker
        initialized ``cumsum(p - q)`` once and then applied signed O(m)
        range updates per swap, and a fresh histogram of today's members
        would round differently.
        """
        if self._dense_cum is None:
            p = (
                np.bincount(self._initial_bins, minlength=self.ref.m).astype(
                    np.float64
                )
                / self.size
            )
            self._dense_cum = np.cumsum(p - self.ref.q)
            for remove_bin, add_bin in self._history:
                self._dense_range_update(remove_bin, add_bin)
            self._refresh_dense_emd()
        return self._dense_cum

    def _dense_range_update(self, remove_bin: int, add_bin: int) -> None:
        if add_bin < remove_bin:
            lo, hi, sign = add_bin, remove_bin, +1.0
        else:
            lo, hi, sign = remove_bin, add_bin, -1.0
        self._dense_cum[lo:hi] += sign / self.size

    def _refresh_dense_emd(self) -> None:
        self._dense_emd = float(
            np.abs(self._dense_cum).sum() / self.ref._denom
        )

    @property
    def exact_emd(self) -> float:
        """Current EMD in the dense predecessor's exact arithmetic."""
        self._materialize_dense()
        return self._dense_emd

    def exact_swap_emd(self, remove_bin: int, add_bin: int) -> float:
        """One swap's EMD in the dense predecessor's exact arithmetic.

        Replicates the retired O(|C| x m) broadcast for a single candidate
        (same expressions, same reduction order), evaluated against the
        materialized path-dependent cumulative state — the value the dense
        ``swap_emds`` row for this candidate would have held bit-for-bit.
        """
        self._check_bin(remove_bin)
        self._check_bin(add_bin)
        dense = self._materialize_dense()
        idx = np.arange(self.ref.m)
        add_step = (idx >= add_bin).astype(np.float64)
        remove_steps = (idx[None, :] >= np.array([remove_bin])[:, None]).astype(
            np.float64
        )
        new_cum = dense[None, :] + (1.0 / self.size) * (
            add_step[None, :] - remove_steps
        )
        return float((np.abs(new_cum).sum(axis=1) / self.ref._denom)[0])

    def _check_bin(self, b: int) -> None:
        if not 0 <= b < self.ref.m:
            raise IndexError(f"bin {b} out of range [0, {self.ref.m})")

    def _score_swaps(self, remove_bins: np.ndarray, add_bin: int) -> np.ndarray:
        """Segment-wise EMD of every candidate swap, one shared bin grid.

        The grid's breakpoints are the current member bins plus ``add_bin``
        — a superset of every candidate cluster's breakpoints, so each
        candidate's cumulative mass is constant on every segment (redundant
        breakpoints only split a constant segment in two, which leaves the
        value unchanged up to float regrouping).  Candidate (row) r's
        constant on the segment starting at s is
        ``(#members <= s + [add_bin <= s] - [remove_bins[r] <= s]) / c`` —
        exact integer arithmetic until the single division.  The
        member-only half of the grid comes from the cached per-cluster
        prefix sums (:meth:`_rebuild_grid_cache`); only ``add_bin``'s
        insertion is computed per call.
        """
        ref = self.ref
        uniq, cum = self._uniq, self._cum_counts
        n_uniq = uniq.size
        pos = int(np.searchsorted(uniq, add_bin))
        if pos < n_uniq and uniq[pos] == add_bin:
            grid, grid_cum = uniq, cum
        else:
            grid = np.empty(n_uniq + 1, dtype=np.int64)
            grid[:pos] = uniq[:pos]
            grid[pos] = add_bin
            grid[pos + 1 :] = uniq[pos:]
            grid_cum = np.empty(n_uniq + 1, dtype=np.int64)
            grid_cum[:pos] = cum[:pos]
            grid_cum[pos] = cum[pos - 1] if pos else 0
            grid_cum[pos + 1 :] = cum[pos:]
        n_seg = grid.size + 1
        starts = np.empty(n_seg, dtype=np.int64)
        starts[0] = 0
        starts[1:] = grid
        stops = np.empty(n_seg, dtype=np.int64)
        stops[:-1] = grid
        stops[-1] = ref.m
        counts = np.empty(n_seg, dtype=np.int64)
        counts[0] = cum[0] if uniq[0] == 0 else 0  # members at bin 0
        counts[1:] = grid_cum
        counts += add_bin <= starts
        consts = (counts[None, :] - (remove_bins[:, None] <= starts[None, :])) / (
            self.size
        )
        return ref._segment_abs_sums(starts, stops, consts) / ref._denom

    def emd_with_swap(self, remove_bin: int, add_bin: int) -> float:
        """EMD if one member at ``remove_bin`` were replaced by ``add_bin``."""
        self._check_bin(remove_bin)
        self._check_bin(add_bin)
        if remove_bin == add_bin:
            return self._emd
        return float(self._score_swaps(np.array([remove_bin]), add_bin)[0])

    def swap_emds(self, remove_bins: np.ndarray, add_bin: int) -> np.ndarray:
        """EMD for every candidate swap (vectorized over removal candidates).

        Parameters
        ----------
        remove_bins:
            Bin index of each current member considered for removal.
        add_bin:
            Bin index of the incoming record.

        Returns
        -------
        np.ndarray
            ``out[j]`` is the cluster EMD after replacing member ``j`` by the
            incoming record; entries with ``remove_bins[j] == add_bin`` are
            exactly the current :attr:`emd` (the swap is a no-op).
        """
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        if remove_bins.size:
            self._check_bin(int(remove_bins.min()))
            self._check_bin(int(remove_bins.max()))
        self._check_bin(add_bin)
        out = self._score_swaps(remove_bins, add_bin)
        out[remove_bins == add_bin] = self._emd
        # Remember this scoring pass so a subsequent apply_swap of one of
        # these candidates commits the already-computed value instead of
        # re-evaluating it (invalidated as soon as the cluster changes).
        self._last_scores = (remove_bins, add_bin, out)
        return out

    def swap_emds_batch(
        self, remove_bins: np.ndarray, add_bins: np.ndarray
    ) -> np.ndarray:
        """:meth:`swap_emds` for a whole block of incoming candidates.

        Returns the ``(len(add_bins), len(remove_bins))`` matrix whose row
        ``b`` is **bitwise** ``swap_emds(remove_bins, add_bins[b])``: each
        candidate is scored on exactly the segment grid the one-candidate
        call would build (candidates whose bin already belongs to the
        member multiset share the member grid; the rest get the member
        grid with their own bin inserted), all integer grid arithmetic is
        exact, and the float segment reduction runs per row over the same
        contiguous axis — so regrouping candidates into one call cannot
        move a single ulp.  This is what collapses Algorithm 2's per-candidate numpy
        dispatch (~40 µs each) into one call per speculative block.

        Scoring is *read-only*: unlike :meth:`swap_emds`, no scoring-pass
        cache is retained (a later :meth:`apply_swap` simply re-evaluates
        its one pair, which lands on the identical float), which makes
        concurrent batch scoring from backend worker threads safe.
        """
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        add_bins = np.asarray(add_bins, dtype=np.int64)
        if remove_bins.size:
            self._check_bin(int(remove_bins.min()))
            self._check_bin(int(remove_bins.max()))
        if add_bins.size:
            self._check_bin(int(add_bins.min()))
            self._check_bin(int(add_bins.max()))
        n_cand = add_bins.size
        out = np.empty((n_cand, remove_bins.size))
        if n_cand == 0:
            return out
        ref = self.ref
        uniq, cum = self._uniq, self._cum_counts
        n_uniq = uniq.size
        members_at_zero = int(cum[0]) if uniq[0] == 0 else 0
        pos = np.searchsorted(uniq, add_bins)
        in_uniq = (pos < n_uniq) & (uniq[np.minimum(pos, n_uniq - 1)] == add_bins)

        shared = np.flatnonzero(in_uniq)
        if shared.size:
            # Candidates already in the member multiset score on the
            # member grid itself, exactly like the single-candidate path.
            n_seg = n_uniq + 1
            starts = np.empty(n_seg, dtype=np.int64)
            starts[0] = 0
            starts[1:] = uniq
            stops = np.empty(n_seg, dtype=np.int64)
            stops[:-1] = uniq
            stops[-1] = ref.m
            counts = np.empty(n_seg, dtype=np.int64)
            counts[0] = members_at_zero
            counts[1:] = cum
            counts = counts[None, :] + (add_bins[shared, None] <= starts[None, :])
            consts = (
                counts[:, None, :] - (remove_bins[None, :, None] <= starts[None, None, :])
            ) / (self.size)
            out[shared] = ref._segment_abs_sums(starts, stops, consts) / ref._denom

        fresh = np.flatnonzero(~in_uniq)
        if fresh.size:
            # Vectorized insertion of each candidate's bin into the member
            # grid — same breakpoints, same integer prefix counts as the
            # single-candidate insertion, just built for all rows at once.
            pos_f = pos[fresh][:, None]
            add_f = add_bins[fresh][:, None]
            j = np.arange(n_uniq + 1)[None, :]
            u_lo = uniq[np.minimum(j, n_uniq - 1)]
            u_hi = uniq[np.maximum(j - 1, 0)]
            grid = np.where(j < pos_f, u_lo, np.where(j == pos_f, add_f, u_hi))
            c_lo = cum[np.minimum(j, n_uniq - 1)]
            c_hi = cum[np.maximum(j - 1, 0)]
            cum_at_pos = np.where(pos_f > 0, cum[np.maximum(pos_f - 1, 0)], 0)
            grid_cum = np.where(
                j < pos_f, c_lo, np.where(j == pos_f, cum_at_pos, c_hi)
            )
            n_rows = fresh.size
            n_seg = n_uniq + 2
            starts = np.empty((n_rows, n_seg), dtype=np.int64)
            starts[:, 0] = 0
            starts[:, 1:] = grid
            stops = np.empty((n_rows, n_seg), dtype=np.int64)
            stops[:, :-1] = grid
            stops[:, -1] = ref.m
            counts = np.empty((n_rows, n_seg), dtype=np.int64)
            counts[:, 0] = members_at_zero
            counts[:, 1:] = grid_cum
            counts = counts + (add_f <= starts)
            consts = (
                counts[:, None, :] - (remove_bins[None, :, None] <= starts[:, None, :])
            ) / (self.size)
            out[fresh] = (
                ref._segment_abs_sums(starts[:, None, :], stops[:, None, :], consts)
                / ref._denom
            )

        out[add_bins[:, None] == remove_bins[None, :]] = self._emd
        return out

    def snapshot(self) -> dict:
        """Capture tracker state for an exact-resume checkpoint.

        Everything float-path-dependent is saved verbatim: the cached EMD
        (committed scoring-pass values), the dense adjudication state if it
        was ever materialized, and the swap history that allows a restored
        tracker to materialize it later with the identical replay.  The
        scoring-pass memo (``_last_scores``) is deliberately dropped — a
        post-restore ``apply_swap`` re-scores its one pair on the same
        segment grid and lands on the identical float — and checkpoint
        ticks fire only at committed-swap boundaries, where the memo is
        already invalidated.
        """
        state = {
            "member_bins": self._member_bins.copy(),
            "emd": float(self._emd),
            "uniq": self._uniq.copy(),
            "cum_counts": self._cum_counts.copy(),
            "initial_bins": self._initial_bins.copy(),
            "history": np.asarray(self._history, dtype=np.int64).reshape(-1, 2),
            "dense_emd": float(self._dense_emd),
            "has_dense": bool(self._dense_cum is not None),
        }
        if self._dense_cum is not None:
            state["dense_cum"] = self._dense_cum.copy()
        return state

    @classmethod
    def from_snapshot(
        cls, ref: OrderedEMDReference, state: dict
    ) -> "ClusterEMDTracker":
        """Rebuild a tracker from :meth:`snapshot`, continuing bit-for-bit."""
        tracker = cls.__new__(cls)
        tracker.ref = ref
        member_bins = np.asarray(state["member_bins"], dtype=np.int64)
        tracker.size = int(member_bins.size)
        tracker._member_bins = member_bins.copy()
        tracker._emd = float(state["emd"])
        tracker._uniq = np.asarray(state["uniq"], dtype=np.int64).copy()
        tracker._cum_counts = np.asarray(
            state["cum_counts"], dtype=np.int64
        ).copy()
        tracker._last_scores = None
        tracker._initial_bins = np.asarray(
            state["initial_bins"], dtype=np.int64
        ).copy()
        tracker._history = [
            (int(r), int(a))
            for r, a in np.asarray(state["history"], dtype=np.int64).reshape(
                -1, 2
            )
        ]
        if bool(state["has_dense"]):
            tracker._dense_cum = np.asarray(
                state["dense_cum"], dtype=np.float64
            ).copy()
        else:
            tracker._dense_cum = None
        tracker._dense_emd = float(state["dense_emd"])
        return tracker

    def apply_swap(self, remove_bin: int, add_bin: int) -> None:
        """Commit a swap previously scored by :meth:`swap_emds`.

        Delta-updates the sorted member multiset in O(c) and caches the
        swapped cluster's EMD, evaluated with exactly the arithmetic of the
        scoring pass — so :attr:`emd` afterwards equals the accepted
        ``swap_emds`` entry bit-for-bit.  ``remove_bin`` must currently hold
        a member (the dense predecessor silently produced a negative-mass
        histogram here; that was never a meaningful cluster).
        """
        self._check_bin(remove_bin)
        self._check_bin(add_bin)
        if remove_bin == add_bin:
            return
        members = self._member_bins
        idx = int(np.searchsorted(members, remove_bin))
        if idx >= self.size or members[idx] != remove_bin:
            raise ValueError(
                f"remove_bin {remove_bin} is not a member of the cluster"
            )
        score: float | None = None
        if self._last_scores is not None:
            last_removes, last_add, last_out = self._last_scores
            if last_add == add_bin:
                hits = np.flatnonzero(last_removes == remove_bin)
                if hits.size:
                    # remove_bin != add_bin here, so the no-op fill never
                    # touched this entry: it is the raw scoring-pass value.
                    score = float(last_out[hits[0]])
        if score is None:
            score = float(self._score_swaps(np.array([remove_bin]), add_bin)[0])
        self._emd = score
        without = _delete_at(members, idx)
        self._member_bins = _insert_at(
            without, int(np.searchsorted(without, add_bin)), add_bin
        )
        self._shift_grid_cache(remove_bin, add_bin)
        self._history.append((remove_bin, add_bin))
        if self._dense_cum is not None:
            self._dense_range_update(remove_bin, add_bin)
            self._refresh_dense_emd()


@_dataclass(frozen=True)
class EMDModeSpec:
    """Registry descriptor for one ordered-EMD flavour.

    Attributes
    ----------
    name:
        Registered mode name (``emd_mode=`` accepts it everywhere).
    supports_trackers:
        Whether references built by this mode expose the incremental
        swap-tracker protocol (``bins_of`` / :class:`ClusterEMDTracker`)
        that Algorithm 2 and the sparse merge phase require.
    factory:
        ``(dataset_values) -> reference`` builder; the reference must offer
        ``emd(cluster_values)`` and, when ``supports_trackers``, the
        distinct-mode bin API.
    """

    name: str
    supports_trackers: bool
    factory: _Callable[[np.ndarray], object]

    def make(self, dataset_values: np.ndarray) -> object:
        """Build the mode's EMD reference for one confidential column."""
        return self.factory(dataset_values)


register_emd_mode(
    "distinct",
    EMDModeSpec(
        name="distinct",
        supports_trackers=True,
        factory=lambda values: OrderedEMDReference(values, mode="distinct"),
    ),
)
register_emd_mode(
    "rank",
    EMDModeSpec(
        name="rank",
        supports_trackers=False,
        factory=lambda values: OrderedEMDReference(values, mode="rank"),
    ),
)


class NominalEMDReference:
    """Precomputed frame for equal-ground-distance EMD (total variation).

    The nominal counterpart of :class:`OrderedEMDReference`: for attributes
    without an order, Li et al. define the ground distance between any two
    categories as 1, under which the EMD collapses to
    ``0.5 * sum_i |p_i - q_i|``.
    """

    __slots__ = ("n_categories", "q", "m")

    def __init__(self, dataset_codes: Sequence[int], n_categories: int) -> None:
        codes = np.asarray(dataset_codes, dtype=np.int64)
        if codes.ndim != 1 or codes.size == 0:
            raise ValueError("dataset_codes must be a non-empty 1-D array")
        if n_categories < 1:
            raise ValueError(f"n_categories must be >= 1, got {n_categories}")
        if codes.min() < 0 or codes.max() >= n_categories:
            raise ValueError(f"dataset codes outside [0, {n_categories})")
        self.n_categories = int(n_categories)
        self.m = self.n_categories
        self.q = np.bincount(codes, minlength=n_categories) / codes.size

    def bins_of(self, codes: Sequence[int]) -> np.ndarray:
        """Codes *are* bins for nominal attributes (validated pass-through)."""
        arr = np.asarray(codes, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_categories):
            raise ValueError(f"codes outside [0, {self.n_categories})")
        return arr

    def emd(self, cluster_codes: Sequence[int]) -> float:
        """EMD (total variation) between the cluster and the dataset."""
        return self.emd_of_bins(self.bins_of(cluster_codes))

    def emd_of_bins(self, bins: np.ndarray, cluster_size: int | None = None) -> float:
        """EMD of a cluster given as codes (mirrors the ordered API)."""
        bins = self.bins_of(bins)
        if bins.size == 0:
            raise ValueError("cluster must be non-empty")
        c = cluster_size if cluster_size is not None else len(bins)
        p = np.bincount(bins, minlength=self.n_categories) / c
        return float(0.5 * np.abs(p - self.q).sum())


class NominalClusterTracker:
    """Incremental total-variation EMD evaluator for one mutable cluster.

    The nominal counterpart of :class:`ClusterEMDTracker`, under the same
    swap-contract (see that class's docstring): swaps *replace* one member
    at constant cluster size, ``remove_bin == add_bin`` scores exactly the
    current :attr:`emd`, out-of-range bins raise ``IndexError``, and
    committing a removal from an empty category raises ``ValueError``.
    Scoring a swap only touches the two affected category bins, so
    evaluating all |C| candidate removals is O(|C|).
    """

    __slots__ = ("ref", "size", "_diff", "_counts", "_step")

    def __init__(self, ref: NominalEMDReference, member_bins: np.ndarray) -> None:
        member_bins = np.asarray(member_bins, dtype=np.int64)
        if member_bins.size == 0:
            raise ValueError("cluster must be non-empty")
        if member_bins.min() < 0 or member_bins.max() >= ref.n_categories:
            raise IndexError(f"member bins out of range [0, {ref.n_categories})")
        self.ref = ref
        self.size = int(member_bins.size)
        self._counts = np.bincount(member_bins, minlength=ref.n_categories)
        p = self._counts / self.size
        self._diff = p - ref.q
        self._step = 1.0 / self.size

    @property
    def emd(self) -> float:
        """Current EMD (total variation) of the tracked cluster."""
        return float(0.5 * np.abs(self._diff).sum())

    @property
    def exact_emd(self) -> float:
        """Alias of :attr:`emd` — this tracker's fast path *is* the dense
        predecessor's arithmetic (O(categories) state, unchanged)."""
        return self.emd

    def exact_swap_emd(self, remove_bin: int, add_bin: int) -> float:
        """One swap's EMD, grouped exactly as the vectorized scoring pass."""
        return float(self.swap_emds(np.array([remove_bin]), add_bin)[0])

    def _check_bin(self, b: int) -> None:
        if not 0 <= b < self.ref.n_categories:
            raise IndexError(f"bin {b} out of range [0, {self.ref.n_categories})")

    def emd_with_swap(self, remove_bin: int, add_bin: int) -> float:
        """EMD if one member at ``remove_bin`` were replaced by ``add_bin``."""
        self._check_bin(remove_bin)
        self._check_bin(add_bin)
        if remove_bin == add_bin:
            return self.emd
        d = self._diff
        delta = (
            abs(d[add_bin] + self._step)
            - abs(d[add_bin])
            + abs(d[remove_bin] - self._step)
            - abs(d[remove_bin])
        )
        return float(self.emd + 0.5 * delta)

    def swap_emds(self, remove_bins: np.ndarray, add_bin: int) -> np.ndarray:
        """EMD for every candidate swap (vectorized over removal candidates).

        Parameters
        ----------
        remove_bins:
            Bin (category) index of each current member considered for
            removal.
        add_bin:
            Bin (category) index of the incoming record.

        Returns
        -------
        np.ndarray
            ``out[j]`` is the cluster EMD after replacing member ``j`` by the
            incoming record; entries with ``remove_bins[j] == add_bin`` are
            exactly the current :attr:`emd` (the swap is a no-op).
        """
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        if remove_bins.size:
            self._check_bin(int(remove_bins.min()))
            self._check_bin(int(remove_bins.max()))
        self._check_bin(add_bin)
        d = self._diff
        base = self.emd
        gain_add = abs(d[add_bin] + self._step) - abs(d[add_bin])
        gain_remove = np.abs(d[remove_bins] - self._step) - np.abs(d[remove_bins])
        out = base + 0.5 * (gain_add + gain_remove)
        # A swap that removes and adds the same category is a no-op.
        out[remove_bins == add_bin] = base
        return out

    def swap_emds_batch(
        self, remove_bins: np.ndarray, add_bins: np.ndarray
    ) -> np.ndarray:
        """:meth:`swap_emds` for a block of candidates (rows bitwise equal).

        The two-sided gain decomposition is separable in (candidate,
        removal), so the batch is one broadcast — every entry evaluates
        the identical ``base + 0.5 * (gain_add + gain_remove)`` expression
        the one-candidate call does.  Read-only, like the ordered
        tracker's batch scorer.
        """
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        add_bins = np.asarray(add_bins, dtype=np.int64)
        if remove_bins.size:
            self._check_bin(int(remove_bins.min()))
            self._check_bin(int(remove_bins.max()))
        if add_bins.size:
            self._check_bin(int(add_bins.min()))
            self._check_bin(int(add_bins.max()))
        d = self._diff
        base = self.emd
        gain_add = np.abs(d[add_bins] + self._step) - np.abs(d[add_bins])
        gain_remove = np.abs(d[remove_bins] - self._step) - np.abs(d[remove_bins])
        out = base + 0.5 * (gain_add[:, None] + gain_remove[None, :])
        out[add_bins[:, None] == remove_bins[None, :]] = base
        return out

    def snapshot(self) -> dict:
        """Capture tracker state for an exact-resume checkpoint.

        ``_diff`` accumulates float steps in swap order, so it is saved
        verbatim rather than rebuilt from the counts.
        """
        return {
            "counts": self._counts.copy(),
            "diff": self._diff.copy(),
            "size": int(self.size),
        }

    @classmethod
    def from_snapshot(
        cls, ref: NominalEMDReference, state: dict
    ) -> "NominalClusterTracker":
        """Rebuild a tracker from :meth:`snapshot`, continuing bit-for-bit."""
        tracker = cls.__new__(cls)
        tracker.ref = ref
        tracker.size = int(state["size"])
        tracker._counts = np.asarray(state["counts"], dtype=np.int64).copy()
        tracker._diff = np.asarray(state["diff"], dtype=np.float64).copy()
        tracker._step = 1.0 / tracker.size
        return tracker

    def apply_swap(self, remove_bin: int, add_bin: int) -> None:
        """Commit a swap previously scored by :meth:`swap_emds`.

        ``remove_bin`` must currently hold at least one member; removing
        from an empty category would leave a negative-mass histogram.
        """
        self._check_bin(remove_bin)
        self._check_bin(add_bin)
        if remove_bin == add_bin:
            return
        if self._counts[remove_bin] <= 0:
            raise ValueError(
                f"remove_bin {remove_bin} is not a member of the cluster"
            )
        self._counts[remove_bin] -= 1
        self._counts[add_bin] += 1
        self._diff[add_bin] += self._step
        self._diff[remove_bin] -= self._step


# -- module-level convenience functions -----------------------------------------------


def emd_ordered(
    cluster_values: Sequence[float],
    dataset_values: Sequence[float],
    *,
    mode: str = "distinct",
) -> float:
    """One-shot ordered EMD between a cluster and the full dataset.

    Prefer building an :class:`OrderedEMDReference` when evaluating many
    clusters against the same dataset.
    """
    return OrderedEMDReference(dataset_values, mode=mode).emd(cluster_values)


def emd_nominal(
    cluster_codes: Sequence[int],
    dataset_codes: Sequence[int],
    n_categories: int,
) -> float:
    """Equal-ground-distance EMD (total variation) for nominal attributes."""
    if n_categories < 1:
        raise ValueError(f"n_categories must be >= 1, got {n_categories}")
    cl = np.asarray(cluster_codes, dtype=np.int64)
    ds = np.asarray(dataset_codes, dtype=np.int64)
    if cl.size == 0 or ds.size == 0:
        raise ValueError("cluster and dataset must be non-empty")
    for arr, label in ((cl, "cluster"), (ds, "dataset")):
        if arr.min() < 0 or arr.max() >= n_categories:
            raise ValueError(f"{label} codes outside [0, {n_categories})")
    p = np.bincount(cl, minlength=n_categories) / cl.size
    q = np.bincount(ds, minlength=n_categories) / ds.size
    return float(0.5 * np.abs(p - q).sum())


def emd_hierarchical(
    cluster_labels: Sequence[str],
    dataset_labels: Sequence[str],
    taxonomy: Taxonomy,
) -> float:
    """Hierarchical EMD of Li et al. for nominal attributes with a taxonomy.

    Computed bottom-up: each internal node N "absorbs" the surplus mass of
    its children; the cost charged at N is
    ``node_height(N)/H * min(positive surplus, negative surplus)`` — the
    mass that must cross N on its way to a sibling subtree.
    """
    cluster = list(cluster_labels)
    dataset = list(dataset_labels)
    if not cluster or not dataset:
        raise ValueError("cluster and dataset must be non-empty")
    leaf_set = set(taxonomy.leaves)
    for label in cluster + dataset:
        if label not in leaf_set:
            raise ValueError(f"label {label!r} is not a leaf of the taxonomy")

    extra: dict[str, float] = {leaf: 0.0 for leaf in taxonomy.leaves}
    for label in cluster:
        extra[label] += 1.0 / len(cluster)
    for label in dataset:
        extra[label] -= 1.0 / len(dataset)

    total_cost = 0.0
    # Process internal nodes deepest-first so children are final when read.
    internal = [
        node
        for node in _preorder_nodes(taxonomy)
        if not taxonomy.is_leaf(node)
    ]
    for node in sorted(internal, key=taxonomy.depth, reverse=True):
        child_extras = [extra[c] for c in taxonomy.children(node)]
        pos = sum(e for e in child_extras if e > 0)
        neg = -sum(e for e in child_extras if e < 0)
        # Mass that stays within this subtree but crosses child boundaries
        # pays for climbing to this node and back down (Li et al. charge the
        # node height once per unit of matched surplus).
        total_cost += (taxonomy.node_height(node) / taxonomy.height) * min(pos, neg)
        extra[node] = sum(child_extras)
    return float(total_cost)


def _preorder_nodes(taxonomy: Taxonomy) -> list[str]:
    out = [taxonomy.root]
    stack = [taxonomy.root]
    while stack:
        node = stack.pop()
        for child in taxonomy.children(node):
            out.append(child)
            stack.append(child)
    return out
