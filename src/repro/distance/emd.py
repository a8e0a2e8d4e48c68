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
for evaluating many clusters against one dataset densely, in float — and
the exact-integer side every algorithm decides on: :class:`OrderedEMDFrame`
and :class:`NominalEMDFrame` write a cluster's EMD as an integer numerator S
over the denominator c·n·w (O(c log m) per ordered cluster), and
:class:`ClusterEMDTracker` / :class:`NominalClusterTracker` score the
replace-one-record swaps that dominate Algorithm 2's running time on those
numerators.
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
    bins.  The t-closeness verifier and the generalization baselines
    evaluate through this class; the paper algorithms decide on the
    integer frames built from its :meth:`bins_of`.

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


class _IntegerFrame:
    """The record bins of one confidential column."""

    __slots__ = ("bins", "m", "n")

    def _counts(self, bins: Sequence[int], m: int) -> np.ndarray:
        """Store the record bins; return the records per bin."""
        self.bins = np.ascontiguousarray(bins, dtype=np.int64)
        if self.bins.ndim != 1 or self.bins.size == 0:
            raise ValueError("bins must be a non-empty 1-D array")
        if m < 1 or self.bins.min() < 0 or self.bins.max() >= m:
            raise ValueError(f"bins outside [0, {m})")
        self.m = int(m)
        self.n = int(self.bins.size)
        return np.bincount(self.bins, minlength=self.m)


class OrderedEMDFrame(_IntegerFrame):
    """Exact-integer frame of one ordered (distinct-mode) attribute.

    ``bins[r]`` is record r's bin.  With ``cum[i]`` the records at or
    below bin i and ``prefix[i] = sum_{j<i} cum[j]``, a cluster of c
    records of which ``cum_c(i)`` lie at or below bin i has the EMD
    numerator

    .. math:: S = \\sum_{i<m} |n \\cdot cum_c(i) - c \\cdot cum(i)|,
              \\qquad EMD = S / (c \\cdot n \\cdot w), \\quad w = \\max(m-1, 1)

    (Definition 2 over the common denominator c·n; the closed form of
    Dosselmann et al.'s *Tutorial on Computing t-Closeness*).  Every
    intermediate of :meth:`segment_sums` stays below c·n·m, so the
    arithmetic is exact in int64 while c·n·m < 2**63.
    """

    __slots__ = ("weight", "cum", "prefix")

    def __init__(self, bins: Sequence[int], m: int) -> None:
        self.cum = np.cumsum(self._counts(bins, m))
        self.prefix = np.concatenate([[0], np.cumsum(self.cum)])
        self.weight = max(self.m - 1, 1)

    def segment_sums(
        self, starts: np.ndarray, stops: np.ndarray, consts: np.ndarray, c
    ) -> np.ndarray:
        """Sum of ``|n*K - c*cum[i]|`` over each segment ``[start, stop)``.

        ``consts`` holds a cluster's constant cumulative count K on each
        segment and ``c`` its size, a scalar or an array per segment, so
        one call can cover many clusters; a cluster's S is the total over
        its segments.  ``cum`` is non-decreasing, so the sign flips once
        per segment, at the first bin with ``cum > n*K // c`` (exact: cum
        is an integer); both halves are prefix-sum lookups.
        """
        n_k = self.n * consts
        cross = self.cum.searchsorted(n_k // c, side="right")
        cross = np.minimum(np.maximum(cross, starts), stops)  # np.clip, cheaper
        prefix = self.prefix
        below = n_k * (cross - starts) - c * (prefix[cross] - prefix[starts])
        above = c * (prefix[stops] - prefix[cross]) - n_k * (stops - cross)
        return below + above

    def numerator(self, bins: np.ndarray) -> int:
        """S of the cluster whose members sit at ``bins``, in O(c log m)."""
        return self.sorted_numerator(np.sort(bins))

    def sorted_numerator(self, sorted_bins: np.ndarray) -> int:
        """S of the cluster whose members sit at ``sorted_bins`` (ascending).

        The c member bins b_1 <= ... <= b_c cut [0, m) into the c + 1
        segments [0, b_1), [b_1, b_2), ..., [b_c, m), on which the
        cluster's cumulative count is 0, 1, ..., c: one
        :meth:`segment_sums` call with no ``np.unique``.  A repeated bin
        makes an empty segment, which adds 0, so ties stay exact.
        """
        c = len(sorted_bins)
        bounds = np.empty(c + 2, dtype=np.int64)
        bounds[0], bounds[-1] = 0, self.m
        bounds[1:-1] = sorted_bins
        consts = np.arange(c + 1)
        return int(self.segment_sums(bounds[:-1], bounds[1:], consts, c).sum())

    def tracker(self, member_bins: np.ndarray) -> "ClusterEMDTracker":
        """Incremental scorer of a cluster with members at ``member_bins``."""
        return ClusterEMDTracker(self, member_bins)


class NominalEMDFrame(_IntegerFrame):
    """Exact-integer frame of one nominal attribute.

    A cluster of c records, ``C_i`` of them in category i, has the
    numerator ``S = sum_i |n*C_i - c*counts[i]|`` and
    ``EMD = S / (c*n*w)`` with ``w = 2`` (total variation,
    ``0.5 * sum_i |p_i - q_i|``).
    """

    __slots__ = ("weight", "counts")

    def __init__(self, bins: Sequence[int], m: int) -> None:
        self.counts = self._counts(bins, m)
        self.weight = 2

    def numerator(self, bins: np.ndarray) -> int:
        """S of the cluster whose members sit at ``bins``."""
        members = np.bincount(bins, minlength=self.m)
        return int(np.abs(self.n * members - len(bins) * self.counts).sum())

    def tracker(self, member_bins: np.ndarray) -> "NominalClusterTracker":
        """Incremental scorer of a cluster with members at ``member_bins``."""
        return NominalClusterTracker(self, member_bins)


class _ClusterTracker:
    """State and bin checks shared by the two incremental trackers."""

    __slots__ = ("frame", "size", "numerator")

    def _check(self, bins) -> None:
        bins = np.asarray(bins)
        if bins.size and (bins.min() < 0 or bins.max() >= self.frame.m):
            raise IndexError(f"bins out of range [0, {self.frame.m})")

    def _start(self, frame, member_bins) -> np.ndarray:
        member_bins = np.asarray(member_bins, dtype=np.int64)
        if member_bins.size == 0:
            raise ValueError("cluster must be non-empty")
        self.frame = frame
        self._check(member_bins)
        self.size = int(member_bins.size)
        return member_bins


class ClusterEMDTracker(_ClusterTracker):
    """Incremental exact ordered-EMD numerator of one mutable cluster.

    Holds the sorted member bins (O(c) state, independent of the m
    dataset bins) and the current numerator S of an
    :class:`OrderedEMDFrame`.  :meth:`swap_numerators` scores every
    candidate removal on one shared segment grid (the member bins plus
    the incoming bin), O(c log m) per removal; :meth:`apply_swap`
    commits one.  Integer state makes every score exact: equal clusters
    score equal, whatever path led to them, so Algorithm 2's ties and
    thresholds are decided exactly.

    Swap-contract (shared with :class:`NominalClusterTracker`): a swap
    *replaces* one member — remove at ``remove_bin`` and add at
    ``add_bin`` happen together at constant cluster size c; a no-op swap
    (``remove_bin == add_bin``) scores exactly :attr:`numerator`; bins
    outside ``[0, m)`` raise ``IndexError``; committing a removal at a
    bin that holds no member raises ``ValueError``.
    """

    __slots__ = ("_sorted",)

    def __init__(self, frame: OrderedEMDFrame, member_bins: np.ndarray) -> None:
        self._sorted = np.sort(self._start(frame, member_bins))
        self.numerator = frame.sorted_numerator(self._sorted)

    def swap_numerators(self, remove_bins: np.ndarray, add_bin: int) -> np.ndarray:
        """S after replacing a member at ``remove_bins[j]`` by ``add_bin``."""
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        self._check(remove_bins)
        self._check(add_bin)
        grid = np.unique(np.append(self._sorted, add_bin))
        starts = np.concatenate([[0], grid])
        stops = np.concatenate([grid, [self.frame.m]])
        counts = np.searchsorted(self._sorted, starts, side="right")
        counts += add_bin <= starts
        consts = counts[None, :] - (remove_bins[:, None] <= starts[None, :])
        return self.frame.segment_sums(starts, stops, consts, self.size).sum(axis=-1)

    def apply_swap(self, remove_bin: int, add_bin: int) -> None:
        """Commit the replacement of a member at ``remove_bin``."""
        self._check([remove_bin, add_bin])
        if remove_bin == add_bin:
            return
        idx = int(np.searchsorted(self._sorted, remove_bin))
        if idx >= self.size or self._sorted[idx] != remove_bin:
            raise ValueError(
                f"remove_bin {remove_bin} is not a member of the cluster"
            )
        self._sorted = np.sort(np.append(np.delete(self._sorted, idx), add_bin))
        self.numerator = self.frame.sorted_numerator(self._sorted)


@_dataclass(frozen=True)
class EMDModeSpec:
    """Registry descriptor for one ordered-EMD flavour.

    Attributes
    ----------
    name:
        Registered mode name (``emd_mode=`` accepts it everywhere).
    supports_trackers:
        Whether references built by this mode expose per-record bins
        (``bins_of``), from which the exact integer frames are built.
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


class NominalClusterTracker(_ClusterTracker):
    """Incremental exact nominal-EMD numerator of one mutable cluster.

    The nominal counterpart of :class:`ClusterEMDTracker` over a
    :class:`NominalEMDFrame`, under the same swap-contract (see that
    class's docstring).  It keeps the per-category terms
    ``n*C_i - c*N_i``; a swap changes only the two affected categories,
    so scoring all c removals is O(c).
    """

    __slots__ = ("_terms",)

    def __init__(self, frame: NominalEMDFrame, member_bins: np.ndarray) -> None:
        member_bins = self._start(frame, member_bins)
        members = np.bincount(member_bins, minlength=frame.m)
        self._terms = frame.n * members - self.size * frame.counts
        self.numerator = int(np.abs(self._terms).sum())

    def swap_numerators(self, remove_bins: np.ndarray, add_bin: int) -> np.ndarray:
        """S after replacing a member at ``remove_bins[j]`` by ``add_bin``."""
        remove_bins = np.asarray(remove_bins, dtype=np.int64)
        self._check(remove_bins)
        self._check(add_bin)
        n, terms = self.frame.n, self._terms
        gain_add = abs(terms[add_bin] + n) - abs(terms[add_bin])
        removed = terms[remove_bins]
        out = self.numerator + gain_add + np.abs(removed - n) - np.abs(removed)
        out[remove_bins == add_bin] = self.numerator
        return out

    def apply_swap(self, remove_bin: int, add_bin: int) -> None:
        """Commit the replacement of a member at ``remove_bin``."""
        self._check([remove_bin, add_bin])
        if remove_bin == add_bin:
            return
        n, terms = self.frame.n, self._terms
        if terms[remove_bin] + self.size * self.frame.counts[remove_bin] <= 0:
            raise ValueError(
                f"remove_bin {remove_bin} is not a member of the cluster"
            )
        self.numerator = int(
            self.swap_numerators(np.array([remove_bin]), add_bin)[0]
        )
        terms[remove_bin] -= n
        terms[add_bin] += n


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
