"""Mondrian multidimensional partitioning, adapted to t-closeness.

Mondrian (LeFevre, DeWitt & Ramakrishnan, ICDE 2006) greedily bisects the
record set: pick the quasi-identifier with the widest normalized range
inside the current region, split at its median, recurse while both halves
remain admissible.  For plain k-anonymity "admissible" means >= k records;
the t-closeness adaptation (used as the generalization baseline in Li et
al.'s TKDE 2010 evaluation, and the natural comparator for this paper)
additionally requires both halves to keep their confidential distribution
within EMD t of the full table.

Because the whole dataset trivially satisfies t-closeness (EMD 0) and
splits are only taken when both children comply, the final partition always
satisfies both constraints — the recursion just stops earlier when t is
strict, yielding the larger classes (and worse utility) that motivate the
paper's microaggregation approach.
"""

from __future__ import annotations

import numpy as np

from ..constants import T_TOLERANCE
from ..core.confidential import ConfidentialModel
from ..data.dataset import Microdata
from ..microagg.partition import Partition


def mondrian_partition(
    data: Microdata,
    k: int,
    t: float | None = None,
    *,
    emd_mode: str = "distinct",
) -> Partition:
    """Greedy median-split partition satisfying k-anonymity (and t-closeness).

    Parameters
    ----------
    data:
        Microdata with quasi-identifier roles (numeric or ordinal QIs; the
        median-split strategy needs ordered domains).
    k:
        Minimum records per region.
    t:
        Optional t-closeness level; ``None`` reproduces classic Mondrian.
    emd_mode:
        EMD flavour for the t-closeness admission test.

    Returns
    -------
    Partition
        Regions of the recursive bisection (strict mode: every region has
        between k and 2k-1 records when t is None and data has no heavy
        ties; ties can force larger leaf regions).
    """
    n = data.n_records
    if n == 0:
        raise ValueError("dataset is empty")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if t is not None and t < 0:
        raise ValueError(f"t must be >= 0, got {t}")

    qi = data.matrix(data.quasi_identifiers)
    spans = qi.max(axis=0) - qi.min(axis=0)
    spans[spans == 0.0] = 1.0
    normalized = (qi - qi.min(axis=0)) / spans

    model = ConfidentialModel(data, emd_mode=emd_mode) if t is not None else None

    def admissible(members: np.ndarray) -> bool:
        if len(members) < k:
            return False
        if model is not None and model.cluster_emd(members) > t + T_TOLERANCE:
            return False
        return True

    labels = np.zeros(n, dtype=np.int64)
    next_label = 1
    stack: list[np.ndarray] = [np.arange(n)]
    final_regions: list[np.ndarray] = []

    while stack:
        region = stack.pop()
        split = _best_split(normalized, region, admissible)
        if split is None:
            final_regions.append(region)
            continue
        left, right = split
        stack.append(left)
        stack.append(right)

    for g, region in enumerate(final_regions):
        labels[region] = g
    partition = Partition(labels)
    partition.validate_min_size(k)
    return partition


def _best_split(
    normalized: np.ndarray,
    region: np.ndarray,
    admissible,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Try dimensions in decreasing range order; return the first legal cut."""
    sub = normalized[region]
    ranges = sub.max(axis=0) - sub.min(axis=0)
    for dim in np.argsort(-ranges, kind="stable"):
        if ranges[dim] == 0.0:
            break  # all remaining dims are constant in this region
        values = sub[:, dim]
        median = np.median(values)
        left_mask = values < median
        right_mask = ~left_mask
        # Median may coincide with the minimum under ties; fall back to <=.
        if not left_mask.any() or not right_mask.any():
            left_mask = values <= median
            right_mask = ~left_mask
            if not left_mask.any() or not right_mask.any():
                continue
        left, right = region[left_mask], region[right_mask]
        if admissible(left) and admissible(right):
            return left, right
    return None
