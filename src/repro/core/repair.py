"""Post-clustering policy enforcement by cluster merging.

The paper's three algorithms construct k-anonymous partitions and enforce
t-closeness; a :class:`~repro.core.policy.PrivacyPolicy` may additionally
require distinct l-diversity or p-sensitivity, which none of the
algorithms targets directly.  This module closes the gap the same way
Algorithm 1 closes the t-closeness gap: by *merging* clusters, the one
operation that can only strengthen every supported requirement on the
clusters it touches —

* k-anonymity: merged clusters are larger;
* distinct l-diversity / p-sensitivity: a merged cluster's value set is
  the union of its parts, so distinct counts never decrease;
* t-closeness: re-enforced last (merging for diversity can move a
  cluster's distribution), via Algorithm 1's merge phase, which itself
  only merges — so the diversity repairs it inherits are preserved.

The t-closeness re-enforcement also repairs a documented looseness of
Algorithm 3: its extra-record rule (the ``n mod k'`` leftovers parked in
central buckets, Figures 3-4) is a heuristic outside Proposition 2's
guarantee, and on small tables a cluster holding an extra record can
exceed the bound.  The release lifecycle (:class:`repro.core.model.Anonymizer`)
runs this repair, so released tables always meet the declared policy even
when the raw construction lands slightly above t.
"""

from __future__ import annotations

import numpy as np

from ..backend import SerialBackend
from ..constants import T_TOLERANCE
from ..data.dataset import Microdata
from ..distance.records import encode_mixed
from ..microagg.partition import Partition
from .base import TClosenessResult
from .confidential import ConfidentialModel
from .merge import merge_to_t_closeness
from .policy import PrivacyPolicy


class PolicyInfeasibleError(ValueError):
    """Raised when no partition of the table can satisfy the policy."""


def cluster_distinct_counts(data: Microdata, partition: Partition) -> np.ndarray:
    """Per-cluster minimum (over confidential attributes) distinct-value count.

    This is the quantity distinct l-diversity and p-sensitivity bound from
    below, evaluated per cluster so the repair loop can find violators.
    """
    if not data.confidential:
        raise ValueError("dataset declares no confidential attributes")
    labels = partition.labels
    counts = np.full(partition.n_clusters, np.iinfo(np.int64).max, dtype=np.int64)
    for name in data.confidential:
        values = data.values(name)
        # Distinct (cluster, value) pairs per cluster, in one vectorized pass.
        _, codes = np.unique(values, return_inverse=True)
        pairs = np.unique(np.stack([labels, codes.ravel()], axis=1), axis=0)
        per_cluster = np.bincount(pairs[:, 0], minlength=partition.n_clusters)
        np.minimum(counts, per_cluster, out=counts)
    return counts


def _merge_for_diversity(
    data: Microdata,
    partition: Partition,
    required: int,
    qi_matrix: np.ndarray,
) -> tuple[Partition, int]:
    """Merge clusters until every cluster holds >= ``required`` distinct values.

    Partner selection follows Algorithm 1's quality criterion: the violating
    cluster absorbs the cluster whose quasi-identifier centroid is nearest,
    so the repair costs as little information as the geometry allows.
    """
    table_counts = cluster_distinct_counts(data, Partition.single_cluster(data.n_records))
    if int(table_counts[0]) < required:
        raise PolicyInfeasibleError(
            f"policy requires {required} distinct confidential values per "
            f"class, but the table itself has only {int(table_counts[0])}"
        )

    n_merges = 0
    while True:
        counts = cluster_distinct_counts(data, partition)
        violators = np.flatnonzero(counts < required)
        if violators.size == 0:
            return partition, n_merges
        # Worst violator first (deterministic: lowest count, then lowest id).
        worst = int(violators[np.argmin(counts[violators])])
        centroids = np.stack(
            [qi_matrix[members].mean(axis=0) for members in partition.clusters()]
        )
        deltas = centroids - centroids[worst]
        d2 = np.einsum("ij,ij->i", deltas, deltas)
        d2[worst] = np.inf
        partner = int(np.argmin(d2))
        partition = partition.merge(worst, partner)
        n_merges += 1


def enforce_policy(
    data: Microdata,
    result: TClosenessResult,
    policy: PrivacyPolicy,
    *,
    model: ConfidentialModel | None = None,
    qi_matrix: np.ndarray | None = None,
    backend: SerialBackend | str | None = None,
    progress=None,
) -> TClosenessResult:
    """Repair ``result`` until its partition satisfies ``policy``.

    Returns ``result`` itself — same object, bit-for-bit — when the
    partition already meets every requirement, so the repair step is free
    on the paths the algorithms already guarantee.  Otherwise returns a new
    :class:`TClosenessResult` whose ``info`` additionally records
    ``diversity_merges`` and ``repair_merges``.

    ``progress`` (a :class:`~repro.runtime.FitProgress`, or None) threads
    checkpoint ticks into the t-closeness merge loop under the
    ``"repair:merge"`` stage; the diversity pre-pass is cheap and replays
    deterministically on resume, so it is not checkpointed.

    Raises
    ------
    PolicyInfeasibleError
        If the table cannot satisfy the policy at all (fewer distinct
        confidential values than the policy demands per class).
    """
    partition = result.partition
    required = policy.required_distinct
    t = policy.t

    needs_diversity = required > 1 and bool(
        (cluster_distinct_counts(data, partition) < required).any()
    )
    needs_tightening = t is not None and result.max_emd > t + T_TOLERANCE
    if not needs_diversity and not needs_tightening:
        return result

    if qi_matrix is None:
        qi_matrix = encode_mixed(data, data.quasi_identifiers)
    if model is None:
        model = ConfidentialModel(data, emd_mode=result.info.get("emd_mode", "distinct"))

    diversity_merges = 0
    if needs_diversity:
        partition, diversity_merges = _merge_for_diversity(
            data, partition, required, qi_matrix
        )

    repair_merges = 0
    if t is not None:
        # Re-enforce t-closeness last: it merges only, so the diversity
        # repairs above (distinct counts grow under union) are preserved.
        partition, emds, repair_merges = merge_to_t_closeness(
            data,
            partition,
            t,
            model=model,
            qi_matrix=qi_matrix,
            backend=backend,
            progress=progress,
            stage="repair:merge",
        )
    else:
        emds = model.partition_emds(list(partition.clusters()))

    return TClosenessResult(
        algorithm=result.algorithm,
        k=result.k,
        t=result.t,
        partition=partition,
        cluster_emds=np.asarray(emds, dtype=np.float64),
        info={
            **result.info,
            "diversity_merges": diversity_merges,
            "repair_merges": repair_merges,
        },
    )
