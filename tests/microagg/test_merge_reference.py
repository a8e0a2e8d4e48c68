"""The merge phase == a brute-force exact rational reference.

:func:`reference_merge` re-runs the merge loop (Algorithm 1, and the
closing step of Algorithm 2) with every EMD the dense Definition-2 value
of ``test_alg2_reference._dense_emd``, an exact ``Fraction``: the worst
cluster is the largest EMD, lowest cluster id on exact ties; the loop
stops once it is at most ``Fraction(t)``; the partner is

* ``nearest-qi``: :func:`repro.core.merge._nearest_partner` over the
  same centroid engine, updated with the same weighted means — centroid
  distance is real float geometry, which the golden fixtures pin;
* ``lowest-emd``: the smallest merged EMD over every live cluster,
  lowest id on exact ties, by brute force.

Every golden dataset runs three ways: Algorithm 1 (MDAV + merge),
kanon-first with the merge fallback (starting from Algorithm 2's raw
partition, which ``test_alg2_reference.py`` pins) and MDAV + lowest-emd
merging.  The library must reproduce the reference's labels and merge
count.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.kanon_first import kanonymity_first
from repro.core.merge import (
    _nearest_partner,
    merge_to_t_closeness,
    microaggregation_merge,
)
from repro.distance.records import encode_mixed
from repro.microagg import mdav
from repro.microagg.engine import ClusteringEngine
from repro.microagg.partition import Partition

from .test_alg2_reference import CASES, _columns, _dense_emd

RUNS = ("alg1", "kanon-first", "lowest-emd")


def reference_merge(data, partition, t: float, policy: str, X: np.ndarray):
    """Partition labels and merge count of the merge loop, brute force."""
    columns = _columns(data)
    limit = Fraction(min(t, 1.0))
    members = list(partition.clusters())
    emds = [_dense_emd(columns, m) for m in members]
    cengine = None
    n_merges = 0
    while True:
        live = [g for g, m in enumerate(members) if m is not None]
        worst = max(live, key=lambda g: (emds[g], -g))
        if len(live) == 1 or emds[worst] <= limit:
            break
        if policy == "nearest-qi":
            if cengine is None:
                centroids = np.stack([X[m].mean(axis=0) for m in members])
                cengine = ClusteringEngine(centroids)
            best = _nearest_partner(cengine, worst)
        else:
            best = min(
                (g for g in live if g != worst),
                key=lambda g: (
                    _dense_emd(columns, np.concatenate([members[worst], members[g]])),
                    g,
                ),
            )
        if cengine is not None:
            size_w, size_b = len(members[worst]), len(members[best])
            cengine.replace_row(
                worst,
                (size_w * cengine.row(worst) + size_b * cengine.row(best))
                / (size_w + size_b),
            )
            cengine.kill_one(best)
        members[worst] = np.concatenate([members[worst], members[best]])
        emds[worst] = _dense_emd(columns, members[worst])
        members[best] = None
        n_merges += 1
    survivors = [m for m in members if m is not None]
    return Partition.from_clusters(survivors, data.n_records).labels, n_merges


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_merge_equals_exact_reference(case, run):
    data, k, t = CASES[case]
    X = encode_mixed(data, data.quasi_identifiers)
    policy = "lowest-emd" if run == "lowest-emd" else "nearest-qi"
    if run == "kanon-first":
        start = kanonymity_first(data, k, t, merge_fallback=False).partition
        result = kanonymity_first(data, k, t)
        partition, n_merges = result.partition, result.info["n_merges"]
    elif run == "alg1":
        start = mdav(X, k)
        result = microaggregation_merge(data, k, t)
        partition, n_merges = result.partition, result.info["n_merges"]
    else:
        start = mdav(X, k)
        partition, _, n_merges = merge_to_t_closeness(
            data, start, t, partner_policy=policy
        )
    labels, ref_merges = reference_merge(data, start, t, policy, X)
    np.testing.assert_array_equal(partition.labels, labels)
    assert n_merges == ref_merges
