"""Algorithm 2's swap refinement == a brute-force exact rational reference.

:func:`reference_kanon_first` re-runs Algorithm 2 (no merge fallback)
with none of the library's EMD machinery: the same seeding and the same
pool order (every live record, stably sorted by distance to the seed),
and for every trial swap the Definition-2 EMD of the swapped cluster per
confidential attribute as an exact ``Fraction``, evaluated densely over
all m bins:

* ordered: ``sum_i |cum_p(i) - cum_q(i)| / (m - 1)`` with p = C/c and
  q = N/n, i.e. ``sum_i |n*cumC_i - c*cumN_i| / (c*n*(m - 1))``;
* nominal: ``sum_i |p_i - q_i| / 2``.

The cluster EMD is the max over attributes; the refinement stops once it
is at most ``Fraction(t)``, takes the first lowest trial and accepts it
only when strictly below the current EMD.  ``kanonymity_first`` must
reproduce its partitions and swap counts on every golden dataset, through
the compiled library, through a live index forced down to leaves of one or
two records, and through the Python spec (``REPRO_NO_NATIVE=1``).  This
reference is what the re-blessed golden fixtures stand on.
"""

from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.backend import _native
from repro.core.confidential import ConfidentialModel
from repro.core.kanon_first import kanonymity_first
from repro.distance.emd import NominalEMDReference
from repro.distance.records import encode_mixed, sq_distances_to
from repro.microagg import engine as live_sets
from repro.microagg.engine import ClusteringEngine
from repro.microagg.partition import Partition

from .golden_datasets import E2E_CASES, MICRODATA_CASES, e2e_case, microdata_case

CASES = {case: (e2e_case(name), k, t) for case, name, k, t in E2E_CASES}
CASES.update({case: (microdata_case(case), k, t) for case, _, k, t in MICRODATA_CASES})


def _columns(data) -> list:
    """(nominal, record bins, dataset counts) of every confidential column."""
    model = ConfidentialModel(data)
    return [
        (isinstance(ref, NominalEMDReference), bins, np.bincount(bins, minlength=ref.m))
        for ref, bins in zip(model._refs, model._bins)
    ]


def _dense_emd(columns, members) -> Fraction:
    worst = Fraction(0)
    c = len(members)
    for nominal, bins, dataset in columns:
        n, m = int(dataset.sum()), dataset.size
        cluster = np.bincount(bins[members], minlength=m)
        if nominal:
            emd = Fraction(int(np.abs(n * cluster - c * dataset).sum()), 2 * c * n)
        else:
            gap = n * np.cumsum(cluster) - c * np.cumsum(dataset)
            emd = Fraction(int(np.abs(gap).sum()), c * n * max(m - 1, 1))
        worst = max(worst, emd)
    return worst


def reference_kanon_first(data, k: int, t: float) -> tuple[np.ndarray, int]:
    """Partition labels and swap count of Algorithm 2, brute force."""
    columns = _columns(data)
    limit = Fraction(t)
    X = encode_mixed(data, data.quasi_identifiers)
    engine = ClusteringEngine(X)
    clusters, n_swaps, parity = [], 0, 0
    while engine.n_alive:
        seed = engine.farthest_from_centroid() if parity == 0 else engine.farthest()
        if engine.n_alive < 2 * k:
            members = engine.alive_ids()
        else:
            # The next cluster seeds from the engine's buffer (farthest()).
            engine.eval_distances(X[seed])
            alive = engine.alive_ids()
            order = alive[np.lexsort((alive, sq_distances_to(X[alive], X[seed])))]
            members = order[:k].copy()
            current = _dense_emd(columns, members)
            for y in order[k:]:
                if current <= limit:
                    break
                trials = []
                for j in range(k):
                    swapped = members.copy()
                    swapped[j] = y
                    trials.append(_dense_emd(columns, swapped))
                best = min(trials)
                if best < current:
                    members[trials.index(best)] = y
                    current = best
                    n_swaps += 1
        clusters.append(members)
        engine.kill(members)
        parity ^= 1
    return Partition.from_clusters(clusters, data.n_records).labels, n_swaps


@lru_cache(maxsize=None)
def reference(case: str) -> tuple[np.ndarray, int]:
    return reference_kanon_first(*CASES[case])


def deepest_depth(n_records: int, width: int) -> int:
    """A live-index depth with leaves of one or two records."""
    return int(np.log2(n_records)) if width else 0


@pytest.fixture(params=["kernel", "index", "spec"])
def path(request, monkeypatch):
    """Run the fit through the compiled library, through a live index
    forced down to leaves of one or two records, or through the Python
    spec."""
    if request.param == "spec":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_cached", _native._UNSET)
    elif _native.load() is None:
        pytest.skip("no usable C toolchain on this host")
    if request.param == "index":
        monkeypatch.setattr(live_sets, "split_depth", deepest_depth)
    return request.param


@pytest.mark.parametrize("case", sorted(CASES))
def test_kanon_first_equals_exact_reference(case, path):
    data, k, t = CASES[case]
    assert (_native.load() is None) == (path == "spec")
    labels, n_swaps = reference(case)
    result = kanonymity_first(data, k, t, merge_fallback=False)
    np.testing.assert_array_equal(result.partition.labels, labels)
    assert result.info["n_swaps"] == n_swaps


@pytest.fixture(scope="module")
def goldens():
    fixtures = Path(__file__).parent / "fixtures"
    stored = {}
    for name in ("engine_golden.npz", "kanon_first_golden.npz"):
        with np.load(fixtures / name) as npz:
            stored.update({key: npz[key] for key in npz.files})
    return stored


@pytest.mark.parametrize("case", sorted(CASES))
def test_kanon_first_golden_keys(case, path, goldens):
    """Every Algorithm 2 golden key, on every path: the fit with the merge
    fallback and, for the end-to-end cases, the raw swap phase and the
    counters."""
    data, k, t = CASES[case]
    result = kanonymity_first(data, k, t)
    if f"kanon-first/{case}" in goldens:
        np.testing.assert_array_equal(
            result.partition.labels, goldens[f"kanon-first/{case}"]
        )
        return
    np.testing.assert_array_equal(result.partition.labels, goldens[f"{case}/labels"])
    n_swaps, n_merges, pre_merge = goldens[f"{case}/counters"]
    assert (result.info["n_swaps"], result.info["n_merges"]) == (n_swaps, n_merges)
    assert result.info["clusters_before_merge"] == pre_merge
    raw = kanonymity_first(data, k, t, merge_fallback=False)
    np.testing.assert_array_equal(raw.partition.labels, goldens[f"{case}/raw/labels"])
