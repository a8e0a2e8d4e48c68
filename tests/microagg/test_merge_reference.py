"""The merge phase == a brute-force exact rational reference.

:func:`reference_merge` re-runs the merge loop (Algorithm 1, and the
closing step of Algorithm 2) with every EMD the dense Definition-2 value
of ``test_alg2_reference._dense_emd``, an exact ``Fraction``: the worst
cluster is the largest EMD, lowest cluster id on exact ties; the loop
stops once it is at most ``Fraction(t)``; the partner is

* ``nearest-qi``: the live cluster other than the worst with the
  smallest (squared centroid distance, id), a NaN distance after every
  number: a lexsort over the other live clusters' canonical distances
  (:func:`~repro.distance.records.sq_distances_to`).  Centroids start as
  each cluster's mean and a merge moves the survivor's to the
  size-weighted mean of the two; centroid distance is real float
  geometry, which the golden fixtures pin;
* ``lowest-emd``: the smallest merged EMD over every live cluster,
  lowest id on exact ties, by brute force.

The library runs each merge on one of two paths, and both must reproduce
the reference's labels, merge count and EMDs: the compiled merge step
(``kernel``, when the library loads) and the Python spec (``spec``,
``REPRO_NO_NATIVE=1``).  Every golden dataset runs three ways on both:
Algorithm 1 (MDAV + merge), kanon-first with the merge fallback (starting
from Algorithm 2's raw partition, which ``test_alg2_reference.py`` pins)
and MDAV + lowest-emd merging.  Random tie-heavy tables and tables whose
centroid distances overflow to inf or turn NaN run through the
:func:`path` fixture.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from repro.backend import _native
from repro.core.kanon_first import kanonymity_first
from repro.core.merge import merge_to_t_closeness, microaggregation_merge
from repro.data import AttributeRole, Microdata, nominal, numeric
from repro.distance.records import encode_mixed, sq_distances_to
from repro.microagg import mdav
from repro.microagg.partition import Partition

from .test_alg2_reference import CASES, _columns, _dense_emd

RUNS = ("alg1", "kanon-first", "lowest-emd")

#: The merge's paths: the compiled step (the spec on a host whose library
#: does not load) and the Python spec.
PATHS = ("kernel", "spec")


@contextmanager
def merge_path(path: str):
    """Run merges on ``path``: ``kernel`` as the library picks,
    ``spec`` with ``REPRO_NO_NATIVE=1`` (every compiled kernel off)."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "spec":
            patch.setenv("REPRO_NO_NATIVE", "1")
            patch.setattr(_native, "_cached", _native._UNSET)
        yield


@pytest.fixture(params=PATHS)
def path(request):
    """Run the test on the compiled merge step or on the Python spec."""
    if request.param == "kernel" and _native.load() is None:
        pytest.skip("no usable C toolchain on this host")
    with merge_path(request.param):
        yield request.param


def reference_merge(data, partition, t: float, policy: str, X: np.ndarray):
    """Partition labels and merge count of the merge loop, brute force."""
    columns = _columns(data)
    limit = Fraction(min(t, 1.0))
    members = list(partition.clusters())
    emds = [_dense_emd(columns, m) for m in members]
    centroids = None
    n_merges = 0
    while True:
        live = [g for g, m in enumerate(members) if m is not None]
        worst = max(live, key=lambda g: (emds[g], -g))
        if len(live) == 1 or emds[worst] <= limit:
            break
        others = np.array([g for g in live if g != worst])
        if policy == "nearest-qi":
            if centroids is None:
                centroids = np.stack([X[m].mean(axis=0) for m in members])
            d2 = sq_distances_to(centroids[others], centroids[worst])
            best = int(others[np.lexsort((others, d2))[0]])
            size_w, size_b = len(members[worst]), len(members[best])
            centroids[worst] = (
                size_w * centroids[worst] + size_b * centroids[best]
            ) / (size_w + size_b)
        else:
            best = min(
                others.tolist(),
                key=lambda g: (
                    _dense_emd(columns, np.concatenate([members[worst], members[g]])),
                    g,
                ),
            )
        members[worst] = np.concatenate([members[worst], members[best]])
        emds[worst] = _dense_emd(columns, members[worst])
        members[best] = None
        n_merges += 1
    survivors = [m for m in members if m is not None]
    return Partition.from_clusters(survivors, data.n_records).labels, n_merges


def assert_merge_equals_reference(data, partition, t, X, policy="nearest-qi"):
    """The library's merge phase from ``partition`` equals the reference:
    labels, merge count and each cluster's EMD, correctly rounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        final, emds, n_merges = merge_to_t_closeness(
            data, partition, t, qi_matrix=X, partner_policy=policy
        )
        labels, ref_merges = reference_merge(data, partition, t, policy, X)
    np.testing.assert_array_equal(final.labels, labels)
    assert n_merges == ref_merges
    columns = _columns(data)
    want = [float(_dense_emd(columns, m)) for m in final.clusters()]
    assert emds.tolist() == want


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_merge_equals_exact_reference(case, run):
    """Every golden case on both paths (a loop, not the fixture, so the
    test ids predate the compiled step)."""
    data, k, t = CASES[case]
    X = encode_mixed(data, data.quasi_identifiers)
    policy = "lowest-emd" if run == "lowest-emd" else "nearest-qi"
    if run == "kanon-first":
        start = kanonymity_first(data, k, t, merge_fallback=False).partition
    else:
        start = mdav(X, k)
    labels, ref_merges = reference_merge(data, start, t, policy, X)
    for path in PATHS:
        with merge_path(path):
            if run == "kanon-first":
                result = kanonymity_first(data, k, t)
                partition, n_merges = result.partition, result.info["n_merges"]
            elif run == "alg1":
                result = microaggregation_merge(data, k, t)
                partition, n_merges = result.partition, result.info["n_merges"]
            else:
                partition, _, n_merges = merge_to_t_closeness(
                    data, start, t, partner_policy=policy
                )
        np.testing.assert_array_equal(partition.labels, labels, err_msg=path)
        assert n_merges == ref_merges, path


def tie_heavy_table(rng, n: int, width: int, second: bool):
    """A table with an integer-grid QI matrix of ``width`` columns (exact
    centroid-distance ties) and an ordered confidential attribute of at
    most five values (duplicate bins); with ``second``, a nominal one of
    three categories beside it (exact ratio ties across attributes)."""
    X = rng.integers(0, 3, (n, width)).astype(np.float64)
    columns = {f"q{j}": X[:, j] for j in range(width)}
    schema = [numeric(f"q{j}", role=AttributeRole.QUASI_IDENTIFIER) for j in range(width)]
    columns["secret"] = rng.integers(0, 5, n).astype(np.float64)
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    if second:
        columns["kind"] = rng.integers(0, 3, n)
        schema.append(nominal("kind", ("a", "b", "c"), role=AttributeRole.CONFIDENTIAL))
    return Microdata(columns, schema), X


def test_random_tie_heavy_tables_equal_reference(path):
    # n = 32 or 64 in clusters of 2 or 4 over w = 4 (five ordered bins) or
    # 2 (nominal), so an initial cluster's EMD is dyadic: the float t below
    # is exactly that cluster's EMD, and 18 of the 24 tables stop with
    # their worst cluster exactly at t.
    rng = np.random.default_rng(24)
    for i in range(24):
        n, size = (32, 2) if i % 2 else (64, 4)
        data, X = tie_heavy_table(rng, n, 1 + i % 3 // 2, second=i % 4 >= 2)
        partition = Partition(rng.permutation(np.arange(n) % (n // size)))
        columns = _columns(data)
        at = float(_dense_emd(columns, partition.cluster(int(rng.integers(n // size)))))
        for t in (at, 0.0, 1.0, 1e-300):
            assert_merge_equals_reference(data, partition, t, X)


def test_partner_is_never_the_worst_cluster(path):
    # Every centroid distance overflows to inf (1e200 squared), or is NaN
    # (inf - inf): the partner is still the nearest live cluster other
    # than the worst, NaN last, never the worst itself or a dead cluster.
    data = Microdata(
        {"q": np.zeros(6), "secret": np.arange(6.0)},
        [
            numeric("q", role=AttributeRole.QUASI_IDENTIFIER),
            numeric("secret", role=AttributeRole.CONFIDENTIAL),
        ],
    )
    partition = Partition([0, 0, 1, 1, 2, 2])
    for X in (
        np.array([[0.0], [0.0], [1e200], [1e200], [-1e200], [-1e200]]),
        np.array([[np.inf], [np.inf], [np.inf], [np.inf], [0.0], [0.0]]),
        np.array([[np.inf, 0.0], [np.inf, 1.0], [0.0, 0.0], [0.0, 1.0], [np.inf, 0.0], [np.inf, 0.0]]),
    ):
        for t in (0.0, 0.3):
            assert_merge_equals_reference(data, partition, t, X)
