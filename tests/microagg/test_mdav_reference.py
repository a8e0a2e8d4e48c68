"""MDAV and V-MDAV == a brute-force reference on the (distance, id) rule.

:func:`reference_mdav` and :func:`reference_vmdav` re-run the two
partitioners the direct way, with none of the clustering engine's
machinery: every round copies ``X[remaining]``, computes the canonical
distances (:func:`~repro.distance.records.sq_distances_to`) and the
centroid by gather-and-mean, takes extremes by ``argmax``/``argmin``
(lowest id on exact ties) and the k nearest as
``np.lexsort((ids, d2))[:k]`` — the k smallest (distance, id), in that
order.  The library must reproduce them on every golden matrix, through
the compiled scans and through the numpy specs, and Algorithm 1 (the
reference MDAV, then ``test_merge_reference.reference_merge``) must
reproduce the ``alg1`` entries of the end-to-end fixture, with its merges
on the compiled step and on the Python spec.  This reference
is what the golden entries moved by the lowest-id rule were written from
(``scripts/generate_engine_golden.py`` lists them).

The golden tables are small and narrow, so the split rule leaves most of
them on the scan engine; the ``index`` path forces every live set onto a
multi-level live index with leaves of one or two records
(:func:`deepest_depth`), so its box bounds, pruning and kills run on
every table.

The rule does not depend on the host: the last test fits MDAV on
tie-heavy integer tables in a subprocess with numpy's AVX-512 dispatch
disabled, which changes ``np.argpartition``'s tie order on hosts that have
it, and requires the labels of this process.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import _native
from repro.core.merge import microaggregation_merge
from repro.distance.records import encode_mixed, sq_distances_to
from repro.microagg import engine, mdav, vmdav
from repro.microagg.partition import Partition

from .golden_datasets import (
    E2E_CASES,
    MATRIX_CASES,
    VMDAV_GAMMAS,
    e2e_case,
    matrix_case,
)
from .test_alg2_reference import _columns, _dense_emd, deepest_depth
from .test_merge_reference import merge_path, reference_merge

FIXTURES = Path(__file__).parent / "fixtures"


def _nearest(X, remaining, seed, k):
    """The k records of ``remaining`` nearest ``X[seed]``, by (distance, id)."""
    d2 = sq_distances_to(X[remaining], X[seed])
    return remaining[np.lexsort((remaining, d2))[:k]]


def _farthest(X, remaining, point):
    return remaining[np.argmax(sq_distances_to(X[remaining], point))]


def reference_mdav(X: np.ndarray, k: int) -> np.ndarray:
    """MDAV's labels, brute force over ``X[remaining]``."""
    labels = np.full(len(X), -1, dtype=np.int64)
    remaining = np.arange(len(X))
    clusters = 0

    def carve(seed):
        nonlocal remaining, clusters
        chosen = _nearest(X, remaining, seed, k)
        labels[chosen] = clusters
        clusters += 1
        remaining = np.setdiff1d(remaining, chosen)

    while len(remaining) >= 3 * k:
        r = _farthest(X, remaining, X[remaining].mean(axis=0))
        carve(r)
        carve(_farthest(X, remaining, X[r]))
    if len(remaining) >= 2 * k:
        carve(_farthest(X, remaining, X[remaining].mean(axis=0)))
    labels[remaining] = clusters
    return Partition(labels).labels


def reference_vmdav(X: np.ndarray, k: int, gamma: float) -> np.ndarray:
    """V-MDAV's labels, brute force over ``X[remaining]``."""
    labels = np.full(len(X), -1, dtype=np.int64)
    remaining = np.arange(len(X))
    clusters = 0
    while len(remaining) >= 2 * k:
        seed = _farthest(X, remaining, X[remaining].mean(axis=0))
        chosen = list(_nearest(X, remaining, seed, k))
        remaining = np.setdiff1d(remaining, chosen)
        while len(chosen) < 2 * k - 1 and len(remaining) - 1 >= k:
            members = X[np.array(chosen)]
            centroid = members.mean(axis=0)
            intra = sq_distances_to(members, centroid).mean()
            d2 = sq_distances_to(X[remaining], centroid)
            j = int(np.argmin(d2))
            if not (intra > 0 and d2[j] < gamma * intra):
                break
            chosen.append(remaining[j])
            remaining = np.delete(remaining, j)
        labels[np.array(chosen)] = clusters
        clusters += 1
    labels[remaining] = clusters
    return Partition(labels).labels


def reference_alg1(data, k: int, t: float):
    """Algorithm 1's labels, per-cluster EMDs and merge count: the
    reference MDAV, then the brute-force merge reference."""
    X = encode_mixed(data, data.quasi_identifiers)
    start = Partition(reference_mdav(X, k))
    labels, n_merges = reference_merge(data, start, t, "nearest-qi", X)
    columns = _columns(data)
    emds = [
        _dense_emd(columns, members)
        for members in Partition(labels).clusters()
    ]
    return labels, emds, n_merges


@pytest.fixture(params=["kernel", "index", "spec"])
def path(request, monkeypatch):
    """Run the partitioner through the compiled library (the live index
    where the split rule picks it, else the scan engine's compiled scans),
    through a live index forced down to leaves of one or two records, or
    through the numpy specs."""
    if request.param == "spec":
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(_native, "_cached", _native._UNSET)
    elif _native.load() is None:
        pytest.skip("no usable C toolchain on this host")
    if request.param == "index":
        monkeypatch.setattr(engine, "split_depth", deepest_depth)
    return request.param


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURES / "engine_golden.npz") as stored:
        return {key: stored[key] for key in stored.files}


@pytest.fixture(scope="module")
def golden_e2e():
    with np.load(FIXTURES / "kanon_first_golden.npz") as stored:
        return {key: stored[key] for key in stored.files}


@pytest.mark.parametrize("case", [c[0] for c in MATRIX_CASES])
def test_mdav_equals_reference(golden, case, path):
    k = next(c[3] for c in MATRIX_CASES if c[0] == case)
    X = matrix_case(case)
    want = reference_mdav(X, k)
    np.testing.assert_array_equal(golden[f"mdav/{case}"], want)
    np.testing.assert_array_equal(mdav(X, k).labels, want)


@pytest.mark.parametrize("gamma", VMDAV_GAMMAS)
@pytest.mark.parametrize("case", [c[0] for c in MATRIX_CASES])
def test_vmdav_equals_reference(golden, case, gamma, path):
    k = next(c[3] for c in MATRIX_CASES if c[0] == case)
    X = matrix_case(case)
    want = reference_vmdav(X, k, gamma)
    np.testing.assert_array_equal(golden[f"vmdav/{case}/g{gamma}"], want)
    np.testing.assert_array_equal(vmdav(X, k, gamma=gamma).labels, want)


@pytest.mark.parametrize("case", [c[0] for c in E2E_CASES])
def test_alg1_equals_reference(golden_e2e, case, monkeypatch):
    _, dataset, k, t = next(c for c in E2E_CASES if c[0] == case)
    data = e2e_case(dataset)
    labels, emds, n_merges = reference_alg1(data, k, t)
    np.testing.assert_array_equal(golden_e2e[f"{case}/alg1/labels"], labels)
    np.testing.assert_array_equal(golden_e2e[f"{case}/alg1/counters"], [n_merges])
    # Most stored EMDs came from float evaluations (last-ulp differences).
    np.testing.assert_allclose(
        golden_e2e[f"{case}/alg1/emds"], [float(e) for e in emds], rtol=0, atol=1e-12
    )
    result = microaggregation_merge(data, k, t)
    np.testing.assert_array_equal(result.partition.labels, labels)
    assert result.info["n_merges"] == n_merges
    assert [Fraction(e) for e in result.cluster_emds] == [
        Fraction(float(e)) for e in emds
    ]
    # The same fit on the Python specs (the merge loop's and MDAV's), and
    # with MDAV on a live index of one- or two-record leaves.
    with merge_path("spec"):
        spec = microaggregation_merge(data, k, t)
    monkeypatch.setattr(engine, "split_depth", deepest_depth)
    deep = microaggregation_merge(data, k, t)
    for other in (spec, deep):
        np.testing.assert_array_equal(other.partition.labels, labels)
        assert other.info == result.info
        assert other.cluster_emds.tobytes() == result.cluster_emds.tobytes()


def test_random_tie_heavy_tables_equal_reference(path):
    rng = np.random.default_rng(20)
    for _ in range(12):
        n, d = int(rng.integers(20, 120)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 6))
        X = rng.integers(0, 3, size=(n, d)).astype(float)
        np.testing.assert_array_equal(mdav(X, k).labels, reference_mdav(X, k))
        np.testing.assert_array_equal(
            vmdav(X, k, gamma=0.5).labels, reference_vmdav(X, k, 0.5)
        )


def test_squares_overflowing_to_inf_equal_reference(path):
    # Every distance from +-1e200 overflows to inf; the band below an
    # infinite maximum must still hold the records at inf (it used to be
    # NaN, leaving no candidate and an argmax of an empty sequence).  In
    # the last table the running sum reads inf - inf = NaN once the two
    # 1.7e308 rows are carved: no fast distance is comparable, and every
    # live record must be re-judged on the exact centroid.
    tables = [
        np.array([[1e200], [-1e200], [0.0], [1.0], [2.0], [3.0]]),
        np.array([[1e200, 0.0], [-1e200, 1.0], [0.0, 0.0], [1.0, 2.0]] * 4),
        np.array([[2.0], [1.7e308], [2.0], [1.7e308], [0.0], [0.0], [3.0], [0.0]]),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        for X in tables:
            for k in (1, 2, 3):
                np.testing.assert_array_equal(mdav(X, k).labels, reference_mdav(X, k))
                for gamma in (0.2, 1.0):
                    np.testing.assert_array_equal(
                        vmdav(X, k, gamma=gamma).labels, reference_vmdav(X, k, gamma)
                    )


def tie_heavy_labels() -> str:
    """MDAV labels of eight tie-heavy integer tables, one line each."""
    rng = np.random.default_rng(20160516)
    lines = []
    for _ in range(8):
        n, d = int(rng.integers(100, 400)), int(rng.integers(1, 3))
        k = int(rng.integers(2, 6))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        lines.append(",".join(map(str, mdav(X, k).labels.tolist())) + "\n")
    return "".join(lines)


def test_labels_do_not_follow_numpy_simd_dispatch(path):
    """On an AVX-512 host the disabled features change argpartition's tie
    order, which moved five of these eight partitions under the old
    selection; elsewhere the subprocess runs the same dispatch.  On the
    ``index`` path the subprocess forces the same deep live index."""
    env = dict(os.environ)  # carries REPRO_NO_NATIVE on the spec path
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    script = (
        "import sys\n"
        "from repro.microagg import engine\n"
        "from tests.microagg.test_mdav_reference import deepest_depth, tie_heavy_labels\n"
        + ("engine.split_depth = deepest_depth\n" if path == "index" else "")
        + "sys.stdout.write(tie_heavy_labels())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(__file__).resolve().parents[2],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == tie_heavy_labels()
