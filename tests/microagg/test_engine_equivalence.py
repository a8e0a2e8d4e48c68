"""Golden equivalence: engine-backed partitions == seed implementations.

The fixtures in ``fixtures/engine_golden.npz`` hold the partition labels the
*pre-engine* reference implementations produced on the deterministic
datasets of ``golden_datasets.py`` (captured by
``scripts/generate_engine_golden.py``; see that script's docstring, also
for the one kanon-first entry re-blessed from the exact rational
references of ``test_alg2_reference.py`` and ``test_merge_reference.py``).
These
tests assert that the engine-backed rewrites reproduce every one of them
bit-for-bit — same clusters, same labels, same tie-breaking — across
numeric and mixed quasi-identifier schemas, duplicate records (exact
distance ties), and several (n, k, t) combinations.

Every case runs in each execution context of ``tests.contexts.CONTEXTS``:
on the calling thread, from two threads at once and in two forked
processes — every copy must reproduce the fixtures bit-for-bit.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.kanon_first import kanonymity_first
from repro.core.tclose_first import tcloseness_first
from repro.microagg import mdav, vmdav

from ..contexts import CONTEXTS
from .golden_datasets import (
    MATRIX_CASES,
    MICRODATA_CASES,
    VMDAV_GAMMAS,
    matrix_case,
    microdata_case,
)

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "engine_golden.npz"


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE_PATH) as stored:
        return {key: stored[key] for key in stored.files}


def test_fixture_is_complete(golden):
    """Every dataset/algorithm combination has a captured reference."""
    expected = {f"mdav/{name}" for name, *_ in MATRIX_CASES}
    expected |= {
        f"vmdav/{name}/g{gamma}"
        for name, *_ in MATRIX_CASES
        for gamma in VMDAV_GAMMAS
    }
    for algorithm in ("kanon-first", "tclose-first"):
        expected |= {f"{algorithm}/{name}" for name, *_ in MICRODATA_CASES}
    assert set(golden) == expected


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in MATRIX_CASES])
def test_mdav_matches_reference(golden, case, run):
    _, _, _, k = next(c for c in MATRIX_CASES if c[0] == case)
    X = matrix_case(case)
    for labels in run(lambda: mdav(X, k).labels):
        np.testing.assert_array_equal(labels, golden[f"mdav/{case}"])


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in MATRIX_CASES])
@pytest.mark.parametrize("gamma", VMDAV_GAMMAS)
def test_vmdav_matches_reference(golden, case, gamma, run):
    _, _, _, k = next(c for c in MATRIX_CASES if c[0] == case)
    X = matrix_case(case)
    for labels in run(lambda: vmdav(X, k, gamma=gamma).labels):
        np.testing.assert_array_equal(labels, golden[f"vmdav/{case}/g{gamma}"])


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in MICRODATA_CASES])
def test_kanon_first_matches_reference(golden, case, run):
    _, _, k, t = next(c for c in MICRODATA_CASES if c[0] == case)
    data = microdata_case(case)
    for labels in run(lambda: kanonymity_first(data, k, t).partition.labels):
        np.testing.assert_array_equal(labels, golden[f"kanon-first/{case}"])


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in MICRODATA_CASES])
def test_tclose_first_matches_reference(golden, case, run):
    _, _, k, t = next(c for c in MICRODATA_CASES if c[0] == case)
    data = microdata_case(case)
    for labels in run(lambda: tcloseness_first(data, k, t).partition.labels):
        np.testing.assert_array_equal(labels, golden[f"tclose-first/{case}"])
