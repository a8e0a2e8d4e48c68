"""Golden end-to-end equivalence for the swap/merge-heavy algorithms.

``fixtures/kanon_first_golden.npz`` pins full runs of kanon-first (with and
without the merge fallback) and Algorithm 1 (MDAV + merge) on the tight-t
datasets of ``golden_datasets.E2E_CASES`` — the regimes where the swap
refinement and the merge phase make hundreds of EMD-driven decisions.

Provenance: the fixture was captured from the dense pre-refactor
implementations (commit 2a51dac tree; see
``scripts/generate_engine_golden.py``), except the kanon-first entries of
``md_numeric_strict``, ``md_single_qi_tight`` and ``md_nominal_secret``.
Algorithm 2 decides its swaps, and the merge phase its worst cluster, its
stop at t and its lowest-emd partners, in exact integers.  On the first
two datasets the float code had broken exact ties between candidate swaps
toward a later member; on ``md_nominal_secret`` it stopped merging with a
class at EMD exactly 3/20 > float(0.15), so the exact run merges 14 times
instead of 13.  Those entries were re-blessed from the code once it was
proven equal to the brute-force exact rational references
(``test_alg2_reference.py``, ``test_merge_reference.py``, which it
reproduces on every golden dataset).  The fixture pins:

* partition labels and swap/merge counters bit-for-bit — any flipped
  argmin, any accept/reject threshold crossing, any different merge
  partner changes these;
* per-cluster EMDs to 1e-12 — the *reported* values are exact ratios
  correctly rounded, while most stored values came from float
  evaluations that may differ in the last ulp.

Every case runs in each execution context of ``tests.contexts.CONTEXTS``
(calling thread, two threads at once, two forked processes), and every
copy of the result must match the fixture.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.kanon_first import kanonymity_first
from repro.core.merge import microaggregation_merge

from ..contexts import CONTEXTS
from .golden_datasets import E2E_CASES, e2e_case

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "kanon_first_golden.npz"

EMD_ATOL = 1e-12


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE_PATH) as stored:
        return {key: stored[key] for key in stored.files}


def case_params(case):
    _, dataset_name, k, t = next(c for c in E2E_CASES if c[0] == case)
    return e2e_case(dataset_name), k, t


def test_fixture_is_complete(golden):
    expected = set()
    for case, *_ in E2E_CASES:
        expected |= {
            f"{case}/labels",
            f"{case}/emds",
            f"{case}/counters",
            f"{case}/raw/labels",
            f"{case}/raw/emds",
            f"{case}/alg1/labels",
            f"{case}/alg1/emds",
            f"{case}/alg1/counters",
        }
    assert set(golden) == expected


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in E2E_CASES])
def test_kanon_first_end_to_end(golden, case, run):
    data, k, t = case_params(case)
    for result in run(lambda: kanonymity_first(data, k, t)):
        np.testing.assert_array_equal(
            result.partition.labels, golden[f"{case}/labels"]
        )
        np.testing.assert_allclose(
            result.cluster_emds, golden[f"{case}/emds"], atol=EMD_ATOL, rtol=0.0
        )
        n_swaps, n_merges, pre_merge = golden[f"{case}/counters"]
        assert result.info["n_swaps"] == n_swaps
        assert result.info["n_merges"] == n_merges
        assert result.info["clusters_before_merge"] == pre_merge


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in E2E_CASES])
def test_kanon_first_raw_swap_phase(golden, case, run):
    """The swap phase alone (no merge fallback) is pinned separately."""
    data, k, t = case_params(case)
    for result in run(lambda: kanonymity_first(data, k, t, merge_fallback=False)):
        np.testing.assert_array_equal(
            result.partition.labels, golden[f"{case}/raw/labels"]
        )
        np.testing.assert_allclose(
            result.cluster_emds, golden[f"{case}/raw/emds"], atol=EMD_ATOL, rtol=0.0
        )


@pytest.mark.parametrize("run", CONTEXTS)
@pytest.mark.parametrize("case", [c[0] for c in E2E_CASES])
def test_algorithm1_merge_phase(golden, case, run):
    """Algorithm 1 exercises the rewritten merge loop from a MDAV start."""
    data, k, t = case_params(case)
    for result in run(lambda: microaggregation_merge(data, k, t)):
        np.testing.assert_array_equal(
            result.partition.labels, golden[f"{case}/alg1/labels"]
        )
        np.testing.assert_allclose(
            result.cluster_emds, golden[f"{case}/alg1/emds"], atol=EMD_ATOL, rtol=0.0
        )
        assert result.info["n_merges"] == golden[f"{case}/alg1/counters"][0]
