"""Regenerate the golden partition fixtures for the engine equivalence tests.

The fixture file ``tests/microagg/fixtures/engine_golden.npz`` stores, for
every dataset in ``tests/microagg/golden_datasets.py``, the partition labels
produced by each algorithm.  It was generated from the pre-engine seed
implementations (commit b54cc5e tree, with the canonical
column-accumulated ``sq_distances_to`` kernel from ``distance/records.py``
overlaid, since that shared primitive defines the distance rounding for
seed and engine alike: ``git archive HEAD | tar -x -C /tmp/seed_tree``,
copy ``records.py`` in, compute labels with the seed algorithms).  One
entry has a newer provenance: ``kanon-first/md_mixed_strict`` was
re-blessed twice — when Algorithm 2's swap decisions became exact integer
arithmetic, which resolves exact ties the float code had broken toward a
later member, and when the merge fallback's decisions did (its merges
went 17 -> 16); its labels are those of the brute-force exact rational
references (``tests/microagg/test_alg2_reference.py`` for the swaps,
``tests/microagg/test_merge_reference.py`` for the merges), which the
current code reproduces.  Nine more were re-blessed when the k-nearest
step took the lowest-id rule (the k smallest (distance, id); the seed
left boundary ties to ``np.argpartition``, whose tie order follows
numpy's SIMD dispatch): ``mdav/{num_dups,num_int,num_int_dups}`` and
``vmdav/{num_int,num_int_dups}/g{0.0,0.2,1.0}``.  Their labels were
written from the brute-force MDAV and V-MDAV of
``tests/microagg/test_mdav_reference.py`` (``X[remaining]`` every round,
``np.lexsort((ids, d2))[:k]``), which every ``mdav/*`` and ``vmdav/*``
entry equals.  It is the contract the engine-backed rewrites are held
to: rerunning this script after any partitioner change must reproduce
the committed file bit-for-bit.

A second fixture, ``tests/microagg/fixtures/kanon_first_golden.npz``,
covers *end-to-end* runs of the swap/merge-heavy algorithms on the
tight-t cases of ``golden_datasets.E2E_CASES``: kanon-first with and
without the merge fallback, plus Algorithm 1 (MDAV + merge).  For each
run it stores the partition labels, the per-cluster EMDs, and the
swap/merge counters.  It was generated from the dense pre-refactor
swap/merge implementations (commit 2a51dac tree), except two sets of
kanon-first entries.  With exact swap decisions the raw partitions of
``md_numeric_strict`` and ``md_single_qi_tight`` are the exact rational
reference's (the float code broke exact ties differently).  With exact
merge decisions ``md_nominal_secret``'s full run merges 14 times instead
of 13: after 13 merges a class sits at EMD exactly 3/20 with t = 0.15,
and the float 0.15 is 3/20 - 5.6e-18, so the class overshoots t.  Those
entries were regenerated from the current code after it was proven equal
to the references (``test_alg2_reference.py``,
``test_merge_reference.py``).  With the lowest-id k-nearest rule, five
Algorithm 1 arrays moved, because MDAV's starting partition did:
``md_categorical_tight/alg1/{counters,emds,labels}`` and
``md_int_grid_tight/alg1/{emds,labels}``.  They were written from the
brute-force MDAV of ``test_mdav_reference.py`` followed by the merge
reference (EMDs as exact fractions, correctly rounded), which every
``*/alg1`` entry equals.  Labels and counters are compared
bit-for-bit, EMDs within 1e-12 — reported EMDs are exact ratios correctly
rounded, while most stored EMDs came from float evaluations that may
differ in the last ulp.

Usage::

    PYTHONPATH=src python scripts/generate_engine_golden.py [--check]

``--check`` verifies the current implementations against the committed
fixtures instead of overwriting them (exit code 1 on any difference).
``--write-e2e`` also re-blesses the end-to-end fixture, rewriting only
the arrays ``--check`` reports as differing, so every other entry keeps
its provenance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.kanon_first import kanonymity_first  # noqa: E402
from repro.core.merge import microaggregation_merge  # noqa: E402
from repro.core.tclose_first import tcloseness_first  # noqa: E402
from repro.microagg import mdav, vmdav  # noqa: E402

from tests.microagg.golden_datasets import (  # noqa: E402
    E2E_CASES,
    MATRIX_CASES,
    MICRODATA_CASES,
    VMDAV_GAMMAS,
    e2e_case,
    matrix_case,
    microdata_case,
)

FIXTURES_DIR = REPO_ROOT / "tests" / "microagg" / "fixtures"
FIXTURE_PATH = FIXTURES_DIR / "engine_golden.npz"
E2E_FIXTURE_PATH = FIXTURES_DIR / "kanon_first_golden.npz"

#: Keys within one e2e case holding float EMDs (compared to 1e-12, not
#: bitwise — most stored values came from float evaluations, which can
#: differ from the correctly rounded exact ratios in the last ulp).
_EMD_KEY_SUFFIXES = ("emds",)


def compute_labels() -> dict[str, np.ndarray]:
    """All golden partitions, keyed ``<algorithm>/<case>[/<param>]``."""
    out: dict[str, np.ndarray] = {}
    for name, _n, _d, k in MATRIX_CASES:
        X = matrix_case(name)
        out[f"mdav/{name}"] = mdav(X, k).labels
        for gamma in VMDAV_GAMMAS:
            out[f"vmdav/{name}/g{gamma}"] = vmdav(X, k, gamma=gamma).labels
    for name, _n, k, t in MICRODATA_CASES:
        data = microdata_case(name)
        out[f"kanon-first/{name}"] = kanonymity_first(data, k, t).partition.labels
        out[f"tclose-first/{name}"] = tcloseness_first(data, k, t).partition.labels
    return out


def compute_e2e() -> dict[str, np.ndarray]:
    """End-to-end kanon-first / Algorithm-1 runs, keyed ``<case>/<field>``."""
    out: dict[str, np.ndarray] = {}
    for case, dataset_name, k, t in E2E_CASES:
        data = e2e_case(dataset_name)
        full = kanonymity_first(data, k, t)
        raw = kanonymity_first(data, k, t, merge_fallback=False)
        alg1 = microaggregation_merge(data, k, t)
        out[f"{case}/labels"] = full.partition.labels
        out[f"{case}/emds"] = full.cluster_emds
        out[f"{case}/counters"] = np.array(
            [
                full.info["n_swaps"],
                full.info["n_merges"],
                full.info["clusters_before_merge"],
            ],
            dtype=np.int64,
        )
        out[f"{case}/raw/labels"] = raw.partition.labels
        out[f"{case}/raw/emds"] = raw.cluster_emds
        out[f"{case}/alg1/labels"] = alg1.partition.labels
        out[f"{case}/alg1/emds"] = alg1.cluster_emds
        out[f"{case}/alg1/counters"] = np.array(
            [alg1.info["n_merges"]], dtype=np.int64
        )
    return out


def _same(key: str, stored: np.ndarray, fresh: np.ndarray, emd_atol: float) -> bool:
    """Whether ``--check`` accepts ``fresh`` for the stored array ``key``."""
    if emd_atol and key.split("/")[-1] in _EMD_KEY_SUFFIXES:
        return stored.shape == fresh.shape and np.allclose(
            stored, fresh, atol=emd_atol, rtol=0.0
        )
    return np.array_equal(stored, fresh)


def _check_fixture(
    path: Path, fresh: dict[str, np.ndarray], *, emd_atol: float = 0.0
) -> int:
    """Compare freshly computed arrays against one committed fixture."""
    status = 0
    with np.load(path) as stored:
        stored_keys = set(stored.files)
        fresh_keys = set(fresh)
        for key in sorted(stored_keys | fresh_keys):
            if key not in stored_keys or key not in fresh_keys:
                print(f"MISSING  {key}")
                status = 1
                continue
            if not _same(key, stored[key], fresh[key], emd_atol):
                print(f"DIFFERS  {key}")
                status = 1
            else:
                print(f"ok       {key}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed fixtures instead of rewriting them",
    )
    parser.add_argument(
        "--write-e2e",
        action="store_true",
        help=(
            "ALSO rewrite the arrays of kanon_first_golden.npz that no "
            "longer pass --check from the CURRENT implementations.  That "
            "fixture's value is its provenance (the dense pre-refactor code "
            "and the exact rational references); only re-baseline after "
            "tests/microagg/test_alg2_reference.py and "
            "tests/microagg/test_merge_reference.py pass."
        ),
    )
    args = parser.parse_args()

    labels = compute_labels()
    e2e = compute_e2e()
    if args.check:
        status = _check_fixture(FIXTURE_PATH, labels)
        status |= _check_fixture(E2E_FIXTURE_PATH, e2e, emd_atol=1e-12)
        return status

    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE_PATH, **labels)
    print(f"wrote {len(labels)} partitions to {FIXTURE_PATH}")
    if args.write_e2e:
        with np.load(E2E_FIXTURE_PATH) as stored:
            kept = {key: stored[key] for key in stored.files}
        moved = [
            key
            for key in sorted(e2e)
            if key not in kept or not _same(key, kept[key], e2e[key], 1e-12)
        ]
        kept = {key: kept[key] for key in e2e if key in kept}
        kept.update((key, e2e[key]) for key in moved)
        np.savez_compressed(E2E_FIXTURE_PATH, **kept)
        print(f"rewrote {len(moved)} arrays in {E2E_FIXTURE_PATH}: {moved}")
    else:
        print(
            f"left {E2E_FIXTURE_PATH} untouched (see its provenance); "
            "pass --write-e2e to deliberately re-baseline it"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
