"""Deterministic datasets shared by the golden fixture generator and tests.

The engine refactor (``repro.microagg.engine``) must produce partitions that
are identical — same labels, same tie-breaking — to the pre-refactor
reference implementations.  The reference labels were captured from the
seed implementations (one kanon-first entry later re-blessed from the
exact rational references) by ``scripts/generate_engine_golden.py`` and live
in ``tests/microagg/fixtures/engine_golden.npz``; the datasets here
reconstruct the exact inputs those labels were computed from.

Everything is seeded, so the builders are bit-for-bit reproducible across
runs and machines with the same NumPy version.
"""

from __future__ import annotations

import numpy as np

from repro.data import AttributeRole, Microdata, nominal, numeric, ordinal

#: (case name, n, d, k) for the raw-matrix partitioners (mdav / vmdav).
MATRIX_CASES = (
    ("num_small", 60, 2, 3),
    ("num_mid", 150, 4, 5),
    ("num_large", 400, 3, 10),
    ("num_k1", 45, 2, 1),
    ("num_dups", 120, 3, 4),  # duplicated rows => exact distance ties
    ("num_int", 126, 4, 7),  # integer grid => distinct records tie exactly
    ("num_int_dups", 90, 3, 4),  # integer grid + duplicated rows
    ("num_1d", 200, 1, 4),  # univariate: X.T is contiguous, compaction fires
)

#: gamma values exercised for vmdav on every matrix case (0.0 pins the
#: "never extend" boundary, where a spurious negative distance would flip).
VMDAV_GAMMAS = (0.0, 0.2, 1.0)

#: (case name, n, k, t) for the Microdata algorithms (kanon / tclose first).
MICRODATA_CASES = (
    ("md_numeric", 90, 3, 0.25),
    ("md_mixed", 120, 4, 0.3),
    ("md_mixed_strict", 150, 3, 0.1),
    ("md_tied_secret", 100, 5, 0.35),
    ("md_categorical", 110, 4, 0.3),  # ordinal/nominal QIs only: tie-dense
    ("md_int_grid", 154, 4, 0.3),  # integer-grid numeric QIs: exact ties
    #   between distinct records in distance to the (standardized) centroid
    ("md_single_qi", 160, 4, 0.3),  # one numeric QI: univariate geometry
)

#: (case name, dataset name, k, t) for the *end-to-end* kanon-first and
#: Algorithm-1 golden runs (``fixtures/kanon_first_golden.npz``).  The t
#: levels are deliberately tighter than :data:`MICRODATA_CASES` so the swap
#: phase accepts many swaps and the merge fallback actually merges — the two
#: phases the incremental EMD engine rewrote, pinned here bit-for-bit (labels,
#: swap/merge counters) against the pre-refactor dense implementation and,
#: where exact decisions break ties differently, against the exact rational
#: references of ``test_alg2_reference.py`` and ``test_merge_reference.py``.
E2E_CASES = (
    ("md_numeric_tight", "md_numeric", 3, 0.125),  # swaps + 1 merge
    ("md_numeric_strict", "md_numeric", 3, 0.08),  # merge cascade (~21 merges)
    ("md_mixed_tight", "md_mixed", 4, 0.15),
    ("md_mixed_strict_tight", "md_mixed_strict", 3, 0.05),  # ~42 merges
    ("md_tied_tight", "md_tied_secret", 5, 0.12),  # tied secret: bin ties
    ("md_categorical_tight", "md_categorical", 4, 0.1),  # QI-tie dense
    ("md_int_grid_tight", "md_int_grid", 4, 0.1),
    ("md_single_qi_tight", "md_single_qi", 4, 0.1),
    ("md_nominal_secret", "md_nominal_secret", 4, 0.15),  # nominal tracker
    ("md_two_secrets", "md_two_secrets", 4, 0.2),  # max over two trackers
)


def matrix_case(name: str) -> np.ndarray:
    """Record matrix for one entry of :data:`MATRIX_CASES`."""
    for case, n, d, _k in MATRIX_CASES:
        if case == name:
            break
    else:
        raise KeyError(name)
    rng = np.random.default_rng(abs(hash_stable(name)) % (2**32))
    if name.startswith("num_int"):
        # Small integer grids make exact distance ties between *distinct*
        # records the norm, not the exception — the hardest tie-breaking
        # regime for any alternative distance kernel.
        X = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
    if name.endswith("_dups"):
        # Duplicate a third of the rows on top of other rows so that exact
        # zero-distance ties exercise the id-order tie-breaking.
        src = rng.integers(0, n, size=n // 3)
        dst = rng.integers(0, n, size=n // 3)
        X[dst] = X[src]
    return X


def microdata_case(name: str) -> Microdata:
    """Microdata table for one entry of :data:`MICRODATA_CASES`."""
    for case, n, _k, _t in MICRODATA_CASES:
        if case == name:
            break
    else:
        raise KeyError(name)
    rng = np.random.default_rng(abs(hash_stable(name)) % (2**32))

    columns: dict[str, np.ndarray] = {}
    schema = []
    n_numeric = 0 if name == "md_categorical" else 2 if name != "md_numeric" else 3
    if name == "md_int_grid":
        n_numeric = 4
    elif name == "md_single_qi":
        n_numeric = 1
    for i in range(n_numeric):
        if name == "md_int_grid":
            columns[f"num{i}"] = rng.integers(0, 5, size=n).astype(float)
        else:
            columns[f"num{i}"] = rng.normal(size=n)
        schema.append(numeric(f"num{i}", role=AttributeRole.QUASI_IDENTIFIER))
    if name not in ("md_numeric", "md_int_grid", "md_single_qi"):
        columns["ord"] = rng.integers(0, 4, size=n)
        schema.append(
            ordinal("ord", ("a", "b", "c", "d"), role=AttributeRole.QUASI_IDENTIFIER)
        )
        columns["nom"] = rng.integers(0, 3, size=n)
        schema.append(
            nominal("nom", ("x", "y", "z"), role=AttributeRole.QUASI_IDENTIFIER)
        )
    if name == "md_categorical":
        columns["ord2"] = rng.integers(0, 3, size=n)
        schema.append(
            ordinal("ord2", ("lo", "mid", "hi"), role=AttributeRole.QUASI_IDENTIFIER)
        )
    if name == "md_tied_secret":
        secret = rng.integers(0, max(2, n // 4), size=n).astype(float)
    else:
        secret = rng.permutation(np.arange(float(n)))
    columns["secret"] = secret
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    return Microdata(columns, schema)


def e2e_case(name: str) -> Microdata:
    """Microdata table for one *dataset* name of :data:`E2E_CASES`.

    Reuses :func:`microdata_case` for the shared datasets and adds two
    confidential-attribute schemas the partition-layer cases never needed:
    a nominal secret (exercising ``NominalClusterTracker``) and a pair of
    confidential attributes (exercising the max-over-attributes tracker
    set).
    """
    if name in {case for case, *_ in MICRODATA_CASES}:
        return microdata_case(name)
    if name not in ("md_nominal_secret", "md_two_secrets"):
        raise KeyError(name)
    rng = np.random.default_rng(abs(hash_stable(name)) % (2**32))
    n = 120
    columns: dict[str, np.ndarray] = {}
    schema = []
    for i in range(2):
        columns[f"num{i}"] = rng.normal(size=n)
        schema.append(numeric(f"num{i}", role=AttributeRole.QUASI_IDENTIFIER))
    if name == "md_nominal_secret":
        # Skewed five-way nominal secret: rare categories make clusters
        # overshoot t easily, forcing swap traffic on the nominal tracker.
        columns["disease"] = rng.choice(5, size=n, p=(0.45, 0.25, 0.15, 0.1, 0.05))
        schema.append(
            nominal(
                "disease",
                ("flu", "cold", "asthma", "ulcer", "cancer"),
                role=AttributeRole.CONFIDENTIAL,
            )
        )
    else:
        columns["salary"] = rng.integers(0, n // 3, size=n).astype(float)
        schema.append(numeric("salary", role=AttributeRole.CONFIDENTIAL))
        columns["disease"] = rng.integers(0, 3, size=n)
        schema.append(
            nominal("disease", ("a", "b", "c"), role=AttributeRole.CONFIDENTIAL)
        )
    return Microdata(columns, schema)


def hash_stable(text: str) -> int:
    """Deterministic 32-bit FNV-1a hash (``hash()`` is salted per process)."""
    h = 2166136261
    for byte in text.encode():
        h = ((h ^ byte) * 16777619) % (2**32)
    return h
