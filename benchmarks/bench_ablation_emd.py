"""Ablation A — distinct-value vs rank-based ordered EMD under ties.

The library makes a deliberate choice: the t-closeness checker uses Li et
al.'s distinct-value bins, while the paper's Propositions 1-2 are stated
over per-record rank bins.  The two coincide on tie-free data (asserted in
the unit suite); this ablation quantifies (a) how far they drift once the
confidential attribute is heavily tied, and (b) what each costs, since the
distinct-value frame shrinks with the number of distinct values.
"""

from __future__ import annotations

import numpy as np
from conftest import FULL, write_result

from repro.data import load_patient_discharge
from repro.distance import OrderedEMDReference
from repro.evaluation import format_table

N = 3000 if FULL else 1000
CLUSTER_SIZE = 25
N_CLUSTERS = 200


def _tied_charges(data, granularity):
    """Charge column rounded to a coarse grid — the tie generator.

    ``granularity = 0`` keeps the raw (continuous, tie-free) column.
    """
    charge = data.values("CHARGE")
    if granularity == 0:
        return charge
    return np.round(charge / granularity) * granularity


def test_emd_mode_divergence_under_ties(benchmark, patient_discharge):
    rng = np.random.default_rng(7)
    rows = []
    worst_gap = {}
    for granularity in (0.0, 1_000.0, 10_000.0):
        values = _tied_charges(patient_discharge, granularity)
        distinct_ref = OrderedEMDReference(values, mode="distinct")
        rank_ref = OrderedEMDReference(values, mode="rank")
        gaps = []
        for _ in range(N_CLUSTERS):
            members = rng.choice(len(values), size=CLUSTER_SIZE, replace=False)
            d = distinct_ref.emd(values[members])
            r = rank_ref.emd(values[members])
            gaps.append(abs(d - r))
        rows.append(
            [
                f"{granularity:g}",
                distinct_ref.m,
                f"{np.mean(gaps):.5f}",
                f"{np.max(gaps):.5f}",
            ]
        )
        worst_gap[granularity] = float(np.max(gaps))
    write_result(
        "ablation_emd_modes",
        format_table(
            ["rounding", "#distinct bins", "mean |gap|", "max |gap|"], rows
        ),
    )

    # Tie-free (raw continuous data): the modes coincide exactly.
    assert worst_gap[0.0] < 1e-9
    # Heavy ties: the modes measurably drift apart.
    assert worst_gap[10_000.0] > worst_gap[0.0]

    # Benchmark the evaluation cost of the distinct frame (the default).
    values = patient_discharge.values("CHARGE")
    ref = OrderedEMDReference(values)
    members = rng.choice(len(values), size=CLUSTER_SIZE, replace=False)
    cluster = values[members]
    benchmark(ref.emd, cluster)
