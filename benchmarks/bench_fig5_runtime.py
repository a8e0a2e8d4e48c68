"""Figure 5 — run time of the three algorithms vs t (Patient Discharge).

Paper reference (23,435 records, k=2, log-scale seconds): Algorithms 1 and
3 track the quadratic cost of the underlying microaggregation; Algorithm 2
sits orders of magnitude above them (cubic swap refinement) and gets
*cheaper* as t grows (clusters satisfy t sooner, less refinement);
Algorithm 3 is the fastest at small t because Eq. 3 raises the cluster size
and thereby *lowers* O(n^2/k).

The benchmark reproduces those orderings on the Patient Discharge surrogate
(subsampled by default — the paper's own point is that Algorithm 2 does not
scale; see conftest.py).
"""

from __future__ import annotations

from conftest import FULL, write_result

from repro.evaluation import format_series_table, sweep

K = 2
TS = (0.02, 0.05, 0.09, 0.13, 0.17, 0.21, 0.25) if FULL else (0.05, 0.15, 0.25)
ALGORITHMS = ("merge", "kanon-first", "tclose-first")


def test_fig5_runtime_by_t(benchmark, patient_discharge):
    def run():
        series = {}
        for algorithm in ALGORITHMS:
            grid = sweep(patient_discharge, algorithm, ks=[K], ts=TS)
            series[algorithm] = {t: grid[(K, t)].runtime_s for t in TS}
        return series

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "fig5_runtime_seconds",
        format_series_table(series, ts=TS, value_format="{:.3f}"),
    )

    # Shape 1: Algorithm 2 is the slowest wherever refinement actually
    # bites (strict t); at loose t the swap loop short-circuits and the
    # three curves converge, as in the right edge of the paper's Figure 5.
    for t in TS:
        if t > 0.15:
            continue
        assert series["kanon-first"][t] >= series["merge"][t]
        assert series["kanon-first"][t] >= series["tclose-first"][t]

    # Shape 2: Algorithm 2's run time decreases as t loosens.
    assert series["kanon-first"][TS[-1]] <= series["kanon-first"][TS[0]]

    # Shape 3: Algorithm 3 beats Algorithm 1 at the strictest t (larger
    # analytic cluster size => fewer clusters => fewer distance passes).
    assert series["tclose-first"][TS[0]] <= series["merge"][TS[0]]
