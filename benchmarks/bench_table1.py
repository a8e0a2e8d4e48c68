"""Table 1 — Algorithm 1 actual cluster sizes (min/avg) over the (k, t) grid.

Paper reference (MCD/HCD, n=1080): cluster sizes blow up as t shrinks —
at t=0.01 everything collapses into one 1,080-record cluster for every k;
at t=0.25 sizes approach k.  Larger k also inflates sizes (coarser initial
microaggregation needs more merging).  The benchmark asserts those shape
properties and regenerates the table.
"""

from __future__ import annotations

from conftest import FULL, PAPER_KS, PAPER_TS, write_result

from repro.evaluation import format_size_table, sweep

KS = PAPER_KS if FULL else (2, 5, 10)
TS = PAPER_TS if FULL else (0.05, 0.13, 0.25)


def test_table1_cluster_sizes(benchmark, mcd, hcd):
    def run():
        return {
            "MCD": sweep(mcd, "merge", ks=KS, ts=TS),
            "HCD": sweep(hcd, "merge", ks=KS, ts=TS),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "table1_algorithm1_sizes", format_size_table(results, ks=KS, ts=TS)
    )

    for dataset, grid in results.items():
        for cell in grid.values():
            assert cell.satisfies_t, (dataset, cell.k, cell.t)
            assert cell.min_size >= cell.k

        # Shape: stricter t (with merging) never shrinks average size.
        for k in KS:
            strict, loose = grid[(k, TS[0])], grid[(k, TS[-1])]
            assert strict.avg_size >= loose.avg_size - 1e-9

    # Shape: at strict t Algorithm 1 overshoots k by a wide margin (the
    # paper's motivation for the t-aware variants).
    assert results["MCD"][(2, TS[0])].avg_size >= 4 * 2
