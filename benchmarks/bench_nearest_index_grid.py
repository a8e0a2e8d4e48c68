"""Crossover grid for the nearest-representative kd index's split rule.

For each width d in {1, 2, 4, 8, 12, 16} and representative count R in
{40, 400, 5000}, times the compiled kd query over one leaf (the brute
scan) and over the full-depth tree (leaves of ``LEAF_SIZE / 2`` to
``LEAF_SIZE``), and prints the per-row costs, their ratio and whether
:func:`repro.backend.kernels.split_depth` splits that shape.  The
representatives are the means of k=5 groups of a skewed table and the
queries are fresh rows of the same table, both standardized like the
fitted encoder does::

    PYTHONPATH=src python benchmarks/bench_nearest_index_grid.py
    PYTHONPATH=src python benchmarks/bench_nearest_index_grid.py --uniform

Needs a C compiler (the compiled query is what the rule is tuned for).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.backend import _native, kernels

WIDTHS = (1, 2, 4, 8, 12, 16)
COUNTS = (40, 400, 5000)
BATCH_ROWS = 2500
REPEATS = 7


def per_row_us(X: np.ndarray, index: kernels.NearestIndex) -> float:
    """Median wall time of one query over ``X``, in µs per row."""
    n = len(X)
    times = []
    for _ in range(REPEATS):
        assignment = np.zeros(n, dtype=np.int64)
        best_d2 = np.full(n, np.inf)
        start = time.perf_counter()
        kernels.nearest_block(
            X.T, index, assignment, best_d2, np.empty(n), np.empty(n), 0, n
        )
        times.append(time.perf_counter() - start)
    return float(np.median(times)) / n * 1e6


def table(rng: np.random.Generator, width: int, n: int, uniform: bool) -> np.ndarray:
    if uniform:
        return rng.uniform(size=(n, width))
    return np.exp(0.5 * rng.standard_normal((n, width)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--uniform", action="store_true", help="uniform table")
    parser.add_argument("--seed", type=int, default=20160516)
    args = parser.parse_args()
    if _native.load() is None:
        print("no usable C compiler: the compiled query is unavailable")
        return 2
    rng = np.random.default_rng(args.seed)
    print("| d | R | depth | leaf µs/row | tree µs/row | leaf/tree | split |")
    print("|---:|---:|---:|---:|---:|---:|:---:|")
    for width in WIDTHS:
        for count in COUNTS:
            data = table(rng, width, 5 * count, args.uniform)
            mean, std = data.mean(axis=0), data.std(axis=0)
            groups = data[np.lexsort(data.T[::-1])].reshape(count, 5, width)
            reps = (groups.mean(axis=1) - mean) / std
            X = (table(rng, width, BATCH_ROWS, args.uniform) - mean) / std
            depth = int(np.ceil(np.log2(count / kernels.LEAF_SIZE)))
            leaf = per_row_us(X, kernels._build_tree(reps, 0))
            tree = per_row_us(X, kernels._build_tree(reps, depth))
            split = "yes" if kernels.split_depth(count, width) else "no"
            print(
                f"| {width} | {count} | {depth} | {leaf:.3f} | {tree:.3f} "
                f"| {leaf / tree:.2f} | {split} |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
