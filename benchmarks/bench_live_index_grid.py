"""Crossover grid for the rule that gives a fit the live index.

MDAV, V-MDAV and Algorithm 2 select from the live set
:func:`repro.microagg.engine.live_set` hands them: the live index (a
kd-tree over the records, boxes refit as clusters take them) or the
scan engine.  Both make the same selections, so the choice is only about
speed.  For each table, times every partitioner on both structures in
alternating pairs (the order flips every pair), checks that both give the
same labels, and prints the median wall times, the median per-pair
ratio scan / index with its quartiles, the pairs the index won, and the
structure the rule picks for that shape::

    PYTHONPATH=src:benchmarks python benchmarks/bench_live_index_grid.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_live_index_grid.py \\
        --pairs 5 lognormal:20000:6 uniform:20000:4 grid:20000:4:6

A table is ``KIND:N:WIDTH`` with KIND one of ``lognormal`` (the fit
workloads' income-shaped columns), ``uniform`` and ``mixed`` (three
lognormal columns plus nominal columns of 4 and 2 categories, one-hot
encoded, so WIDTH is ignored and the encoded width is 9), or
``grid:N:WIDTH:LEVELS`` (integers in [0, LEVELS): ties everywhere).
Algorithm 2 runs without its merge fallback (the merge does not select
from the live set), k = 5, t = 0.1.  Needs a C compiler.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from bench_engine_scaling import synthetic_dataset
from repro.backend import _native
from repro.core.kanon_first import kanonymity_first
from repro.data import AttributeRole
from repro.data.attributes import nominal, numeric
from repro.data.dataset import Microdata
from repro.distance.records import encode_mixed
from repro.microagg import engine, mdav, vmdav

K, T, SEED = 5, 0.1, 20160516
DEFAULT_TABLES = (
    "lognormal:5000:4",
    "lognormal:5000:5",
    "lognormal:20000:4",
    "lognormal:20000:5",
    "lognormal:20000:6",
    "lognormal:20000:8",
    "uniform:20000:4",
    "uniform:20000:6",
    "grid:20000:4:6",
    "mixed:20000:9",
)


def _numeric_table(columns: list[np.ndarray], rng: np.random.Generator) -> Microdata:
    n = len(columns[0])
    data = {f"q{i}": c for i, c in enumerate(columns)}
    schema = [numeric(name, role=AttributeRole.QUASI_IDENTIFIER) for name in data]
    data["secret"] = rng.permutation(np.arange(float(n)))
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    return Microdata(data, schema)


def table(spec: str) -> Microdata:
    kind, n, width, *levels = spec.split(":")
    n, width = int(n), int(width)
    rng = np.random.default_rng(SEED + n + width)
    if kind == "lognormal":
        return synthetic_dataset(n, d=width, seed=SEED)
    if kind == "uniform":
        return _numeric_table([rng.uniform(size=n) for _ in range(width)], rng)
    if kind == "grid":
        count = int(levels[0])
        return _numeric_table(
            [rng.integers(0, count, n).astype(float) for _ in range(width)], rng
        )
    if kind == "mixed":
        base = synthetic_dataset(n, d=3, seed=SEED)
        data = {name: base.values(name) for name in base.attribute_names}
        schema = [base.spec(name) for name in base.attribute_names]
        for j, count in enumerate((4, 2)):
            data[f"c{j}"] = rng.integers(0, count, n)
            schema.append(
                nominal(
                    f"c{j}",
                    [str(v) for v in range(count)],
                    role=AttributeRole.QUASI_IDENTIFIER,
                )
            )
        return Microdata(data, schema)
    raise SystemExit(f"unknown table kind in {spec!r}")


def fit(algo: str, data: Microdata, X: np.ndarray, index: bool):
    """One timed fit, forced onto the live index (the split rule's depth,
    which does not depend on the width, whatever the width) or onto the
    scan engine (no tree)."""
    real = engine.split_depth
    if index:
        engine.split_depth = lambda n_records, width: real(n_records, 1)
    else:
        engine.split_depth = lambda n_records, width: 0
    try:
        start = time.perf_counter()
        if algo == "mdav":
            labels = mdav(X, K).labels
        elif algo == "vmdav":
            labels = vmdav(X, K, gamma=0.2).labels
        else:
            labels = kanonymity_first(data, K, T, merge_fallback=False).partition.labels
        return time.perf_counter() - start, labels
    finally:
        engine.split_depth = real


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tables", nargs="*", default=DEFAULT_TABLES)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    if _native.load() is None:
        print("no usable C compiler: the live index is unavailable")
        return 2
    print("| table | n x d | rule picks | fit | scan ms | index ms | scan/index [q1, q3] | index won |")
    print("|---|---|---|---|---:|---:|---|---:|")
    for spec in args.tables:
        data = table(spec)
        X = encode_mixed(data, data.quasi_identifiers)
        picks = type(engine.live_set(X)).__name__
        for algo in ("mdav", "vmdav", "alg2"):
            scan_ms, index_ms, ratios = [], [], []
            for pair in range(args.pairs):
                runs = {}
                for index in (True, False) if pair % 2 == 0 else (False, True):
                    runs[index] = fit(algo, data, X, index)
                if not np.array_equal(runs[True][1], runs[False][1]):
                    print(f"{spec} {algo}: the two structures disagree")
                    return 1
                scan_ms.append(runs[False][0] * 1e3)
                index_ms.append(runs[True][0] * 1e3)
                ratios.append(runs[False][0] / runs[True][0])
            q1, q2, q3 = np.percentile(ratios, [25, 50, 75])
            wins = sum(r > 1.0 for r in ratios)
            print(
                f"| {spec} | {X.shape[0]} x {X.shape[1]} | {picks} | {algo} "
                f"| {np.median(scan_ms):.1f} | {np.median(index_ms):.1f} "
                f"| {q2:.2f} [{q1:.2f}, {q3:.2f}] | {wins}/{args.pairs} |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
