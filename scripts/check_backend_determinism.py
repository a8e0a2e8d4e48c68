"""Parallel-backend determinism smoke: same input twice → identical output.

The parallel backends' contract is stronger than determinism — bit-for-bit
equality with the serial backend — and the golden/property suites pin that
on fixed fixtures.  This script is the cheap CI canary for the failure
mode those can miss on a different machine: a racy shard merge, a
worker-order-dependent reduction, or (for the process backend) a stale
shared-memory view would make repeated runs disagree with each other (or
with serial) nondeterministically.  It runs the full kanon-first pipeline
(distance kernels, selections, speculative scoring blocks, merge phase)
twice under each 2-worker parallel backend with shard floors forced low,
and once serially, and requires every partition, EMD vector and serving
assignment to be identical.

    PYTHONPATH=src python scripts/check_backend_determinism.py [n] [backend]

``backend`` limits the check to one parallel backend (``threaded`` or
``process``); the default checks both.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_engine_scaling import synthetic_dataset  # noqa: E402

from repro import Anonymizer, KAnonymity, TCloseness  # noqa: E402
from repro.backend import ProcessBackend, ThreadedBackend  # noqa: E402


def run(data, backend):
    model = Anonymizer(
        KAnonymity(5) & TCloseness(0.15), method="kanon-first", backend=backend
    ).fit(data)
    batch = synthetic_dataset(2_000, seed=99)
    return (
        model.result_.partition.labels,
        model.result_.cluster_emds,
        model.assign(batch),
    )


PARALLEL_FACTORIES = {
    "threaded": lambda: ThreadedBackend(
        2, min_rows=64, min_assign_rows=64, min_candidates=4
    ),
    "process": lambda: ProcessBackend(2, min_rows=64, min_shm_bytes=1),
}


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000
    chosen = sys.argv[2] if len(sys.argv) > 2 else None
    if chosen is not None and chosen not in PARALLEL_FACTORIES:
        raise SystemExit(
            f"unknown backend {chosen!r}; expected one of "
            f"{sorted(PARALLEL_FACTORIES)}"
        )
    names = [chosen] if chosen else sorted(PARALLEL_FACTORIES)
    data = synthetic_dataset(n)
    serial = run(data, "serial")
    for backend_name in names:
        factory = PARALLEL_FACTORIES[backend_name]
        first = run(data, factory())
        second = run(data, factory())
        for part, a, b, c in zip(
            ("labels", "cluster_emds", "assignment"), first, second, serial
        ):
            if not np.array_equal(a, b):
                raise SystemExit(
                    f"{backend_name} run 1 vs run 2 disagree on {part}"
                )
            if not np.array_equal(a, c):
                raise SystemExit(f"{backend_name} vs serial disagree on {part}")
        print(
            f"{backend_name} backend deterministic and serial-identical on "
            f"n={n} (labels, EMDs, serving assignment)"
        )
