"""Run one benchmark workload, or every workload once in smoke mode.

    python3 perfbench/run.py --workload fit-merge-20k --seed 20160516 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

The workloads, their metrics and the metrics' units and bounds are in
``BENCHMARK.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``, each with its unit.  The lines before it name the
workload, the host state and every metric.  The exit code is non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness  # noqa: E402

SMOKE_SECONDS = 2.0


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def workload_table() -> dict:
    from perfbench import fit_workloads as fits
    from perfbench import serve_workloads as serve

    return {
        "fit-kanon-ckpt-20k": lambda *a: fits.run(fits.FitWorkload("kanon-first", True), *a),
        "fit-merge-20k": lambda *a: fits.run(fits.FitWorkload("merge", False), *a),
        "serve-transform-50k": serve.run,
    }


def check_metrics(outcome: harness.Outcome, declared: list[dict]) -> None:
    """Every declared metric present, with its declared unit, and no other."""
    units = {spec["name"]: spec["unit"] for spec in declared}
    for name, unit in units.items():
        if name not in outcome.metrics:
            outcome.problem(f"metric {name} is missing")
        elif outcome.metrics[name][1] != unit:
            outcome.problem(f"metric {name} is in {outcome.metrics[name][1]!r}, not {unit!r}")
    for name in set(outcome.metrics) - set(units):
        outcome.problem(f"metric {name} is not declared")


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: bool, size: str):
    why = {w["name"]: w["why"] for w in spec["workloads"]}[name]
    host = harness.HostProbe()
    outcome = workload_table()[name](seed, seconds, trace, size)
    env = host.finish()
    env["native_kernel"] = harness.native_kernel_in_use()
    check_metrics(outcome, spec["per_layer" if trace else "end_to_end"])
    if outcome.tracer is not None:
        path = harness.WORK / f"trace-{name}-{seed}.json"
        outcome.tracer.write(path)
        outcome.notes["spans_file"] = str(path.relative_to(harness.ROOT))

    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)} size={size}")
    print(f"# why: {why}")
    print("env " + json.dumps(env))
    print("notes " + json.dumps(outcome.notes))
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{metric:32s} {value:>16.6g} {unit}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    return outcome


def smoke(spec: dict) -> int:
    """Every workload once, untraced and traced, at a small size."""
    failures = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            outcome = run_one(
                spec, workload["name"], harness.DEFAULT_SEED, SMOKE_SECONDS, trace, "smoke"
            )
            if not outcome.correct:
                failures.append(f"{workload['name']} trace={int(trace)}")
    print(json.dumps({"smoke": "failed" if failures else "ok", "failures": failures}))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument(
        "--seed",
        type=int,
        default=harness.DEFAULT_SEED,
        help=f"input seed (a claimed gain must also hold on {harness.CLAIM_SEED})",
    )
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once, small")
    args = parser.parse_args(argv)

    if not harness.checkout_complete():
        print("perfbench: src/repro or benchmarks/ is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    harness.prepare_environment()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds <= 0:
        parser.error("--seconds must be positive")
    outcome = run_one(spec, args.workload, args.seed, seconds, bool(args.trace), "full")
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
