"""Compare this checkout against a parent commit on the repository benchmark.

    python scripts/perf_compare.py <parent-ref> --workload serve-transform-50k \\
        --pairs 10 --seed 20160516 --seed 15120290

The parent is ``git archive``-d into a temporary directory; the change is
this checkout's working tree.  Both must carry the same ``perfbench/`` and
``BENCHMARK.json`` (the script refuses to compare otherwise).  For every
workload and seed it runs ``--pairs`` pairs of ``perfbench/run.py --trace
0``, one run per side, alternating which side runs first, and prints for
each end-to-end metric of ``BENCHMARK.json``: the median [first quartile,
third quartile] of each side, how many pairs the change won, and a
verdict against the metric's bound:

* ``better`` — the change won at least 9 of every 10 pairs and the
  medians differ by more than the parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound (a fraction of the parent's median);
* ``unresolved`` — the parent's own interquartile range is wider than
  the bound, so a regression of the bound's size could hide in it,
  unless every change run beats every parent run;
* ``within`` — otherwise.

The exit code is non-zero on any ``worse`` verdict and on any run that
failed an operation, reported ``correct: false`` or crashed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]

#: What must be identical on both sides: the benchmark and its spec.
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")

#: Files a benchmark run leaves behind, not part of the benchmark.
IGNORED = ("__pycache__", ".work")

#: The share of pairs the change must win to claim ``better``.
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Comparison:
    """One end-to-end metric on one workload and seed, both sides."""

    parent: tuple[float, float, float]  # median, first and third quartile
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def quartiles(values) -> tuple[float, float, float]:
    """Median, first and third quartile (linear interpolation)."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(median), float(q1), float(q3)


def compare(parent, change, *, higher_is_better: bool, bound: float) -> Comparison:
    """The verdict on paired samples of one metric (``parent[i]`` and
    ``change[i]`` ran as one pair)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("compare needs the same positive number of runs per side")
    sign = 1.0 if higher_is_better else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    gain = sign * (c[0] - p[0])  # positive when the change's median is better
    spread = p[2] - p[1]
    scale = abs(p[0])
    if -gain > bound * scale:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(parent) and gain > spread:
        verdict = "better"
    elif spread > bound * scale and not every_run_better(
        parent, change, higher_is_better=higher_is_better
    ):
        verdict = "unresolved"
    else:
        verdict = "within"
    return Comparison(p, c, wins, len(parent), verdict)


def every_run_better(parent, change, *, higher_is_better: bool) -> bool:
    """Whether every change run beats every parent run."""
    if higher_is_better:
        return min(change) > max(parent)
    return max(change) < min(parent)


def benchmark_files(root: Path) -> dict[str, bytes]:
    """The benchmark's files under ``root``: relative path to contents."""
    files = {}
    for name in BENCHMARK_FILES:
        path = root / name
        if path.is_file():
            files[name] = path.read_bytes()
            continue
        for folder, dirs, filenames in os.walk(path):
            dirs[:] = [d for d in dirs if d not in IGNORED]
            for filename in filenames:
                file = Path(folder, filename)
                files[file.relative_to(root).as_posix()] = file.read_bytes()
    return files


def benchmark_differs(parent_root: Path, change_root: Path) -> list[str]:
    """Benchmark files that differ between the two trees (or exist in one)."""
    a, b = benchmark_files(parent_root), benchmark_files(change_root)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def archive(ref: str, dest: Path) -> str:
    """Extract ``git archive <ref>`` into ``dest``; return the short hash."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", f"{ref}^{{commit}}"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    data = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=REPO_ROOT, capture_output=True, check=True,
    ).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **safe)
    return commit


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One untraced ``perfbench/run.py`` run in ``root`` (its run length is
    ``BENCHMARK.json``'s); its result line, or ``{"crashed": ...}`` when it
    printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    for line in lines:
        if line.startswith("FAILED:"):
            result.setdefault("problems", []).append(line)
    return result


def run_pairs(
    roots: dict[str, Path], workload: str, seed: int, pairs: int
) -> dict[str, list[dict]]:
    """``pairs`` runs per side, alternating which side runs first; prints
    each run's throughput as it finishes."""
    runs = {side: [] for side in roots}
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(roots[side], workload, seed)
            runs[side].append(result)
            rows = result.get("metrics", {}).get("rows_per_s", {}).get("value")
            print(f"  pair {index + 1}/{pairs} {side:6s} "
                  + (f"rows_per_s={rows:.6g}" if rows is not None else "no metrics")
                  + ("" if run_ok(result) else f"  FAILED {run_problem(result)}"),
                  flush=True)
    return runs


def run_ok(result: dict) -> bool:
    """Whether a run finished correct with no failed operation."""
    return "crashed" not in result and result.get("correct") is True and not result.get("failed")


def run_problem(result: dict) -> str:
    """What went wrong in a run that is not :func:`run_ok`."""
    if "crashed" in result:
        return result["crashed"]
    return f"correct={result.get('correct')} failed={result.get('failed')} " + "; ".join(
        result.get("problems", [])
    )


def _fmt(value: float) -> str:
    return f"{value:.5g}"


def report(
    workload: str, seed: int, runs: dict[str, list[dict]], spec: dict
) -> tuple[list[str], list[str]]:
    """The comparison block of one workload and seed, and each end-to-end
    metric's verdict; every run in ``runs`` must be ok."""
    pairs = len(runs["parent"])
    lines = [f"== {workload} seed={seed} pairs={pairs} ==",
             f"{'metric':16s} {'parent median [q1, q3]':30s} "
             f"{'change median [q1, q3]':30s} {'better':>8s}  verdict (bound)"]
    verdicts = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        result = compare(parent, change, higher_is_better=metric["better"] == "higher",
                         bound=metric["bound"])
        verdicts.append(result.verdict)
        p, c = result.parent, result.change
        lines.append(
            f"{name:16s} {f'{_fmt(p[0])} [{_fmt(p[1])}, {_fmt(p[2])}]':30s} "
            f"{f'{_fmt(c[0])} [{_fmt(c[1])}, {_fmt(c[2])}]':30s} "
            f"{f'{result.wins}/{result.pairs}':>8s}  {result.verdict} "
            f"({metric['bound']:.0%}, {metric['unit']}, {metric['better']} is better)"
        )
    return lines, verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", help="the commit to compare against")
    parser.add_argument("--workload", action="append", required=True,
                        help="a BENCHMARK.json workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="a perfbench input seed (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")

    parent_root = Path(tempfile.mkdtemp(prefix="perf-compare-"))
    try:
        commit = archive(args.parent_ref, parent_root)
        differ = benchmark_differs(parent_root, REPO_ROOT)
        if differ:
            print(f"perf_compare: the benchmark differs from {commit}: {differ}; "
                  "refusing to compare", file=sys.stderr)
            return 2
        print(f"# parent {commit} (git archive) vs change {REPO_ROOT} (working tree)")
        roots = {"parent": parent_root, "change": REPO_ROOT}
        blocks, bad = [], []
        for workload in args.workload:
            for seed in args.seed:
                print(f"# {workload} seed={seed}", flush=True)
                runs = run_pairs(roots, workload, seed, args.pairs)
                failed = [f"{workload} seed={seed} {side} run {i + 1}: {run_problem(r)}"
                          for side, results in runs.items()
                          for i, r in enumerate(results) if not run_ok(r)]
                if failed:
                    bad += failed
                    blocks.append([f"== {workload} seed={seed}: no verdict, "
                                   f"{len(failed)} run(s) failed =="])
                    continue
                lines, verdicts = report(workload, seed, runs, spec)
                blocks.append(lines)
                bad += [f"{workload} seed={seed}: {m['name']} is worse"
                        for m, v in zip(spec["end_to_end"], verdicts) if v == "worse"]
        for lines in blocks:
            print()
            print("\n".join(lines))
        print()
        for problem in bad:
            print(f"FAILED: {problem}")
        print("perf_compare: " + ("FAILED" if bad else "ok"))
        return 1 if bad else 0
    finally:
        shutil.rmtree(parent_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
