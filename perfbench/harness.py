"""Shared plumbing: the isolated environment, host probes, statistics and
the per-run outcome every workload returns."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: Scratch space of a run (checkpoints, registries, the native-kernel
#: cache via TMPDIR, span files).  Inside the checkout and git-ignored.
WORK = ROOT / "perfbench" / ".work"

K = 5
#: The trajectory's seed (the paper's conference date).
DEFAULT_SEED = 20160516
#: A second seed, kept out of tuning, on which a claimed gain must also hold.
CLAIM_SEED = 15120290

#: Variables that would change what the program under test runs.
ISOLATED_VARS = ("REPRO_BACKEND", "REPRO_NUM_THREADS", "REPRO_NO_NATIVE", "REPRO_FAULTS")

#: The ROADMAP's contract: checkpoint I/O stays under 5% of the fit.
CHECKPOINT_BUDGET = 0.05


def checkout_complete() -> bool:
    """Whether the program under test and the input generator are present."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (
        ROOT / "benchmarks" / "bench_engine_scaling.py"
    ).is_file()


def prepare_environment() -> None:
    """Clear the library's selector variables and keep every temporary file
    inside the checkout; must run before ``repro`` is imported."""
    for name in ISOLATED_VARS:
        os.environ.pop(name, None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    for path in (ROOT / "benchmarks", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def server_environment() -> dict[str, str]:
    """Environment of a ``repro serve`` subprocess (already isolated)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- host probes -------------------------------------------------------------------


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


class HostProbe:
    """CPU count, load average and steal share at the start and end of a run."""

    def __init__(self) -> None:
        self.start = self._sample()

    @staticmethod
    def _sample() -> dict:
        with open("/proc/loadavg") as fh:
            load = [float(v) for v in fh.read().split()[:3]]
        return {"loadavg": load, "cpu": _cpu_times()}

    @staticmethod
    def _steal_share(cpu: list[int]) -> float:
        # user nice system idle iowait irq softirq steal [guest guest_nice];
        # guest time is already counted in user/nice.
        total = sum(cpu[:8])
        return cpu[7] / total if total else 0.0

    def finish(self) -> dict:
        end = self._sample()
        delta = [b - a for a, b in zip(self.start["cpu"], end["cpu"])]
        return {
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": self.start["loadavg"],
            "loadavg_end": end["loadavg"],
            "steal_share_start": round(self._steal_share(self.start["cpu"]), 6),
            "steal_share_end": round(self._steal_share(end["cpu"]), 6),
            "steal_share_run": round(self._steal_share(delta), 6),
        }


def native_kernel_in_use() -> bool:
    """Whether the compiled nearest scan loaded (a numpy fallback is an
    environment change, not a regression)."""
    from repro.backend import _native

    return _native.load() is not None


def warm_up(method: str) -> None:
    """Byte-compile the library and build the compiled nearest scan (cached
    under TMPDIR) through one small fit and assign, before any timing."""
    from bench_engine_scaling import synthetic_dataset
    from repro import Anonymizer, KAnonymity, TCloseness

    model = Anonymizer(KAnonymity(K) & TCloseness(0.1), method=method, backend="serial")
    serving = model.fit(synthetic_dataset(300, seed=1)).transform_model_
    serving.assign_encoded(serving.encoded_representatives[:4])


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- statistics --------------------------------------------------------------------


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- results -----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one run measured and how many of its operations failed.

    ``failed`` counts operations (fits, requests) that raised, missed a
    guarantee, answered non-200, timed out or returned other bytes;
    ``problems`` also holds run-level check failures, so a run is correct
    only when both are empty.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    #: The traced run's spans (a ``tracing.Tracer``), written out at exit.
    tracer: object = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problem(message)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:  # the count is exact; the log is a sample
            self.problems.append(message)
        elif len(self.problems) == 20:
            self.problems.append("...")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )

    def not_exercised(self, units: dict[str, str]) -> None:
        """Report 0 for layer metrics of code this workload never runs."""
        for name, unit in units.items():
            self.metric(name, 0.0, unit)
