"""Fit workloads: Algorithm 2 with checkpoints and Algorithm 1, n = 20k.

Untraced, a run repeats the fit for the measured window and reports its
median.  Traced, it interleaves untraced and traced fits (the difference
is the tracing overhead), then replays the cluster phase decomposed into
its public steps, which must reproduce the fit's partition labels.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from bench_engine_scaling import synthetic_dataset
from repro import Anonymizer, KAnonymity, TCloseness
from repro.constants import T_TOLERANCE
from repro.core.confidential import ConfidentialModel
from repro.core.kanon_first import kanonymity_first
from repro.core.merge import merge_to_t_closeness
from repro.distance.records import encode_mixed
from repro.metrics.information_loss import normalized_sse, sse_ratio
from repro.microagg import mdav
from repro.privacy.kanonymity import k_anonymity_level
from repro.privacy.tcloseness import t_closeness_level

from .harness import (
    CHECKPOINT_BUDGET,
    K,
    WORK,
    Outcome,
    median,
    peak_rss_mb,
    percentile,
    warm_up,
)
from .tracing import CheckpointProbe, CountingBackend, Tracer

T = 0.1
SIZES = {"full": 20_000, "smoke": 2_000}
#: Input generations timed before each fit: set-up samples spread over the
#: whole run, so their median does not hang on one moment's host load.
SETUP_PER_FIT = 3
#: Untraced/traced fit pairs in a traced run.
TRACE_PAIRS = 2

SERVING_LAYER = {
    "serving.parse_ms": "ms",
    "serving.json_decode_ms": "ms",
    "serving.encode_ms": "ms",
    "serving.cache_ms": "ms",
    "serving.cache_hit_ratio": "1",
    "serving.queue_wait_ms": "ms",
    "serving.requests_per_batch": "1",
    "serving.assign_ms": "ms",
    "serving.apply_ms": "ms",
    "serving.json_encode_ms": "ms",
    "serving.write_ms": "ms",
    "serving.publish_s": "s",
    "serving.boot_s": "s",
    "serving.server_cpu_ms": "ms",
    "serving.unattributed_ms": "ms",
}


class FitWorkload:
    def __init__(self, method: str, checkpoint: bool) -> None:
        self.method = method
        self.checkpoint = checkpoint
        self._ckpt_serial = 0

    def anonymizer(self, backend) -> Anonymizer:
        return Anonymizer(KAnonymity(K) & TCloseness(T), method=self.method, backend=backend)

    def fit(self, data, backend="serial") -> tuple[float, Anonymizer]:
        """One timed fit; a checkpointed fit gets a fresh directory, removed
        outside the timed region."""
        directory = None
        if self.checkpoint:
            self._ckpt_serial += 1
            directory = WORK / f"ckpt-{self._ckpt_serial}"
            shutil.rmtree(directory, ignore_errors=True)
        model = self.anonymizer(backend)
        try:
            start = time.perf_counter()
            model.fit(data, checkpoint=directory)
            return time.perf_counter() - start, model
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)


def _guarantee_problems(data, model: Anonymizer) -> list[str]:
    """Independent re-check of one fit's release table."""
    release = model.release_
    problems = []
    if release.n_records != data.n_records:
        problems.append(f"release has {release.n_records} of {data.n_records} records")
    k_level = k_anonymity_level(release)
    if k_level < K:
        problems.append(f"release is only {k_level}-anonymous")
    t_level = t_closeness_level(release)
    if t_level > T + T_TOLERANCE:
        problems.append(f"release is only {t_level:.6f}-close")
    if not model.report_.satisfied:
        problems.append("fit reports its policy unsatisfied")
    return problems


def _check_fits(outcome: Outcome, data, models: list[Anonymizer], reference) -> None:
    for i, model in enumerate(models):
        problems = _guarantee_problems(data, model)
        if not np.array_equal(model.result_.partition.labels, reference):
            problems.append("partition differs from the run's first fit")
        if problems:
            outcome.fail(f"fit {i}: " + "; ".join(problems))


def _inputs(n: int, seed: int, setup: list[float]):
    """Generate the fitted table SETUP_PER_FIT times, timing each."""
    for _ in range(SETUP_PER_FIT):
        start = time.perf_counter()
        data = synthetic_dataset(n, seed=seed)
        setup.append(time.perf_counter() - start)
    return data


def _tail(walls: list[float]) -> float:
    """The lower of the p90s of the first and the second half of the fits.

    A window holds a few dozen fits at most, so their p90 is set by one or
    two fits that met a burst of load from other tenants of the host; a
    burst confined to one half of the window leaves the other half's p90.
    """
    half = len(walls) // 2
    if not half:
        return percentile(walls, 90)
    return min(percentile(walls[:half], 90), percentile(walls[half:], 90))


def run(workload: FitWorkload, seed: int, seconds: float, trace: bool, size: str) -> Outcome:
    n = SIZES[size]
    outcome = Outcome()
    warm_up(workload.method)
    setup: list[float] = []
    if trace:
        return _traced(workload, _inputs(n, seed, setup), outcome)

    walls, models = [], []
    window = time.perf_counter()
    while not outcome.attempted or time.perf_counter() - window < seconds:
        data = _inputs(n, seed, setup)
        outcome.attempted += 1
        try:
            wall, model = workload.fit(data)
        except Exception as exc:  # counted, never timed as a success
            outcome.fail(f"fit raised {type(exc).__name__}: {exc}")
            continue
        walls.append(wall)
        models.append(model)
        if len(models) == 1:
            # After one fit, before later fits' results pile up: the peak
            # must not depend on how many fits the window held.
            peak = peak_rss_mb()
    if not models:
        return outcome
    _check_fits(outcome, data, models, models[0].result_.partition.labels)

    fit_s = median(walls)
    outcome.metric("rows_per_s", n / fit_s, "rows/s")
    outcome.metric("latency_p50_ms", fit_s * 1e3, "ms")
    outcome.metric("latency_p90_ms", _tail(walls) * 1e3, "ms")
    outcome.metric("peak_rss_mb", peak, "MB")
    outcome.metric("setup_s", median(setup), "s")
    outcome.notes["fits"] = len(walls)
    outcome.notes["fit_walls_s"] = [round(w, 4) for w in walls]
    return outcome


def _traced(workload: FitWorkload, data, outcome: Outcome) -> Outcome:
    n = data.n_records
    tracer = Tracer()
    plain_walls, traced_walls, models = [], [], []
    for pair in range(TRACE_PAIRS):
        outcome.attempted += 2
        wall, model = workload.fit(data)
        plain_walls.append(wall)
        models.append(model)
        backend = CountingBackend()
        probe = CheckpointProbe(tracer)
        with probe.installed(), tracer.span("fit", trace=f"fit-{pair}"):
            wall, model = workload.fit(data, backend=backend)
        traced_walls.append(wall)
        models.append(model)
    reference = models[0].result_.partition.labels
    _check_fits(outcome, data, models, reference)
    traced = models[-1]
    timings = traced.report_.timings
    details = traced.report_.details

    # The cluster phase, decomposed into its public steps on the serial
    # backend; the replayed partition must be the fit's, label for label.
    X = encode_mixed(data, data.quasi_identifiers)
    confidential = ConfidentialModel(data)
    kanon_loop_s = partition_s = 0.0
    with tracer.span("replay", trace="replay"):
        if workload.method == "kanon-first":
            with tracer.span("core.kanon_loop") as step:
                raw = kanonymity_first(data, K, T, merge_fallback=False, backend="serial")
            kanon_loop_s = step.seconds
            initial = raw.partition
        else:
            with tracer.span("microagg.partition") as step:
                initial = mdav(X, K, backend="serial")
            partition_s = step.seconds
        with tracer.span("core.merge") as merge_step:
            final, _, replay_merges = merge_to_t_closeness(
                data, initial, T, model=confidential, qi_matrix=X, backend="serial"
            )
    outcome.attempted += 1
    if not np.array_equal(final.labels, reference):
        outcome.fail("decomposed replay does not reproduce the fit's partition")
    if replay_merges != int(details.get("n_merges", 0)):
        outcome.fail(f"replay merged {replay_merges} times, the fit {details.get('n_merges')}")

    fit_wall = median(traced_walls)
    share = probe.seconds / traced_walls[-1]
    if share >= CHECKPOINT_BUDGET:
        outcome.notes["contract"] = f"BREACH: checkpoint share {share:.4f} >= {CHECKPOINT_BUDGET}"
    elif workload.checkpoint:
        outcome.notes["contract"] = f"ok: checkpoint share {share:.4f} < {CHECKPOINT_BUDGET}"

    m = outcome.metric
    m("core.kanon_loop_s", kanon_loop_s, "s")
    m("core.swaps_accepted", details.get("n_swaps", 0), "count")
    m("core.merge_s", merge_step.seconds, "s")
    m("core.merges", details.get("n_merges", 0), "count")
    m("core.repair_s", timings["repair"], "s")
    m("core.verify_s", timings["verify"], "s")
    m("core.setup_fit_s", 0.0, "s")
    m("core.fit_unattributed_s", traced_walls[-1] - sum(timings.values()), "s")
    m("microagg.partition_s", partition_s, "s")
    m("microagg.aggregate_s", timings["aggregate"], "s")
    m("backend.distance_calls", backend.distance_calls, "count")
    m("backend.distance_s", backend.distance_s, "s")
    m("backend.swap_candidates", backend.swap_candidates, "count")
    m("backend.assign_rows", backend.assign_rows, "count")
    m("runtime.checkpoint_s", probe.seconds, "s")
    m("runtime.checkpoint_writes", probe.writes, "count")
    m("runtime.checkpoint_bytes", probe.bytes, "bytes")
    m("runtime.checkpoint_share", share, "1")
    m("runtime.checkpoint_breaches", int(share >= CHECKPOINT_BUDGET), "count")
    outcome.not_exercised(SERVING_LAYER)
    m("release_sse", normalized_sse(data, traced.release_), "1")
    m("release_sse_ratio", sse_ratio(data, traced.release_), "1")
    m("trace.overhead_share", fit_wall / median(plain_walls) - 1.0, "1")
    m("trace.rows_per_s", n / fit_wall, "rows/s")
    m("trace.spans", len(tracer.spans), "count")
    outcome.tracer = tracer
    outcome.notes["fit_walls_s"] = {
        "untraced": [round(w, 4) for w in plain_walls],
        "traced": [round(w, 4) for w in traced_walls],
    }
    return outcome
