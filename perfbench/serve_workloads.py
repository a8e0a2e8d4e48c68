"""Serve workload: the Algorithm-3 model behind a ``repro serve``
subprocess, driven by two keep-alive connections in a closed loop of
``/v1/transform`` requests.

A run deploys three times: each round sets up (timed: generate the
tables, fit, publish, spawn the server until it announces its port, open
the connections), serves every distinct request once, then measures for a
third of the window.  So the measurement spans the whole run and three
server processes.  Each round's window is cut in two; the throughput is
the median of the six parts, and the latencies are pooled from every part
at or above it.  In the first round every body is checked against a
direct ``TransformModel.transform`` call; every later body must equal
that verified body byte for byte.

The traced run adds an in-process replay on the same request bytes: the
server's own ``AnonymizationService`` answers each request between
``read_request`` and ``write_response``, with spans wrapped around the
calls it makes.  Its bodies must equal the live server's.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import shutil
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.serving.http as http_module
from bench_engine_scaling import synthetic_dataset
from repro import Anonymizer, KAnonymity, TCloseness
from repro.data import Microdata
from repro.metrics.information_loss import normalized_sse, sse_ratio
from repro.serving import AnonymizationService, ModelRegistry
from repro.serving.http import read_request, write_response

from .harness import (
    ROOT,
    WORK,
    K,
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    server_environment,
    warm_up,
)
from .tracing import CountingBackend, Tracer

T = 0.05
MODEL = "bench"
CONNECTIONS = 2
#: Each round's window is cut into this many parts.  The throughput is the
#: median part's, and the latencies are pooled from every part at or above
#: it: a slowdown in half the parts moves the throughput, one in more than
#: half moves all three figures, and a burst of load from other tenants of
#: the host in fewer parts moves none.
PARTS_PER_ROUND = 2
SETUP_REPEATS = 3
#: Held-out records come from another generator stream than the fitted ones.
HOLDOUT_SEED_OFFSET = 7_919
REQUEST_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 60.0

#: Fitted records, held-out request pool, records per request.  The pool
#: is served in distinct consecutive slices with the two connections half
#: a pool apart, so a row recurs only after the whole pool has been served,
#: far beyond the server's 4,096-row cache: every row misses.
SIZES = {
    "full": dict(fit_n=50_000, pool=20_000, rows=1_250),
    "smoke": dict(fit_n=5_000, pool=2_000, rows=250),
}

FIT_ONLY_LAYER = {
    "core.kanon_loop_s": "s",
    "core.merge_s": "s",
    "microagg.partition_s": "s",
    "runtime.checkpoint_s": "s",
    "runtime.checkpoint_writes": "count",
    "runtime.checkpoint_bytes": "bytes",
    "runtime.checkpoint_share": "1",
    "runtime.checkpoint_breaches": "count",
}

#: Stages of one request, in the order the server runs them.
STAGES = (
    "parse",
    "json_decode",
    "encode",
    "cache",
    "queue_wait",
    "assign",
    "apply",
    "json_encode",
    "write",
)


@dataclass
class Request:
    raw: bytes
    batch: Microdata
    expected: bytes | None = None

    @property
    def rows(self) -> int:
        return self.batch.n_records


def transform_request(batch: Microdata) -> bytes:
    body = json.dumps(
        {"records": {name: batch.labels(name).tolist() for name in batch.attribute_names}}
    ).encode()
    head = (
        "POST /v1/transform HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


METRICS_REQUEST = b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n"


def request_pool(seed: int, size: dict) -> tuple[list[Request], Microdata]:
    """The distinct requests of the window, and the held-out table they
    slice."""
    holdout = synthetic_dataset(size["pool"], seed=seed + HOLDOUT_SEED_OFFSET)
    step = size["rows"]
    requests = []
    for start in range(0, size["pool"] - step + 1, step):
        batch = holdout.subset(range(start, start + step))
        requests.append(Request(transform_request(batch), batch))
    return requests, holdout


# -- the client ------------------------------------------------------------------


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n"):
        if line[:15].lower() == b"content-length:":
            return int(line[15:])
    return 0


class Connection:
    """One keep-alive client connection; one request in flight at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def exchange(self, raw: bytes) -> tuple[int, bytes, float]:
        """(status, body, seconds from writing the request to its last byte)."""
        return await asyncio.wait_for(self._exchange(raw), REQUEST_TIMEOUT_S)

    async def _exchange(self, raw: bytes) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        self.writer.write(raw)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        body = await self.reader.readexactly(_content_length(head))
        return int(head[9:12]), body, time.perf_counter() - start

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


#: ``asyncio.TimeoutError`` is the builtin ``TimeoutError`` only from 3.11.
CONNECTION_ERRORS = (
    asyncio.TimeoutError,
    TimeoutError,
    ConnectionError,
    OSError,
    asyncio.IncompleteReadError,
    ValueError,
)


# -- the server ------------------------------------------------------------------


def spawn_server(registry: Path, live: list[subprocess.Popen]) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` with its CLI defaults on an ephemeral port and
    return it once it announces where it listens."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--registry", str(registry), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=server_environment(),
        cwd=ROOT,
    )
    live.append(proc)
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    buffered = b""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            for line in buffered.split(b"\n")[:-1]:
                if b" on http://" in line:
                    return proc, int(line.strip().rsplit(b":", 1)[1])
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise RuntimeError("server did not announce its port in time")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise RuntimeError(f"server exited before announcing: {buffered!r}")
            buffered += chunk


def stop_server(proc: subprocess.Popen) -> int | None:
    """SIGTERM (graceful drain) and wait; ``None`` if it had to be killed."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return proc.returncode


@dataclass
class Deployment:
    model: Anonymizer
    registry: Path
    version: str
    proc: subprocess.Popen
    connections: list[Connection]
    requests: list[Request]
    setup_s: float
    fit_s: float

    async def retire(self, outcome: Outcome) -> None:
        for conn in self.connections:
            await conn.close()
        code = stop_server(self.proc)
        if code != 0:
            outcome.problem(f"server exited with {code} on SIGTERM")


async def deploy(
    seed: int,
    size: dict,
    index: int,
    tracer: Tracer,
    outcome: Outcome,
    live: list[subprocess.Popen],
) -> Deployment:
    start = time.perf_counter()
    with tracer.span("setup", trace=f"setup-{index}"):
        with tracer.span("setup.inputs"):
            train = synthetic_dataset(size["fit_n"], seed=seed)
            requests, holdout = request_pool(seed, size)
        with tracer.span("core.setup_fit"):
            fit_start = time.perf_counter()
            model = Anonymizer(KAnonymity(K) & TCloseness(T), backend="serial").fit(train)
            fit_s = time.perf_counter() - fit_start
        with tracer.span("serving.publish"):
            registry = WORK / f"registry-{index}"
            shutil.rmtree(registry, ignore_errors=True)
            version = ModelRegistry(registry).publish(MODEL, model)
        with tracer.span("serving.boot"):
            proc, port = spawn_server(registry, live)
            connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    setup_s = time.perf_counter() - start
    _check_disjoint(train, holdout, outcome)
    return Deployment(model, registry, version, proc, connections, requests, setup_s, fit_s)


def _check_disjoint(train: Microdata, holdout: Microdata, outcome: Outcome) -> None:
    fitted = {row.tobytes() for row in train.matrix(train.quasi_identifiers)}
    if any(row.tobytes() in fitted for row in holdout.matrix(holdout.quasi_identifiers)):
        outcome.problem("held-out records overlap the fitted table")


async def verify(dep: Deployment, outcome: Outcome) -> Microdata | None:
    """Serve each distinct request once, check it against a direct call and
    keep its body; return the served release of the whole request pool."""
    direct = dep.model.transform_model_
    served_parts = []
    for req in dep.requests:
        outcome.attempted += 1
        try:
            status, body, _ = await dep.connections[0].exchange(req.raw)
        except CONNECTION_ERRORS as exc:
            outcome.fail(f"request failed: {type(exc).__name__}: {exc}")
            return None
        release = direct.transform(req.batch)
        expected = {
            "model": MODEL,
            "version": dep.version,
            "n_records": req.rows,
            "assignments": direct.assign(req.batch).tolist(),
            "records": {name: release.labels(name).tolist() for name in release.attribute_names},
        }
        if status != 200 or json.loads(body) != expected:
            outcome.fail(f"/v1/transform answered {status} with other content than a direct call")
            continue
        req.expected = body
        served_parts.append(release)
    if len(served_parts) != len(dep.requests):
        return None
    return _concat(served_parts)


async def recheck(dep: Deployment, verified: list[Request], outcome: Outcome) -> None:
    """Serve each distinct request once on a later deployment of the same
    inputs; every body must be the one verified on the first."""
    for req, first in zip(dep.requests, verified):
        outcome.attempted += 1
        try:
            status, body, _ = await dep.connections[0].exchange(req.raw)
        except CONNECTION_ERRORS as exc:
            outcome.fail(f"request failed: {type(exc).__name__}: {exc}")
            return
        if req.raw != first.raw or status != 200 or body != first.expected:
            outcome.fail(f"{status} response differs from the verified body")
        req.expected = first.expected


def _concat(parts: list[Microdata]) -> Microdata:
    schema = parts[0].schema
    return Microdata(
        {s.name: np.concatenate([p.values(s.name) for p in parts]) for s in schema}, schema
    )


async def scrape(conn: Connection) -> dict:
    status, body, _ = await conn.exchange(METRICS_REQUEST)
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


@dataclass
class Window:
    start: float = 0.0
    seconds: float = 0.0
    #: (completed at, latency, rows) of every request answered correctly.
    answers: list[tuple[float, float, int]] = field(default_factory=list)
    server_cpu_s: float = 0.0
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return len(self.answers)

    @property
    def latencies(self) -> list[float]:
        return [latency for _, latency, _ in self.answers]

    def parts(self, count: int) -> list["Part"]:
        """The window cut into ``count`` equal spans by completion time."""
        span = self.seconds / count
        latencies = [[] for _ in range(count)]
        rows = [0] * count
        for done, latency, n in self.answers:
            index = min(int((done - self.start) / span), count - 1)
            latencies[index].append(latency)
            rows[index] += n
        return [Part(rows[i] / span, latencies[i]) for i in range(count)]


@dataclass
class Part:
    rows_per_s: float
    latencies: list[float]


async def closed_loop(dep: Deployment, seconds: float, outcome: Outcome) -> Window:
    """Each connection sends its next request when the previous answer is in,
    until the window closes; the connections start half a pool apart."""
    window = Window()
    requests = dep.requests
    window.before = await scrape(dep.connections[0])

    async def client(conn: Connection, position: int) -> None:
        while time.perf_counter() < deadline:
            req = requests[position % len(requests)]
            position += 1
            outcome.attempted += 1
            try:
                status, body, elapsed = await conn.exchange(req.raw)
            except CONNECTION_ERRORS as exc:
                outcome.fail(f"request failed: {type(exc).__name__}: {exc}")
                return
            if status != 200 or body != req.expected:
                outcome.fail(f"{status} response differs from the verified body")
                continue
            window.answers.append((time.perf_counter(), elapsed, req.rows))

    cpu_start = cpu_seconds(dep.proc.pid)
    start = window.start = time.perf_counter()
    deadline = start + seconds
    await asyncio.gather(
        *(
            client(conn, i * len(requests) // CONNECTIONS)
            for i, conn in enumerate(dep.connections)
        )
    )
    window.seconds = time.perf_counter() - start
    window.server_cpu_s = cpu_seconds(dep.proc.pid) - cpu_start
    window.after = await scrape(dep.connections[0])
    return window


def _sse(metric, requests: list[Request], served: Microdata | None) -> float:
    """``metric`` of the served records against the submitted request pool."""
    if served is None:  # verification failed; the run is already incorrect
        return 0.0
    return metric(_concat([req.batch for req in requests]), served)


# -- the run ---------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool, size_name: str) -> Outcome:
    outcome = Outcome()
    live: list[subprocess.Popen] = []
    try:
        return asyncio.run(_run(seed, seconds, trace, SIZES[size_name], outcome, live))
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        for index in range(SETUP_REPEATS):
            shutil.rmtree(WORK / f"registry-{index}", ignore_errors=True)


async def _run(seed, seconds, trace, size, outcome, live) -> Outcome:
    warm_up("tclose-first")
    tracer = Tracer(enabled=trace)
    if trace:
        dep = await deploy(seed, size, 0, tracer, outcome, live)
        served = await verify(dep, outcome)
        if not outcome.correct:
            await dep.retire(outcome)
            return outcome
        window = await closed_loop(dep, seconds / 2, outcome)
        await dep.retire(outcome)
        return await _traced(dep, window, served, tracer, seconds, outcome)

    setups, parts, peaks = [], [], []
    for index in range(SETUP_REPEATS):
        dep = await deploy(seed, size, index, tracer, outcome, live)
        setups.append(dep.setup_s)
        if index == 0:
            await verify(dep, outcome)
            verified = dep.requests
        else:
            await recheck(dep, verified, outcome)
        if not outcome.correct:
            await dep.retire(outcome)
            return outcome
        window = await closed_loop(dep, seconds / SETUP_REPEATS, outcome)
        parts += window.parts(PARTS_PER_ROUND)
        peaks.append(peak_rss_mb(dep.proc.pid))
        await dep.retire(outcome)
    throughput = median([part.rows_per_s for part in parts])
    kept = [
        latency for part in parts if part.rows_per_s >= throughput for latency in part.latencies
    ]
    if not kept:
        outcome.problem("no request succeeded in the window")
        return outcome

    m = outcome.metric
    m("rows_per_s", throughput, "rows/s")
    m("latency_p50_ms", median(kept) * 1e3, "ms")
    m("latency_p90_ms", percentile(kept, 90) * 1e3, "ms")
    m("peak_rss_mb", median(peaks), "MB")
    m("setup_s", median(setups), "s")
    outcome.notes["part_rows_per_s"] = [round(part.rows_per_s) for part in parts]
    outcome.notes["best_part_rows_per_s"] = round(max(part.rows_per_s for part in parts))
    outcome.notes["latency_samples"] = len(kept)
    outcome.notes["setup_s"] = [round(s, 4) for s in setups]
    return outcome


# -- the traced replay -----------------------------------------------------------


def live_service(dep: Deployment, backend=None):
    """The server's own ``AnonymizationService`` over the deployment's
    registry, with the CLI's defaults, and its live model."""
    service = AnonymizationService(dep.registry, backend=backend)
    return service, service.reload_model(MODEL)


@contextmanager
def instrumented(live, tracer: Tracer):
    """Span the calls the service makes while it answers a request: on the
    live model's cache, batcher and model instances, and on
    ``Request.json`` and ``http.render_response``, restored on exit."""
    span = tracer.span
    cache, batcher, model = live.cache, live.batcher, live.model
    lookup, store = cache.lookup_rows, cache.store_rows
    encode_batch, assign_encoded, assign = model.encode_batch, model.assign_encoded, batcher.assign
    decode, render = http_module.Request.json, http_module.render_response

    def traced_lookup(encoded):
        with span("serving.cache"):
            return lookup(encoded)

    def traced_store(encoded, assignment, indices=None):
        with span("serving.cache"):
            return store(encoded, assignment, indices=indices)

    def traced_encode_batch(batch):
        with span("serving.encode_batch"):
            return encode_batch(batch)

    def traced_assign_encoded(encoded, *, backend=None):
        # Runs on the batcher's executor thread, outside any request:
        # one flush answers every request coalesced into it.
        with span("serving.assign", trace="flush"):
            return assign_encoded(encoded, backend=backend)

    async def traced_assign(encoded):
        with span("serving.batcher"):
            return await assign(encoded)

    def traced_json(request):
        with span("serving.json_decode"):
            return decode(request)

    def traced_render(status, payload, **kwargs):
        with span("serving.json_encode"):
            return render(status, payload, **kwargs)

    cache.lookup_rows, cache.store_rows = traced_lookup, traced_store
    model.encode_batch, model.assign_encoded = traced_encode_batch, traced_assign_encoded
    batcher.assign = traced_assign
    http_module.Request.json, http_module.render_response = traced_json, traced_render
    try:
        yield
    finally:
        http_module.Request.json, http_module.render_response = decode, render


@dataclass
class Replay:
    seconds: float = 0.0
    rows: int = 0
    request_s: list[float] = field(default_factory=list)


async def replay(
    service: AnonymizationService,
    requests: list[Request],
    seconds: float,
    tracer: Tracer,
    outcome: Outcome,
) -> Replay:
    """Two closed-loop coroutines each answer requests as the server does:
    ``read_request`` on a stream pre-filled with the request bytes, then
    ``service.handle``, then ``write_response`` into a socket pair.  A reader
    on the far end of each collects the bodies for comparison."""
    result = Replay()
    span = tracer.span

    async def connection(index: int) -> None:
        far, near = socket.socketpair()
        reader, far_writer = await asyncio.open_connection(sock=far)
        _, writer = await asyncio.open_connection(sock=near)
        sent: list[Request] = []
        bodies: list[bytes] = []

        async def collect() -> None:
            while len(bodies) < len(sent) or not done.is_set():
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    return
                bodies.append(await reader.readexactly(_content_length(head)))

        done = asyncio.Event()
        collector = asyncio.create_task(collect())
        position = index * len(requests) // CONNECTIONS
        while time.perf_counter() < deadline:
            req = requests[position % len(requests)]
            position += 1
            stream = asyncio.StreamReader()
            stream.feed_data(req.raw)
            stream.feed_eof()
            try:
                with span("serving.request", trace=f"{index}-{position}"):
                    start = time.perf_counter()
                    with span("serving.parse"):
                        request = await read_request(stream)
                    with span("serving.handle"):
                        _, status, payload, rows = await service.handle(request)
                    with span("serving.write"):
                        await write_response(
                            writer, status, payload, keep_alive=request.keep_alive
                        )
                    result.request_s.append(time.perf_counter() - start)
            except Exception as exc:  # counted, never timed as a success
                outcome.fail(f"replay raised {type(exc).__name__}: {exc}")
                break
            result.rows += rows
            sent.append(req)
        done.set()
        writer.close()
        await collector
        far_writer.close()
        outcome.attempted += len(sent)
        for req, body in zip(sent, bodies):
            if body != req.expected:
                outcome.fail("replayed body differs from the live server's")
        if len(bodies) != len(sent):
            outcome.fail(f"replay answered {len(bodies)} of {len(sent)} requests")

    start = time.perf_counter()
    deadline = start + seconds
    await asyncio.gather(*(connection(i) for i in range(CONNECTIONS)))
    result.seconds = time.perf_counter() - start
    return result


def stage_medians(tracer: Tracer) -> dict[str, float]:
    """Median time per stage over the replayed requests, in ms.

    The handler is cut at span boundaries, so its stages cover all of
    ``service.handle``: JSON decode runs from its start to the end of
    ``Request.json`` (routing included); encode from there to the end of
    ``encode_batch`` (model lookup, ``batch_schema``, the ``Microdata``
    build); the batcher's span splits into cache, the assign query that
    answered the request (the last flush that ran inside the span) and
    queue wait (the rest); apply runs from the batcher's return to the
    handler's end (``apply_assignment`` and the response payload build).
    JSON encode is ``render_response``; write is the rest of
    ``write_response``."""
    by_trace: dict[object, list] = {}
    for s in tracer.spans:
        by_trace.setdefault(s.trace, []).append(s)
    flushes = by_trace.get("flush", [])
    per_stage = {stage: [] for stage in STAGES}
    for request in tracer.named("serving.request"):
        spans = by_trace[request.trace]

        def one(name):
            return next(s for s in spans if s.name == name)

        def total(name):
            return sum(s.seconds for s in spans if s.name == name)

        handle, batcher = one("serving.handle"), one("serving.batcher")
        decoded, encoded = one("serving.json_decode").end, one("serving.encode_batch").end
        covering = [f for f in flushes if batcher.start <= f.start and f.end <= batcher.end]
        assign = max(covering, key=lambda f: f.end).seconds if covering else 0.0
        cache = total("serving.cache")
        render = total("serving.json_encode")
        values = {
            "parse": total("serving.parse"),
            "json_decode": decoded - handle.start,
            "encode": encoded - decoded,
            "cache": cache,
            "queue_wait": batcher.seconds - cache - assign,
            "assign": assign,
            "apply": handle.end - batcher.end,
            "json_encode": render,
            "write": total("serving.write") - render,
        }
        for stage, value in values.items():
            per_stage[stage].append(value)
    return {stage: median(values) * 1e3 for stage, values in per_stage.items()}


async def _traced(dep, window, served, tracer, seconds, outcome) -> Outcome:
    replay_s = max(seconds / 4, 1.0)
    service, _ = live_service(dep)
    untraced = await replay(service, dep.requests, replay_s, Tracer(enabled=False), outcome)
    backend = CountingBackend()
    service, live = live_service(dep, backend)
    with instrumented(live, tracer):
        traced = await replay(service, dep.requests, replay_s, tracer, outcome)
    if not traced.request_s or not untraced.request_s:
        return outcome

    stages = stage_medians(tracer)
    live_p50_ms = median(window.latencies) * 1e3 if window.answers else 0.0
    delta = {
        key: window.after["cache"][key] - window.before["cache"][key] for key in ("hits", "misses")
    }
    batches = window.after["batches"]["count"] - window.before["batches"]["count"]
    coalesced = (
        window.after["batches"]["requests_coalesced"]
        - window.before["batches"]["requests_coalesced"]
    )
    lookups = delta["hits"] + delta["misses"]
    report = dep.model.report_

    m = outcome.metric
    m("core.swaps_accepted", report.details.get("n_swaps", 0), "count")
    m("core.merges", report.details.get("n_merges", 0), "count")
    m("core.repair_s", report.timings["repair"], "s")
    m("core.verify_s", report.timings["verify"], "s")
    m("core.setup_fit_s", dep.fit_s, "s")
    m("core.fit_unattributed_s", dep.fit_s - sum(report.timings.values()), "s")
    m("microagg.aggregate_s", report.timings["aggregate"], "s")
    m("backend.distance_calls", backend.distance_calls, "count")
    m("backend.distance_s", backend.distance_s, "s")
    m("backend.swap_candidates", backend.swap_candidates, "count")
    m("backend.assign_rows", backend.assign_rows, "count")
    outcome.not_exercised(FIT_ONLY_LAYER)
    for stage in STAGES:
        m(f"serving.{stage}_ms", stages[stage], "ms")
    m("serving.cache_hit_ratio", delta["hits"] / lookups if lookups else 0.0, "1")
    m("serving.requests_per_batch", coalesced / batches if batches else 0.0, "1")
    m("serving.publish_s", tracer.named("serving.publish")[0].seconds, "s")
    m("serving.boot_s", tracer.named("serving.boot")[0].seconds, "s")
    m(
        "serving.server_cpu_ms",
        window.server_cpu_s * 1e3 / window.answered if window.answered else 0.0,
        "ms",
    )
    m("serving.unattributed_ms", live_p50_ms - sum(stages.values()), "ms")
    m("release_sse", _sse(normalized_sse, dep.requests, served), "1")
    m("release_sse_ratio", _sse(sse_ratio, dep.requests, served), "1")
    m("trace.overhead_share", median(traced.request_s) / median(untraced.request_s) - 1.0, "1")
    m("trace.rows_per_s", traced.rows / traced.seconds, "rows/s")
    m("trace.spans", len(tracer.spans), "count")
    outcome.tracer = tracer
    outcome.notes["latency_samples"] = window.answered
    outcome.notes["replayed_requests"] = {
        "untraced": len(untraced.request_s),
        "traced": len(traced.request_s),
    }
    return outcome
