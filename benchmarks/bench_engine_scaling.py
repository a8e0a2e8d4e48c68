"""Wall-clock scaling benchmark for the clustering engine — BENCH_engine.json.

Times the partition-layer algorithms (mdav, vmdav, tclose-first,
kanon-first at two t levels, and the standalone ``merge`` post-process on
the tight kanon-first partition) plus the fitted-model serving paths
(``transform`` of a 10k-record batch; the ``serve``/``serve-cached``
pair: the same batch pushed through the coalescing micro-batcher
in-process by concurrent clients with the transform cache off and on;
and the ``serve-keepalive``/``serve-mp`` pair: the same workload pushed
through the real HTTP front end of a ``repro serve`` subprocess over
persistent pipelined connections, single-worker and 2-worker
``SO_REUSEPORT`` respectively) on synthetic
data at n ∈ {1 000, 5 000, 20 000} and
writes the results to ``BENCH_engine.json`` at the repository root.  That
file is the repo's tracked performance trajectory: every PR that touches
the partition layer reruns this script and must not regress it.  See
``benchmarks/README.md`` for the JSON schema.

This is a standalone script, not a pytest benchmark, so CI can run it
directly::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py          # full
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --smoke  # CI

The synthetic dataset mirrors the paper's evaluation shape: a handful of
correlated income-like numeric quasi-identifiers plus one tie-free numeric
confidential attribute (so ``emd_mode="distinct"`` trackers apply and
Algorithm 3's bucket construction sees one record per rank).

Parameter choices: ``k = 5`` throughout; ``t = 0.05`` for tclose-first
(Eq. 3 then raises the effective cluster size to ~10 at large n);
kanon-first is timed at two levels — ``t = 0.4`` (loose: the measured cost
is the clustering loop plus the always-on tracker/merge bookkeeping) and
``t = 0.1`` (tight: tens of thousands of accepted swaps, the regime where
the sparse swap engine, the lazy pool and the adaptive scoring blocks
carry the load).

Every entry runs on the serial compute backend and records it
(``backend: "serial"``, ``threads: null``) with the machine's CPU count,
keeping the schema of entries recorded when parallel backends existed.

``--ceilings FILE`` additionally asserts the recorded times against the
checked-in per-entry budgets (``benchmarks/ceilings.json``) and exits
non-zero on a breach — the CI regression tripwire for the swap/merge
phases and the serving path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Anonymizer, KAnonymity, TCloseness  # noqa: E402
from repro.core.kanon_first import kanonymity_first  # noqa: E402
from repro.core.merge import microaggregation_merge  # noqa: E402
from repro.core.tclose_first import tcloseness_first  # noqa: E402
from repro.data import AttributeRole, Microdata, numeric  # noqa: E402
from repro.microagg import mdav, vmdav  # noqa: E402
from repro.serving import (  # noqa: E402
    CoalescingBatcher,
    HttpClient,
    ModelRegistry,
    TransformCache,
)

SIZES = (1_000, 5_000, 20_000)
SMOKE_SIZES = (300,)
K = 5
T_TCLOSE = 0.05
T_KANON = 0.4
T_KANON_TIGHT = 0.1
GAMMA = 0.2
SEED = 20160516  # the paper's conference date, for want of a better nothing
TRANSFORM_BATCH = 10_000
#: Serving-throughput workload: this many concurrent client coroutines,
#: each streaming the 10k-record batch through the coalescing batcher in
#: SERVE_CHUNK-row requests, for SERVE_ROUNDS passes.
SERVE_CLIENTS = 8
SERVE_ROUNDS = 2
SERVE_CHUNK = 1_250
#: Parsed-ahead requests each HTTP bench client keeps in flight on its
#: persistent connection (the pipelining half of the serve-keepalive and
#: serve-mp legs; the server's default pipeline_depth is deeper).
SERVE_PIPELINE_DEPTH = 4
#: Worker-process count of the serve-mp leg.
SERVE_MP_WORKERS = 2


def synthetic_dataset(n: int, d: int = 4, seed: int = SEED) -> Microdata:
    """Income-shaped numeric microdata with a tie-free confidential column."""
    rng = np.random.default_rng(seed + n)
    shared = rng.standard_normal(n)
    columns: dict[str, np.ndarray] = {}
    schema = []
    for i in range(d):
        latent = 0.6 * shared + 0.8 * rng.standard_normal(n)
        columns[f"qi{i}"] = 30_000.0 * np.exp(0.6 * latent)
        schema.append(numeric(f"qi{i}", role=AttributeRole.QUASI_IDENTIFIER))
    columns["secret"] = rng.permutation(np.arange(float(n)))
    schema.append(numeric("secret", role=AttributeRole.CONFIDENTIAL))
    return Microdata(columns, schema)


def current_commit() -> str:
    """Provenance stamp: the short HEAD hash, ``-dirty``-suffixed when the
    working tree has modifications beyond the bench output file itself.

    Every entry carries this stamp so the tracked trajectory is
    verifiable — ``scripts/check_bench_provenance.py`` (run by CI) rejects
    entries whose stamp is ``unknown``, dirty, or not a resolvable commit
    of this repository.  The output file is exempt from the dirty check
    because regenerating it is exactly the workflow being stamped:
    commit the source changes, rerun the bench from that clean tree, and
    commit the refreshed JSON (which then carries the source commit's
    hash) as a follow-up.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        head = out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):  # pragma: no cover
        return "unknown"
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        dirty = any(
            line.strip() and "BENCH_engine.json" not in line
            for line in status.stdout.splitlines()
        )
    except (OSError, subprocess.CalledProcessError):  # pragma: no cover
        dirty = True
    return head + "-dirty" if dirty else head


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def serve_throughput(serving_model, encoded: np.ndarray, cache_size: int) -> tuple[float, int]:
    """Sustained serving workload: SERVE_CLIENTS concurrent clients pushing
    the encoded batch through one coalescing batcher in SERVE_CHUNK-row
    requests, SERVE_ROUNDS passes each.  Returns (seconds, total rows).

    With ``cache_size=0`` every row reaches the backend's
    nearest-representative query (the coalescing-only leg); with the cache
    sized to hold the batch, the steady-state repeats resolve in the LRU
    and the backend only sees each distinct row once.
    """
    chunks = [
        encoded[i : i + SERVE_CHUNK] for i in range(0, len(encoded), SERVE_CHUNK)
    ]

    async def run() -> None:
        batcher = CoalescingBatcher(
            serving_model,
            max_batch_rows=4096,
            max_wait_ms=0.5,
            cache=TransformCache(cache_size),
        )

        async def client() -> None:
            for _ in range(SERVE_ROUNDS):
                for chunk in chunks:
                    await batcher.assign(chunk)

        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))

    seconds = timed(lambda: asyncio.run(run()))
    return seconds, SERVE_CLIENTS * SERVE_ROUNDS * len(encoded)


def spawn_serve(registry_dir: Path, workers: int) -> tuple[subprocess.Popen, int]:
    """Boot a ``repro serve`` subprocess; return (process, bound port).

    Cache disabled and a 0.5 ms coalescing deadline, matching the
    in-process ``serve`` leg so the keep-alive/multi-process rows are
    comparable: the delta is purely the HTTP front end and topology.
    """
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--registry", str(registry_dir),
        "--port", "0",
        "--cache-size", "0",
        "--max-wait-ms", "0.5",
    ]
    if workers > 1:
        argv += ["--workers", str(workers)]
    env = dict(
        os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONUNBUFFERED="1"
    )
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"bench server exited before announcing (rc={proc.wait()})"
            )
        if "model(s) on http://" in line:
            return proc, int(line.strip().rsplit(":", 1)[1])


async def _read_http_response(reader: asyncio.StreamReader) -> bytes:
    """One Content-Length-framed response body off a persistent stream."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    if head.split(b" ", 2)[1] != b"200":
        raise RuntimeError(f"bench request failed: {head!r}")
    return await reader.readexactly(length)


def serve_http_throughput(
    port: int, requests_raw: list[bytes], clients: int
) -> float:
    """Drive pre-serialized requests over persistent pipelined connections.

    Each of ``clients`` concurrent connections sends every raw request,
    keeping up to ``SERVE_PIPELINE_DEPTH`` in flight; request bytes are
    built outside the timed loop so the measurement is the server's HTTP
    + batcher + kernel path, not client-side JSON serialization (the
    in-process ``serve`` leg pre-encodes its rows for the same reason).
    Returns elapsed seconds.
    """

    async def one_client() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        pending = 0
        for raw in requests_raw:
            writer.write(raw)
            pending += 1
            if pending >= SERVE_PIPELINE_DEPTH:
                await _read_http_response(reader)
                pending -= 1
        await writer.drain()
        while pending:
            await _read_http_response(reader)
            pending -= 1
        writer.close()
        await writer.wait_closed()

    async def run() -> None:
        await asyncio.gather(*(one_client() for _ in range(clients)))

    return timed(lambda: asyncio.run(run()))


def run_benchmarks(sizes: tuple[int, ...]) -> list[dict]:
    commit = current_commit()
    cpus = os.cpu_count() or 1
    entries: list[dict] = []
    batch = synthetic_dataset(TRANSFORM_BATCH, seed=SEED + 77)

    def record(
        algorithm: str,
        n: int,
        t: float | None,
        seconds: float,
        rows_per_s: float | None = None,
        workers: int | None = None,
    ) -> None:
        entry = {
            "algorithm": algorithm,
            "n": n,
            "k": K,
            "t": t,
            "seconds": round(seconds, 4),
            "backend": "serial",
            "threads": None,
            "cpus": cpus,
            "commit": commit,
        }
        if rows_per_s is not None:
            entry["rows_per_s"] = round(rows_per_s)
        if workers is not None:
            entry["workers"] = workers
        entries.append(entry)
        t_str = "-" if t is None else f"{t:g}"
        w_str = "" if workers is None else f"w{workers}"
        r_str = "" if rows_per_s is None else f"  {rows_per_s:>10.0f} rows/s"
        print(
            f"{algorithm:>15s}  n={n:<6d} k={K} t={t_str:<5s} {w_str:>2s}"
            f" {seconds:8.3f}s{r_str}"
        )

    for n in sizes:
        data = synthetic_dataset(n)
        X = data.qi_matrix()
        record("mdav", n, None, timed(lambda: mdav(X, K)))
        record("vmdav", n, None, timed(lambda: vmdav(X, K, gamma=GAMMA)))
        record(
            "tclose-first", n, T_TCLOSE,
            timed(lambda: tcloseness_first(data, K, T_TCLOSE)),
        )
        record(
            "kanon-first", n, T_KANON,
            timed(lambda: kanonymity_first(data, K, T_KANON)),
        )
        record(
            "kanon-first", n, T_KANON_TIGHT,
            timed(lambda: kanonymity_first(data, K, T_KANON_TIGHT)),
        )
        # Algorithm 1's merge cascade, timed on its own: at tight t the
        # merge phase is the dominant cost the partner-search work
        # targets, and folding it into kanon-first's total would bury
        # a regression under the swap phase's noise.
        record(
            "merge", n, T_KANON_TIGHT,
            timed(lambda: microaggregation_merge(data, K, T_KANON_TIGHT)),
        )
        # Serving throughput: one fitted model, a 10k-record batch
        # through the backend's nearest-representative query.
        model = Anonymizer(KAnonymity(K) & TCloseness(T_TCLOSE)).fit(data)
        record(
            "transform", n, T_TCLOSE,
            timed(lambda: model.transform(batch)),
        )
        # Serving-layer throughput: the same model behind the
        # coalescing micro-batcher under concurrent clients, with the
        # transform cache disabled (`serve`: every row reaches the
        # backend) and sized to the batch (`serve-cached`: repeats
        # resolve in the LRU).  Rows are encoded once up front so the
        # pair isolates the assign path the batcher coalesces.
        encoded_batch = model.transform_model_.encode_batch(batch)
        for serve_algorithm, cache_size in (
            ("serve", 0),
            ("serve-cached", TRANSFORM_BATCH),
        ):
            seconds, rows = serve_throughput(
                model.transform_model_, encoded_batch, cache_size
            )
            record(
                serve_algorithm, n, T_TCLOSE, seconds,
                rows_per_s=rows / seconds,
            )
        # End-to-end HTTP serving throughput: the same workload over
        # the real front end of a `repro serve` subprocess — raw
        # request bytes pre-serialized, SERVE_CLIENTS persistent
        # connections pipelining SERVE_PIPELINE_DEPTH requests each.
        # `serve-keepalive` is one worker; `serve-mp` pre-forks
        # SERVE_MP_WORKERS sharing the port via SO_REUSEPORT (on a
        # single-CPU container the extra worker just adds scheduling
        # overhead — the cpus field keeps that honest).
        qi_labels = {
            f"qi{i}": batch.labels(f"qi{i}") for i in range(4)
        }
        requests_raw = []
        for start in range(0, len(batch), SERVE_CHUNK):
            body = json.dumps(
                {
                    "records": {
                        name: col[start : start + SERVE_CHUNK].tolist()
                        for name, col in qi_labels.items()
                    }
                }
            ).encode()
            requests_raw.append(
                b"POST /v1/assign HTTP/1.1\r\nHost: bench\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
        requests_raw *= SERVE_ROUNDS
        total_rows = SERVE_CLIENTS * SERVE_ROUNDS * len(batch)
        direct_head = model.transform_model_.assign_encoded(
            encoded_batch[:SERVE_CHUNK]
        )
        with tempfile.TemporaryDirectory() as scratch:
            registry_dir = Path(scratch) / "registry"
            ModelRegistry(registry_dir).publish("bench", model)
            for serve_algorithm, n_workers in (
                ("serve-keepalive", 1),
                ("serve-mp", SERVE_MP_WORKERS),
            ):
                proc, port = spawn_serve(registry_dir, n_workers)
                try:
                    # Fidelity gate outside the timed loop: the HTTP
                    # answer must match the direct kernel query.
                    with HttpClient("127.0.0.1", port) as probe:
                        status, reply = probe.request(
                            "POST",
                            "/v1/assign",
                            json.loads(requests_raw[0].split(
                                b"\r\n\r\n", 1
                            )[1]),
                        )
                    if status != 200 or reply["assignments"] != list(
                        map(int, direct_head)
                    ):
                        raise RuntimeError(
                            f"served assignments diverge ({status})"
                        )
                    seconds = serve_http_throughput(
                        port, requests_raw, SERVE_CLIENTS
                    )
                finally:
                    proc.send_signal(signal.SIGTERM)
                    proc.communicate(timeout=60)
                record(
                    serve_algorithm, n, T_TCLOSE, seconds,
                    rows_per_s=total_rows / seconds,
                    workers=n_workers,
                )
        # Checkpoint overhead: the same tight kanon-first fit through
        # the full lifecycle, plain vs checkpointed at the default
        # cadence.  Tracked as a pair so the crash-safety layer's cost
        # stays visible in the trajectory (it must remain marginal —
        # < 5% at n=20k).  Best-of-two per leg: the entries feed a
        # ratio of ~seconds-scale runs, where one bad scheduling
        # moment would otherwise dominate the comparison.
        ckpt_policy = KAnonymity(K) & TCloseness(T_KANON_TIGHT)

        def fit_kanon(checkpoint=None):
            Anonymizer(ckpt_policy, method="kanon-first").fit(
                data, checkpoint=checkpoint
            )

        record(
            "fit-kanon", n, T_KANON_TIGHT,
            min(timed(fit_kanon) for _ in range(2)),
        )

        def fit_checkpointed() -> float:
            with tempfile.TemporaryDirectory() as scratch:
                return timed(
                    lambda: fit_kanon(checkpoint=Path(scratch) / "ck")
                )

        record(
            "fit-kanon-ckpt", n, T_KANON_TIGHT,
            min(fit_checkpointed() for _ in range(2)),
        )
    return entries


def entry_key(entry: dict) -> str:
    """Ceiling-file key, e.g. ``kanon-first@n=5000,t=0.1``."""
    t = "-" if entry["t"] is None else f"{entry['t']:g}"
    return f"{entry['algorithm']}@n={entry['n']},t={t}"


def check_ceilings(entries: list[dict], ceilings_path: Path) -> int:
    """Assert recorded seconds against the checked-in per-entry budgets."""
    ceilings = json.loads(ceilings_path.read_text())
    status = 0
    for entry in entries:
        key = entry_key(entry)
        if key not in ceilings:
            continue
        budget = float(ceilings[key])
        verdict = "within" if entry["seconds"] <= budget else "OVER"
        print(f"ceiling {key}: {entry['seconds']:.3f}s vs {budget:g}s — {verdict}")
        if entry["seconds"] > budget:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run (n=300) that exercises the harness without the cost",
    )
    parser.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated dataset sizes overriding the default sweep",
    )
    parser.add_argument(
        "--ceilings",
        type=Path,
        default=None,
        help="JSON of per-entry wall-clock budgets to assert (exit 1 on breach)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="output JSON path (default: BENCH_engine.json at the repo root)",
    )
    args = parser.parse_args()

    if args.sizes is not None:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    elif args.smoke:
        sizes = SMOKE_SIZES
    else:
        sizes = SIZES
    entries = run_benchmarks(sizes)
    payload = {
        "benchmark": "engine_scaling",
        "schema": "benchmarks/README.md#bench_enginejson",
        "schema_version": 5,
        "entries": entries,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if args.ceilings is not None:
        return check_ceilings(entries, args.ceilings)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
