"""The anonymization service: registry-backed models behind an HTTP loop.

:class:`AnonymizationService` is the composition root of the serving
package.  It loads every active model from a
:class:`~repro.serving.registry.ModelRegistry` (memory-mapped by
default, so parallel workers share pages), fronts each with its own
:class:`~repro.serving.cache.TransformCache` and
:class:`~repro.serving.batcher.CoalescingBatcher`, and exposes the
result over the persistent-connection HTTP front end in
:mod:`repro.serving.http`:

========================  ======================================================
``GET  /healthz``          liveness + loaded model count
``GET  /metrics``          :class:`~repro.serving.metrics.ServingMetrics` snapshot
``GET  /v1/models``        registry listing + live model metadata
``POST /v1/models/<name>/activate``   hot-swap to ``{"version": ...}``
``POST /v1/models/<name>/rollback``   hot-swap back to the previous version
``POST /v1/transform``     anonymize ``{"model": ..., "records": {col: [...]}}``
``POST /v1/assign``        cluster ids only, same request shape
========================  ======================================================

Transform responses are bit-for-bit identical to calling
``Anonymizer.transform`` directly on the same rows — coalescing stacks
row-independent queries, the cache keys on exact encoded bytes, and the
hot-swap warm-up only ever stores results computed by the *new* model,
so none of them can change a result (the differential serving tests and
the CI smoke assert this end to end, across keep-alive, pipelined and
multi-worker topologies).  Activation and rollback swap the live model
between requests without dropping the listener: in-flight batches
finish against the model they were queued under, and the hottest cached
rows are replayed into the new model's cache before the swap completes.

Responses are pre-rendered.  Microaggregation releases each record's
quasi-identifiers as its cluster's representative, so every QI value a
transform returns is one of the model's R representative rows.  When a
model is loaded, :func:`qi_fragments` renders each representative's
label per QI column as ``json.dumps`` text once; a transform body is
then a bytes join of those fragments by assignment, and only the
pass-through columns, the assignments and the names are encoded per
request.  The body is byte-identical to ``json.dumps(payload,
sort_keys=True)`` of the dict the endpoint describes, which the
differential serving tests pin.  Fitting never builds the fragments:
only a served model pays their memory (about 1.1 MB at 5,000
representatives by 4 QI columns, per worker process).

Under overload the service degrades loudly instead of slowly: beyond
the bounded admission queue, requests get a typed ``429`` JSON error
with ``Retry-After`` (see
:class:`~repro.serving.batcher.OverloadedError`), keeping queue depth —
and therefore latency — bounded.

For multi-process topologies (``serve --workers N``, see
:mod:`repro.serving.workers`) each worker runs one service instance on
a shared port; ``metrics_dir`` makes every worker persist per-worker
snapshot files that ``/metrics`` merges at scrape time, and
``watch_registry_s`` makes workers poll the registry's ACTIVE pointers
so a hot swap performed through any worker propagates to all of them.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
from pathlib import Path

import numpy as np

from ..backend import SerialBackend, resolve_backend
from ..core.validation import BatchSchemaError
from ..data.dataset import Microdata, SchemaError
from ..runtime.atomic import ArtifactError
from .batcher import CoalescingBatcher, OverloadedError
from .cache import TransformCache
from .http import (
    ConnectionLimits,
    HttpError,
    Request,
    run_connection,
)
from .metrics import ServingMetrics, merge_snapshots
from .model import TransformModel
from .registry import ModelRegistry, ModelRegistryError


def qi_fragments(model: TransformModel) -> dict[str, list[bytes]]:
    """Each representative's release label per QI column, as JSON bytes.

    Entry ``[name][r]`` is ``json.dumps`` of the label
    ``apply_assignment(batch, ids).labels(name)`` yields for a row
    assigned to representative ``r``: the representative values go
    through the same column coercion and label decoding, so a response
    joined from these fragments has the bytes ``json.dumps`` would give.
    """
    specs = {spec.name: spec for spec in model.schema}
    representatives = Microdata(
        {
            name: model.representatives[:, j]
            for j, name in enumerate(model.qi_names)
        },
        [specs[name] for name in model.qi_names],
    )
    return {
        name: [
            json.dumps(label).encode()
            for label in representatives.labels(name).tolist()
        ]
        for name in model.qi_names
    }


class _LiveModel:
    """One served model: its version, transform state, cache, batcher and
    the pre-rendered QI fragments of its responses."""

    __slots__ = ("name", "version", "model", "cache", "batcher", "fragments")

    def __init__(
        self,
        name: str,
        version: str,
        model: TransformModel,
        cache: TransformCache,
        batcher: CoalescingBatcher,
        fragments: dict[str, list[bytes]],
    ) -> None:
        self.name = name
        self.version = version
        self.model = model
        self.cache = cache
        self.batcher = batcher
        self.fragments = fragments


class AnonymizationService:
    """Serve every active model of a registry over HTTP.

    Parameters
    ----------
    registry:
        A :class:`~repro.serving.registry.ModelRegistry` or its root
        directory.
    backend:
        Compute backend for the nearest-representative queries (any
        :func:`~repro.backend.resolve_backend` spec).
    mmap_mode:
        Forwarded to the registry loads; the default ``"r"`` maps model
        arrays read-only so parallel workers share page-cache pages.
        ``None`` copies them into private memory instead.
    max_batch_rows, max_wait_ms:
        The coalescing policy (see
        :class:`~repro.serving.batcher.CoalescingBatcher`).
    max_queue_rows:
        Admission bound per model: requests that would push the pending
        backlog past this many rows are answered ``429`` with
        ``Retry-After`` instead of queueing (``0`` = unbounded, the
        pre-backpressure behavior).
    cache_size:
        Per-model :class:`~repro.serving.cache.TransformCache` budget in
        rows; ``0`` disables caching (the serving benchmark's uncached
        leg).
    warmup_rows:
        On a hot swap, replay up to this many of the old cache's hottest
        encoded rows through the new model to pre-heat its cache
        (``0`` disables warm-up).
    idle_timeout_s, max_requests_per_connection, pipeline_depth:
        Per-connection limits (see
        :class:`~repro.serving.http.ConnectionLimits`).
    metrics_dir:
        Multi-worker metrics directory: when set, this worker persists
        its snapshot to ``metrics-<pid>.json`` in it before it reports
        ready and after every request, and ``/metrics`` merges every
        worker's file at scrape time.
    watch_registry_s:
        Poll the registry's ACTIVE pointers this often (seconds) and hot
        swap on change — how sibling workers observe an activate or
        rollback performed through any one of them.  ``0`` disables.
    metrics:
        Optional shared :class:`~repro.serving.metrics.ServingMetrics`;
        one is created when omitted.
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        *,
        backend: SerialBackend | str | None = None,
        mmap_mode: str | None = "r",
        max_batch_rows: int = 4096,
        max_wait_ms: float = 2.0,
        max_queue_rows: int = 0,
        cache_size: int = 4096,
        warmup_rows: int = 4096,
        idle_timeout_s: float = 60.0,
        max_requests_per_connection: int = 0,
        pipeline_depth: int = 16,
        metrics_dir: str | Path | None = None,
        watch_registry_s: float = 0.0,
        metrics: ServingMetrics | None = None,
    ) -> None:
        self.registry = (
            registry
            if isinstance(registry, ModelRegistry)
            else ModelRegistry(registry)
        )
        self.backend = resolve_backend(backend)  # eager: unknown names fail here
        self.mmap_mode = mmap_mode
        self.max_batch_rows = int(max_batch_rows)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue_rows = int(max_queue_rows)
        self.cache_size = int(cache_size)
        self.warmup_rows = int(warmup_rows)
        self.limits = ConnectionLimits(
            idle_timeout_s=idle_timeout_s,
            max_requests=max_requests_per_connection,
            pipeline_depth=pipeline_depth,
        )
        self.metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
        self.watch_registry_s = float(watch_registry_s)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._models: dict[str, _LiveModel] = {}
        self._draining: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- model lifecycle -----------------------------------------------------------

    def load_models(self) -> list[str]:
        """(Re)load every registry model with an active version; return names."""
        for name in self.registry.names():
            if self.registry.active_version(name) is not None:
                self.reload_model(name)
        return sorted(self._models)

    def reload_model(self, name: str) -> _LiveModel:
        """Load ``name``'s active version and swap it live.

        The fresh model gets a fresh cache (entries keyed on the old
        version's encoding must not answer for the new one), a fresh
        batcher and its own response fragments (:func:`qi_fragments`;
        the old model's must never answer for the new one either).
        Before the swap completes, the old cache's hottest encoded rows
        are replayed through the *new* model (:meth:`_warm_cache`) so the
        post-swap hit rate does not fall off a cliff; the stored results
        are computed by the new model, so the bit-for-bit contract is
        untouched.  The swap itself is a single dict assignment on the
        event-loop thread, so requests observe either the old model or
        the new one, never a mixture; an in-flight request renders with
        the live model it resolved.
        """
        version = self.registry.active_version(name)
        if version is None:
            raise ModelRegistryError(
                f"model {name!r} has no active version to load"
            )
        model = self.registry.load(
            name, version, backend=self.backend, mmap_mode=self.mmap_mode
        )
        cache = TransformCache(max_size=self.cache_size)
        old = self._models.get(name)
        if old is not None:
            self._warm_cache(old, model, cache)
        batcher = CoalescingBatcher(
            model,
            max_batch_rows=self.max_batch_rows,
            max_wait_ms=self.max_wait_ms,
            max_queue_rows=self.max_queue_rows,
            cache=cache,
            metrics=self.metrics,
        )
        live = _LiveModel(
            name, version, model, cache, batcher, qi_fragments(model)
        )
        self._models[name] = live
        return live

    def _warm_cache(
        self, old: _LiveModel, model: TransformModel, cache: TransformCache
    ) -> int:
        """Replay the old cache's hottest keys into the new model's cache.

        Strictly best-effort: keys whose byte width does not match the
        new model's encoding (a schema-changing republish) are skipped,
        and any failure leaves the new cache simply cold.  Returns the
        number of rows warmed.
        """
        if not cache.enabled or self.warmup_rows <= 0:
            return 0
        keys = old.cache.hottest(self.warmup_rows)
        if not keys:
            return 0
        width = int(model.encoded_representatives.shape[1])
        row_bytes = width * np.dtype(np.float64).itemsize
        keys = [key for key in keys if len(key) == row_bytes]
        if not keys:
            return 0
        try:
            rows = np.frombuffer(b"".join(keys), dtype=np.float64)
            rows = rows.reshape(len(keys), width)
            assignment = model.assign_encoded(rows)
            cache.store_rows(rows, assignment)
        except Exception:  # pragma: no cover - warm-up must never block a swap
            return 0
        return len(keys)

    def _resolve_model(self, name: str | None) -> _LiveModel:
        """The live model a request addresses (defaulting when unambiguous)."""
        if name is None:
            if len(self._models) == 1:
                return next(iter(self._models.values()))
            raise HttpError(
                422,
                f"request must name a model (loaded: {sorted(self._models)})",
            )
        live = self._models.get(name)
        if live is None:
            raise HttpError(
                404,
                f"no model {name!r} is loaded (loaded: {sorted(self._models)})",
            )
        return live

    # -- request handling ----------------------------------------------------------

    async def handle(
        self, request: Request
    ) -> tuple[str, int, dict | bytes, int]:
        """Route one request; return ``(endpoint, status, payload, rows)``.

        ``payload`` is a dict to encode, or for ``/v1/transform`` and
        ``/v1/assign`` the already-encoded JSON body as bytes; either way
        :func:`~repro.serving.http.render_response` frames it.
        """
        path = request.path.rstrip("/") or "/"
        try:
            if path == "/healthz":
                return "healthz", 200, self._healthz(), 0
            if path == "/metrics":
                return "metrics", 200, self._metrics_payload(), 0
            if path == "/v1/models":
                self._require_method(request, "GET")
                return "models", 200, self._list_models(), 0
            if path.startswith("/v1/models/"):
                return self._model_action(request, path)
            if path == "/v1/transform":
                self._require_method(request, "POST")
                payload, rows = await self._transform(request, assign_only=False)
                return "transform", 200, payload, rows
            if path == "/v1/assign":
                self._require_method(request, "POST")
                payload, rows = await self._transform(request, assign_only=True)
                return "assign", 200, payload, rows
            raise HttpError(404, f"no such endpoint {request.path!r}")
        except (BatchSchemaError, SchemaError) as exc:
            raise HttpError(422, str(exc))
        except ModelRegistryError as exc:
            raise HttpError(404, str(exc))
        except ArtifactError as exc:
            raise HttpError(503, str(exc))
        except OverloadedError as exc:
            raise HttpError(
                429,
                str(exc),
                error_type="overloaded",
                retry_after_s=exc.retry_after_s,
            )

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        """405 unless the request uses ``method``."""
        if request.method != method:
            raise HttpError(
                405, f"{request.path} requires {method}, got {request.method}"
            )

    def _healthz(self) -> dict:
        """Liveness payload."""
        return {"status": "ok", "models": sorted(self._models), "pid": os.getpid()}

    def _metrics_payload(self) -> dict:
        """This worker's snapshot, or the merged fleet view in worker mode."""
        if self.metrics_dir is None:
            return self.metrics.snapshot()
        # Refresh this worker's file first so the merge includes the
        # request counts up to (but excluding) this very scrape.
        self.metrics.persist(self._metrics_path())
        snapshots = []
        for path in sorted(self.metrics_dir.glob("metrics-*.json")):
            try:
                snapshots.append(json.loads(path.read_text()))
            except (OSError, ValueError):  # pragma: no cover - racing worker
                continue
        return merge_snapshots(snapshots)

    def _metrics_path(self) -> Path:
        return self.metrics_dir / f"metrics-{os.getpid()}.json"

    def _list_models(self) -> dict:
        """Registry listing enriched with live model metadata."""
        listing = self.registry.describe()
        for name, entry in listing.items():
            live = self._models.get(name)
            if live is not None:
                entry["loaded"] = live.version
                entry["model"] = live.model.describe()
                entry["cache_size"] = len(live.cache)
        return {"models": listing}

    def _model_action(
        self, request: Request, path: str
    ) -> tuple[str, int, dict, int]:
        """``/v1/models/<name>/activate`` and ``.../rollback``."""
        parts = path.split("/")
        if len(parts) != 5:
            raise HttpError(404, f"no such endpoint {request.path!r}")
        _, _, _, name, action = parts
        self._require_method(request, "POST")
        if action == "activate":
            version = request.json().get("version")
            if not isinstance(version, str):
                raise HttpError(
                    422, 'activate requires a JSON body {"version": "<v>"}'
                )
            self.registry.activate(name, version)
        elif action == "rollback":
            version = self.registry.rollback(name)
        else:
            raise HttpError(404, f"no such model action {action!r}")
        live = self.reload_model(name)
        return (
            action,
            200,
            {"model": name, "active": live.version},
            0,
        )

    async def _transform(
        self, request: Request, *, assign_only: bool
    ) -> tuple[bytes, int]:
        """Shared body of ``/v1/transform`` and ``/v1/assign``.

        Returns the response as already-encoded JSON bytes: the text of
        ``json.dumps(out, sort_keys=True)`` for the payload ``out`` with
        keys ``assignments``, ``model``, ``n_records``, ``version`` and,
        for a transform, ``records`` — the release batch
        ``apply_assignment`` builds, one label list per column.  Each QI
        column is joined from the live model's pre-rendered fragments
        (:func:`qi_fragments`) by assignment, so only the pass-through
        columns, the assignments and the names are encoded per request.
        The fragments come from the same ``live`` that assigned the
        rows, so a hot swap mid-request cannot mix two models.
        """
        payload = request.json()
        records = payload.get("records")
        if not isinstance(records, dict) or not records:
            raise HttpError(
                422,
                'request must carry {"records": {"<column>": [values...]}}',
            )
        live = self._resolve_model(payload.get("model"))
        model = live.model
        schema = model.batch_schema(available=tuple(records))
        batch = Microdata({s.name: records[s.name] for s in schema}, schema)
        encoded = model.encode_batch(batch)
        assignment = await live.batcher.assign(encoded)
        n = int(len(batch))
        ids = assignment.tolist()
        parts = [
            b'{"assignments": ',
            json.dumps(ids).encode(),
            b', "model": ',
            json.dumps(live.name).encode(),
            b', "n_records": ',
            str(n).encode(),
        ]
        if not assign_only:
            # Identifier columns never reach the batch (batch_schema drops
            # them), so the release's columns are the batch's.
            columns = []
            for name in sorted(batch.attribute_names):
                fragments = live.fragments.get(name)
                if fragments is None:
                    column = json.dumps(batch.labels(name).tolist()).encode()
                else:
                    joined = b", ".join(map(fragments.__getitem__, ids))
                    column = b"[" + joined + b"]"
                columns.append(json.dumps(name).encode() + b": " + column)
            parts += [b', "records": {', b", ".join(columns), b"}"]
        parts += [b', "version": ', json.dumps(live.version).encode(), b"}"]
        return b"".join(parts), n

    # -- the connection loop -------------------------------------------------------

    async def _respond(
        self, request: Request
    ) -> tuple[int, dict | bytes, dict[str, str] | None]:
        """Route one request to ``(status, payload, headers)``; never raises."""
        started = time.perf_counter()
        endpoint, status, rows, headers = "other", 500, 0, None
        try:
            try:
                endpoint, status, payload, rows = await self.handle(request)
            except HttpError as exc:
                status = exc.status
                payload = exc.payload()
                headers = exc.headers()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # unexpected: answer 500, keep serving
                status = 500
                payload = {"error": f"{exc.__class__.__name__}: {exc}"}
        finally:
            self.metrics.record_request(
                endpoint,
                time.perf_counter() - started,
                rows=rows,
                error=status >= 400,
            )
            if self.metrics_dir is not None:
                try:
                    self.metrics.persist(self._metrics_path())
                except OSError:  # pragma: no cover - metrics dir vanished
                    pass
        return status, payload, headers

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one persistent connection: parse ahead, answer in order."""
        self.metrics.record_connection()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await run_connection(
                reader,
                writer,
                self._respond,
                self.limits,
                draining=self._draining,
            )
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer reset
                pass
            finally:
                # Only now: the shutdown drain waits for every task in
                # this set, so a task still closing must stay in it.
                # Dropped earlier, asyncio.run's teardown would cancel it
                # mid-close and Python 3.11's stream callback would log
                # the cancellation as an error.
                if task is not None:
                    self._conn_tasks.discard(task)

    async def _watch_registry(self) -> None:
        """Poll ACTIVE pointers; hot swap when another worker moved one."""
        while True:
            await asyncio.sleep(self.watch_registry_s)
            try:
                names = self.registry.names()
            except OSError:  # pragma: no cover - registry dir vanished
                continue
            for name in names:
                try:
                    active = self.registry.active_version(name)
                except (OSError, ValueError):  # pragma: no cover - mid-write
                    continue
                if active is None:
                    continue
                live = self._models.get(name)
                if live is None or live.version != active:
                    try:
                        self.reload_model(name)
                    except (ModelRegistryError, ArtifactError, OSError):
                        # A torn publish or concurrent prune: keep the
                        # current model and retry next tick.
                        continue

    async def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        sock: socket.socket | None = None,
        quiet: bool = False,
        drain_timeout_s: float = 10.0,
        ready_callback=None,
    ) -> None:
        """Run the listener until SIGTERM/SIGINT, then shut down cleanly.

        ``port=0`` binds an ephemeral port; the announcement line (and
        the smoke harness parsing it) reports the bound one.  ``sock``
        serves an externally prepared listening socket instead (the
        multi-worker topology passes each worker its ``SO_REUSEPORT``
        listener or the parent's inherited one).  Shutdown is a graceful
        drain: stop accepting, let every in-flight response finish (its
        ``Connection: close`` tells the client this session is over),
        close idle keep-alive connections immediately, force-close
        stragglers after ``drain_timeout_s``, then flush pending batches
        — no traceback, which the CI smoke asserts.
        """
        if not self._models:
            self.load_models()
        if self.metrics_dir is not None:
            # Before this worker reports ready: a scrape answered by a
            # sibling must count it even before it answers anything.
            self.metrics.persist(self._metrics_path())
        self._draining = asyncio.Event()
        if sock is not None:
            server = await asyncio.start_server(self._handle_connection, sock=sock)
        else:
            server = await asyncio.start_server(
                self._handle_connection, host, port
            )
        bound = server.sockets[0].getsockname()[1]
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        watcher = (
            asyncio.create_task(self._watch_registry())
            if self.watch_registry_s > 0
            else None
        )
        if not quiet:
            print(
                f"serving {len(self._models)} model(s) on http://{host}:{bound}",
                flush=True,
            )
        if ready_callback is not None:
            ready_callback(bound, sorted(self._models))
        try:
            await stop.wait()
        finally:
            if watcher is not None:
                watcher.cancel()
            self._draining.set()
            server.close()
            await server.wait_closed()
            if self._conn_tasks:
                # Idle connections notice the drain event immediately;
                # busy ones finish their in-flight responses first.
                done, pending = await asyncio.wait(
                    set(self._conn_tasks), timeout=drain_timeout_s
                )
                for task in pending:  # pragma: no cover - pathological client
                    task.cancel()
            for live in self._models.values():
                await live.batcher.flush()
            if self.metrics_dir is not None:
                try:
                    self.metrics.persist(self._metrics_path())
                except OSError:  # pragma: no cover
                    pass
        if not quiet:
            print("serving stopped", flush=True)

    def run(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        sock: socket.socket | None = None,
        quiet: bool = False,
        ready_callback=None,
    ) -> None:
        """Blocking wrapper around :meth:`serve` (the CLI entry point)."""
        try:
            asyncio.run(
                self.serve(
                    host,
                    port,
                    sock=sock,
                    quiet=quiet,
                    ready_callback=ready_callback,
                )
            )
        except KeyboardInterrupt:  # pragma: no cover - ^C without handler
            pass
