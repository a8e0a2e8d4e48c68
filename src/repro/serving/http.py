"""Persistent-connection HTTP/1.1 plumbing over asyncio streams.

The repo's posture is numpy-only at runtime, so the serving front end
cannot lean on aiohttp or another framework.  This module is the small
amount of HTTP the service actually needs, written against
``asyncio.start_server`` streams — but unlike the first cut (one
request per connection, ``Connection: close``), it is a real HTTP/1.1
state machine built for sustained load:

* **keep-alive by default** — HTTP/1.1 connections persist across
  requests (``Connection: close`` honored, HTTP/1.0 closes unless the
  client asks ``keep-alive``), so a client pays the TCP connect once
  per session, not once per request;
* **request pipelining** — :func:`run_connection` parses ahead on the
  buffered stream while earlier requests are still computing, and a
  single writer coroutine emits the responses strictly in request
  order (the pipeline depth is bounded, so a flood of parsed-ahead
  requests cannot queue unbounded work);
* **strict framing** — bodies require ``Content-Length`` (``411`` on a
  body-carrying method without one), the 64 MiB body cap is enforced
  from the *header* before a single body byte is buffered (``413``),
  and absurd or malformed lengths are typed ``400``s;
* **per-connection limits** — an idle timeout between requests and a
  max-requests-per-connection cap (the final response carries
  ``Connection: close``), both in :class:`ConnectionLimits`.

Deliberate non-goals, documented so nobody grows them accidentally:
no chunked transfer encoding, no TLS, no multipart.  The service's
requests are small JSON bodies and its deployment story is a trusted
network behind the caller's own ingress; each omission keeps the
parser small enough to audit.

The client half lives here too: :class:`HttpClient` is a blocking
keep-alive JSON client (stdlib ``http.client`` underneath, reconnecting
transparently when the server rotates the connection) used by the CLI,
the examples, the smoke check and the serving benchmark;
:func:`http_json` remains the one-shot helper for single requests.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import time
from urllib.parse import parse_qsl, urlsplit

#: Upper bound on one request line or header line, bytes.
_MAX_LINE = 16 * 1024

#: Upper bound on the number of header lines in one request.
_MAX_HEADERS = 128

#: Upper bound on request bodies, bytes (batches beyond this belong in
#: files).  Enforced from the ``Content-Length`` header *before* any body
#: byte is read, so an oversized declaration cannot make the server
#: buffer the payload first.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Methods whose requests carry a body and therefore must declare
#: ``Content-Length`` (411 otherwise).
_BODY_METHODS = frozenset({"POST", "PUT", "PATCH"})

#: Reason phrases for the statuses the service emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that must be answered with an HTTP error status.

    Raised by the parser and by endpoint handlers; the connection loop
    turns it into a JSON error body with the carried ``status``.
    ``error_type`` (when set) becomes a machine-readable ``"type"``
    field in the JSON body, and ``retry_after_s`` is surfaced both in
    the body and as a ``Retry-After`` response header (ceiled to whole
    seconds, per RFC 9110's delta-seconds grammar) — the 429 overload
    contract.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        error_type: str | None = None,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.error_type = error_type
        self.retry_after_s = retry_after_s

    def payload(self) -> dict:
        """The JSON error body."""
        out: dict = {"error": self.message}
        if self.error_type is not None:
            out["type"] = self.error_type
        if self.retry_after_s is not None:
            out["retry_after_s"] = self.retry_after_s
        return out

    def headers(self) -> dict[str, str] | None:
        """Extra response headers (``Retry-After`` for 429s)."""
        if self.retry_after_s is None:
            return None
        return {"Retry-After": str(max(0, math.ceil(self.retry_after_s)))}


class Request:
    """One parsed HTTP request: method, path, query, headers, body."""

    __slots__ = ("method", "path", "query", "headers", "body", "version")

    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
        version: str = "HTTP/1.1",
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.version = version

    @property
    def keep_alive(self) -> bool:
        """Whether HTTP semantics allow reusing the connection after this.

        HTTP/1.1 defaults to persistent unless the client sent
        ``Connection: close``; HTTP/1.0 defaults to closing unless the
        client asked for ``keep-alive``.
        """
        tokens = {
            token.strip().lower()
            for token in self.headers.get("connection", "").split(",")
            if token.strip()
        }
        if self.version == "HTTP/1.0":
            return "keep-alive" in tokens
        return "close" not in tokens

    def json(self) -> dict:
        """The body parsed as a JSON object (422 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(422, f"request body is not valid JSON ({exc})")
        if not isinstance(payload, dict):
            raise HttpError(422, "request body must be a JSON object")
        return payload


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One CRLF-terminated line, typed 400s on overrun/truncation."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise _CleanEOF()
        raise HttpError(400, f"truncated {what}")
    except asyncio.LimitOverrunError:
        raise HttpError(400, f"{what} too long")
    if len(line) > _MAX_LINE:
        raise HttpError(400, f"{what} too long")
    return line


class _CleanEOF(Exception):
    """Peer closed between requests — not an error, just end of session."""


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request from a stream; ``None`` on a cleanly closed peer.

    Safe to call repeatedly on the same stream — anything the peer sent
    beyond this request stays buffered for the next call, which is what
    makes pipelined back-to-back requests in a single segment work.
    Malformed requests raise :class:`HttpError` (400/411/413) for the
    connection loop to answer.
    """
    try:
        line = await _read_line(reader, "request line")
    except _CleanEOF:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {line!r}")
    method, target, version = parts[0].upper(), parts[1], parts[2]
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))

    headers: dict[str, str] = {}
    while True:
        if len(headers) > _MAX_HEADERS:
            raise HttpError(400, "too many header lines")
        try:
            line = await _read_line(reader, "header line")
        except _CleanEOF:
            raise HttpError(400, "truncated header block")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")
    body = b""
    length = headers.get("content-length")
    if length is None:
        if method in _BODY_METHODS:
            raise HttpError(
                411,
                f"{method} requests must declare Content-Length",
                error_type="length_required",
            )
    else:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length {length!r}")
        if n < 0:
            raise HttpError(400, f"bad Content-Length {length!r}")
        # The body cap is enforced here, from the declared length, so an
        # oversized request is refused before any body byte is buffered.
        if n > MAX_BODY_BYTES:
            raise HttpError(
                413,
                f"request body of {n} bytes exceeds {MAX_BODY_BYTES}",
                error_type="payload_too_large",
            )
        if n:
            try:
                body = await reader.readexactly(n)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "request body shorter than Content-Length")
    return Request(method, split.path, query, headers, body, version)


def render_response(
    status: int,
    payload: object,
    *,
    keep_alive: bool = False,
    headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one complete JSON response with explicit framing.

    A ``bytes`` payload is already-encoded JSON and is sent as is; any
    other payload is encoded as ``json.dumps(payload, sort_keys=True)``.
    Both get the same trailing newline and framing, so a bytes payload
    equal to that encoding yields the identical response.
    ``Content-Length`` is always present, so clients can frame responses
    on a persistent connection; ``Connection`` reflects whether the
    server will keep this connection open.
    """
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    extra = ""
    if headers:
        extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body) + 1}\r\n"
        f"{extra}"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    ).encode("latin-1")
    return b"".join((head, body, b"\n"))


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    *,
    keep_alive: bool = False,
    headers: dict[str, str] | None = None,
) -> None:
    """Write a JSON response and flush it."""
    writer.write(
        render_response(status, payload, keep_alive=keep_alive, headers=headers)
    )
    await writer.drain()


class ConnectionLimits:
    """Per-connection policy knobs for :func:`run_connection`.

    Parameters
    ----------
    idle_timeout_s:
        Close a keep-alive connection after this many seconds without a
        complete next request (also bounds how long a half-sent request
        can stall the connection).  ``0`` disables the timeout.
    max_requests:
        Serve at most this many requests per connection, answering the
        last one with ``Connection: close`` (bounds per-connection state
        lifetime behind long-lived proxies).  ``0`` means unlimited.
    pipeline_depth:
        Maximum number of parsed-ahead requests in flight per
        connection; parsing stalls (TCP backpressure) beyond it.
    """

    __slots__ = ("idle_timeout_s", "max_requests", "pipeline_depth")

    def __init__(
        self,
        idle_timeout_s: float = 60.0,
        max_requests: int = 0,
        pipeline_depth: int = 16,
    ) -> None:
        if pipeline_depth < 1:
            raise ValueError("pipeline_depth must be at least 1")
        self.idle_timeout_s = float(idle_timeout_s)
        self.max_requests = int(max_requests)
        self.pipeline_depth = int(pipeline_depth)


async def run_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    respond,
    limits: ConnectionLimits | None = None,
    *,
    draining: asyncio.Event | None = None,
) -> int:
    """Serve one persistent connection until close/timeout/limit; return
    the number of requests parsed.

    ``respond`` is an ``async (Request) -> (status, payload, headers)``
    callable that must not raise (the service maps everything to typed
    JSON errors).  Requests are parsed ahead (up to
    ``limits.pipeline_depth`` in flight) and dispatched concurrently;
    a single writer coroutine emits the responses strictly in request
    order, which is the HTTP/1.1 pipelining contract.

    When ``draining`` is set (graceful shutdown), in-flight responses
    finish and are written with ``Connection: close``; idle connections
    close immediately.
    """
    limits = limits if limits is not None else ConnectionLimits()
    # (task-or-None, keep_alive) pairs; None task = sentinel to stop.
    queue: asyncio.Queue = asyncio.Queue(maxsize=limits.pipeline_depth)
    broken = asyncio.Event()  # writer hit a dead socket; stop parsing

    async def writer_loop() -> None:
        """Emit responses in request order; survive a dead peer quietly.

        Never returns before consuming the sentinel — the parse loop
        relies on that to make its ``queue.put`` calls terminate.
        """
        while True:
            item = await queue.get()
            if item is None:
                return
            task, keep = item
            try:
                status, payload, headers = await task
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # pragma: no cover - respond() catches
                status, payload, headers = (
                    500,
                    {"error": f"{exc.__class__.__name__}: {exc}"},
                    None,
                )
            if broken.is_set():
                continue
            try:
                await write_response(
                    writer, status, payload, keep_alive=keep, headers=headers
                )
            except (ConnectionError, OSError):
                broken.set()

    writer_task = asyncio.create_task(writer_loop())
    served = 0
    try:
        while not broken.is_set():
            read_task = asyncio.ensure_future(read_request(reader))
            waits = {read_task}
            drain_task = None
            if draining is not None and not draining.is_set():
                drain_task = asyncio.ensure_future(draining.wait())
                waits.add(drain_task)
            timeout = limits.idle_timeout_s or None
            done, _ = await asyncio.wait(
                waits, timeout=timeout, return_when=asyncio.FIRST_COMPLETED
            )
            if drain_task is not None and drain_task not in done:
                drain_task.cancel()
            if read_task not in done:
                # Idle timeout or drain started while no (complete)
                # request was in flight: close without answering.
                read_task.cancel()
                try:
                    await read_task
                except (asyncio.CancelledError, HttpError):
                    pass
                break
            try:
                request = read_task.result()
            except HttpError as exc:
                # Malformed framing: the stream position is no longer
                # trustworthy, so answer (in order, after any pipelined
                # predecessors) and close.
                async def error_result(exc=exc):
                    return exc.status, exc.payload(), exc.headers()

                await queue.put((asyncio.ensure_future(error_result()), False))
                break
            if request is None:
                break
            served += 1
            keep = (
                request.keep_alive
                and not (limits.max_requests and served >= limits.max_requests)
                and not (draining is not None and draining.is_set())
            )
            await queue.put((asyncio.create_task(respond(request)), keep))
            if not keep:
                break
    except asyncio.CancelledError:
        # Forced shutdown: stop the writer too instead of stranding it
        # on queue.get() forever.
        writer_task.cancel()
        raise
    finally:
        if not writer_task.cancelled():
            await queue.put(None)
            try:
                await writer_task
            except asyncio.CancelledError:
                if not writer_task.cancelled():  # pragma: no cover
                    raise
    return served


# -- blocking clients ------------------------------------------------------------


class HttpClient:
    """Blocking keep-alive JSON client for one serving endpoint.

    Reuses a single ``http.client.HTTPConnection`` across requests — the
    server's persistent-connection default makes every call after the
    first skip the TCP connect/teardown — and transparently reconnects
    (retrying the request once) when the server rotated the connection
    (idle timeout, max-requests cap, restart).  ``connections_opened``
    counts the TCP connects the client actually paid, which the smoke
    check compares against the request count to prove reuse.

    Usable as a context manager; not thread-safe (one client per
    thread, matching ``http.client``).
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None
        self.connections_opened = 0
        self.requests_sent = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        conn.connect()
        self.connections_opened += 1
        return conn

    def close(self) -> None:
        """Drop the pooled connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self, method: str, path: str, payload: object | None = None
    ) -> tuple[int, dict]:
        """One JSON request over the pooled connection.

        Returns ``(status, decoded body)``; retries exactly once on a
        stale pooled connection (the server may close between requests),
        never on a fresh one.
        """
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            fresh = self._conn is None
            if fresh:
                self._conn = self._connect()
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                self.close()
                if fresh or attempt:
                    raise
                continue
            self.requests_sent += 1
            if response.will_close:
                self.close()
            try:
                decoded = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                decoded = {"raw": raw.decode("utf-8", "replace")}
            if not isinstance(decoded, dict):
                decoded = {"value": decoded}
            return response.status, decoded
        raise AssertionError("unreachable")  # pragma: no cover

    def request_with_retry(
        self,
        method: str,
        path: str,
        payload: object | None = None,
        *,
        max_attempts: int = 8,
        max_sleep_s: float = 2.0,
    ) -> tuple[int, dict]:
        """Like :meth:`request`, but honor 429 ``Retry-After`` backpressure.

        Retries an overloaded (429) response after the server-suggested
        delay (clamped to ``max_sleep_s``) up to ``max_attempts`` total
        tries, returning the last response either way.  This is the
        client half of the bounded-queue contract: a rejected request is
        *delayed*, never answered differently.
        """
        status, decoded = self.request(method, path, payload)
        for _ in range(max_attempts - 1):
            if status != 429:
                break
            delay = decoded.get("retry_after_s", 0.1)
            try:
                delay = float(delay)
            except (TypeError, ValueError):
                delay = 0.1
            time.sleep(min(max(delay, 0.01), max_sleep_s))
            status, decoded = self.request(method, path, payload)
        return status, decoded


def http_json(
    method: str,
    host: str,
    port: int,
    path: str,
    payload: object | None = None,
    *,
    timeout: float = 30.0,
) -> tuple[int, dict]:
    """Blocking one-shot JSON request against a serving endpoint.

    Opens a connection, performs one request, closes — the right shape
    for single calls (health probes, CLI one-offs).  Anything issuing
    more than one request should hold an :class:`HttpClient` instead and
    let keep-alive amortize the connect.
    """
    with HttpClient(host, port, timeout=timeout) as client:
        return client.request(method, path, payload)
