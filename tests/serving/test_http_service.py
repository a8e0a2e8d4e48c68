"""HTTP front end + service routing: parser, endpoints, hot swap, errors.

Exercises the stdlib-only HTTP/1.1 parser against well-formed and
malformed byte streams, then drives :class:`AnonymizationService` over
real loopback sockets: transform/assign responses bitwise equal to the
direct ``Anonymizer.transform`` path, registry listing, activation and
rollback hot swaps, metrics exposure, and the 4xx error contract.
"""

import asyncio
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.serving import AnonymizationService, ModelRegistry
from repro.serving.http import (
    HttpError,
    read_request,
    render_response,
)


def parse(raw: bytes):
    """Run the request parser over a canned byte stream."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


class TestRequestParser:
    def test_get_with_query(self):
        request = parse(b"GET /v1/models?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert request.method == "GET"
        assert request.path == "/v1/models"
        assert request.query == {"verbose": "1"}
        assert request.headers["host"] == "x"
        assert request.json() == {}

    def test_post_with_body(self):
        body = b'{"records": {"qi0": [1.0]}}'
        raw = (
            b"POST /v1/transform HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse(raw)
        assert request.method == "POST"
        assert request.json() == {"records": {"qi0": [1.0]}}

    def test_clean_eof_is_none(self):
        assert parse(b"") is None

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b"NOT-HTTP\r\n\r\n", "malformed request line"),
            (b"GET /x\r\n\r\n", "malformed request line"),
            (b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n", "malformed header"),
            (
                b"POST / HTTP/1.1\r\nContent-Length: oops\r\n\r\n",
                "bad Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort",
                "shorter than Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "chunked",
            ),
        ],
    )
    def test_malformed_requests_rejected(self, raw, match):
        with pytest.raises(HttpError, match=match):
            parse(raw)

    def test_oversized_body_rejected(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 413

    def test_bad_json_body_is_422(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nnope"
        with pytest.raises(HttpError) as err:
            parse(raw).json()
        assert err.value.status == 422

    def test_render_response_shape(self):
        raw = render_response(200, {"ok": True})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert json.loads(body) == {"ok": True}

    def test_render_response_bytes_payload(self):
        payload = {"b": [1.5, 'q"\\é'], "a": None}
        encoded = json.dumps(payload, sort_keys=True).encode()
        raw = render_response(200, encoded, keep_alive=True)
        head, _, body = raw.partition(b"\r\n\r\n")
        # Already-encoded JSON goes out as is, plus the trailing newline.
        assert body == encoded + b"\n"
        assert f"Content-Length: {len(body)}\r\n".encode() in head
        assert raw == render_response(200, payload, keep_alive=True)


async def http(port, method, path, payload=None):
    """One raw-socket request against the service under test.

    Sends ``Connection: close`` so the (keep-alive by default) server
    ends the session after this response and the read-to-EOF below
    terminates; the keep-alive path itself is pinned by the parser
    torture and multi-worker suites.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode()
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def serve(service, interact):
    """Run ``interact(port)`` against a live listener for ``service``."""

    async def go():
        server = await asyncio.start_server(
            service._handle_connection, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        try:
            return await interact(port)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(go())


@pytest.fixture()
def registry(tmp_path, fitted):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("salary", fitted)
    return registry


@pytest.fixture()
def service(registry):
    svc = AnonymizationService(registry, max_wait_ms=1.0)
    svc.load_models()
    return svc


def records_of(batch):
    """A batch as the JSON column mapping the endpoints accept."""
    return {
        name: batch.labels(name).tolist() for name in batch.attribute_names
    }


class TestEndpoints:
    def test_healthz(self, service):
        status, body = serve(service, lambda p: http(p, "GET", "/healthz"))
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == ["salary"]
        assert isinstance(body["pid"], int)

    def test_transform_bitwise_equals_direct(self, service, fitted, batch):
        status, body = serve(
            service,
            lambda p: http(p, "POST", "/v1/transform", {"records": records_of(batch)}),
        )
        assert status == 200
        assert body["model"] == "salary" and body["version"] == "v1"
        direct = fitted.transform(batch)
        for name in direct.attribute_names:
            assert body["records"][name] == direct.labels(name).tolist()

    def test_assign_matches_direct(self, service, fitted, batch):
        status, body = serve(
            service,
            lambda p: http(p, "POST", "/v1/assign", {"records": records_of(batch)}),
        )
        assert status == 200
        assert "records" not in body
        np.testing.assert_array_equal(body["assignments"], fitted.assign(batch))

    def test_models_listing(self, service):
        status, body = serve(service, lambda p: http(p, "GET", "/v1/models"))
        assert status == 200
        entry = body["models"]["salary"]
        assert entry["active"] == entry["loaded"] == "v1"
        assert entry["model"]["policy"] == "k=4,t=0.4"

    def test_metrics_expose_request_counts(self, service, batch):
        async def interact(port):
            await http(port, "POST", "/v1/transform", {"records": records_of(batch)})
            return await http(port, "GET", "/metrics")

        status, body = serve(service, interact)
        assert status == 200
        assert body["requests"]["transform"]["count"] == 1
        assert body["requests"]["transform"]["rows"] == len(batch)
        assert body["batches"]["count"] >= 1

    def test_concurrent_requests_coalesce(self, registry, batch):
        service = AnonymizationService(registry, max_wait_ms=50.0)
        service.load_models()
        records = records_of(batch)

        async def interact(port):
            results = await asyncio.gather(
                *[
                    http(port, "POST", "/v1/assign", {"records": records})
                    for _ in range(5)
                ]
            )
            return results, await http(port, "GET", "/metrics")

        results, (_, metrics) = serve(service, interact)
        first = results[0][1]["assignments"]
        assert all(status == 200 for status, _ in results)
        assert all(body["assignments"] == first for _, body in results)
        assert metrics["batches"]["max_requests_coalesced"] > 1


class TestHotSwap:
    def test_activate_swaps_live_version(self, registry, fitted, service, batch):
        registry.publish("salary", fitted, activate=False)

        async def interact(port):
            swap = await http(
                port, "POST", "/v1/models/salary/activate", {"version": "v2"}
            )
            served = await http(
                port, "POST", "/v1/transform", {"records": records_of(batch)}
            )
            return swap, served

        (sw_status, sw_body), (status, body) = serve(service, interact)
        assert sw_status == 200 and sw_body == {"model": "salary", "active": "v2"}
        assert status == 200 and body["version"] == "v2"

    def test_rollback_endpoint(self, registry, fitted, service):
        registry.publish("salary", fitted)
        service.reload_model("salary")

        status, body = serve(
            service, lambda p: http(p, "POST", "/v1/models/salary/rollback")
        )
        assert status == 200
        assert body == {"model": "salary", "active": "v1"}
        assert service._models["salary"].version == "v1"


class TestErrorContract:
    def test_unknown_endpoint_404(self, service):
        status, body = serve(service, lambda p: http(p, "GET", "/nope"))
        assert status == 404 and "error" in body

    def test_wrong_method_405(self, service):
        status, _ = serve(service, lambda p: http(p, "GET", "/v1/transform"))
        assert status == 405

    def test_missing_records_422(self, service):
        status, body = serve(
            service, lambda p: http(p, "POST", "/v1/transform", {"rows": []})
        )
        assert status == 422 and "records" in body["error"]

    def test_unknown_model_404(self, service, batch):
        status, _ = serve(
            service,
            lambda p: http(
                p,
                "POST",
                "/v1/transform",
                {"model": "ghost", "records": records_of(batch)},
            ),
        )
        assert status == 404

    def test_schema_mismatch_422(self, service, batch):
        records = records_of(batch)
        records.pop("qi1")
        status, body = serve(
            service,
            lambda p: http(p, "POST", "/v1/transform", {"records": records}),
        )
        assert status == 422 and "qi1" in body["error"]

    def test_activate_unknown_version_404(self, service):
        status, _ = serve(
            service,
            lambda p: http(
                p, "POST", "/v1/models/salary/activate", {"version": "v9"}
            ),
        )
        assert status == 404

    def test_errors_counted_in_metrics(self, service):
        async def interact(port):
            await http(port, "GET", "/nope")
            return await http(port, "GET", "/metrics")

        _, body = serve(service, interact)
        assert body["requests"]["other"]["errors"] == 1


class TestBackpressure:
    def test_overload_answers_429_with_retry_after(self, registry, batch):
        service = AnonymizationService(
            registry,
            max_wait_ms=200.0,
            max_batch_rows=100_000,
            max_queue_rows=len(batch) + 1,
            cache_size=0,
        )
        service.load_models()
        records = records_of(batch)

        async def interact(port):
            first = asyncio.ensure_future(
                http(port, "POST", "/v1/assign", {"records": records})
            )
            await asyncio.sleep(0.05)  # let the first request queue
            # Raw second request so the Retry-After *header* is visible.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = json.dumps({"records": records}).encode()
            writer.write(
                b"POST /v1/assign HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, payload = raw.partition(b"\r\n\r\n")
            return await first, (int(head.split()[1]), json.loads(payload), head)

        (s1, _), (s2, b2, head) = serve(service, interact)
        assert s1 == 200  # the admitted request is unaffected
        assert s2 == 429
        assert b2["type"] == "overloaded"
        assert b2["retry_after_s"] > 0
        assert b"Retry-After:" in head
        snap = service.metrics.snapshot()
        assert snap["queue"]["rejected_requests"] == 1
        assert snap["queue"]["depth_max"] <= len(batch) + 1


class TestWarmupOnSwap:
    def test_activate_warms_new_cache(self, registry, fitted, service, batch):
        registry.publish("salary", fitted, activate=False)

        async def interact(port):
            await http(port, "POST", "/v1/assign", {"records": records_of(batch)})
            before = len(service._models["salary"].cache)
            swap = await http(
                port, "POST", "/v1/models/salary/activate", {"version": "v2"}
            )
            return before, len(service._models["salary"].cache), swap

        before, after, (status, _) = serve(service, interact)
        assert status == 200
        assert before > 0
        # Every hot key was replayed through the new model's assign.
        assert after == before

    def test_warmup_disabled_leaves_cache_cold(self, registry, fitted, batch):
        service = AnonymizationService(registry, max_wait_ms=1.0, warmup_rows=0)
        service.load_models()
        registry.publish("salary", fitted, activate=False)

        async def interact(port):
            await http(port, "POST", "/v1/assign", {"records": records_of(batch)})
            await http(
                port, "POST", "/v1/models/salary/activate", {"version": "v2"}
            )
            return len(service._models["salary"].cache)

        assert serve(service, interact) == 0


def run_serve(service, client, **kwargs):
    """Run ``service.serve`` on an ephemeral port with ``client(port)``.

    ``client`` starts as a task once the service reports ready, stops the
    service with SIGTERM as an operator would, and must finish within
    10 s of it.  Returns every context the loop's exception handler
    received, through the end of ``asyncio.run``'s teardown.
    """
    assert threading.current_thread() is threading.main_thread()
    errors, tasks = [], []

    def ready(port, models):
        tasks.append(asyncio.get_running_loop().create_task(client(port)))

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        await service.serve(
            port=0, quiet=True, ready_callback=ready, **kwargs
        )
        await asyncio.wait_for(tasks[0], timeout=10)

    asyncio.run(main())
    return errors


class TestServeLifecycle:
    def test_metrics_snapshot_written_before_ready(self, registry, tmp_path):
        metrics_dir = tmp_path / "metrics"
        metrics_dir.mkdir()
        service = AnonymizationService(registry, metrics_dir=metrics_dir)
        snapshot = metrics_dir / f"metrics-{os.getpid()}.json"
        at_ready = []

        async def client(port):
            at_ready.append(snapshot.is_file())
            signal.raise_signal(signal.SIGTERM)

        assert run_serve(service, client) == []
        # A sibling's scrape merges this worker's file even though this
        # worker never answered a request.
        assert at_ready == [True]
        assert json.loads(snapshot.read_text())["requests"] == {}

    def test_open_connection_closes_quietly_at_shutdown(self, service):
        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            # Keep the connection open across SIGTERM; the drain closes it.
            signal.raise_signal(signal.SIGTERM)
            while await reader.read(65536):
                pass
            writer.close()
            await writer.wait_closed()

        assert run_serve(service, client) == []

    def test_closing_connection_is_drained_not_cancelled(
        self, service, monkeypatch
    ):
        """A connection the peer just closed is still finishing its
        close when shutdown starts; the drain must wait for it instead of
        leaving it to ``asyncio.run``'s teardown to cancel."""
        wait_closed = asyncio.StreamWriter.wait_closed
        closed = []

        async def slow_wait_closed(writer):
            await asyncio.sleep(0.3)
            await wait_closed(writer)
            closed.append(writer)

        async def client(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            await reader.readuntil(b"\r\n\r\n")
            monkeypatch.setattr(
                asyncio.StreamWriter, "wait_closed", slow_wait_closed
            )
            writer.close()
            await wait_closed(writer)
            await asyncio.sleep(0.05)  # the server reads EOF and closes
            signal.raise_signal(signal.SIGTERM)

        assert run_serve(service, client) == []
        assert len(closed) == 1
