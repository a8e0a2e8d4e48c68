"""Multi-worker topology: fidelity, aggregated metrics, clean shutdown.

Boots the real ``repro serve --workers 2`` CLI (and the inherited-FD
fallback supervisor) as a subprocess against a registry published from
the shared fitted model, then pins the fleet-level contracts:

* transform responses are **bit-for-bit** identical to
  ``Anonymizer.transform`` on the same rows no matter which worker
  answers, or how many clients ask at once;
* ``/metrics`` merges per-worker snapshots — request/row totals equal
  the traffic actually sent, and the ``workers`` field counts the
  fleet;
* SIGTERM to the supervisor drains the whole fleet and exits 0 with no
  traceback.

These are subprocess tests (forked servers cannot run inside the
pytest process: the supervisor owns signal handlers), so the suite
keeps the server count small and shares one registry.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serving import HttpClient, ModelRegistry

from ..contexts import run_forked, run_serial, run_threaded

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory, fitted):
    root = tmp_path_factory.mktemp("fleet-registry") / "registry"
    ModelRegistry(root).publish("salary", fitted)
    return root


def spawn_server(argv, *, timeout_s=60.0):
    """Start a serving subprocess; return ``(proc, port)`` once announced."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout_s
    announce = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before announcing (rc={proc.wait()})"
            )
        if "model(s) on http://" in line:
            announce = line.strip()
            break
    else:  # pragma: no cover - slow container
        proc.kill()
        raise AssertionError("server did not announce in time")
    port = int(announce.rsplit(":", 1)[1])
    return proc, port


def stop_server(proc, *, timeout_s=30.0):
    """SIGTERM the supervisor; return ``(returncode, remaining stdout)``."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:  # pragma: no cover - hung drain
        proc.kill()
        raise
    return proc.returncode, out


def wait_for_both_workers(port, *, attempts=80):
    """Open fresh connections until two distinct worker pids answered."""
    pids = set()
    for _ in range(attempts):
        with HttpClient("127.0.0.1", port, timeout=10.0) as client:
            status, body = client.request("GET", "/healthz")
            assert status == 200, body
            pids.add(body["pid"])
        if len(pids) >= 2:
            return pids
        time.sleep(0.05)
    raise AssertionError(f"only saw workers {pids}")


def records_of(batch):
    return {
        name: batch.labels(name).tolist() for name in batch.attribute_names
    }


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(run_serial, id="serial"),
        pytest.param(run_threaded, id="threaded"),
        pytest.param(run_forked, id="process"),
    ],
)
def test_two_workers_bitwise_equal_direct_transform(
    registry_dir, fitted, batch, run
):
    """Clients on one thread, on two threads at once, or in two forked
    processes at once (``tests.contexts``) all get the direct bits."""
    proc, port = spawn_server(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--registry",
            str(registry_dir),
            "--port",
            "0",
            "--workers",
            "2",
        ]
    )
    try:
        pids = wait_for_both_workers(port)
        direct = fitted.transform(batch)
        payload = {"records": records_of(batch)}

        def client_session():
            answers = []
            with HttpClient("127.0.0.1", port, timeout=30.0) as client:
                for _ in range(4):
                    status, body = client.request("POST", "/v1/transform", payload)
                    _, health = client.request("GET", "/healthz")
                    answers.append((status, body, health["pid"]))
            return answers

        for answers in run(client_session):
            for status, body, pid in answers:
                assert status == 200, body
                for name in direct.attribute_names:
                    assert (
                        body["records"][name] == direct.labels(name).tolist()
                    )
                assert pid in pids
    finally:
        code, out = stop_server(proc)
    assert code == 0, out
    assert "Traceback" not in out


def test_metrics_aggregate_across_workers(registry_dir, fitted, batch):
    proc, port = spawn_server(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--registry",
            str(registry_dir),
            "--port",
            "0",
            "--workers",
            "2",
            "--cache-size",
            "0",
        ]
    )
    try:
        wait_for_both_workers(port)
        payload = {"records": records_of(batch)}
        sent_rows = 0
        # Fresh connection per request spreads traffic over the fleet.
        for _ in range(6):
            with HttpClient("127.0.0.1", port, timeout=30.0) as client:
                status, body = client.request("POST", "/v1/assign", payload)
                assert status == 200, body
                sent_rows += body["n_records"]
        with HttpClient("127.0.0.1", port, timeout=30.0) as client:
            status, metrics = client.request("GET", "/metrics")
        assert status == 200
        assert metrics["workers"] == 2
        assign = metrics["requests"]["assign"]
        assert assign["count"] == 6
        assert assign["rows"] == sent_rows == 6 * len(batch)
        # Every assign ran uncached, so batch rows must account for the
        # full traffic too (summed across both workers' batchers).
        assert metrics["batches"]["rows"] == sent_rows
        assert metrics["connections"] >= 7
    finally:
        code, out = stop_server(proc)
    assert code == 0, out


def test_inherited_fd_fallback_topology(registry_dir, fitted, batch):
    """The non-SO_REUSEPORT path serves correctly and drains on SIGTERM."""
    script = (
        "import sys\n"
        "from repro.serving.workers import serve_workers\n"
        "sys.exit(serve_workers(sys.argv[1], '127.0.0.1', 0, 2,"
        " reuseport=False))\n"
    )
    proc, port = spawn_server([sys.executable, "-c", script, str(registry_dir)])
    try:
        wait_for_both_workers(port)
        direct = fitted.transform(batch)
        with HttpClient("127.0.0.1", port, timeout=30.0) as client:
            status, body = client.request(
                "POST", "/v1/transform", {"records": records_of(batch)}
            )
        assert status == 200, body
        for name in direct.attribute_names:
            assert body["records"][name] == direct.labels(name).tolist()
    finally:
        code, out = stop_server(proc)
    assert code == 0, out
    assert "inherited-fd" in out or "serving stopped" in out


def test_hot_swap_propagates_across_workers(registry_dir, fitted, batch):
    """An activate served by one worker reaches its siblings via polling."""
    registry = ModelRegistry(registry_dir)
    registry.publish("salary", fitted, activate=False)  # v2, not active
    proc, port = spawn_server(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--registry",
            str(registry_dir),
            "--port",
            "0",
            "--workers",
            "2",
        ]
    )
    try:
        wait_for_both_workers(port)
        with HttpClient("127.0.0.1", port, timeout=30.0) as client:
            status, body = client.request(
                "POST", "/v1/models/salary/activate", {"version": "v2"}
            )
            assert status == 200, body
        # Both workers must serve v2 once the watcher tick lands.
        versions_seen = {}
        deadline = time.monotonic() + 15.0
        payload = {"records": records_of(batch)}
        while time.monotonic() < deadline:
            with HttpClient("127.0.0.1", port, timeout=30.0) as client:
                _, health = client.request("GET", "/healthz")
                _, body = client.request("POST", "/v1/assign", payload)
                versions_seen[health["pid"]] = body["version"]
            if len(versions_seen) >= 2 and set(
                versions_seen.values()
            ) == {"v2"}:
                break
            time.sleep(0.1)
        assert set(versions_seen.values()) == {"v2"}, versions_seen
        assert len(versions_seen) >= 2
    finally:
        code, out = stop_server(proc)
        # Leave the registry as the other tests expect it.
        registry.activate("salary", "v1")
    assert code == 0, out
