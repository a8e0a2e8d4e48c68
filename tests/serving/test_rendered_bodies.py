"""Pre-rendered transform bodies: byte-identical to the dict encoding.

``/v1/transform`` and ``/v1/assign`` answer with a body joined from the
live model's pre-rendered QI fragments.  Every case here sends a real
request over a loopback socket and requires the raw response bytes to
equal what the dict-building handler (kept below as
:func:`reference_transform`) produced through ``json.dumps(payload,
sort_keys=True)``: numeric QIs, ordinal and nominal QIs whose labels
need JSON escaping, identifier columns, missing pass-through columns,
empty batches, the assign endpoint and a hot swap.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import Anonymizer, KAnonymity, TCloseness
from repro.data import AttributeRole, Microdata, nominal, numeric, ordinal
from repro.serving import AnonymizationService, ModelRegistry
from repro.serving import service as service_module
from repro.serving.http import HttpError, Request, render_response
from repro.serving.service import qi_fragments

from .test_http_service import records_of, serve

#: Labels that JSON must escape: quotes, backslashes, control characters
#: and non-ASCII text (``json.dumps`` writes ``\\uXXXX`` escapes).
GRADES = ('lo "a"', "mid\\b", "hïgh", "höher ☃", "top\n")
CITIES = ('"', "\\", "é", "日本", "plain", "tab\t")
SECRETS = ('s"1', "s\\2", "ß3", "s4")


async def reference_transform(service, request, *, assign_only):
    """The dict-building handler the pre-rendered bodies replace."""
    payload = request.json()
    records = payload.get("records")
    if not isinstance(records, dict) or not records:
        raise HttpError(
            422,
            'request must carry {"records": {"<column>": [values...]}}',
        )
    live = service._resolve_model(payload.get("model"))
    model = live.model
    schema = model.batch_schema(available=tuple(records))
    batch = Microdata({s.name: records[s.name] for s in schema}, schema)
    encoded = model.encode_batch(batch)
    assignment = await live.batcher.assign(encoded)
    n = int(len(batch))
    out: dict = {
        "model": live.name,
        "version": live.version,
        "n_records": n,
        "assignments": assignment.tolist(),
    }
    if not assign_only:
        release = model.apply_assignment(batch, assignment)
        out["records"] = {
            name: release.labels(name).tolist()
            for name in release.attribute_names
        }
    return out, n


def categorical_dataset(n: int, seed: int) -> Microdata:
    """Numeric, ordinal and nominal QIs, an identifier, an ordinal
    confidential and a nominal pass-through column."""
    rng = np.random.default_rng(seed)
    columns = {
        "name": np.array([f"id{i}" for i in range(n)]),
        "age": np.round(rng.normal(40.0, 10.0, n)),
        "grade": rng.integers(0, len(GRADES), n),
        "city": rng.integers(0, len(CITIES), n),
        "secret": rng.integers(0, len(SECRETS), n),
        "note": rng.integers(0, len(CITIES), n),
    }
    role = AttributeRole
    schema = [
        nominal("name", [f"id{i}" for i in range(n)], role=role.IDENTIFIER),
        numeric("age", role=role.QUASI_IDENTIFIER),
        ordinal("grade", GRADES, role=role.QUASI_IDENTIFIER),
        nominal("city", CITIES, role=role.QUASI_IDENTIFIER),
        ordinal("secret", SECRETS, role=role.CONFIDENTIAL),
        nominal("note", CITIES),
    ]
    return Microdata(columns, schema)


async def exchange(port, path, payload):
    """One ``Connection: close`` request; the raw response bytes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode()
    writer.write(
        f"POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return raw


def served_and_reference(service, path, payload):
    """The raw response to ``payload`` and the reference handler's dict."""
    request = Request(
        "POST", path, {}, {}, json.dumps(payload).encode()
    )

    async def interact(port):
        raw = await exchange(port, path, payload)
        expected, _ = await reference_transform(
            service, request, assign_only=path == "/v1/assign"
        )
        return raw, expected

    return serve(service, interact)


def assert_same_bytes(raw, expected):
    """``raw`` is exactly the dict-encoded response of ``expected``."""
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n"), head
    assert body == (json.dumps(expected, sort_keys=True) + "\n").encode()
    assert raw == render_response(200, expected, keep_alive=False)


@pytest.fixture(scope="module")
def categorical_fitted():
    data = categorical_dataset(300, 0)
    return Anonymizer(KAnonymity(4) & TCloseness(0.6)).fit(data)


@pytest.fixture()
def numeric_service(tmp_path, fitted):
    registry = ModelRegistry(tmp_path / "numeric-registry")
    registry.publish("salary", fitted)
    service = AnonymizationService(registry, max_wait_ms=1.0)
    service.load_models()
    return service


@pytest.fixture()
def categorical_service(tmp_path, categorical_fitted):
    registry = ModelRegistry(tmp_path / "categorical-registry")
    registry.publish("labels", categorical_fitted)
    service = AnonymizationService(registry, max_wait_ms=1.0)
    service.load_models()
    return service


@pytest.fixture(scope="module")
def categorical_batch():
    return categorical_dataset(120, 1)


class TestTransformBytes:
    def test_numeric_qis(self, numeric_service, batch):
        raw, expected = served_and_reference(
            numeric_service, "/v1/transform", {"records": records_of(batch)}
        )
        assert expected["n_records"] == len(batch)
        assert_same_bytes(raw, expected)

    def test_escaped_ordinal_and_nominal_labels(
        self, categorical_service, categorical_batch
    ):
        records = records_of(categorical_batch.drop_identifiers())
        raw, expected = served_and_reference(
            categorical_service, "/v1/transform", {"records": records}
        )
        served = set(expected["records"]["grade"]) | set(
            expected["records"]["city"]
        )
        # The request really exercised escaping, in QI and pass-through
        # columns alike.
        assert any(not label.isascii() for label in served)
        assert any('"' in label or "\\" in label for label in served)
        assert set(expected["records"]["note"]) <= set(CITIES)
        assert_same_bytes(raw, expected)

    def test_identifier_column_is_dropped(
        self, categorical_service, categorical_batch
    ):
        records = records_of(categorical_batch)
        assert "name" in records
        raw, expected = served_and_reference(
            categorical_service, "/v1/transform", {"records": records}
        )
        assert "name" not in expected["records"]
        assert_same_bytes(raw, expected)

    def test_without_pass_through_columns(
        self, categorical_service, categorical_batch
    ):
        records = records_of(categorical_batch)
        del records["secret"], records["note"]
        raw, expected = served_and_reference(
            categorical_service, "/v1/transform", {"records": records}
        )
        assert sorted(expected["records"]) == ["age", "city", "grade"]
        assert_same_bytes(raw, expected)

    def test_without_confidential_column(self, numeric_service, batch):
        records = records_of(batch)
        del records["secret"]
        raw, expected = served_and_reference(
            numeric_service, "/v1/transform", {"records": records}
        )
        assert "secret" not in expected["records"]
        assert_same_bytes(raw, expected)

    def test_empty_batch(self, categorical_service, categorical_batch):
        records = {name: [] for name in records_of(categorical_batch)}
        raw, expected = served_and_reference(
            categorical_service, "/v1/transform", {"records": records}
        )
        assert expected["n_records"] == 0
        assert_same_bytes(raw, expected)

    @pytest.mark.parametrize("which", ["numeric", "categorical"])
    def test_assign(
        self, which, numeric_service, categorical_service, batch,
        categorical_batch,
    ):
        service, rows = {
            "numeric": (numeric_service, batch),
            "categorical": (categorical_service, categorical_batch),
        }[which]
        raw, expected = served_and_reference(
            service, "/v1/assign", {"records": records_of(rows)}
        )
        assert "records" not in expected
        assert_same_bytes(raw, expected)


class TestHotSwapBytes:
    def test_activate_renders_with_the_new_models_fragments(
        self, tmp_path, fitted, dataset, batch
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("salary", fitted)
        coarser = Anonymizer(KAnonymity(9) & TCloseness(0.4)).fit(dataset)
        registry.publish("salary", coarser, activate=False)
        service = AnonymizationService(registry, max_wait_ms=1.0)
        service.load_models()
        old = service._models["salary"]
        payload = {"records": records_of(batch)}
        request = Request(
            "POST", "/v1/transform", {}, {}, json.dumps(payload).encode()
        )

        async def interact(port):
            before = await exchange(port, "/v1/transform", payload)
            swap = await exchange(
                port, "/v1/models/salary/activate", {"version": "v2"}
            )
            after = await exchange(port, "/v1/transform", payload)
            expected, _ = await reference_transform(
                service, request, assign_only=False
            )
            return before, swap, after, expected

        before, swap, after, expected = serve(service, interact)
        assert b'"active": "v2"' in swap
        live = service._models["salary"]
        assert live is not old and live.fragments is not old.fragments
        assert live.fragments == qi_fragments(coarser.transform_model_)
        assert expected["version"] == "v2"
        assert_same_bytes(after, expected)
        # The swap changed the served QI values, not just the version.
        assert json.loads(after.partition(b"\r\n\r\n")[2])["records"] != (
            json.loads(before.partition(b"\r\n\r\n")[2])["records"]
        )


class TestFragments:
    def test_one_fragment_per_representative_and_qi(self, categorical_fitted):
        model = categorical_fitted.transform_model_
        fragments = qi_fragments(model)
        assert list(fragments) == list(model.qi_names)
        release = model.apply_assignment(
            categorical_dataset(model.n_clusters, 2).drop_identifiers(),
            np.arange(model.n_clusters),
        )
        for name, column in fragments.items():
            assert column == [
                json.dumps(label).encode()
                for label in release.labels(name).tolist()
            ]

    def test_built_when_served_not_when_fitted(
        self, monkeypatch, tmp_path, dataset
    ):
        built = []
        real = service_module.qi_fragments
        monkeypatch.setattr(
            service_module,
            "qi_fragments",
            lambda model: built.append(model) or real(model),
        )
        model = Anonymizer(KAnonymity(4) & TCloseness(0.4)).fit(dataset)
        model.transform(dataset)
        assert built == []
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("salary", model)
        service = AnonymizationService(registry)
        service.load_models()
        assert len(built) == 1
        assert service._models["salary"].fragments == real(built[0])
