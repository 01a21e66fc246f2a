"""Tests of the HTTP front door (repro.server) against a live loopback server."""

import json
from http.client import HTTPConnection

import pytest

from repro.api import SynthesisRequest, SynthesisResponse
from repro.server import (
    ServerError,
    SynthesisClient,
    SynthesisServer,
    serve_in_background,
)
from repro.solvers.base import SolverOptions
from repro.suite.registry import get_benchmark

QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=60)


def document_for(name: str, **overrides) -> dict:
    benchmark = get_benchmark(name)
    fields = dict(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(upsilon=1),
        request_id=name,
    )
    fields.update(overrides)
    return SynthesisRequest(**fields).to_dict()


@pytest.fixture(scope="module")
def served():
    server = SynthesisServer(workers=2, solver_options=QUICK_SOLVE)
    with serve_in_background(server) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(served):
    return SynthesisClient(served.url)


# -- plumbing ----------------------------------------------------------------------


def test_healthz(client):
    assert client.healthz() == {"status": "ok"}


def test_unknown_endpoint_is_structured_404(client):
    with pytest.raises(ServerError) as excinfo:
        client._request("GET", "/v1/nope")
    assert excinfo.value.status == 404
    assert "unknown endpoint" in str(excinfo.value)


def test_wrong_method_is_405(client):
    with pytest.raises(ServerError) as excinfo:
        client._request("GET", "/v1/synthesize")
    assert excinfo.value.status == 405


def test_protocol_error_bad_json_body(client):
    connection = HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request(
            "POST",
            "/v1/synthesize",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        assert response.status == 400
        assert "not valid JSON" in payload["error"]["reason"]
    finally:
        connection.close()


def test_post_without_content_length_is_411(client):
    connection = HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.putrequest("POST", "/v1/synthesize", skip_accept_encoding=True)
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 411
    finally:
        connection.close()


# -- blocking synthesis ------------------------------------------------------------


def test_synthesize_over_http_matches_in_process_semantics(client):
    envelope = client.synthesize(document_for("sum"))
    assert envelope["status"] == "ok" and envelope["request_id"] == "sum"
    assert envelope["invariants"] and envelope["assignment"]
    # The wire document round-trips through the typed codec.
    response = SynthesisResponse.from_dict(envelope)
    assert response.success and response.submission_id is not None


def test_validation_failure_is_structured_400_with_field_list(client):
    with pytest.raises(ServerError) as excinfo:
        client.synthesize({"mode": "weakest", "program": ""})
    error = excinfo.value
    assert error.status == 400
    fields = {entry["field"] for entry in error.errors}
    assert "program" in fields and "mode" in fields


def test_synthesis_failure_is_an_error_envelope_not_a_transport_error(client):
    envelope = client.synthesize(
        {"program": "while x < 1:\n    x = y0 + 1\n", "mode": "weak", "request_id": "broken"}
    )
    assert envelope["status"] == "error"
    assert envelope["error"]["type"]


# -- jobs --------------------------------------------------------------------------


def test_submit_job_and_events_stream(client):
    documents = [document_for("sum"), document_for("freire1"), {"program": "", "mode": "weakest"}]
    job = client.submit(documents)
    assert job["total"] == 3 and job["accepted"] == 2 and job["rejected"] == 1

    events = list(client.events(job["job_id"]))
    assert len(events) == 3
    # Validation rejects are streamed first, as synthetic error envelopes.
    assert events[0]["status"] == "error"
    assert events[0]["error"]["type"] == "RequestValidationError"
    assert {entry["field"] for entry in events[0]["error"]["errors"]} >= {"program", "mode"}
    # Then completed responses, in completion order, stamped with ids.
    completed = {event["request_id"]: event for event in events[1:]}
    assert set(completed) == {"sum", "freire1"}
    assert all(event["status"] == "ok" for event in completed.values())
    assert all(event["submission_id"] is not None for event in completed.values())

    snapshot = client.job(job["job_id"])
    assert snapshot["done"] and snapshot["completed"] == 2 and snapshot["rejected"] == 1
    assert len(snapshot["results"]) == 3


def test_submit_rejects_empty_batch(client):
    with pytest.raises(ServerError) as excinfo:
        client.submit([])
    assert excinfo.value.status == 400
    assert excinfo.value.errors[0]["field"] == "requests"


def test_unknown_job_is_404(client):
    with pytest.raises(ServerError) as excinfo:
        client.job("deadbeef")
    assert excinfo.value.status == 404
    with pytest.raises(ServerError) as excinfo:
        list(client.events("deadbeef"))
    assert excinfo.value.status == 404


# -- stats and store ---------------------------------------------------------------


def test_stats_merges_engine_and_server_counters(client):
    stats = client.stats()
    assert stats["server_requests_total"] >= 1
    assert "stage_hits" in stats and "server_uptime_seconds" in stats
    assert "server_jobs_created" in stats


def test_server_with_store_serves_warm_requests_from_disk(tmp_path):
    server = SynthesisServer(store=tmp_path, workers=2, solver_options=QUICK_SOLVE)
    with serve_in_background(server) as handle:
        client = SynthesisClient(handle.url)
        cold = client.synthesize(document_for("sum"))
        warm = client.synthesize(document_for("sum"))
        assert cold["status"] == "ok" and not cold["served_from_store"]
        assert warm["status"] == "ok" and warm["served_from_store"]
        assert warm["invariants"] == cold["invariants"]
        stats = client.stats()
        assert stats["store_response_hits"] == 1.0


def test_server_without_store_writes_nothing_under_home(tmp_path, monkeypatch):
    home, cache = tmp_path / "home", tmp_path / "cache"
    home.mkdir()
    cache.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.delenv("REPRO_CORPUS_PATH", raising=False)
    server = SynthesisServer(workers=1, solver_options=QUICK_SOLVE)
    with serve_in_background(server) as handle:
        response = SynthesisClient(handle.url).synthesize(document_for("sum"))
    assert response["status"] == "ok"
    assert list(home.iterdir()) == []
    assert list(cache.iterdir()) == []
