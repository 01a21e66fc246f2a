"""The HTTP front door on a process-backed engine, under concurrent cold load.

The hammer: N distinct programs × M client threads against a server whose
engine ships whole jobs to worker processes.  Every request must come back
correct (its own ``request_id``, an ``ok`` envelope), the engine's
dedup/shared-job counters must account for every request, and a worker
crash mid-job must surface as a structured ``status="error"`` envelope on a
healthy connection — never a hang.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Engine
from repro.api.workers import FAULT_MARKER_ENV
from repro.server import SynthesisClient, SynthesisServer, serve_in_background
from repro.solvers.base import SolverOptions
from repro.suite.registry import get_benchmark
from repro.api import SynthesisRequest

QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=60)
PROGRAMS = ["sum", "freire1", "cohendiv"]
CLIENTS = 4
ROUNDS = 2  # each program is requested by several distinct request_ids


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


@pytest.fixture()
def process_server():
    engine = Engine(workers=2, solver_options=QUICK_SOLVE)
    server = SynthesisServer(engine)
    try:
        with serve_in_background(server) as handle:
            yield handle, engine
    finally:
        engine.close()


def test_concurrent_cold_hammer_accounts_for_every_request(process_server):
    handle, engine = process_server
    documents = [
        document_for(name, request_id=f"{name}#{round_index}")
        for round_index in range(ROUNDS)
        for name in PROGRAMS
    ]

    def one(document: dict) -> dict:
        return SynthesisClient(handle.url).synthesize(document)

    with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
        envelopes = list(pool.map(one, documents))

    by_id = {envelope["request_id"]: envelope for envelope in envelopes}
    assert set(by_id) == {doc["request_id"] for doc in documents}
    for envelope in envelopes:
        assert envelope["status"] == "ok", envelope.get("error")
        assert envelope["invariants"]
    # Identical programs under different request_ids are the same content
    # key: the engine either ran them (owner) or shared an in-flight twin's
    # envelope (rider) — and together those account for every request.
    stats = engine.stats()
    assert stats["process_jobs"] + stats["process_jobs_shared"] == float(len(documents))
    assert stats["process_inflight"] == 0.0
    assert stats["process_jobs"] >= float(len(PROGRAMS))  # each program ran at least once
    # Per-program consistency: same semantic payload for every duplicate.
    for name in PROGRAMS:
        payloads = {
            json.dumps(
                {"invariants": e["invariants"], "assignment": e["assignment"]},
                sort_keys=True,
            )
            for rid, e in by_id.items()
            if rid.startswith(f"{name}#")
        }
        assert len(payloads) == 1


def test_worker_crash_over_http_is_structured_error(monkeypatch):
    monkeypatch.setenv(FAULT_MARKER_ENV, "crash-me")
    engine = Engine(workers=2, solver_options=QUICK_SOLVE)
    server = SynthesisServer(engine)
    try:
        with serve_in_background(server) as handle:
            client = SynthesisClient(handle.url)
            crashed = client.synthesize(document_for("sum", request_id="crash-me"))
            assert crashed["status"] == "error"
            assert crashed["error"]["type"] == "WorkerCrashed"
            # Connection and server both healthy; the pool rebuilt.
            assert client.healthz() == {"status": "ok"}
            after = client.synthesize(document_for("sum", request_id="survivor"))
            assert after["status"] == "ok"
            stats = client.stats()
            assert stats["process_jobs_failed"] == 1.0
    finally:
        engine.close()
