"""Tests of the process-backed whole-job executor (repro.api.workers)."""

import json
import multiprocessing
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.api import Engine, SynthesisRequest
from repro.api.workers import (
    FAULT_MARKER_ENV,
    ProcessWorkerPool,
    WorkerConfig,
    WorkerCrashError,
)
from repro.solvers.base import SolverOptions
from repro.suite.registry import get_benchmark

QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=60)


def request_for(name: str, **overrides) -> SynthesisRequest:
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
    return SynthesisRequest(**fields)


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux
        return set()


# -- the auto decision table -------------------------------------------------------


def test_auto_executor_decision_table():
    resolve = Engine._resolve_executor
    assert resolve("auto", 0, cpus=8) == "thread"
    assert resolve("auto", 1, cpus=8) == "thread"
    assert resolve("auto", 4, cpus=1) == "thread"
    assert resolve("auto", 2, cpus=2) == "process"
    assert resolve("auto", 4, cpus=16) == "process"
    # Explicit choices always win, whatever the host looks like.
    assert resolve("thread", 8, cpus=16) == "thread"
    assert resolve("process", 8, cpus=1) == "process"


def test_unknown_executor_rejected():
    with pytest.raises(ValueError, match="unknown executor"):
        Engine(executor="fork-bomb")
    with pytest.raises(ValueError, match="unknown executor"):
        Engine(executor="solve-process")


# -- differential: process-backed responses match thread-backed ones ---------------


def test_process_engine_matches_sequential_fingerprints():
    names = ["sum", "freire1", "cohendiv"]
    with Engine(solver_options=QUICK_SOLVE) as sequential:
        baseline = {name: sequential.synthesize(request_for(name)) for name in names}
    with Engine(workers=2, solver_options=QUICK_SOLVE, executor="process") as engine:
        assert engine.executor_kind == "process"
        for name in names:
            response = engine.synthesize(request_for(name))
            assert response.status == baseline[name].status
            assert response.fingerprint() == baseline[name].fingerprint()
            # Wire envelopes never carry in-process extras.
            assert response.result is None and response.task is None
        stats = engine.stats()
        assert stats["process_jobs"] == float(len(names))
        assert stats["process_jobs_shared"] == 0.0
        assert stats["process_jobs_failed"] == 0.0


# -- in-flight dedup ---------------------------------------------------------------


def test_inflight_rider_shares_owner_envelope():
    """A request identical to one already in flight rides the owner's job."""
    with Engine(workers=2, solver_options=QUICK_SOLVE, executor="process") as engine:
        request = request_for("sum", request_id="rider")
        key = engine._process_dedup_key(request)
        owner_future: Future = Future()
        with engine._inflight_lock:
            engine._inflight[key] = owner_future

        # Compute the wire envelope the owner would publish, out of band
        # (same request_id: the fingerprint includes the caller label and
        # the rider restamps its own onto the shared envelope).
        with Engine(solver_options=QUICK_SOLVE) as sequential:
            owned = sequential.synthesize(request_for("sum", request_id="rider"))
        wire = json.dumps(owned.to_dict(), default=str)

        with ThreadPoolExecutor(max_workers=1) as pool:
            rider = pool.submit(engine.synthesize, request)
            time.sleep(0.05)
            assert not rider.done()  # genuinely waiting on the in-flight owner
            owner_future.set_result(wire)
            response = rider.result(timeout=30)
        assert response.status == owned.status
        assert response.request_id == "rider"
        assert response.from_cache and response.shared_solve
        assert response.fingerprint() == owned.fingerprint()
        stats = engine.stats()
        assert stats["process_jobs_shared"] == 1.0
        assert stats["process_jobs"] == 0.0
        with engine._inflight_lock:
            engine._inflight.pop(key, None)


def test_process_stats_account_for_every_request():
    """Concurrent identical requests: owners + riders sum to the request count."""
    total = 6
    with Engine(workers=2, solver_options=QUICK_SOLVE, executor="process") as engine:
        requests = [request_for("sum", request_id=f"client-{i}") for i in range(total)]
        responses = list(engine.map(requests))
        assert all(response.status == "ok" for response in responses)
        distinct = {
            json.dumps(
                {**response.fingerprint(), "request_id": None}, sort_keys=True, default=str
            )
            for response in responses
        }
        assert len(distinct) == 1
        stats = engine.stats()
        assert stats["process_jobs"] + stats["process_jobs_shared"] == float(total)
        assert stats["process_inflight"] == 0.0


# -- crash handling ----------------------------------------------------------------


def test_worker_crash_becomes_structured_error(monkeypatch):
    monkeypatch.setenv(FAULT_MARKER_ENV, "crash-me")
    with Engine(workers=2, solver_options=QUICK_SOLVE, executor="process") as engine:
        crashed = engine.synthesize(request_for("sum", request_id="crash-me"))
        assert crashed.status == "error"
        assert crashed.error is not None and crashed.error.type == "WorkerCrashed"
        # The pool rebuilt: the very next request succeeds.
        after = engine.synthesize(request_for("sum", request_id="survivor"))
        assert after.status == "ok"
        stats = engine.stats()
        assert stats["process_jobs_failed"] == 1.0
        assert stats["process_jobs"] == 2.0


# -- leak audit --------------------------------------------------------------------


def test_failed_engine_construction_leaves_no_children(monkeypatch):
    """An engine that fails after forking its pool must tear it down."""
    from repro.api.workers import _worker_warmup

    before_children = {child.pid for child in multiprocessing.active_children()}
    before_shm = shm_entries()

    def exploding_warm(self):
        # Fork (and initialise) the workers for real, then fail — exactly
        # the shape of an initialisation error surfacing mid-construction.
        executor = self._ensure()
        list(executor.map(_worker_warmup, range(self.workers)))
        raise RuntimeError("boom")

    monkeypatch.setattr(ProcessWorkerPool, "warm", exploding_warm)
    with pytest.raises(RuntimeError, match="boom"):
        Engine(workers=2, solver_options=QUICK_SOLVE, executor="process")
    deadline = time.time() + 10
    while time.time() < deadline:
        leaked = {
            child.pid for child in multiprocessing.active_children()
        } - before_children
        if not leaked:
            break
        time.sleep(0.1)
    assert not leaked
    assert shm_entries() <= before_shm


def test_close_shuts_down_job_workers():
    engine = Engine(workers=2, solver_options=QUICK_SOLVE, executor="process")
    assert engine.synthesize(request_for("sum")).status == "ok"
    pids = engine._jobs.worker_pids()
    assert pids
    engine.close()
    deadline = time.time() + 10
    while time.time() < deadline:
        live = {child.pid for child in multiprocessing.active_children()} & set(pids)
        if not live:
            break
        time.sleep(0.1)
    assert not live
    assert engine._jobs is None


# -- deadline propagation ----------------------------------------------------------


def test_deadline_epoch_clamps_only_downward():
    request = request_for("sum", deadline=10.0)
    # More budget left than the request's own deadline: untouched.
    same = Engine._clamp_deadline(request, time.time() + 100.0)
    assert same is request
    # Nearly exhausted budget: the derived request carries what remains.
    clamped = Engine._clamp_deadline(request, time.time() + 0.5)
    assert clamped is not request
    assert 0 < clamped.deadline <= 0.5
    # The clamp never rewrites content keys: only the deadline differs.
    assert clamped.program == request.program
    # No anchor, or no deadline on the request: nothing to clamp.
    assert Engine._clamp_deadline(request, None) is request
    no_deadline = request_for("sum")
    assert Engine._clamp_deadline(no_deadline, time.time()) is no_deadline


def test_expired_deadline_yields_deadline_error_not_hang():
    with Engine(workers=2, solver_options=QUICK_SOLVE, executor="process") as engine:
        response = engine.synthesize(
            request_for("sum", request_id="expired", deadline=5.0),
            deadline_epoch=time.time() - 1.0,  # budget already gone on arrival
        )
        # Whatever the engine decides (a deadline error or a lucky fast
        # solve), it must answer promptly and structurally.
        assert response.status in ("ok", "no_invariant", "error")


# -- the worker pool in isolation --------------------------------------------------


def test_worker_pool_round_trips_json_envelope():
    pool = ProcessWorkerPool(
        1, WorkerConfig(solver_options={"restarts": 1, "max_iterations": 60})
    )
    try:
        wire = pool.execute(request_for("sum").to_dict(), None)
        envelope = json.loads(wire)
        assert envelope["status"] == "ok"
        assert envelope["request_id"] == "sum"
    finally:
        pool.close()


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError, match="at least one worker"):
        ProcessWorkerPool(0, WorkerConfig())
