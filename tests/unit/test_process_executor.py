"""Tests of the process-backed whole-job executor (repro.api.workers)."""

import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import Future

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


# -- differential: process-backed responses match sequential ones ------------------


def test_process_engine_matches_sequential_fingerprints():
    names = ["sum", "freire1", "cohendiv"]
    with Engine(solver_options=QUICK_SOLVE) as sequential:
        baseline = {name: sequential.synthesize(request_for(name)) for name in names}
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
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
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        request = request_for("sum", request_id="rider")
        key = engine._response_key(request)
        owner_future: Future = Future()
        with engine._inflight_lock:
            engine._inflight[key] = owner_future

        # Compute the wire envelope the owner would publish, out of band
        # (same request_id: the fingerprint includes the caller label and
        # the rider restamps its own onto the shared envelope).
        with Engine(solver_options=QUICK_SOLVE) as sequential:
            owned = sequential.synthesize(request_for("sum", request_id="rider"))
        wire = json.dumps(owned.to_dict(), default=str)

        rider = engine.submit(request)  # returns at once: nothing waits on a worker
        time.sleep(0.05)
        assert not rider.done()  # genuinely waiting on the in-flight owner
        assert not rider._future.cancel()  # a caller's cancel() only detaches
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
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
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


def test_unparseable_owner_envelope_fails_every_rider():
    """A wire envelope that does not parse resolves every rider with that error."""
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        request = request_for("sum", request_id="garbled")
        key = engine._response_key(request)
        owner_future: Future = Future()
        with engine._inflight_lock:
            engine._inflight[key] = owner_future
        riders = [engine.submit(request) for _ in range(2)]
        assert not any(rider.done() for rider in riders)
        owner_future.set_result("{not json")
        for rider in riders:
            with pytest.raises(json.JSONDecodeError):
                rider.result(timeout=30)
        with engine._inflight_lock:
            engine._inflight.pop(key, None)


# -- the pooled-engine contract ----------------------------------------------------


def test_pooled_engine_starts_no_request_threads():
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        responses = list(engine.map([request_for("sum"), request_for("freire1")]))
        assert sorted(response.status for response in responses) == ["ok", "ok"]
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("repro-engine")]


def test_reduce_only_on_pooled_engine_runs_in_calling_thread(monkeypatch):
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        builders = []
        build = engine.cache.get_or_build_with_report

        def recording_build(job):
            builders.append(threading.current_thread())
            return build(job)

        monkeypatch.setattr(engine.cache, "get_or_build_with_report", recording_build)
        response = engine.synthesize(request_for("sum", reduce_only=True))
    assert response.status == "reduced"
    assert response.task is not None
    assert response.system_size == response.task.system.size
    assert builders == [threading.current_thread()]


# -- crash handling ----------------------------------------------------------------


def test_worker_crash_becomes_structured_error(monkeypatch):
    monkeypatch.setenv(FAULT_MARKER_ENV, "crash-me")
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        crashed = engine.synthesize(request_for("sum", request_id="crash-me"))
        assert crashed.status == "error"
        assert crashed.error is not None and crashed.error.type == "WorkerCrashed"
        # The pool rebuilt: the very next request succeeds.
        after = engine.synthesize(request_for("sum", request_id="survivor"))
        assert after.status == "ok"
        stats = engine.stats()
        assert stats["process_jobs_failed"] == 1.0
        assert stats["process_jobs"] == 2.0


def test_worker_crash_spares_the_queued_backlog(monkeypatch):
    """A crash fails the jobs in the executor, at most one per worker, not the queue."""
    monkeypatch.setenv(FAULT_MARKER_ENV, "crash-me")
    requests = [
        request_for(
            "sum",
            request_id="crash-me" if seed == 0 else f"queued-{seed}",
            solver_options=SolverOptions(restarts=1, max_iterations=60, seed=seed),
        )
        for seed in range(7)
    ]
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        handles = [engine.submit(request) for request in requests]
        responses = {handle.request.request_id: handle.result(timeout=120) for handle in handles}
        crashed = sorted(
            request_id
            for request_id, response in responses.items()
            if response.error is not None and response.error.type == "WorkerCrashed"
        )
        assert "crash-me" in crashed and len(crashed) <= engine.workers
        survivors = [r for r in responses.values() if r.request_id not in crashed]
        assert len(survivors) >= len(requests) - engine.workers
        assert all(response.status == "ok" for response in survivors)
        assert engine.stats()["process_jobs_failed"] == float(len(crashed))


def test_close_runs_queued_jobs_first():
    engine = Engine(workers=2, solver_options=QUICK_SOLVE)
    handles = [
        engine.submit(
            request_for("sum", solver_options=SolverOptions(restarts=1, max_iterations=60, seed=seed))
        )
        for seed in range(5)
    ]
    engine.close()
    assert [handle.result(timeout=0).status for handle in handles] == ["ok"] * 5


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
        Engine(workers=2, solver_options=QUICK_SOLVE)
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
    engine = Engine(workers=2, solver_options=QUICK_SOLVE)
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


def test_deadline_epoch_bounds_the_solve_only_downward(solve_limits):
    # (request deadline, seconds to the epoch); a fresh engine each, so no
    # request shares another's solve.
    for deadline, ahead in ((10.0, 0.5), (10.0, 100.0), (None, 0.5)):
        with Engine(solver_options=QUICK_SOLVE) as engine:
            engine.synthesize(
                request_for("sum", deadline=deadline), deadline_epoch=time.time() + ahead
            )
    near, far, epoch_only = solve_limits
    # Less left than the request's own deadline: the solve gets what is left.
    assert 0 < near <= 0.5
    # More left: the request's own deadline still bounds the solve.
    assert far == 10.0
    # An epoch bounds the request even when it declares no deadline.
    assert 0 < epoch_only <= 0.5


def test_expired_deadline_yields_deadline_error_not_hang():
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        response = engine.synthesize(
            request_for("sum", request_id="expired", deadline=5.0),
            deadline_epoch=time.time() - 1.0,  # budget already gone on arrival
        )
        # The worker runs the solve on a spent budget: it stops at its
        # first deadline check, and never reports a completed descent.
        assert response.solver_status in (
            "feasible-at-deadline",
            "infeasible-best-effort",
            "no-progress",
        )
        assert response.timings["solve_seconds"] < 0.25


# -- the worker pool in isolation --------------------------------------------------


def test_worker_pool_round_trips_json_envelope():
    pool = ProcessWorkerPool(
        1, WorkerConfig(solver_options={"restarts": 1, "max_iterations": 60})
    )
    try:
        wire = pool.submit(request_for("sum").to_dict(), None).result(timeout=120)
        envelope = json.loads(wire)
        assert envelope["status"] == "ok"
        assert envelope["request_id"] == "sum"
    finally:
        pool.close()


def test_worker_pool_queue_under_concurrent_submitters(monkeypatch):
    """Racing submitters: every job completes and the executor never holds more than one per worker."""
    pool = ProcessWorkerPool(2, WorkerConfig())
    document = request_for("sum", reduce_only=True).to_dict()
    held = []
    settle = pool._settle

    def recording_settle(executor, envelope, job):
        held.append(pool._running)
        settle(executor, envelope, job)

    monkeypatch.setattr(pool, "_settle", recording_settle)
    envelopes, lock = [], threading.Lock()

    def submitter():
        for _ in range(10):
            envelope = pool.submit(document, None)
            with lock:
                envelopes.append(envelope)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        statuses = [json.loads(envelope.result(timeout=120))["status"] for envelope in envelopes]
    finally:
        sys.setswitchinterval(interval)
        pool.close()
    assert statuses == ["reduced"] * 40
    assert len(held) == 40 and max(held) <= pool.workers
    assert pool._running == 0 and not pool._queue


def test_closed_worker_pool_refuses_jobs_and_forks_nothing():
    pool = ProcessWorkerPool(1, WorkerConfig())
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(request_for("sum").to_dict(), None)
    assert pool._executor is None and pool.worker_pids() == []


def test_worker_pool_rejects_zero_workers():
    with pytest.raises(ValueError, match="at least one worker"):
        ProcessWorkerPool(0, WorkerConfig())
