"""The process-backed synthesis executor: whole jobs over a JSON wire protocol.

:class:`ProcessWorkerPool` owns a pool of persistent worker processes, each
holding one warm sequential :class:`~repro.api.engine.Engine` (built once per
worker by the pool initializer and reused for every job — its
:class:`~repro.pipeline.cache.TaskCache` and solve-dedup table stay hot
across jobs).  A job ships the *entire* synthesize path — Steps 1-3
reduction, the Step-4 solve, verification and repair — to a worker, so
concurrent cold traffic runs on as many cores as there are workers instead of
serialising on the parent's GIL.

The wire protocol is deliberately identical to the HTTP one:

* **in** — one JSON document ``{"request": <SynthesisRequest.to_dict()>,
  "deadline_epoch": <float | null>}``; the request is rebuilt in the worker
  with the strict :meth:`~repro.api.request.SynthesisRequest.from_dict`
  codec, and the epoch anchors the request's wall-clock deadline across the
  process boundary (queue time counts against the budget).
* **out** — the :meth:`~repro.api.response.SynthesisResponse.to_dict`
  envelope as one JSON string, re-parsed by the parent with the strict
  response codec.

Nothing symbolic ever crosses the boundary — no pickled live ``Polynomial``
or ``SynthesisTask`` objects.  This pool is the only process pool an
:class:`~repro.api.engine.Engine` owns.  Store writes happen *in the
workers* (the store is process-safe by construction), so a store hit
in the parent still short-circuits dispatch entirely, and everything a worker
computes is immediately visible to the parent and to sibling workers.

A worker that dies mid-job (OOM kill, native crash, ``os._exit``) surfaces as
:class:`WorkerCrashError`; the pool discards the broken executor and rebuilds
it lazily on the next job.  A dying worker fails every job its executor
holds, started or not, so jobs wait in a parent-side queue and the executor
holds at most one per worker: a crash costs the jobs running beside it,
never the queue behind them and never the engine.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

#: Fault-injection hook (tests, chaos drills): when this environment variable
#: is set at engine construction, a worker receiving a request whose
#: ``request_id`` equals its value exits mid-job with :data:`FAULT_EXIT_CODE`
#: — exercising the crash path deterministically.  Unset in production.
FAULT_MARKER_ENV = "REPRO_PROCESS_FAULT_MARKER"

#: Exit code of a fault-injected worker crash.
FAULT_EXIT_CODE = 3


class WorkerCrashError(Exception):
    """A worker process died before returning its job's response envelope."""


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its engine — JSON-able by design.

    The config crosses the process boundary as a plain dict of primitives
    (the same rule as the job payloads): the store travels as its root path,
    solver options as their field dict, never as live objects.
    """

    store_root: str | None = None
    solver_options: dict | None = None
    max_cached_solves: int | None = 512
    fault_marker: str | None = None


# ---------------------------------------------------------------------------
# Worker-process side (module-level for picklability under every start method)
# ---------------------------------------------------------------------------

_WORKER_ENGINE = None
_WORKER_CONFIG: WorkerConfig | None = None


def _worker_init(config_fields: dict) -> None:
    """Pool initializer: build this worker's warm sequential engine once."""
    global _WORKER_ENGINE, _WORKER_CONFIG
    from repro.api.engine import Engine
    from repro.solvers.base import SolverOptions

    config = WorkerConfig(**config_fields)
    solver_options = (
        SolverOptions(**config.solver_options) if config.solver_options is not None else None
    )
    _WORKER_CONFIG = config
    _WORKER_ENGINE = Engine(
        workers=0,
        solver_options=solver_options,
        store=config.store_root,
        max_cached_solves=config.max_cached_solves,
    )


def _worker_warmup(_: int) -> int:
    """No-op job used to fork every worker eagerly from the constructing thread."""
    return os.getpid()


def run_job(payload: str) -> str:
    """Execute one synthesize job in this worker: JSON document in, JSON out.

    The worker engine does everything the parent would have done in-process —
    stage-cached reduction, solve dedup, verification, store writes —
    and the returned envelope is exactly what
    :meth:`~repro.api.response.SynthesisResponse.to_dict` emits (serialised
    with the store's ``default=str`` codec, so exact-rational certificate
    entries travel as text just like on disk and over HTTP).
    """
    from repro.api.request import SynthesisRequest

    job = json.loads(payload)
    request = SynthesisRequest.from_dict(job["request"])
    config = _WORKER_CONFIG
    if config is not None and config.fault_marker and request.request_id == config.fault_marker:
        os._exit(FAULT_EXIT_CODE)  # fault injection: die exactly like a native crash
    response = _WORKER_ENGINE.synthesize(request, deadline_epoch=job.get("deadline_epoch"))
    return json.dumps(response.to_dict(), default=str)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class ProcessWorkerPool:
    """A persistent pool of synthesis worker processes speaking JSON.

    Thread-safe: any thread may submit jobs.  A broken pool (worker killed
    mid-job) is discarded and rebuilt lazily for the next queued job; the
    jobs that observed the crash fail with :class:`WorkerCrashError` for
    their caller to convert into a structured ``status="error"`` envelope.
    """

    def __init__(self, workers: int, config: WorkerConfig) -> None:
        if workers < 1:
            raise ValueError(f"process pool needs at least one worker, got {workers}")
        self.workers = workers
        self.config = config
        self._lock = threading.Condition()  # re-entrant; guards every field below
        self._executor: ProcessPoolExecutor | None = None
        self._queue: deque[tuple[str, Future]] = deque()
        self._running = 0  # jobs in the executor, at most ``workers``
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_worker_init,
                    initargs=(dataclasses.asdict(self.config),),
                )
            return self._executor

    def warm(self) -> None:
        """Fork (and engine-initialise) every worker now, from this thread.

        Called at engine construction so workers are spawned from the
        constructing thread rather than mid-request from whichever thread
        submits first.
        """
        executor = self._ensure()
        list(executor.map(_worker_warmup, range(self.workers)))

    def close(self, wait: bool = True) -> None:
        """Stop the workers; ``wait`` runs every queued job first, else they are cancelled."""
        with self._lock:
            self._closed = True
            if wait:
                self._lock.wait_for(lambda: not self._queue and not self._running)
            queued, self._queue = self._queue, deque()
            executor, self._executor = self._executor, None
        for _, envelope in queued:
            envelope.cancel()
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- jobs --------------------------------------------------------------------

    def submit(self, request_document: dict, deadline_epoch: float | None = None) -> Future:
        """Queue one job for a worker; returns a future of its envelope JSON.

        The future fails with :class:`WorkerCrashError` when the worker dies
        mid-job; any other exception a worker raises travels back as itself
        (the worker engine's contract makes that a programming error, not a
        request failure — request failures arrive as ``status="error"``
        envelopes).  It completes on the pool's result thread, so callbacks
        chained on it never block a caller.
        """
        payload = json.dumps(
            {"request": request_document, "deadline_epoch": deadline_epoch}, default=str
        )
        envelope: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("the worker pool is closed")
            self._queue.append((payload, envelope))
        self._pump()
        return envelope

    def _pump(self) -> None:
        """Move queued jobs into the executor while it holds fewer than one per worker."""
        started = []
        with self._lock:
            while self._queue and self._running < self.workers:
                executor = self._ensure()
                try:
                    job = executor.submit(run_job, self._queue[0][0])
                except BrokenProcessPool:
                    # It broke while idle, so no failing job discarded it;
                    # this job never started and waits for a fresh pool.
                    self._executor = None
                    continue
                self._running += 1
                started.append((executor, self._queue.popleft()[1], job))
        # Outside the lock: a job already done runs its callback right here.
        for executor, envelope, job in started:
            job.add_done_callback(lambda done, e=executor, f=envelope: self._settle(e, f, done))

    def _settle(self, executor: ProcessPoolExecutor, envelope: Future, job: Future) -> None:
        """Complete one job's envelope, free its executor slot and start the next job."""
        try:
            envelope.set_result(job.result())
        except BrokenProcessPool as exc:
            # The executor's own result thread terminates its workers, and
            # this may run on that thread, so it is only forgotten here.
            with self._lock:
                if self._executor is executor:
                    self._executor = None
            crash = WorkerCrashError(
                "synthesis worker process died mid-job; the pool has been rebuilt"
            )
            crash.__cause__ = exc
            envelope.set_exception(crash)
        except Exception as exc:  # the worker's own error, or a cancelled job
            envelope.set_exception(exc)
        finally:
            with self._lock:
                self._running -= 1
                self._lock.notify_all()
            self._pump()

    # -- introspection -----------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (diagnostics and crash tests)."""
        with self._lock:
            executor = self._executor
        if executor is None or executor._processes is None:  # noqa: SLF001 - stdlib has no public view
            return []
        return list(executor._processes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cold" if self._executor is None else f"{len(self.worker_pids())} live"
        return f"ProcessWorkerPool(workers={self.workers}, {state})"
