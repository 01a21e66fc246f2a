"""The Engine: one service-grade front door for every synthesis caller.

An :class:`Engine` is a long-lived session object that owns the Step 1-3
:class:`~repro.pipeline.cache.TaskCache` (and, when pooled, its worker
processes), and executes typed
:class:`~repro.api.request.SynthesisRequest` values:

* :meth:`Engine.synthesize` — one request, blocking, returns a
  :class:`~repro.api.response.SynthesisResponse` (never raises for
  per-request failures; they arrive as structured errors on the envelope);
* :meth:`Engine.submit` — non-blocking, returns a :class:`SynthesisHandle`;
* :meth:`Engine.map` — many requests, streaming completed responses **as
  they finish** (out of order, each stamped with its submission id);
* :meth:`Engine.close` / context-manager lifecycle.

Identical requests share work at two levels: reductions are deduplicated
through the task cache, and solves through a per-``(reduction, strategy,
solver options)`` result table — the second of two identical requests
reports ``shared_solve=True`` and reuses the first's solver result.

A pooled engine (``workers > 1``) hands every wire-clean request as a whole
job to one :class:`~repro.api.workers.ProcessWorkerPool`, the only process
pool an engine ever owns; the worker's envelope completes the request's
handle, so no engine thread ever waits on a worker.

The four paper-named functions in :mod:`repro.invariants.synthesis`, the
``repro.bench`` runner and the HTTP front door in :mod:`repro.server` are all
thin layers over this class.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.api.errors import EngineClosedError, RequestValidationError
from repro.api.request import STRONG_MODES, SynthesisRequest
from repro.api.response import ErrorInfo, SynthesisResponse, response_from_result
from repro.api.workers import (
    FAULT_MARKER_ENV,
    ProcessWorkerPool,
    WorkerConfig,
    WorkerCrashError,
)
from repro.invariants.synthesis import (
    SynthesisTask,
    enumerate_task,
    result_from_solution,
)
from repro.pipeline.cache import TaskCache
from repro.reduction.escalate import DEADLINE_SKIPPED, EscalationAttempt, EscalationTrace
from repro.reduction.task import STAGE_NAMES
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.portfolio import make_solver
from repro.solvers.problem import Deadline
from repro.solvers.strong import RepresentativeEnumerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import BlobStore, EngineStore

#: Remaining-deadline floor below which another escalation rung is pointless.
_ESCALATION_MIN_BUDGET = 0.01

#: Size bound of an engine's own Step 1-3 task cache and of each of its stage
#: tables (oldest entries evicted first).
DEFAULT_CACHE_ENTRIES = 128

#: The engine's own :meth:`Engine.stats` counters, each starting at zero.
_COUNTERS = (
    "translation_compile_seconds",
    "translation_fanout_seconds",
    "translation_assemble_seconds",
    "verify_requested",
    "verify_passed",
    "verify_failed",
    "repair_rounds",
    "repair_successes",
    "certificates_issued",
    "solver_residual_evaluations",
    "solver_jacobian_evaluations",
    "solver_batch_width_max",
    "store_response_hits",
    "store_response_misses",
    "store_response_writes",
    "store_solve_hits",
    "store_solve_writes",
    "store_certificates_stored",
    "process_jobs",
    "process_jobs_shared",
    "process_jobs_failed",
)


def _solve_system(solver: Solver, system) -> tuple[SolverResult, float]:
    """One Step-4 solve and its own compute time.

    Module-level so tracing can wrap every solve the engine runs at one
    name; the time excludes the dedup table and store lookups around it.
    """
    start = time.perf_counter()
    result = solver.solve(system)
    return result, time.perf_counter() - start


class SynthesisHandle:
    """A submitted request: a future-style handle onto its response.

    ``result()`` never raises for synthesis failures — those come back as an
    ``status="error"`` response — only for caller-side problems such as a
    ``timeout``.
    """

    def __init__(self, submission_id: int, request: SynthesisRequest, future: Future):
        self.submission_id = submission_id
        self.request = request
        self._future = future

    def done(self) -> bool:
        """Whether the response is ready."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> SynthesisResponse:
        """Block until the response is ready and return it."""
        return self._future.result(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done() else "pending"
        return f"SynthesisHandle(id={self.submission_id}, {state})"


class Engine:
    """A synthesis session: persistent task cache plus, when pooled, worker processes.

    Parameters
    ----------
    workers:
        ``0`` or ``1`` executes requests synchronously in the submitting
        thread.  ``n > 1`` — the production path — ships wire-clean
        requests as whole synthesize jobs (reduce, solve, verify) to ``n``
        persistent worker processes over the strict JSON wire protocol
        (:mod:`repro.api.workers`): each worker holds a warm sequential
        engine with its own stage caches, store writes happen in the
        workers, identical in-flight requests are deduplicated parent-side
        (the rider's envelope reports ``shared_solve=True``), and a worker
        crash mid-job becomes a structured ``status="error"`` envelope while
        the pool rebuilds.  Such responses carry the JSON envelope only (no
        in-process ``result``/``task`` extras), exactly as over the wire.
        Requests that need live objects — the ``solver``/``task``/
        ``enumerator`` escape hatches and ``reduce_only`` — execute in the
        submitting thread, as on a sequential engine.
    cache:
        The Step 1-3 task cache; pass a shared instance to reuse reductions
        across engines (e.g. between a service and its warm-up script).
        ``None`` builds one bounded to :data:`DEFAULT_CACHE_ENTRIES` entries
        per table, so a long-lived engine's memory stays bounded.
    solver_options:
        Default Step-4 solver knobs; a request's own
        ``solver_options``/``deadline`` override/tighten these.  Each
        request's solver is resolved from its options'
        ``strategy``/``portfolio`` knobs.
    max_cached_solves:
        Size bound of the solve-dedup result table (oldest entries evicted
        first), so a long-lived engine's memory stays bounded.  ``None``
        disables eviction.
    store:
        The persistent content-addressed store (:mod:`repro.store`): an
        :class:`~repro.store.EngineStore`, a :class:`~repro.store.BlobStore`
        or a root directory path.  When set, the engine (1) re-serves whole
        response envelopes for previously completed requests straight from
        disk (``served_from_store=True``; nothing is recomputed — not even by
        this process or since the last restart), (2) persists every feasible
        Step-4 solve under its stable content hash, so requests differing
        only in e.g. their verification tier reuse the solve across
        processes, and (3) files every issued certificate under its own
        fingerprint (named in ``verification["certificate_sha"]``).  The
        engine writes nothing to disk outside the store root, and nothing at
        all without a store.  A corrupt or half-written blob degrades to a
        cache miss, never an error.  Store-served responses carry the JSON
        envelope only — the in-process ``result``/``task`` extras are
        absent, exactly as over the wire.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: TaskCache | None = None,
        solver_options: SolverOptions | None = None,
        max_cached_solves: int | None = 512,
        store: "EngineStore | BlobStore | str | None" = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if max_cached_solves is not None and max_cached_solves < 0:
            raise ValueError(f"max_cached_solves must be non-negative or None, got {max_cached_solves}")
        self.workers = workers
        self.cache = cache if cache is not None else TaskCache(max_entries=DEFAULT_CACHE_ENTRIES)
        self.max_cached_solves = max_cached_solves
        self.solver_options = solver_options
        self._jobs: ProcessWorkerPool | None = None
        self._inflight: dict[str, Future] = {}
        # Re-entrant: ``_dispatch`` hands jobs to the pool under it, and an
        # older queued job the pool starts there may, in principle, finish
        # before its callback is chained; ``_retire`` then runs in this thread.
        self._inflight_lock = threading.RLock()
        self._solves: dict[tuple, Future] = {}
        self._solve_lock = threading.Lock()
        self._submit_lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._counter_lock = threading.Lock()
        self._counters = dict.fromkeys(_COUNTERS, 0.0)
        self.store: "EngineStore | None" = None
        if store is not None:
            from repro.store import open_store

            self.store = open_store(store)
        if self.workers > 1:
            # Fork the job workers now, from the constructing thread, so the
            # pool is warm for the first request.  A construction failure
            # tears the partial pool down: a half-built engine must leave no
            # child processes.
            pool = ProcessWorkerPool(self.workers, self._worker_config())
            try:
                pool.warm()
            except BaseException:
                pool.close(wait=False)
                raise
            self._jobs = pool

    def _worker_config(self) -> WorkerConfig:
        """The JSON-able config the job workers build their engines from."""
        return WorkerConfig(
            store_root=self.store.root if self.store is not None else None,
            solver_options=(
                dataclasses.asdict(self.solver_options)
                if self.solver_options is not None
                else None
            ),
            max_cached_solves=self.max_cached_solves,
            fault_marker=os.environ.get(FAULT_MARKER_ENV),
        )

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, wait_for_pending: bool = True) -> None:
        """Shut the worker processes down; further submissions raise :class:`EngineClosedError`."""
        with self._inflight_lock:  # exclusive with _dispatch's hand-off to the pool
            self._closed = True
            jobs, self._jobs = self._jobs, None
        if jobs is not None:
            jobs.close(wait=wait_for_pending)

    def stats(self) -> dict[str, float]:
        """Cache and dedup counters (for service dashboards).

        Includes the per-stage hit/miss counters of the staged reduction
        (``stage_frontend_hits``, ``stage_translation_misses``, ...) next to
        the historical whole-task counters.
        """
        stats = self.cache.stats()
        with self._solve_lock:
            stats["solves_cached"] = float(len(self._solves))
        stats["submissions"] = float(self._next_id)
        with self._counter_lock:
            stats.update(self._counters)
        with self._inflight_lock:
            stats["process_inflight"] = float(len(self._inflight))
        if self.store is not None:
            stats.update(self.store.stats())
        return stats

    def _count(self, **deltas: float) -> None:
        """Add to the :meth:`stats` counters."""
        with self._counter_lock:
            for key, delta in deltas.items():
                self._counters[key] += delta

    def _record_translation(self, report) -> None:
        """Accumulate a reduction's translation sub-phase split into :meth:`stats`.

        Only reductions whose translation stage actually ran carry the split
        (``ReductionReport.extra_timings``); cached stages contribute nothing.
        """
        extra = dict(report.extra_timings)
        self._count(
            **{
                f"translation_{phase}_seconds": extra.get(f"stage_translation_{phase}_seconds", 0.0)
                for phase in ("compile", "fanout", "assemble")
            }
        )

    def _record_verification(self, outcome) -> None:
        self._count(
            verify_requested=1,
            verify_passed=float(outcome.verified),
            verify_failed=float(not outcome.verified),
            repair_rounds=outcome.repair_rounds,
            repair_successes=float(outcome.repaired),
            certificates_issued=float(outcome.certificate is not None),
        )

    # -- submission --------------------------------------------------------------

    def synthesize(
        self,
        request: SynthesisRequest,
        *,
        solver: Solver | None = None,
        task: SynthesisTask | None = None,
        enumerator: RepresentativeEnumerator | None = None,
        deadline_epoch: float | None = None,
    ) -> SynthesisResponse:
        """Execute one request and return its response (blocking).

        The keyword-only ``solver``/``task``/``enumerator`` escape hatches
        carry live in-process objects (a pre-built Step 1-3 reduction, a
        hand-configured solver); they are not part of the wire format and
        bypass the solve-dedup table.  ``deadline_epoch`` is the absolute
        wall-clock instant (``time.time()`` scale) the request must finish
        by; it defaults to ``request.deadline`` seconds after admission, so
        a deadline keeps ticking across queueing and process hops.  An
        explicit epoch bounds the request even without a ``deadline``.
        Callers normally leave it ``None``.  Execution turns the epoch into
        one :class:`~repro.solvers.problem.Deadline` that the solve, the
        lift and repair all read what remains from.
        """
        return self.submit(
            request,
            solver=solver,
            task=task,
            enumerator=enumerator,
            deadline_epoch=deadline_epoch,
        ).result()

    def submit(
        self,
        request: SynthesisRequest,
        *,
        solver: Solver | None = None,
        task: SynthesisTask | None = None,
        enumerator: RepresentativeEnumerator | None = None,
        deadline_epoch: float | None = None,
    ) -> SynthesisHandle:
        """Schedule one request; returns a handle whose ``result()`` is the response.

        On a pooled engine a wire-clean request returns at once, its handle
        completed later by a worker's envelope; every other request executes
        here, in the calling thread, before its handle is returned.
        """
        if self._closed:
            raise EngineClosedError("engine is closed")
        if not isinstance(request, SynthesisRequest):
            raise RequestValidationError.single("$", "expected a SynthesisRequest")
        if deadline_epoch is None and request.deadline is not None:
            # Anchor the relative deadline now, at admission: queue time and
            # the process hop both count against the request's budget.
            deadline_epoch = time.time() + float(request.deadline)
        with self._submit_lock:
            submission_id = self._next_id
            self._next_id += 1
        # A request is wire-clean when everything it needs round-trips the
        # JSON codec: no live solver/task/enumerator escape hatches, and the
        # caller does not want the in-process ``task`` back (``reduce_only``).
        # Only wire-clean requests are captured by their content key, so only
        # they can hit the store or ship to a worker process.
        wire_clean = (
            solver is None and task is None and enumerator is None and not request.reduce_only
        )
        # The persistent store short-circuits the whole request: an identical
        # request completed by any process against this root — including a
        # previous life of this one — is re-served from disk.  Store keys are
        # computed from the request as submitted (it is never rewritten), so
        # warm hits are stable across queue delays and restarts.
        key = served = None
        if self.store is not None and wire_clean:
            key, served = self._from_store(request, submission_id)
        future: Future = Future()
        # Running from the start, like a job a thread has picked up: a
        # caller's cancel() (an HTTP client gone mid-stream) then detaches
        # instead of leaving the worker's envelope nothing to complete.
        future.set_running_or_notify_cancel()
        if served is not None:
            future.set_result(served)
        elif self.workers > 1 and wire_clean:
            key = key if key is not None else self._response_key(request)
            self._dispatch(future, key, request, submission_id, deadline_epoch)
        else:
            future.set_result(
                self._execute(request, submission_id, solver, task, enumerator, deadline_epoch, key)
            )
        return SynthesisHandle(submission_id, request, future)

    def map(
        self, requests: Iterable[SynthesisRequest], ordered: bool = False
    ) -> Iterator[SynthesisResponse]:
        """Stream responses for many requests as they finish.

        By default completed responses are yielded **out of submission
        order** — whichever request finishes first arrives first, stamped
        with its ``submission_id`` so callers can match them back.  Pass
        ``ordered=True`` for submission-order delivery (still streaming: each
        response is yielded as soon as it and all its predecessors are done).
        A failing request yields an ``status="error"`` response; it never
        raises out of the iterator.
        """
        if self.workers <= 1:
            # Sequential engines execute on submit; stream lazily, one by one.
            for request in requests:
                yield self.submit(request).result()
            return
        handles = [self.submit(request) for request in requests]
        if ordered:
            for handle in handles:
                yield handle.result()
            return
        pending = {handle._future: handle for handle in handles}
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                handle = pending.pop(future)
                yield handle.result()

    # -- execution ---------------------------------------------------------------

    def _effective_solver_options(self, request: SynthesisRequest) -> SolverOptions | None:
        """Request solver options over engine defaults, tightened by the declared deadline.

        They depend on the request as submitted, never on the clock, so
        identical requests get identical solve keys; the solve itself runs
        on what remains of the request's :class:`Deadline` (:meth:`_run_solve`).
        """
        options = request.solver_options if request.solver_options is not None else self.solver_options
        if request.deadline is None:
            return options
        return (options if options is not None else SolverOptions()).within(float(request.deadline))

    def _execute(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        task: SynthesisTask | None,
        enumerator: RepresentativeEnumerator | None,
        deadline_epoch: float | None,
        store_key: str | None,
    ) -> SynthesisResponse:
        """Execute one request in the calling thread; a ``store_key`` files its response.

        The wall-clock ``deadline_epoch`` becomes the request's one
        :class:`Deadline` here, in whichever process runs the job.  A
        response built after that deadline passed may have been starved of
        its budget, so it is not filed for later requests.
        """
        deadline = Deadline.after(None if deadline_epoch is None else deadline_epoch - time.time())
        if request.options.is_auto_degree and task is None:
            response = self._execute_escalation(request, submission_id, solver, enumerator, deadline)
        else:
            response = self._execute_fixed(request, submission_id, solver, task, enumerator, deadline)
        if store_key is not None and response.exception is None and not deadline.expired():
            if self.store.responses.store(store_key, response):
                self._count(store_response_writes=1)
        return response

    def _response_key(self, request: SynthesisRequest) -> str:
        """The content key of a wire-clean request's response.

        The response store files envelopes under it, and a pooled engine
        deduplicates in-flight jobs by it.  ``request_id`` is excluded, so
        two clients racing the same program share one entry; the engine's
        default solver options participate because they shape the solve.
        """
        from repro.store.views import ResponseStore

        return ResponseStore.key_for(request, repr(self.solver_options))

    def _from_store(
        self, request: SynthesisRequest, submission_id: int
    ) -> tuple[str, SynthesisResponse | None]:
        """The request's response key, and its stored envelope (``None`` on a miss).

        A hit is stamped for this submission with no recompute.  Volatile
        bookkeeping is rewritten to reflect what actually happened *now*:
        zero reduction/solve work, every stage effectively cached, and the
        store lookup as the total cost.  The semantic payload (status,
        invariants, assignment, certificate, ...) is the stored one.
        """
        start = time.perf_counter()
        key = self._response_key(request)
        served = self.store.responses.load(key)
        if served is None:
            self._count(store_response_misses=1)
            return key, None
        self._count(store_response_hits=1)
        seconds = time.perf_counter() - start
        served.request_id = request.request_id
        served.submission_id = submission_id
        served.from_cache = True
        served.shared_solve = True
        served.served_from_store = True
        served.timings = {
            "reduction_seconds": 0.0,
            "solve_seconds": 0.0,
            "stages_from_cache": float(len(STAGE_NAMES)),
            "store_seconds": seconds,
            "total_seconds": seconds,
        }
        return key, served

    # -- the process-backed job path ---------------------------------------------

    def _dispatch(
        self,
        future: Future,
        key: str,
        request: SynthesisRequest,
        submission_id: int,
        deadline_epoch: float | None,
    ) -> None:
        """Ship one synthesize job to a worker process (or ride a twin's).

        Runs in the calling thread and never waits on a worker.  The first
        request for a given content ``key`` *owns* a worker job — reduce,
        solve, verify and store writes all run in the worker — and identical
        requests arriving while it is in flight become *riders* on the
        owner's wire future, each parsing its own copy of the envelope
        (``shared_solve=True``, like a dedup hit).  The envelope completes
        ``future``.
        """
        started = time.perf_counter()
        with self._inflight_lock:
            wire = self._inflight.get(key)
            owner = wire is None or wire.done()
            if owner:
                jobs = self._jobs
                if jobs is None:
                    raise EngineClosedError("engine is closed")
                wire = jobs.submit(request.to_dict(), deadline_epoch)
                self._inflight[key] = wire
            self._count(**{"process_jobs" if owner else "process_jobs_shared": 1})
        if owner:
            # Registered before the owner's own completion, so a caller
            # holding every response also sees an empty in-flight table.
            wire.add_done_callback(lambda done: self._retire(key, done))
        wire.add_done_callback(
            lambda done: self._settle(
                future, done, request, submission_id, started if owner else None
            )
        )

    def _retire(self, key: str, wire: Future) -> None:
        with self._inflight_lock:
            if self._inflight.get(key) is wire:
                del self._inflight[key]

    def _settle(
        self,
        future: Future,
        wire: Future,
        request: SynthesisRequest,
        submission_id: int,
        started: float | None,
    ) -> None:
        """Complete one submission from its job's wire envelope (``started`` marks the owner).

        Runs as a done-callback, so every failure must land on ``future``: a
        callback that raised would leave the handle pending forever.  A
        worker crash mid-job becomes a structured ``status="error"``
        envelope for the owner and every rider — never an exception.
        """
        try:
            response = self._envelope_from_wire(wire.result(), request, submission_id, started)
        except WorkerCrashError as exc:
            if started is not None:
                self._count(process_jobs_failed=1)
            response = SynthesisResponse(
                mode=request.mode,
                status="error",
                request_id=request.request_id,
                submission_id=submission_id,
                error=ErrorInfo(type="WorkerCrashed", message=str(exc)),
            )
        except Exception as exc:
            future.set_exception(exc)
            return
        future.set_result(response)

    @staticmethod
    def _envelope_from_wire(
        wire: str, request: SynthesisRequest, submission_id: int, started: float | None
    ) -> SynthesisResponse:
        """Parse a worker's envelope and stamp it for this submission.

        Riders get their own parsed copy (responses are mutable), flagged
        ``from_cache``/``shared_solve`` exactly like an in-memory dedup hit;
        the owner's records the job's wall-clock.
        """
        response = SynthesisResponse.from_dict(json.loads(wire))
        response.request_id = request.request_id
        response.submission_id = submission_id
        if started is None:
            response.from_cache = True
            response.shared_solve = True
        else:
            timings = dict(response.timings)
            timings["process_wall_seconds"] = time.perf_counter() - started
            response.timings = timings
        return response

    def _execute_escalation(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        enumerator: RepresentativeEnumerator | None,
        deadline: Deadline,
    ) -> SynthesisResponse:
        """Adaptive degree escalation: run the d = 1..max_degree ladder.

        Each rung is an ordinary fixed-degree execution (so it shares the
        degree-independent reduction stages and the solve-dedup table with
        everything else), under whatever remains of the request ``deadline``.
        The first rung that yields an invariant wins — its response is
        returned, stamped with the full :class:`EscalationTrace`; errors at a
        rung (e.g. an objective the small template cannot express) are
        recorded and escalation continues.
        """
        total_start = time.perf_counter()
        attempts: list[EscalationAttempt] = []
        last_response: SynthesisResponse | None = None
        last_usable: SynthesisResponse | None = None
        final_degree: int | None = None
        exhausted = False
        for degree in request.options.escalation_degrees():
            remaining = deadline.remaining()
            if remaining is not None and remaining <= _ESCALATION_MIN_BUDGET:
                attempts.append(EscalationAttempt(degree=degree, status=DEADLINE_SKIPPED))
                exhausted = True
                break
            derived = dataclasses.replace(request, options=replace(request.options, degree=degree))
            start = time.perf_counter()
            response = self._execute_fixed(derived, submission_id, solver, None, enumerator, deadline)
            seconds = time.perf_counter() - start
            attempts.append(
                EscalationAttempt(
                    degree=degree,
                    status=response.status,
                    seconds=seconds,
                    reduction_seconds=response.timings.get("reduction_seconds", 0.0),
                    solve_seconds=response.timings.get("solve_seconds", 0.0),
                    from_cache=response.from_cache,
                    error=f"{response.error.type}: {response.error.message}" if response.error else None,
                )
            )
            last_response = response
            if response.status != "error":
                last_usable = response
            # A rung only wins outright when its invariant also passed the
            # requested verification tier; an "ok"-but-unverified rung is
            # kept as a fallback while escalation tries higher degrees for a
            # certifiable one.
            if response.status == "ok" and (
                response.verification is None or response.verification.get("verified")
            ):
                final_degree = degree
                break
        trace = EscalationTrace(
            attempts=tuple(attempts), final_degree=final_degree, exhausted_deadline=exhausted
        )
        # Prefer the winning rung; otherwise the last rung that at least ran
        # the solver; otherwise the last error.
        chosen = last_usable if final_degree is None else last_response
        if chosen is None:
            chosen = last_response
        if chosen is None:  # the deadline was spent before rung 1
            chosen = SynthesisResponse(
                mode=request.mode,
                status="no_invariant",
                request_id=request.request_id,
                submission_id=submission_id,
            )
        chosen.escalation = trace.to_dict()
        # Aggregate the ladder's timings over the winning rung's own — keeping
        # its stage_* breakdown and stages_from_cache visible.
        merged = dict(chosen.timings)
        merged.update(
            {
                "reduction_seconds": sum(a.reduction_seconds for a in attempts),
                "solve_seconds": sum(a.solve_seconds for a in attempts),
                "escalation_attempts": float(len(trace.degrees_tried)),
                "total_seconds": time.perf_counter() - total_start,
            }
        )
        chosen.timings = merged
        return chosen

    def _execute_fixed(
        self,
        request: SynthesisRequest,
        submission_id: int,
        solver: Solver | None,
        task: SynthesisTask | None,
        enumerator: RepresentativeEnumerator | None,
        deadline: Deadline,
    ) -> SynthesisResponse:
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        built: SynthesisTask | None = None
        try:
            job = request.job()
            if task is not None:
                built, from_cache = task, False
                timings["reduction_seconds"] = 0.0
            else:
                start = time.perf_counter()
                built, from_cache, report = self.cache.get_or_build_with_report(job)
                timings["reduction_seconds"] = time.perf_counter() - start
                timings.update(report.timings())
                self._record_translation(report)

            if request.reduce_only:
                timings["total_seconds"] = time.perf_counter() - total_start
                return SynthesisResponse(
                    mode=request.mode,
                    status="reduced",
                    request_id=request.request_id,
                    submission_id=submission_id,
                    statistics=dict(built.statistics),
                    timings=timings,
                    system_size=built.system.size,
                    from_cache=from_cache,
                    task=built,
                )

            certificate = None
            verification = None
            if request.mode in STRONG_MODES:
                start = time.perf_counter()
                chosen = enumerator
                if chosen is None:
                    options = self._effective_solver_options(request)
                    chosen = (
                        RepresentativeEnumerator(options=options)
                        if options is not None
                        else RepresentativeEnumerator()
                    )
                result = enumerate_task(built, chosen, deadline)
                timings["solve_seconds"] = time.perf_counter() - start
                shared = False
            else:
                solve_result, solve_seconds, shared = self._weak_solve(
                    request, job, built, solver, task, deadline
                )
                timings["solve_seconds"] = solve_seconds
                exact_assignment = None
                if request.options.verify != "none" and solve_result.feasible:
                    from repro.certify.verify import verify_solution

                    outcome = verify_solution(
                        built,
                        solve_result,
                        request.options,
                        solver_options=self._effective_solver_options(request),
                        deadline=deadline,
                    )
                    self._record_verification(outcome)
                    if outcome.solve_result is not None:  # a repair round re-solved
                        solve_result = outcome.solve_result
                        shared = False
                        # Overwrite the dedup table with the repaired solve:
                        # identical future requests start from the verified
                        # solution instead of re-living the failing lift and
                        # the repair re-solve.  The cached duration charges
                        # the repair to the solve that produced the
                        # result, not just the rejected first attempt.
                        # (Verification itself is deliberately *not*
                        # deduplicated: the solve-level table covers the
                        # expensive stage, and concurrent identical verifies
                        # are deterministic duplicates, not divergences.)
                        if solver is None and task is None:
                            self._replace_cached_solve(
                                request, job, solve_result, solve_seconds + outcome.seconds
                            )
                    if outcome.certificate is not None:
                        certificate = outcome.certificate.to_dict()
                        exact_assignment = outcome.exact_assignment
                    verification = outcome.to_dict()
                    if certificate is not None and self.store is not None:
                        # File the exact witness under its own fingerprint so
                        # auditors can re-load and re-check it by name.
                        cert_sha, wrote = self.store.certificates.put(certificate)
                        verification["certificate_sha"] = cert_sha
                        if wrote:
                            self._count(store_certificates_stored=1)
                    timings["verify_seconds"] = outcome.seconds
                result = result_from_solution(
                    built,
                    solve_result,
                    solve_seconds=solve_seconds,
                    exact_assignment=exact_assignment,
                )
                if verification is not None:
                    result.statistics["verify_repair_rounds"] = float(
                        verification.get("repair_rounds", 0)
                    )
                    result.statistics["verified"] = float(bool(verification.get("verified")))

            timings["total_seconds"] = time.perf_counter() - total_start
            return response_from_result(
                request,
                result,
                submission_id=submission_id,
                timings=timings,
                from_cache=from_cache,
                shared_solve=shared,
                task=built,
                certificate=certificate,
                verification=verification,
            )
        except Exception as exc:  # per-request failures become structured errors
            timings["total_seconds"] = time.perf_counter() - total_start
            return SynthesisResponse(
                mode=request.mode,
                status="error",
                request_id=request.request_id,
                submission_id=submission_id,
                timings=timings,
                error=ErrorInfo.from_exception(exc),
                task=built,
                exception=exc,
            )

    def _weak_solve(
        self,
        request: SynthesisRequest,
        job,
        task: SynthesisTask,
        solver_override: Solver | None,
        task_override: SynthesisTask | None,
        deadline: Deadline,
    ) -> tuple[SolverResult, float, bool]:
        """Run (or share) the Step-4 solve; returns ``(result, seconds, shared)``."""
        options = self._effective_solver_options(request)
        if solver_override is not None:
            solver = solver_override  # keeps its own options; the deadline still bounds it
        else:
            solver = make_solver(
                job.options.strategy, options=options, portfolio=job.options.portfolio
            )

        # Escape-hatch submissions (live solver or pre-built task) bypass the
        # dedup table: their inputs are not captured by the request's keys.
        if solver_override is not None or task_override is not None:
            result, seconds, _ = self._run_solve(solver, task.system, deadline)
            return result, seconds, False

        # The persistent solve store is the cross-process sibling of the
        # in-memory dedup table.
        store_key: str | None = None
        if self.store is not None:
            store_key = self.store.solves.key_for(request, repr(options))
        key = (job.solve_key(), repr(options))
        with self._solve_lock:
            future = self._solves.get(key)
            owner = future is None
            if owner:
                future = Future()
                self._solves[key] = future
                if self.max_cached_solves is not None:
                    # FIFO bound: dicts preserve insertion order, so the
                    # oldest entries are evicted first.  An evicted in-flight
                    # future stays alive for whoever already holds it.
                    while len(self._solves) > self.max_cached_solves:
                        self._solves.pop(next(iter(self._solves)))
        if not owner:
            result, seconds = future.result()
            return result, seconds, True
        if store_key is not None:
            stored = self.store.solves.load(store_key)
            if stored is not None:
                # Another process (or a previous life of this one) already
                # paid for this solve: publish it to waiters and skip Step 4.
                self._count(store_solve_hits=1)
                future.set_result(stored)
                return stored[0], stored[1], True
        try:
            result, seconds, starved = self._run_solve(solver, task.system, deadline)
        except BaseException as exc:
            future.set_exception(exc)
            with self._solve_lock:
                # Failed solves are not cached: a resubmission retries.
                self._solves.pop(key, None)
            raise
        future.set_result((result, seconds))
        if starved:
            # Riders already waiting share it, but an identical request
            # with its full budget must solve again.
            with self._solve_lock:
                if self._solves.get(key) is future:
                    del self._solves[key]
        elif store_key is not None and self.store.solves.store(store_key, result, seconds):
            self._count(store_solve_writes=1)
        return result, seconds, False

    def _replace_cached_solve(
        self, request: SynthesisRequest, job, result: SolverResult, seconds: float
    ) -> None:
        """Overwrite a dedup entry with a repair-round result (already resolved)."""
        future: Future = Future()
        future.set_result((result, seconds))
        options = self._effective_solver_options(request)
        key = (job.solve_key(), repr(options))
        with self._solve_lock:
            if key in self._solves:
                self._solves[key] = future
        if self.store is not None:
            store_key = self.store.solves.key_for(request, repr(options))
            if self.store.solves.store(store_key, result, seconds, overwrite=True):
                self._count(store_solve_writes=1)

    def _run_solve(
        self, solver: Solver, system, deadline: Deadline
    ) -> tuple[SolverResult, float, bool]:
        """One Step-4 solve under what remains of ``deadline``: ``(result, seconds, starved)``.

        When less remains than the solver's own ``time_limit``, a copy of
        the solver runs with what remains (a caller's solver is never
        mutated).  ``starved`` marks such a solve that returned with the
        deadline expired: it may have been cut short of its key's budget.
        """
        options = solver.options.within(deadline.remaining())
        tightened = options is not solver.options
        if tightened:
            solver = copy.copy(solver)
            solver.options = options
        result, seconds = _solve_system(solver, system)
        # Kernel-evaluation accounting of the batched Step-4 engines, surfaced
        # through :meth:`stats` next to the cache/dedup counters.
        with self._counter_lock:
            self._counters["solver_residual_evaluations"] += result.residual_evaluations
            self._counters["solver_jacobian_evaluations"] += result.jacobian_evaluations
            self._counters["solver_batch_width_max"] = max(
                self._counters["solver_batch_width_max"], result.batch_width
            )
        return result, seconds, tightened and deadline.expired()


# ---------------------------------------------------------------------------
# The module-level default engine (what the paper-named functions run on)
# ---------------------------------------------------------------------------

_default_engine: Engine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> Engine:
    """The shared module-level engine backing the four paper-named functions.

    Sequential (``workers=0``) and lazily created; its task cache persists
    across calls, so repeated syntheses of the same program reuse the Step 1-3
    reduction.  Both of its caches are size-bounded (FIFO), like every
    engine's, so a long-running process calling the paper-named functions
    over many distinct programs stays at a bounded footprint; use
    :func:`reset_default_engine` to drop the state entirely.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None or _default_engine.closed:
            _default_engine = Engine(max_cached_solves=256)
        return _default_engine


def reset_default_engine() -> None:
    """Close and discard the module-level engine (and its caches)."""
    global _default_engine
    with _default_engine_lock:
        if _default_engine is not None:
            _default_engine.close()
            _default_engine = None
