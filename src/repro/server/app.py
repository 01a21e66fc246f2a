"""The HTTP front door: ``repro.api`` served over asyncio.

:class:`SynthesisServer` maps a small set of endpoints onto one
:class:`~repro.api.engine.Engine` (owned by default, injectable for tests):

=========================  ======================================================
``GET  /healthz``          liveness probe (``{"status": "ok"}``)
``GET  /v1/stats``         engine counters + server counters, one flat document
``POST /v1/synthesize``    one request document in, one response envelope out
``POST /v1/submit``        a batch in, a job id out (``202``)
``GET  /v1/jobs/{id}``     job progress + completed envelopes so far
``GET  /v1/jobs/{id}/events``  NDJSON stream of envelopes as they finish
=========================  ======================================================

Semantics follow the in-process API exactly: a malformed document is a
structured 400 carrying the :class:`~repro.api.errors.RequestValidationError`
field list; a synthesis *failure* is a normal 200 whose envelope has
``status="error"`` — one bad request never takes down a batch or the
connection.  The events stream reuses :meth:`~repro.api.engine.Engine.map`
semantics: envelopes arrive in completion order, stamped with their
``submission_id``; documents rejected at validation time are streamed first
as synthetic ``status="error"`` envelopes.

Engine submission runs off-loop (``asyncio.to_thread``) and responses are
awaited through ``wrap_future``, so the event loop only ever parses bytes and
serialises JSON — slow solves never block the health probe.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.api import Engine, RequestValidationError, SynthesisRequest
from repro.server.http import (
    HttpError,
    HttpRequest,
    error_payload,
    json_response,
    read_request,
    response_head,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.engine import SynthesisHandle

#: How long a finished job's results are kept before eviction makes room
#: (a bound on memory, not a protocol promise).
MAX_FINISHED_JOBS = 256


def _validation_envelope(document, exc: RequestValidationError, position: int) -> dict:
    """The synthetic ``status="error"`` envelope of a rejected batch document."""
    request_id = None
    if isinstance(document, dict):
        request_id = document.get("request_id")
    return {
        "mode": document.get("mode", "weak") if isinstance(document, dict) else "weak",
        "status": "error",
        "request_id": request_id,
        "submission_id": None,
        "batch_index": position,
        "error": {
            "type": "RequestValidationError",
            "message": str(exc),
            "errors": exc.errors,
        },
    }


@dataclass
class Job:
    """One submitted batch: accepted handles plus validation rejects."""

    id: str
    total: int
    rejected: list[dict] = field(default_factory=list)
    handles: "list[SynthesisHandle]" = field(default_factory=list)
    results: list[dict] = field(default_factory=list)  # completion order
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def completed(self) -> int:
        with self.lock:
            return len(self.results)

    @property
    def done(self) -> bool:
        return self.completed >= len(self.handles)

    def snapshot(self) -> dict:
        with self.lock:
            results = list(self.results)
        return {
            "job_id": self.id,
            "total": self.total,
            "accepted": len(self.handles),
            "rejected": len(self.rejected),
            "completed": len(results),
            "done": len(results) >= len(self.handles),
            "results": self.rejected + results,
        }


class SynthesisServer:
    """The asyncio front door over one synthesis engine.

    Parameters
    ----------
    engine:
        An existing :class:`~repro.api.engine.Engine` to serve (not closed on
        shutdown), or ``None`` to own one built from the remaining knobs.
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` once started).
    store:
        The persistent store root handed to an owned engine — warm responses,
        solves and certificates all live there.  ``None`` (the default)
        persists nothing.
    workers:
        Concurrency of an owned engine (default 2): the number of worker
        *processes*, so the server's cold-traffic throughput scales with it
        up to the host's cores.  ``workers=1`` runs one in-process engine
        instead (useful as a scaling baseline): requests execute on the
        event loop's ``to_thread`` workers, concurrently but under one
        interpreter lock.  Either way the health probe stays responsive.
    solver_options:
        Default solver knobs of an owned engine.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        store=None,
        workers: int | None = None,
        solver_options=None,
    ) -> None:
        self._owns_engine = engine is None
        if engine is None:
            engine = Engine(
                workers=max(1, workers) if workers is not None else 2,
                store=store,
                solver_options=solver_options,
            )
        self.engine = engine
        self.host = host
        self.port = port
        self._jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        self._counters = {
            "server_requests_total": 0,
            "server_validation_failures": 0,
            "server_jobs_created": 0,
            "server_protocol_errors": 0,
        }
        self._counter_lock = threading.Lock()
        self._started = time.monotonic()
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._owns_engine:
            await asyncio.to_thread(self.engine.close)

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _bump(self, key: str) -> None:
        with self._counter_lock:
            self._counters[key] += 1

    # -- connection loop ---------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    self._bump("server_protocol_errors")
                    writer.write(
                        json_response(
                            exc.status, error_payload(exc.status, exc.reason), close=True
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                self._bump("server_requests_total")
                close = request.headers.get("connection", "").lower() == "close"
                try:
                    streamed = await self._dispatch(request, writer, close)
                except HttpError as exc:
                    payload = error_payload(exc.status, exc.reason)
                    writer.write(json_response(exc.status, payload, close=close))
                    await writer.drain()
                except RequestValidationError as exc:
                    self._bump("server_validation_failures")
                    payload = error_payload(400, str(exc), errors=exc.errors)
                    writer.write(json_response(400, payload, close=close))
                    await writer.drain()
                except Exception as exc:  # defensive: one request never kills the loop
                    payload = error_payload(500, f"{type(exc).__name__}: {exc}")
                    writer.write(json_response(500, payload, close=True))
                    await writer.drain()
                    return
                else:
                    await writer.drain()
                    if streamed:
                        return  # streamed responses are delimited by EOF
                if close:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-write; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _dispatch(
        self, request: HttpRequest, writer: asyncio.StreamWriter, close: bool
    ) -> bool:
        """Route one request; returns whether the response was streamed."""
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET", path)
            writer.write(json_response(200, {"status": "ok"}, close=close))
            return False
        if path == "/v1/stats":
            self._require(method, "GET", path)
            writer.write(json_response(200, self._stats(), close=close))
            return False
        if path == "/v1/synthesize":
            self._require(method, "POST", path)
            envelope = await self._synthesize(request.json())
            writer.write(json_response(200, envelope, close=close))
            return False
        if path == "/v1/submit":
            self._require(method, "POST", path)
            job = await self._submit(request.json())
            writer.write(
                json_response(
                    202,
                    {
                        "job_id": job.id,
                        "total": job.total,
                        "accepted": len(job.handles),
                        "rejected": len(job.rejected),
                    },
                    close=close,
                )
            )
            return False
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            if rest.endswith("/events"):
                self._require(method, "GET", path)
                await self._stream_events(self._job(rest[: -len("/events")]), writer)
                return True
            self._require(method, "GET", path)
            writer.write(json_response(200, self._job(rest).snapshot(), close=close))
            return False
        raise HttpError(404, f"unknown endpoint {method} {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, f"{path} expects {expected}, got {method}")

    # -- endpoint bodies ---------------------------------------------------------

    def _parse_document(self, document) -> SynthesisRequest:
        try:
            return SynthesisRequest.from_dict(document)
        except RequestValidationError:
            self._bump("server_validation_failures")
            raise

    async def _synthesize(self, document) -> dict:
        request = self._parse_document(document)
        # Submit off-loop (a sequential engine executes inside submit(); a
        # pooled one reads the store there), then await the engine future
        # directly — on a pooled engine many requests are then genuinely in
        # flight at once, one per worker process, without pinning a
        # to_thread slot each.
        handle = await asyncio.to_thread(self.engine.submit, request)
        response = await asyncio.wrap_future(handle._future)
        return response.to_dict()

    async def _submit(self, document) -> Job:
        documents = document.get("requests") if isinstance(document, dict) else document
        if not isinstance(documents, list) or not documents:
            raise RequestValidationError.single(
                "requests", "expected a non-empty JSON array of request documents"
            )
        job = Job(id=uuid.uuid4().hex, total=len(documents))
        accepted: list[SynthesisRequest] = []
        for position, entry in enumerate(documents):
            try:
                accepted.append(self._parse_document(entry))
            except RequestValidationError as exc:
                job.rejected.append(_validation_envelope(entry, exc, position))
        # Submission happens off-loop: a sequential engine executes inside
        # submit(), and even a pooled one reads the store there.
        job.handles = await asyncio.to_thread(
            lambda: [self.engine.submit(request) for request in accepted]
        )
        for handle in job.handles:
            handle._future.add_done_callback(self._record_result(job))
        with self._jobs_lock:
            self._jobs[job.id] = job
            self._evict_finished_jobs()
        self._bump("server_jobs_created")
        return job

    @staticmethod
    def _record_result(job: Job):
        def record(future) -> None:
            try:
                envelope = future.result().to_dict()
            except Exception as exc:  # caller-side failure: keep the job countable
                envelope = {
                    "status": "error",
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                }
            with job.lock:
                job.results.append(envelope)

        return record

    def _evict_finished_jobs(self) -> None:
        """Drop the oldest finished jobs once the table outgrows its bound."""
        if len(self._jobs) <= MAX_FINISHED_JOBS:
            return
        for job_id in [jid for jid, job in self._jobs.items() if job.done]:
            if len(self._jobs) <= MAX_FINISHED_JOBS:
                break
            del self._jobs[job_id]

    def _job(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    async def _stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """NDJSON: validation rejects first, then envelopes in completion order."""
        writer.write(response_head(200, content_type="application/x-ndjson"))
        for envelope in job.rejected:
            writer.write(json.dumps(envelope).encode("utf-8") + b"\n")
        await writer.drain()
        pending = {
            asyncio.ensure_future(asyncio.wrap_future(handle._future))
            for handle in job.handles
        }
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for future in done:
                    try:
                        envelope = future.result().to_dict()
                    except Exception as exc:
                        envelope = {
                            "status": "error",
                            "error": {"type": type(exc).__name__, "message": str(exc)},
                        }
                    writer.write(json.dumps(envelope).encode("utf-8") + b"\n")
                await writer.drain()
        finally:
            for future in pending:
                future.cancel()  # detach from the engine future; it keeps running

    def _stats(self) -> dict:
        stats = dict(self.engine.stats())
        with self._counter_lock:
            stats.update({key: float(value) for key, value in self._counters.items()})
        with self._jobs_lock:
            stats["server_jobs_open"] = float(
                sum(1 for job in self._jobs.values() if not job.done)
            )
        stats["server_uptime_seconds"] = time.monotonic() - self._started
        return stats


# ---------------------------------------------------------------------------
# Background serving (what tests, examples and benchmarks use)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A running background server: address + ``stop()`` (context-managed)."""

    def __init__(self, server: SynthesisServer, thread: threading.Thread, loop) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_in_background(server: SynthesisServer, ready_timeout: float = 30.0) -> ServerHandle:
    """Run ``server`` on a dedicated event-loop thread; returns once it is bound."""
    ready = threading.Event()
    failure: list[BaseException] = []
    handle_box: dict = {}

    async def run() -> None:
        stop_event = asyncio.Event()
        handle_box["loop"] = asyncio.get_running_loop()
        handle_box["stop_event"] = stop_event
        try:
            await server.start()
        except BaseException as exc:  # bind failure: surface it to the caller
            failure.append(exc)
            try:
                # An owned engine was already constructed (its pools may be
                # warm): release it, or the failed server leaks processes.
                await server.stop()
            finally:
                ready.set()
            return
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await server.stop()

    thread = threading.Thread(target=lambda: asyncio.run(run()), daemon=True)
    thread.start()
    if not ready.wait(timeout=ready_timeout):
        raise TimeoutError("server did not start in time")
    if failure:
        raise failure[0]
    handle = ServerHandle(server, thread, handle_box["loop"])
    handle._stop_event = handle_box["stop_event"]
    return handle
