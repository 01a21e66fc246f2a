"""Namespace views over the blob store: what the engine actually plugs into.

Each view owns one namespace of the shared :class:`~repro.store.blobs.BlobStore`
and speaks the JSON codec of its artifact kind:

* :class:`ResponseStore` — whole :class:`~repro.api.response.SynthesisResponse`
  envelopes keyed by the request's stable content hash.  A hit short-circuits
  the entire reduce-solve-verify path; the second request for the same
  program is served from disk, across restarts and worker processes.
* :class:`SolveStore` — Step-4 :class:`~repro.solvers.base.SolverResult`
  values keyed by the solve's stable content hash (the persistent sibling of
  the engine's in-memory solve-dedup table): requests differing only in
  their verification tier still share one persisted solve.
* :class:`CertificateStore` — exact rational
  :class:`~repro.certify.certificate.Certificate` documents, addressed by
  their own content fingerprint so any response can name (and any auditor
  re-load and re-check) the certificate that gated it.

Every ``load`` is guarded by the blob store's miss-and-repair boundary *and*
a codec guard of its own: a blob that decodes to JSON but no longer matches
the artifact schema (a foreign version, a hand-edited document) is discarded
and reported as a miss, never an exception.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Mapping

from repro.store.blobs import BlobStore, STORE_SCHEMA_VERSION, content_key, default_store_root

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.request import SynthesisRequest
    from repro.api.response import SynthesisResponse
    from repro.certify.certificate import Certificate
    from repro.solvers.base import SolverResult


class ResponseStore:
    """The ``responses`` namespace: request content hash -> response envelope."""

    namespace = "responses"

    def __init__(self, blobs: BlobStore) -> None:
        self.blobs = blobs

    @staticmethod
    def key_for(request: "SynthesisRequest", engine_solver_options: str | None = None) -> str:
        """The stable content hash of one request's *semantic* payload.

        ``request_id`` is excluded (a caller label, not an input); the
        engine's default solver options participate because they shape the
        solve when the request carries none of its own.
        """
        payload = request.to_dict()
        payload.pop("request_id", None)
        return content_key("response", STORE_SCHEMA_VERSION, payload, engine_solver_options)

    def load(self, key: str) -> "SynthesisResponse | None":
        payload = self.blobs.get(self.namespace, key)
        if payload is None or payload.get("v") != STORE_SCHEMA_VERSION:
            return None
        from repro.api.response import SynthesisResponse

        try:
            return SynthesisResponse.from_dict(payload.get("response"))
        except Exception:  # schema drift / hand-edited blob: miss-and-repair
            self.blobs.discard(self.namespace, key, corrupt=True)
            return None

    def store(self, key: str, response: "SynthesisResponse") -> bool:
        """Persist a response worth re-serving; returns whether a blob was written.

        Only verified successes are persisted: ``status="ok"`` and — when a
        verification tier ran — a passing verdict.  Errors, deadline-shaped
        ``no_invariant`` outcomes and rejected solutions must be recomputed,
        never replayed.  So must an ``ok`` answer built after its request's
        deadline passed (a ``feasible-at-deadline`` solve, say): the engine
        does not offer one here, because a later request with the same key
        may have the whole budget to spend.
        """
        if response.status != "ok":
            return False
        if response.verification is not None and not response.verification.get("verified"):
            return False
        return self.blobs.put(
            self.namespace,
            key,
            {"v": STORE_SCHEMA_VERSION, "response": response.to_dict()},
        )


class SolveStore:
    """The ``solves`` namespace: solve content hash -> Step-4 solver result."""

    namespace = "solves"

    def __init__(self, blobs: BlobStore) -> None:
        self.blobs = blobs

    @staticmethod
    def key_for(request: "SynthesisRequest", solver_options: str) -> str:
        """The stable content hash of one Step-4 solve.

        Mirrors the engine's in-memory dedup key, rendered content-stable:
        the reduction inputs (program, precondition, objective, reduction
        fingerprint), the strategy line-up and the effective solver options.
        Verification knobs are deliberately absent — ``verify="exact"`` and
        ``verify="none"`` share one persisted solve.
        """
        from repro.api.request import objective_to_dict, precondition_to_spec

        options = request.options
        payload = [
            request.program,
            precondition_to_spec(request.precondition),
            objective_to_dict(request.objective) if request.objective is not None else None,
            [str(knob) for knob in options.reduction_fingerprint()],
            options.strategy,
            list(options.portfolio),
            request.mode,
            solver_options,
        ]
        return content_key("solve", STORE_SCHEMA_VERSION, payload)

    def load(self, key: str) -> "tuple[SolverResult, float] | None":
        """``(result, original_solve_seconds)`` or ``None`` on miss/corruption."""
        payload = self.blobs.get(self.namespace, key)
        if payload is None or payload.get("v") != STORE_SCHEMA_VERSION:
            return None
        from repro.solvers.base import SolverResult

        try:
            result = SolverResult.from_dict(payload.get("result"))
            seconds = float(payload.get("seconds", 0.0))
        except Exception:
            self.blobs.discard(self.namespace, key, corrupt=True)
            return None
        return result, seconds

    def store(
        self, key: str, result: "SolverResult", seconds: float, overwrite: bool = False
    ) -> bool:
        """Persist one feasible solve (repair rounds republish with ``overwrite``)."""
        if not result.feasible:
            return False
        return self.blobs.put(
            self.namespace,
            key,
            {"v": STORE_SCHEMA_VERSION, "result": result.to_dict(), "seconds": float(seconds)},
            overwrite=overwrite,
        )


class CertificateStore:
    """The ``certificates`` namespace: certificate fingerprint -> exact witness."""

    namespace = "certificates"

    def __init__(self, blobs: BlobStore) -> None:
        self.blobs = blobs

    def put(self, certificate: "Certificate | Mapping") -> tuple[str, bool]:
        """Persist one certificate under its own content fingerprint.

        Returns ``(fingerprint, wrote)``; the fingerprint is valid either way
        (an already-present blob holds the identical content) and equals
        :meth:`repro.certify.certificate.Certificate.fingerprint`.
        """
        from repro.certify.certificate import certificate_fingerprint

        payload = certificate if isinstance(certificate, Mapping) else certificate.to_dict()
        key = certificate_fingerprint(payload)
        wrote = self.blobs.put(
            self.namespace, key, {"v": STORE_SCHEMA_VERSION, "certificate": dict(payload)}
        )
        return key, wrote

    def load(self, key: str) -> "Certificate | None":
        payload = self.blobs.get(self.namespace, key)
        if payload is None or payload.get("v") != STORE_SCHEMA_VERSION:
            return None
        from repro.certify.certificate import Certificate

        try:
            return Certificate.from_dict(payload.get("certificate"))
        except Exception:
            self.blobs.discard(self.namespace, key, corrupt=True)
            return None


class EngineStore:
    """One deployment's persistent data directory, as the engine sees it.

    Bundles the blob store with its three namespace views, so
    ``Engine(store=...)`` (or the HTTP server) needs exactly one handle — and
    two engines handed the same root transparently share every artifact kind
    across processes and restarts.
    """

    def __init__(self, blobs: BlobStore) -> None:
        self.blobs = blobs
        self.responses = ResponseStore(blobs)
        self.solves = SolveStore(blobs)
        self.certificates = CertificateStore(blobs)

    @property
    def root(self) -> str:
        return self.blobs.root

    def stats(self) -> dict[str, float]:
        """Handle counters plus on-disk byte/blob accounting per namespace.

        The usage side is computed from the filesystem, so it reflects what
        every process sharing this root has written — the first slice of
        store lifecycle management (watch ``store_total_bytes`` grow).
        """
        stats = self.blobs.stats()
        stats.update(
            self.blobs.usage(
                (ResponseStore.namespace, SolveStore.namespace, CertificateStore.namespace)
            )
        )
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineStore({self.root!r})"


def open_store(store: "EngineStore | BlobStore | str | os.PathLike | None" = None) -> EngineStore:
    """Coerce any store spec — a root path, a blob store, an existing
    :class:`EngineStore`, or ``None`` for :func:`default_store_root` — into
    an :class:`EngineStore`."""
    if isinstance(store, EngineStore):
        return store
    if isinstance(store, BlobStore):
        return EngineStore(store)
    root = default_store_root() if store is None else os.fspath(store)
    return EngineStore(BlobStore(root))
