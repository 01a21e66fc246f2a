"""repro.store — the persistent content-addressed artifact store.

One disk root per deployment holds every artifact the engine would otherwise
recompute: response envelopes, Step-4 solver results and exact certificates,
all keyed by stable content hashes, all shared between concurrent worker
processes, all surviving restarts.  See
:mod:`repro.store.blobs` for the crash-safety model and
:mod:`repro.store.views` for the namespaces the
:class:`~repro.api.engine.Engine` plugs into via ``Engine(store=...)``.
"""

from repro.store.blobs import (
    STORE_ROOT_ENV,
    STORE_SCHEMA_VERSION,
    BlobStore,
    content_key,
    default_store_root,
)
from repro.store.views import (
    CertificateStore,
    EngineStore,
    ResponseStore,
    SolveStore,
    open_store,
)

__all__ = [
    "BlobStore",
    "CertificateStore",
    "EngineStore",
    "ResponseStore",
    "STORE_ROOT_ENV",
    "STORE_SCHEMA_VERSION",
    "SolveStore",
    "content_key",
    "default_store_root",
    "open_store",
]
