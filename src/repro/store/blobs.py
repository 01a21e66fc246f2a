"""The content-addressed blob store: process-safe, disk-persistent, write-once.

A :class:`BlobStore` maps ``(namespace, key)`` to one JSON document on disk,
where ``key`` is a content hash (see :func:`content_key`) and ``namespace``
partitions the deployments' artifact kinds (``responses``, ``solves``,
``certificates``).  The layout is sharded by key prefix so no directory grows
unbounded::

    <root>/<namespace>/<key[:2]>/<key>.json

Three properties make the store safe to share between concurrent worker
processes without any locking:

* **Atomic write-once blobs.**  A put writes the full document to a unique
  temp file in the destination shard, fsyncs it and publishes with one
  ``os.replace`` — readers only ever observe a missing blob or a complete
  one, never a half-written prefix.  Two processes racing on the same key
  both write complete files; the last rename wins and the content is
  identical by construction (the key *is* the content hash of its inputs).
* **Corrupt blobs degrade to misses.**  A blob that fails to read, decode or
  validate (torn by a crashed writer before the rename discipline existed,
  bit-rotted, hand-truncated) is counted, unlinked best-effort so a future
  put can repair it, and reported as a miss — never an exception.  This is
  the *miss-and-repair boundary* every namespace view relies on.
* **Advisory writes.**  A full disk or unwritable root must never fail the
  request whose artifact is being persisted; failed puts are counted and
  dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from typing import Iterator

#: Blob payload layout version; bump on incompatible changes so readers of a
#: newer codebase treat foreign-era blobs as misses instead of guessing.
STORE_SCHEMA_VERSION = 1

#: Environment override for :func:`default_store_root`.
STORE_ROOT_ENV = "REPRO_STORE_ROOT"

#: Keys are content hashes rendered as lowercase hex (defensive: a malformed
#: key must never escape the shard layout or traverse paths).
_KEY_RE = re.compile(r"^[0-9a-f]{8,128}$")
_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def default_store_root() -> str:
    """Where a deployment stores its artifacts when the caller names no root.

    ``$REPRO_STORE_ROOT`` when set, else a per-user cache location — stores
    are meant to outlive processes, so a tmpdir would defeat them.
    """
    override = os.environ.get(STORE_ROOT_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "store")


def content_key(*parts: object) -> str:
    """The sha256 content hash of a tuple of JSON-able parts (the blob key).

    Parts are serialised with sorted keys and ``default=str`` so option
    tuples, ``Fraction``s and other reprs participate deterministically;
    the same logical inputs hash identically across processes and restarts.
    """
    payload = json.dumps(parts, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class BlobStore:
    """A process-safe content-addressed store of JSON blobs under one root.

    All methods are advisory and exception-free towards the caller: a
    filesystem failure or corrupt blob is counted in :meth:`stats` and
    surfaces as a miss (``get``) or a dropped write (``put``).  Only
    programming errors — an invalid namespace or a non-hex key — raise.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._counters = {
            "store_blob_reads": 0,
            "store_blob_writes": 0,
            "store_blob_write_skips": 0,
            "store_blob_write_failures": 0,
            "store_blob_corrupt": 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlobStore({self.root!r})"

    # -- paths -------------------------------------------------------------------

    def path_for(self, namespace: str, key: str) -> str:
        """The on-disk path of one blob (validates namespace and key)."""
        if not _NAMESPACE_RE.match(namespace):
            raise ValueError(f"invalid store namespace {namespace!r}")
        if not _KEY_RE.match(key):
            raise ValueError(f"invalid store key {key!r} (expected lowercase hex)")
        return os.path.join(self.root, namespace, key[:2], f"{key}.json")

    # -- writing -----------------------------------------------------------------

    def put(self, namespace: str, key: str, payload: dict, overwrite: bool = False) -> bool:
        """Persist one blob atomically; returns whether a new file was written.

        Write-once by default: an existing blob is left untouched (the key is
        a content hash, so it already holds this payload) and the put counts
        as a skip.  ``overwrite=True`` republishes — still atomic, used when
        a repair round replaces a previously stored solve.
        """
        try:
            path = self.path_for(namespace, key)
        except ValueError:
            raise
        if not overwrite and os.path.exists(path):
            self._bump("store_blob_write_skips")
            return False
        data = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        shard = os.path.dirname(path)
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=shard, prefix=".tmp-", suffix=".json")
            try:
                # write(2) may write fewer bytes than asked (a filling disk)
                # without an error; the next call then raises ENOSPC.
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view) :]
                os.fsync(fd)  # data durable before the rename publishes it
            finally:
                os.close(fd)
            os.replace(tmp_path, path)  # atomic publish: readers never see a prefix
        except OSError:
            self._bump("store_blob_write_failures")
            try:
                os.unlink(tmp_path)  # type: ignore[possibly-undefined]
            except (OSError, NameError):
                pass
            return False
        self._bump("store_blob_writes")
        return True

    # -- reading -----------------------------------------------------------------

    def get(self, namespace: str, key: str) -> dict | None:
        """The blob for ``(namespace, key)``, or ``None`` on miss *or* corruption.

        A blob that fails to decode (or decodes to a non-object) is unlinked
        best-effort — the miss-and-repair boundary: the next put rewrites it.
        """
        path = self.path_for(namespace, key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        self._bump("store_blob_reads")
        try:
            payload = json.loads(data)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            self.discard(namespace, key, corrupt=True)
            return None
        return payload

    def contains(self, namespace: str, key: str) -> bool:
        """Whether a blob exists on disk (no validation)."""
        return os.path.exists(self.path_for(namespace, key))

    def discard(self, namespace: str, key: str, corrupt: bool = False) -> None:
        """Drop one blob best-effort (used to repair corrupt/stale entries)."""
        if corrupt:
            self._bump("store_blob_corrupt")
        try:
            os.unlink(self.path_for(namespace, key))
        except OSError:
            pass

    def keys(self, namespace: str) -> Iterator[str]:
        """Every blob key currently stored under ``namespace``."""
        if not _NAMESPACE_RE.match(namespace):
            raise ValueError(f"invalid store namespace {namespace!r}")
        base = os.path.join(self.root, namespace)
        try:
            shards = sorted(os.listdir(base))
        except OSError:
            return
        for shard in shards:
            try:
                names = sorted(os.listdir(os.path.join(base, shard)))
            except OSError:
                continue
            for name in names:
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield name[: -len(".json")]

    def count(self, namespace: str) -> int:
        """Number of blobs stored under ``namespace`` (directory scan)."""
        return sum(1 for _ in self.keys(namespace))

    def usage(self, namespaces: tuple[str, ...] | None = None) -> dict[str, float]:
        """Per-namespace blob and byte counts of what is on disk right now.

        Walks the root (so it reflects *every* process writing to it, not
        just this handle) and reports ``store_<ns>_blobs`` /
        ``store_<ns>_bytes`` per namespace plus ``store_total_bytes``.
        In-flight temp files are excluded; a namespace directory that does
        not exist yet reports zeros.  Advisory like everything else here: an
        unreadable entry is skipped, never an exception.
        """
        if namespaces is None:
            try:
                namespaces = tuple(
                    sorted(
                        entry
                        for entry in os.listdir(self.root)
                        if _NAMESPACE_RE.match(entry)
                        and os.path.isdir(os.path.join(self.root, entry))
                    )
                )
            except OSError:
                namespaces = ()
        report: dict[str, float] = {}
        total_bytes = 0.0
        for namespace in namespaces:
            blobs = 0.0
            size = 0.0
            base = os.path.join(self.root, namespace)
            for dirpath, _dirnames, filenames in os.walk(base):
                for name in filenames:
                    if not name.endswith(".json") or name.startswith(".tmp-"):
                        continue
                    try:
                        size += float(os.path.getsize(os.path.join(dirpath, name)))
                    except OSError:
                        continue
                    blobs += 1.0
            report[f"store_{namespace}_blobs"] = blobs
            report[f"store_{namespace}_bytes"] = size
            total_bytes += size
        report["store_total_bytes"] = total_bytes
        return report

    # -- counters ----------------------------------------------------------------

    def _bump(self, key: str) -> None:
        with self._lock:
            self._counters[key] += 1

    def stats(self) -> dict[str, float]:
        """Read/write/corruption counters of this process's store handle."""
        with self._lock:
            return {key: float(value) for key, value in self._counters.items()}
