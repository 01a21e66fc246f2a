"""The multi-level stage cache behind every Step 1-3 reduction.

A :class:`StageCache` memoises the output of each reduction stage under its
stage fingerprint (see :meth:`repro.reduction.plan.ReductionPlan`): requests
sharing any *prefix* of the reduction — same program but a different degree,
same constraint pairs but a different Upsilon — reuse the shared stages and
rebuild only what actually differs.  This replaces the whole-task-keyed
memoisation that :class:`repro.pipeline.cache.TaskCache` used to implement
internally (the task cache still exists, as the task-level view over this
cache).

Builds of distinct keys run concurrently; builds of the same key are
serialised behind a per-key lock so each stage is computed exactly once.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping

from repro.reduction.task import STAGE_NAMES


class StageCounter:
    """Hit/miss/build-time counters of one stage (attribute bag, no locking)."""

    __slots__ = ("hits", "misses", "build_seconds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.build_seconds = 0.0


class StageCache:
    """A thread-safe cache from stage fingerprints to stage artifacts.

    Parameters
    ----------
    max_entries:
        Per-stage size bound (oldest entries evicted first, FIFO) so a
        long-lived holder cannot grow without bound; ``None`` (the default)
        keeps every entry.

    Notes
    -----
    Fingerprints of :class:`~repro.spec.preconditions.Precondition` *objects*
    identify them by ``id()``; callers pass the owning object through ``pin``
    so the cache keeps it alive for as long as its keys are retained
    (otherwise a recycled id could alias a semantically different
    precondition).
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be non-negative or None, got {max_entries}")
        self.max_entries = max_entries
        self._values: dict[str, dict[tuple, object]] = {name: {} for name in STAGE_NAMES}
        self._pins: dict[str, dict[tuple, object]] = {name: {} for name in STAGE_NAMES}
        self._key_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        self._counters: dict[str, StageCounter] = {name: StageCounter() for name in STAGE_NAMES}

    def __len__(self) -> int:
        with self._lock:
            return sum(len(values) for values in self._values.values())

    def get_or_build(
        self,
        stage: str,
        key: tuple,
        builder: Callable[[], object],
        pin: object = None,
    ) -> tuple[object, bool, float]:
        """The artifact for ``(stage, key)``, building it on first use.

        Returns ``(value, from_cache, build_seconds)``; ``build_seconds`` is
        zero for cache hits.
        """
        values = self._values[stage]
        counter = self._counters[stage]
        with self._lock:
            if key in values:
                counter.hits += 1
                return values[key], True, 0.0
            lock_key = (stage, *key)
            key_lock = self._key_locks.setdefault(lock_key, threading.Lock())
        with key_lock:
            with self._lock:
                if key in values:
                    counter.hits += 1
                    return values[key], True, 0.0
            start = time.perf_counter()
            try:
                value = builder()
            except BaseException:
                # A failed build stores nothing, so eviction never reaches
                # its lock: drop the lock here if it is still the registered one.
                with self._lock:
                    if self._key_locks.get(lock_key) is key_lock:
                        del self._key_locks[lock_key]
                raise
            elapsed = time.perf_counter() - start
            with self._lock:
                values[key] = value
                if pin is not None:
                    self._pins[stage][key] = pin
                counter.misses += 1
                counter.build_seconds += elapsed
                if self.max_entries is not None:
                    # FIFO bound per stage (dicts preserve insertion order):
                    # evict the oldest artifact with its pin and key lock.
                    while len(values) > self.max_entries:
                        oldest = next(iter(values))
                        values.pop(oldest)
                        self._pins[stage].pop(oldest, None)
                        self._key_locks.pop((stage, *oldest), None)
            return value, False, elapsed

    def stats(self) -> dict[str, float]:
        """Per-stage hit/miss counters and build times, flat (for dashboards)."""
        with self._lock:
            stats: dict[str, float] = {}
            for name in STAGE_NAMES:
                counter = self._counters[name]
                stats[f"stage_{name}_entries"] = float(len(self._values[name]))
                stats[f"stage_{name}_hits"] = float(counter.hits)
                stats[f"stage_{name}_misses"] = float(counter.misses)
                stats[f"stage_{name}_build_seconds"] = counter.build_seconds
            stats["stage_hits"] = float(sum(c.hits for c in self._counters.values()))
            stats["stage_misses"] = float(sum(c.misses for c in self._counters.values()))
            stats["stage_build_seconds"] = sum(c.build_seconds for c in self._counters.values())
            return stats

    def counters(self) -> Mapping[str, StageCounter]:
        """The live per-stage counters (read-only use)."""
        return self._counters

    def clear(self) -> None:
        with self._lock:
            for name in STAGE_NAMES:
                self._values[name].clear()
                self._pins[name].clear()
                self._counters[name] = StageCounter()
            self._key_locks.clear()
