"""Memoisation of Step 1-3 reductions shared between batched jobs.

Since the staged-reduction refactor the :class:`TaskCache` is a task-level
view over a multi-level :class:`~repro.reduction.cache.StageCache`: each
job's reduction is compiled into a :class:`~repro.reduction.plan.ReductionPlan`
and executed stage by stage against the shared stage cache, so two jobs that
agree on any stage *prefix* (same program at a different degree; same
constraint pairs at a different Upsilon) reuse the shared stages even when
their whole-task keys differ.  Jobs with equal task keys additionally share
the assembled :class:`~repro.reduction.task.SynthesisTask` object itself —
the historical whole-task contract the engine's solve dedup relies on.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.reduction.cache import StageCache
from repro.reduction.plan import ReductionPlan, ReductionReport, compile_plan
from repro.reduction.task import STAGE_NAMES, SynthesisTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.jobs import SynthesisJob


#: The all-cached report returned for whole-task hits.
_TASK_HIT_REPORT = ReductionReport(stages=(), task_from_cache=True)


class TaskCache:
    """A thread-safe cache from job reduction keys to built synthesis tasks.

    The reduction (template construction, constraint-pair generation and the
    Putinar/Handelman translation) is the expensive exact-arithmetic part of
    a request; many batched jobs — parameter sweeps, repeated solver runs,
    re-submitted benchmarks — share it verbatim, and many more share a prefix
    of it.  Whole-task builds of distinct keys run concurrently; builds of
    the same key are serialised so the reduction is performed exactly once,
    and the underlying :class:`~repro.reduction.cache.StageCache` serialises
    per-stage builds the same way.

    ``max_entries`` bounds both the task table and every stage table (oldest
    entries evicted first) so a long-lived holder — e.g. the module-level
    default engine behind the paper-named functions — cannot grow without
    bound; ``None`` (the default) keeps the historical unbounded behaviour.
    """

    def __init__(self, max_entries: int | None = None, stages: StageCache | None = None) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be non-negative or None, got {max_entries}")
        self.max_entries = max_entries
        self.stages = stages if stages is not None else StageCache(max_entries=max_entries)
        self._tasks: dict[tuple, SynthesisTask] = {}
        # The job that built each entry is pinned alongside its task: reduction
        # keys identify Precondition *objects* by id(), so the cache must keep
        # those objects alive for as long as their keys are retained (otherwise
        # a recycled id could alias a semantically different precondition).
        self._jobs: dict[tuple, "SynthesisJob"] = {}
        self._key_locks: dict[tuple, threading.Lock] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.build_seconds = 0.0

    def __len__(self) -> int:
        return len(self._tasks)

    def get_or_build(self, job: "SynthesisJob") -> tuple[SynthesisTask, bool]:
        """The task for ``job``, building it on first use.

        Returns ``(task, from_cache)``; ``from_cache`` reports a *whole-task*
        hit (stage-level reuse shows up in :meth:`stats` instead).
        """
        task, from_cache, _ = self.get_or_build_with_report(job)
        return task, from_cache

    def get_or_build_with_report(
        self, job: "SynthesisJob"
    ) -> tuple[SynthesisTask, bool, ReductionReport]:
        """Like :meth:`get_or_build`, plus the per-stage execution report.

        For a whole-task hit the report carries no stage entries and
        ``task_from_cache=True``; otherwise it records, per stage, the build
        time and whether the stage came from the shared stage cache.
        """
        plan = self.plan_for(job)
        key = plan.task_key
        with self._lock:
            cached = self._tasks.get(key)
            if cached is not None:
                self.hits += 1
                return cached, True, _TASK_HIT_REPORT
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            with self._lock:
                cached = self._tasks.get(key)
                if cached is not None:
                    self.hits += 1
                    return cached, True, _TASK_HIT_REPORT
            start = time.perf_counter()
            try:
                task, report = plan.execute(cache=self.stages)
            except BaseException:
                # A failed build stores nothing, so eviction never reaches
                # its lock: drop the lock here if it is still the registered one.
                with self._lock:
                    if self._key_locks.get(key) is key_lock:
                        del self._key_locks[key]
                raise
            elapsed = time.perf_counter() - start
            with self._lock:
                self._tasks[key] = task
                self._jobs[key] = job
                self.misses += 1
                self.build_seconds += elapsed
                if self.max_entries is not None:
                    # FIFO bound (dicts preserve insertion order): evict the
                    # oldest task together with its pinned job and key lock.
                    while len(self._tasks) > self.max_entries:
                        oldest = next(iter(self._tasks))
                        self._tasks.pop(oldest)
                        self._jobs.pop(oldest, None)
                        self._key_locks.pop(oldest, None)
            return task, False, report

    def plan_for(self, job: "SynthesisJob") -> ReductionPlan:
        """The staged reduction plan of one job (compiled fresh, cheap)."""
        return compile_plan(job.source, job.precondition, job.objective, job.options)

    def stats(self) -> dict[str, float]:
        """Task-level and per-stage hit/miss counters (for reports).

        Task-level counters keep their historical names (``entries``,
        ``hits``, ``misses``, ``build_seconds``); the per-stage counters of
        the underlying stage cache are merged in under ``stage_*`` keys
        (e.g. ``stage_translation_hits``).
        """
        with self._lock:
            stats = {
                "entries": float(len(self._tasks)),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "build_seconds": self.build_seconds,
            }
        stats.update(self.stages.stats())
        return stats

    def clear(self) -> None:
        with self._lock:
            self._tasks.clear()
            self._jobs.clear()
            self._key_locks.clear()
            self.hits = 0
            self.misses = 0
            self.build_seconds = 0.0
        self.stages.clear()


__all__ = ["STAGE_NAMES", "StageCache", "TaskCache"]
