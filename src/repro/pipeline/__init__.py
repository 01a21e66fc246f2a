"""Job descriptors and the task cache behind every Step 1-3 reduction.

* :class:`~repro.pipeline.jobs.SynthesisJob` — a picklable description of one
  (program, precondition, objective, options) synthesis request.
* :class:`~repro.pipeline.cache.TaskCache` — memoises the exact Step 1-3
  reductions, so jobs sharing a reduction are translated once.

The :class:`repro.api.Engine` builds every reduction through a
:class:`TaskCache`; batches of requests go through ``Engine.map``.  See
``DESIGN.md`` for how both relate to the paper's Steps 1-4.
"""

from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob, job_from_benchmark

__all__ = [
    "SynthesisJob",
    "TaskCache",
    "job_from_benchmark",
]
