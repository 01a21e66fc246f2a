"""Tests of the job descriptors and the task cache (repro.pipeline)."""

import pytest

from repro.errors import ParseError
from repro.invariants.synthesis import SynthesisOptions
from repro.pipeline import SynthesisJob, TaskCache, job_from_benchmark
from repro.suite.registry import get_benchmark

QUICK = SynthesisOptions(upsilon=1)


def sum_job() -> SynthesisJob:
    return job_from_benchmark(get_benchmark("sum"), quick=True)


def test_job_from_benchmark_quick_preset_lowers_upsilon():
    job = job_from_benchmark(get_benchmark("sum"), quick=True)
    assert job.options.upsilon == 1
    full = job_from_benchmark(get_benchmark("sum"))
    assert full.options.upsilon == get_benchmark("sum").upsilon


def test_reduction_key_equality_and_dedup():
    assert sum_job().reduction_key() == sum_job().reduction_key()
    other = job_from_benchmark(get_benchmark("freire1"), quick=True)
    assert sum_job().reduction_key() != other.reduction_key()


def test_task_cache_builds_once():
    cache = TaskCache()
    task_a, cached_a = cache.get_or_build(sum_job())
    task_b, cached_b = cache.get_or_build(sum_job())
    assert not cached_a and cached_b
    assert task_a is task_b
    stats = cache.stats()
    assert stats["hits"] == 1.0 and stats["misses"] == 1.0 and stats["entries"] == 1.0
    cache.clear()
    assert len(cache) == 0


def test_failed_builds_leave_no_key_locks():
    """Regression: a build that raises stores nothing, so eviction never freed its lock.

    Every unparsable job used to leave one task key lock and one stage key
    lock behind, so ``max_entries`` did not bound a long-lived cache.
    """
    cache = TaskCache(max_entries=4)
    for index in range(20):
        broken = SynthesisJob(name=f"broken{index}", source=f"not a program {index}", options=QUICK)
        with pytest.raises(ParseError):
            cache.get_or_build(broken)
    assert len(cache) == 0
    assert cache._key_locks == {}
    assert cache.stages._key_locks == {}
    task, from_cache = cache.get_or_build(sum_job())
    assert not from_cache and task.system.size > 0


# -- strategy threading -----------------------------------------------------------------


def test_jobs_differing_only_in_strategy_share_reduction_not_solve():
    qclp = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="qclp")
    gauss = job_from_benchmark(get_benchmark("sum"), quick=True, strategy="gauss-newton")
    assert qclp.reduction_key() == gauss.reduction_key()
    assert qclp.solve_key() != gauss.solve_key()


def test_options_reject_unknown_strategy():
    with pytest.raises(Exception):
        SynthesisOptions(strategy="simplex")
    with pytest.raises(Exception):
        SynthesisOptions(strategy="portfolio", portfolio=("nope",))
