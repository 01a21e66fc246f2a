"""Staged-reduction benchmarks: stage cache reuse, vectorised translation, escalation.

Three measurements over the suite registry, emitted as machine-readable JSON
(``BENCH_reduction.json`` by default) so the reduction-performance trajectory
is tracked across PRs::

    python benchmarks/bench_reduction.py --quick           # CI preset
    python benchmarks/bench_reduction.py --output BENCH_reduction.json

1. **cold vs staged-warm** — a degree sweep (d = 1..max) over every program,
   run twice against one shared :class:`~repro.reduction.cache.StageCache`:
   the cold pass builds every stage, the warm pass re-requests the same sweep
   and assembles from cached stages.  The report also breaks out *prefix*
   reuse: how much of the warm-within-cold sweep (second degree of the first
   pass) came from shared frontend/precondition stages.
2. **translation** — the Putinar translation of the largest systems up to
   the compiled Step-4 problem, two ways: the symbolic per-``Polynomial``
   reference loop (the old baseline) and the vectorised kernel, the only
   path an engine runs.  ``--min-translation-speedup`` turns the kernel's
   speedup into a CI gate.
3. **escalation vs fixed degree** — ``degree="auto"`` wall-clock against the
   sum of the fixed-degree requests it replaces.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import _bench_config

from repro.api.engine import Engine
from repro.api.request import SynthesisRequest
from repro.invariants.putinar import putinar_translate
from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob
from repro.reduction import EscalationTrace
from repro.solvers.base import SolverOptions
from repro.solvers.problem import compile_problem
from repro.suite.registry import all_benchmarks

SOLVE_BUDGET = SolverOptions(restarts=1, max_iterations=150, time_limit=15.0)


def _select(quick: bool, limit: int | None, limit_variables: int = 8):
    benchmarks = all_benchmarks()
    if quick:
        benchmarks = [b for b in benchmarks if b.variable_count() <= limit_variables]
    if limit is not None:
        benchmarks = benchmarks[:limit]
    return benchmarks


def _sweep_jobs(benchmark, degrees, upsilon: int) -> list[SynthesisJob]:
    return [
        SynthesisJob(
            name=f"{benchmark.name}@d{degree}",
            source=benchmark.source,
            precondition=benchmark.precondition,
            options=benchmark.options(degree=degree, upsilon=upsilon),
        )
        for degree in degrees
    ]


def measure_degree_sweep(benchmarks, degrees=(1, 2), upsilon: int = 1) -> dict:
    """Cold pass vs staged-warm pass of a degree sweep over one shared cache."""
    cache = TaskCache()
    per_benchmark: dict[str, dict] = {}
    cold_total = 0.0
    warm_total = 0.0
    prefix_hits = 0
    prefix_possible = 0
    for benchmark in benchmarks:
        jobs = _sweep_jobs(benchmark, degrees, upsilon)
        cold = 0.0
        for index, job in enumerate(jobs):
            start = time.perf_counter()
            _, _, report = cache.get_or_build_with_report(job)
            cold += time.perf_counter() - start
            if index > 0:
                # Within-sweep prefix reuse: later degrees share the
                # program-level stages (frontend, preconditions).
                prefix_hits += report.cached_stages
                prefix_possible += len(report.stages)
        warm = 0.0
        for job in jobs:
            start = time.perf_counter()
            _, from_cache = cache.get_or_build(job)
            warm += time.perf_counter() - start
            assert from_cache
        per_benchmark[benchmark.name] = {"cold_seconds": cold, "staged_warm_seconds": warm}
        cold_total += cold
        warm_total += warm
    return {
        "degrees": list(degrees),
        "per_benchmark": per_benchmark,
        "cold_total_seconds": cold_total,
        "staged_warm_total_seconds": warm_total,
        "warm_speedup": cold_total / warm_total if warm_total else None,
        "prefix_stage_hit_rate": prefix_hits / prefix_possible if prefix_possible else None,
        "stage_stats": cache.stats(),
    }


def _same_problem(left, right) -> bool:
    """Whether two compiled problems have the same unknowns, kinds and row terms.

    Terms compare as a set per row, so the order a kernel emits a row's
    terms in does not matter.
    """
    if left.system_variables != right.system_variables or left.variables != right.variables:
        return False
    for field in ("kept_rows", "equality_mask", "nonneg_mask", "positive_mask", "constants"):
        if not np.array_equal(getattr(left, field), getattr(right, field)):
            return False
    if left.linear.shape != right.linear.shape or (left.linear != right.linear).nnz:
        return False

    def quadratic_terms(problem):
        terms = problem.quadratic
        columns = (terms.coefficients, terms.right, terms.left, terms.rows)
        order = np.lexsort(columns)
        return [column[order] for column in columns]

    return all(
        np.array_equal(a, b) for a, b in zip(quadratic_terms(left), quadratic_terms(right))
    )


def measure_translation(benchmarks, upsilon: int = 1, top: int = 3) -> dict:
    """Symbolic reference loop vs the vectorised kernel every engine runs.

    Each side is timed from the constraint pairs to its compiled Step-4
    problem (:func:`~repro.solvers.problem.compile_problem`), which is what
    the solvers need: the symbolic side lowers each polynomial into the row
    arrays as it adds it, the kernel emits the arrays directly.  The two
    problems must agree (:func:`_same_problem`).  ``speedup`` is the
    kernel's gain over the symbolic baseline; it is the number the CI gate
    holds.
    """
    from repro.invariants.synthesis import build_task

    tasks = [
        (benchmark.name, build_task(benchmark.source, benchmark.precondition, None,
                                    benchmark.options(upsilon=upsilon)))
        for benchmark in benchmarks
    ]
    # The biggest systems are where the translation dominates the reduction.
    tasks.sort(key=lambda pair: pair[1].system.size, reverse=True)
    tasks = tasks[:top]

    per_benchmark: dict[str, dict] = {}
    symbolic_total = 0.0
    vectorized_total = 0.0
    for name, task in tasks:
        start = time.perf_counter()
        symbolic = putinar_translate(task.pairs, upsilon=upsilon, kernel="symbolic")
        symbolic_problem = compile_problem(symbolic)
        symbolic_seconds = time.perf_counter() - start
        start = time.perf_counter()
        vectorized = putinar_translate(task.pairs, upsilon=upsilon)
        vectorized_problem = compile_problem(vectorized)
        vectorized_seconds = time.perf_counter() - start
        if not _same_problem(symbolic_problem, vectorized_problem):
            raise AssertionError(f"{name}: the kernels compile to different Step-4 problems")
        per_benchmark[name] = {
            "pairs": len(task.pairs),
            "system_size": symbolic.size,
            "symbolic_seconds": symbolic_seconds,
            "vectorized_seconds": vectorized_seconds,
            "speedup": symbolic_seconds / vectorized_seconds if vectorized_seconds else None,
        }
        symbolic_total += symbolic_seconds
        vectorized_total += vectorized_seconds
    return {
        "per_benchmark": per_benchmark,
        "symbolic_total_seconds": symbolic_total,
        "vectorized_total_seconds": vectorized_total,
        "speedup": symbolic_total / vectorized_total if vectorized_total else None,
    }


def measure_escalation(benchmarks, max_degree: int = 2, upsilon: int = 1) -> dict:
    """``degree="auto"`` vs the fixed-degree requests the ladder replaces."""
    per_benchmark: dict[str, dict] = {}
    auto_total = 0.0
    fixed_total = 0.0
    for benchmark in benchmarks:
        with Engine() as engine:
            auto_request = SynthesisRequest(
                program=benchmark.source, mode="weak", precondition=benchmark.precondition,
                objective=benchmark.objective(),
                options=benchmark.options(degree="auto", max_degree=max_degree, upsilon=upsilon),
                solver_options=SOLVE_BUDGET, request_id=benchmark.name,
            )
            start = time.perf_counter()
            auto = engine.synthesize(auto_request)
            auto_seconds = time.perf_counter() - start
        trace = EscalationTrace.from_dict(auto.escalation) if auto.escalation else None
        # The fixed-degree alternative: run every degree of the ladder cold.
        fixed_seconds = 0.0
        for degree in range(1, max_degree + 1):
            with Engine() as engine:
                try:
                    fixed_request = SynthesisRequest(
                        program=benchmark.source, mode="weak", precondition=benchmark.precondition,
                        objective=benchmark.objective(),
                        options=benchmark.options(degree=degree, upsilon=upsilon),
                        solver_options=SOLVE_BUDGET,
                    )
                    start = time.perf_counter()
                    response = engine.synthesize(fixed_request)
                    fixed_seconds += time.perf_counter() - start
                except Exception:
                    continue
                if response.status == "ok":
                    break
        per_benchmark[benchmark.name] = {
            "auto_seconds": auto_seconds,
            "fixed_ladder_seconds": fixed_seconds,
            "final_degree": trace.final_degree if trace else None,
            "degrees_tried": trace.degrees_tried if trace else [],
            "status": auto.status,
        }
        auto_total += auto_seconds
        fixed_total += fixed_seconds
    return {
        "max_degree": max_degree,
        "per_benchmark": per_benchmark,
        "auto_total_seconds": auto_total,
        "fixed_ladder_total_seconds": fixed_total,
        "auto_vs_fixed_ratio": auto_total / fixed_total if fixed_total else None,
    }


def run(quick: bool = True, limit: int | None = None) -> dict:
    benchmarks = _select(quick, limit)
    sweep = measure_degree_sweep(benchmarks)
    translation = measure_translation(benchmarks)
    escalation = measure_escalation(benchmarks[: min(len(benchmarks), 6)])
    return {
        "benchmark": "staged-reduction",
        "meta": _bench_config.bench_meta(quick),
        "quick": quick,
        "programs": len(benchmarks),
        "degree_sweep": sweep,
        "translation": translation,
        "escalation": escalation,
        "summary": {
            "staged_warm_speedup": sweep["warm_speedup"],
            "prefix_stage_hit_rate": sweep["prefix_stage_hit_rate"],
            "translation_speedup": translation["speedup"],
            "escalation_vs_fixed_ratio": escalation["auto_vs_fixed_ratio"],
            "escalation_minimal_degrees": {
                name: row["final_degree"] for name, row in escalation["per_benchmark"].items()
            },
        },
    }


def main(argv: list[str] | None = None) -> int:
    _bench_config.start_resource_monitor()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", default=True, help="small benchmarks only (default)")
    parser.add_argument("--full", dest="quick", action="store_false", help="include the large benchmarks")
    parser.add_argument("--limit", type=int, default=None, help="only the first N programs")
    parser.add_argument("--output", default="BENCH_reduction.json", help="write the JSON report here")
    parser.add_argument(
        "--min-translation-speedup", type=float, default=None,
        help="fail (exit 1) when the vectorised translation kernel is below this speedup "
             "over the symbolic baseline",
    )
    args = parser.parse_args(argv)

    report = run(quick=args.quick, limit=args.limit)
    summary = report["summary"]
    sweep = report["degree_sweep"]

    def fmt(value: float | None, spec: str, suffix: str = "") -> str:
        # Ratios are None for empty selections (e.g. --limit 0).
        return "-" if value is None else f"{value:{spec}}{suffix}"

    print(f"programs                 : {report['programs']}")
    print(f"degree-sweep cold        : {sweep['cold_total_seconds']:.2f}s")
    print(f"degree-sweep staged-warm : {sweep['staged_warm_total_seconds']:.4f}s "
          f"({fmt(summary['staged_warm_speedup'], '.0f', 'x')})")
    print(f"prefix stage hit rate    : {fmt(summary['prefix_stage_hit_rate'], '.0%')} "
          "(later degrees reusing program-level stages)")
    print(f"vectorised translation   : {fmt(summary['translation_speedup'], '.2f', 'x')} "
          "over the symbolic loop (up to the compiled problem)")
    print(f"escalation vs fixed      : "
          f"{fmt(summary['escalation_vs_fixed_ratio'], '.2f', 'x wall-clock of the cold fixed ladder')}")
    print(f"minimal degrees          : {summary['escalation_minimal_degrees']}")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {args.output}")
    if args.min_translation_speedup is not None:
        speedup = summary["translation_speedup"]
        if speedup is not None and speedup < args.min_translation_speedup:
            print(
                f"FAIL: vectorised translation {speedup:.2f}x is below the "
                f"--min-translation-speedup gate of {args.min_translation_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
