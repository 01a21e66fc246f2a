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
2. **translation** — the Putinar translation kernel from constraint pairs to
   the compiled Step-4 problem on the three largest quick systems, timed in
   fresh child processes.  ``--baseline-rev REV`` times the same work at
   ``REV`` too, in pairs that alternate which side runs first, and turns the
   median per-pair ratio (this checkout over ``REV``) into a CI gate.
3. **escalation vs fixed degree** — ``degree="auto"`` wall-clock against the
   sum of the fixed-degree requests it replaces.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import _bench_config

from repro.api.engine import Engine
from repro.api.request import SynthesisRequest
from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob
from repro.reduction import EscalationTrace
from repro.solvers.base import SolverOptions
from repro.suite.registry import all_benchmarks

SOLVE_BUDGET = SolverOptions(restarts=1, max_iterations=150, time_limit=15.0)

#: The largest quick systems, where the translation dominates the reduction.
TRANSLATION_PROGRAMS = ("strict-inverted-pendulum", "inverted-pendulum", "merge-sort")
#: Child-process pairs per translation measurement (each side runs once a pair).
TRANSLATION_PAIRS = 8
#: Passes per child; a program's time is its fastest pass.
TRANSLATION_PASSES = 3
#: ``--baseline-rev`` fails when the median per-pair time ratio (this checkout
#: over the baseline) exceeds this.  On a 2-vCPU host identical trees read
#: 0.69-1.30 a pair over two runs (medians 1.00 and 1.10), and a translation
#: made to take twice as long read 1.48-2.48 (median 1.94).
MAX_TRANSLATION_RATIO = 1.5

#: Run in a fresh interpreter with one revision's ``src`` on ``PYTHONPATH``:
#: build the tasks (which warms the kernel's caches), then time
#: ``putinar_translate`` plus ``compile_problem`` on each task's pairs, keeping
#: each program's fastest pass.  It uses only names both sides of a comparison
#: have.
_TRANSLATION_CHILD = """
import json, sys, time
from repro.invariants.putinar import putinar_translate
from repro.invariants.synthesis import build_task
from repro.solvers.problem import compile_problem
from repro.suite.registry import get_benchmark
upsilon, passes, names = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
tasks = []
for name in names:
    benchmark = get_benchmark(name)
    options = benchmark.options(upsilon=upsilon)
    tasks.append((name, build_task(benchmark.source, benchmark.precondition, None, options)))
seconds = {name: float("inf") for name in names}
for _ in range(passes):
    for name, task in tasks:
        start = time.perf_counter()
        compile_problem(putinar_translate(task.pairs, upsilon=upsilon))
        seconds[name] = min(seconds[name], time.perf_counter() - start)
sizes = {name: task.system.size for name, task in tasks}
print(json.dumps({"seconds": seconds, "system_size": sizes}))
"""


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


def _unpack(revision: str, directory: str) -> str:
    """``git archive`` the ``src`` tree of ``revision`` into ``directory``."""
    root = os.path.dirname(_bench_config._SRC)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision, "src"],
        cwd=root, capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", directory], input=archive, check=True)
    return os.path.join(directory, "src")


def _time_translation(src: str, upsilon: int) -> dict | None:
    """One fresh child's timing of the translation at ``src`` (None when it fails)."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    child = subprocess.run(
        [sys.executable, "-c", _TRANSLATION_CHILD, str(upsilon), str(TRANSLATION_PASSES),
         *TRANSLATION_PROGRAMS],
        env=env, capture_output=True, text=True,
    )
    if child.returncode != 0:
        print(f"translation child at {src} failed:\n{child.stderr}", file=sys.stderr)
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def measure_translation(baseline_rev: str | None = None, upsilon: int = 1) -> dict:
    """This checkout's translation kernel, timed against ``baseline_rev`` when given.

    Each of :data:`TRANSLATION_PAIRS` pairs runs one fresh child per side,
    the side that goes first alternating from pair to pair; a side's seconds
    are the sum over :data:`TRANSLATION_PROGRAMS` of each program's fastest
    of :data:`TRANSLATION_PASSES` passes from constraint pairs to compiled
    Step-4 problem.  ``ratios`` are the per-pair quotients (this
    checkout over the baseline) whose median the CI gate holds; a side whose
    child failed measured nothing and leaves its seconds ``None``.
    """
    with tempfile.TemporaryDirectory() as scratch:
        sides = {"head": _bench_config._SRC}
        if baseline_rev is not None:
            sides["base"] = _unpack(baseline_rev, scratch)
        runs: list[dict] = []
        for index in range(TRANSLATION_PAIRS):
            order = list(sides) if index % 2 == 0 else list(reversed(sides))
            timed = {side: _time_translation(sides[side], upsilon) for side in order}
            runs.append({"first": order[0], **timed})

    def totals(side: str) -> list[float | None]:
        return [sum(run[side]["seconds"].values()) if run.get(side) else None for run in runs]

    head = totals("head")
    base = totals("base")
    ratios = [h / b for h, b in zip(head, base) if h and b]
    measured = [run["head"] for run in runs if run["head"]]
    return {
        "programs": list(TRANSLATION_PROGRAMS),
        "upsilon": upsilon,
        "baseline_rev": baseline_rev,
        "system_size": measured[0]["system_size"] if measured else None,
        "first_side": [run["first"] for run in runs],
        "head_seconds": head,
        "base_seconds": base,
        "ratios": ratios,
        "median_head_seconds": statistics.median(h for h in head if h) if any(head) else None,
        "median_base_seconds": statistics.median(b for b in base if b) if any(base) else None,
        "median_ratio": statistics.median(ratios) if ratios else None,
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


def run(quick: bool = True, limit: int | None = None, baseline_rev: str | None = None) -> dict:
    benchmarks = _select(quick, limit)
    sweep = measure_degree_sweep(benchmarks)
    translation = measure_translation(baseline_rev)
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
            "translation_ratio": translation["median_ratio"],
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
        "--baseline-rev", default=None, metavar="REV",
        help="also time the translation at git revision REV and fail (exit 1) when this "
             f"checkout's median per-pair time ratio exceeds {MAX_TRANSLATION_RATIO}x "
             "or either side measured nothing",
    )
    args = parser.parse_args(argv)

    report = run(quick=args.quick, limit=args.limit, baseline_rev=args.baseline_rev)
    summary = report["summary"]
    sweep = report["degree_sweep"]
    translation = report["translation"]

    def fmt(value: float | None, spec: str, suffix: str = "") -> str:
        # Ratios are None for empty selections (e.g. --limit 0).
        return "-" if value is None else f"{value:{spec}}{suffix}"

    print(f"programs                 : {report['programs']}")
    print(f"degree-sweep cold        : {sweep['cold_total_seconds']:.2f}s")
    print(f"degree-sweep staged-warm : {sweep['staged_warm_total_seconds']:.4f}s "
          f"({fmt(summary['staged_warm_speedup'], '.0f', 'x')})")
    print(f"prefix stage hit rate    : {fmt(summary['prefix_stage_hit_rate'], '.0%')} "
          "(later degrees reusing program-level stages)")
    print(f"translation (median)     : {fmt(translation['median_head_seconds'], '.3f', 's')} "
          f"a pass, base {fmt(translation['median_base_seconds'], '.3f', 's')}")
    print(f"translation ratio        : {fmt(summary['translation_ratio'], '.2f', 'x')} median of "
          f"{[round(ratio, 2) for ratio in translation['ratios']]} (this checkout / base)")
    print(f"escalation vs fixed      : "
          f"{fmt(summary['escalation_vs_fixed_ratio'], '.2f', 'x wall-clock of the cold fixed ladder')}")
    print(f"minimal degrees          : {summary['escalation_minimal_degrees']}")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {args.output}")
    if args.baseline_rev is not None:
        head = translation["head_seconds"]
        base = translation["base_seconds"]
        if not all(head) or not all(base):
            print("FAIL: the translation measured nothing on one side "
                  f"(head {head}, base {base})", file=sys.stderr)
            return 1
        ratio = summary["translation_ratio"]
        if ratio > MAX_TRANSLATION_RATIO:
            print(
                f"FAIL: translation takes {ratio:.2f}x the time it takes at "
                f"{args.baseline_rev} (gate {MAX_TRANSLATION_RATIO}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
