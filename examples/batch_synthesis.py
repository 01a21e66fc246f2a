"""Batch synthesis: stream the whole benchmark suite through one Engine.

The :class:`repro.api.Engine` accepts many typed
:class:`~repro.api.request.SynthesisRequest` values at once, deduplicates
shared Step 1-3 reductions through its task cache, runs the requests
concurrently on its worker pool and streams per-request responses back **as
they finish** (out of submission order, each stamped with its submission
id)::

    PYTHONPATH=src python examples/batch_synthesis.py              # quick preset
    PYTHONPATH=src python examples/batch_synthesis.py --workers 8  # parallel solves
    PYTHONPATH=src python examples/batch_synthesis.py --full       # paper parameters

Every result is identical to what a sequential ``weak_inv_synth`` call would
produce for the same request — batching changes the throughput, not the
answers.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.api import Engine, SynthesisRequest
from repro.pipeline import job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.solvers.portfolio import parse_strategy, strategy_names
from repro.suite.registry import all_benchmarks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Synthesize invariants for the whole suite in one batch.")
    parser.add_argument("--workers", type=int, default=0,
                        help="concurrent requests (0 = sequential)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full parameters instead of the quick preset")
    parser.add_argument("--limit", type=int, default=None,
                        help="only run the first N suite programs")
    parser.add_argument("--translation", choices=["putinar", "handelman"],
                        help="Step-3 translation scheme (default: the paper's Putinar encoding)")
    parser.add_argument("--strategy",
                        help="Step-4 strategy: one of " + ", ".join(strategy_names())
                        + ", 'portfolio', or a comma-separated line-up to walk")
    args = parser.parse_args(argv)

    benchmarks = all_benchmarks()
    if args.limit is not None:
        benchmarks = benchmarks[: args.limit]

    overrides = parse_strategy(args.strategy)
    if args.translation:
        overrides["translation"] = args.translation

    # One typed request per suite program; the quick preset (multiplier degree
    # 1) keeps every reduction cheap enough for a laptop run of the registry.
    requests = []
    for benchmark in benchmarks:
        job = job_from_benchmark(benchmark, quick=not args.full, **overrides)
        requests.append(
            SynthesisRequest(
                program=job.source,
                mode="weak",
                precondition=job.precondition,
                objective=job.objective,
                options=job.options,
                request_id=job.name,
            )
        )

    print(f"running {len(requests)} synthesis requests "
          f"({'full' if args.full else 'quick'} preset, workers={args.workers})\n")
    start = time.perf_counter()
    succeeded = 0
    # Counted from each response: on a pooled engine the reductions run in
    # the worker processes, whose task caches the parent's stats() never see.
    built = reused = 0
    # No explicit solver: each request's Step-4 back-end follows its options'
    # strategy/portfolio knobs under a short per-request budget.
    with Engine(workers=args.workers,
                solver_options=SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)) as engine:
        for response in engine.map(requests):
            tag = f"#{response.submission_id:<3d} {response.request_id:24s}"
            if not response.ok:
                reason = (response.error.message.splitlines() or ["<no message>"])[0]
                print(f"  {tag} ERROR: {response.error.type}: {reason}")
                continue
            if response.success:
                succeeded += 1
            label = "invariant" if response.success else "no invariant"
            timing = (f"reduce={response.timings['reduction_seconds']:.2f}s "
                      f"solve={response.timings['solve_seconds']:.2f}s")
            reused += response.from_cache
            built += not response.from_cache
            cached = " [cached reduction]" if response.from_cache else ""
            winner = f" via {response.strategy}" if response.strategy else ""
            print(f"  {tag} |S|={response.system_size:<5d} {timing}  "
                  f"{label} ({response.solver_status}{winner}){cached}")

        elapsed = time.perf_counter() - start
    print(f"\n{succeeded}/{len(requests)} requests produced an invariant in {elapsed:.1f}s "
          f"(task cache: {built} reductions built, {reused} reused)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
