"""Per-strategy Step-4 solver benchmarks over the suite registry.

For every suite program this script builds the Step 1-3 reduction once, then
solves the resulting quadratic system with each configured Step-4 strategy
(including the portfolio, which walks its line-up) under an identical
budget, recording solve wall-clock and feasibility.  It emits
machine-readable JSON (``BENCH_solvers.json`` by default) so the
per-strategy performance trajectory is tracked across PRs::

    python benchmarks/bench_solvers.py --quick             # CI preset
    python benchmarks/bench_solvers.py --output BENCH_solvers.json

The report's ``portfolio_vs_qclp`` section states the portfolio acceptance
criterion directly: the portfolio must solve every program the sequential
penalty solver solves, at equal-or-better median wall-clock.

The ``batch_on_vs_rows`` section (``--batch-compare``) is the batched
engine's determinism gate: the batched qclp solver (``batch="on"``) must
produce winning assignments, statuses and restart counts identical to its
one-member-at-a-time replay (``batch="rows"``) on every program, and at
least one program must actually iterate two or more restart members in one
batch — otherwise the two legs make the same width-1 calls and the
comparison proves nothing.  The ``batch_on_vs_rows_portfolio`` section runs
the same comparison through a one-strategy ``("qclp",)`` portfolio, so the
walk's first-feasible-wins rule is held to the same contract.  The script
exits 1 when either section fails.

Every run also appends one compact row (shared meta block, per-strategy
totals, RSS high-water) to ``BENCH_history.jsonl`` so the trajectory across
revisions survives the per-PR overwrite of ``BENCH_solvers.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
import time

import _bench_config

from repro.invariants.synthesis import build_task
from repro.solvers.base import SolverOptions
from repro.solvers.portfolio import make_solver
from repro.solvers.problem import compile_problem
from repro.suite.registry import all_benchmarks

DEFAULT_STRATEGIES = ("qclp", "gauss-newton", "alternating", "portfolio")


def _median(values: list[float]) -> float:
    # statistics.median, guarded for empty input (matches the bench tables).
    return statistics.median(values) if values else 0.0


def run(
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    quick: bool = True,
    limit: int | None = None,
    limit_variables: int = 8,
    solver_options: SolverOptions | None = None,
) -> dict:
    if solver_options is None:
        solver_options = SolverOptions(restarts=1, max_iterations=150, time_limit=15.0)
    benchmarks = all_benchmarks()
    if quick:
        benchmarks = [b for b in benchmarks if b.variable_count() <= limit_variables]
    if limit is not None:
        benchmarks = benchmarks[:limit]

    per_benchmark: dict[str, dict] = {}
    reduction_seconds = 0.0
    for benchmark in benchmarks:
        options = benchmark.options(upsilon=1) if quick else benchmark.options()
        start = time.perf_counter()
        task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
        compile_problem(task.system)  # shared IR: compiled once, outside the timed solves
        reduction_seconds += time.perf_counter() - start

        rows: dict[str, dict] = {}
        for strategy in strategies:
            solver = make_solver(strategy, solver_options)
            start = time.perf_counter()
            result = solver.solve(task.system)
            seconds = time.perf_counter() - start
            rows[strategy] = {
                "seconds": seconds,
                "feasible": bool(result.feasible),
                "status": result.status,
                "winner": result.strategy,
                "max_violation": result.max_violation,
                "residual_evaluations": result.residual_evaluations,
                "jacobian_evaluations": result.jacobian_evaluations,
                "batch_width": result.batch_width,
            }
        per_benchmark[benchmark.name] = {"system_size": task.system.size, "strategies": rows}

    per_strategy: dict[str, dict] = {}
    for strategy in strategies:
        rows = [entry["strategies"][strategy] for entry in per_benchmark.values()]
        seconds = [row["seconds"] for row in rows]
        solved = sum(1 for row in rows if row["feasible"])
        per_strategy[strategy] = {
            "solved": solved,
            "total": len(rows),
            "feasibility_rate": solved / len(rows) if rows else 0.0,
            "median_seconds": _median(seconds),
            "total_seconds": sum(seconds),
            "residual_evaluations": sum(row["residual_evaluations"] for row in rows),
            "jacobian_evaluations": sum(row["jacobian_evaluations"] for row in rows),
            "batch_width_max": max((row["batch_width"] for row in rows), default=0),
        }

    report = {
        "meta": {
            **_bench_config.bench_meta(quick),
            "benchmarks": [benchmark.name for benchmark in benchmarks],
            "strategies": list(strategies),
            "solver_options": {
                "restarts": solver_options.restarts,
                "max_iterations": solver_options.max_iterations,
                "time_limit": solver_options.time_limit,
                "batch": solver_options.batch,
            },
            "reduction_seconds_total": reduction_seconds,
        },
        "per_benchmark": per_benchmark,
        "per_strategy": per_strategy,
    }

    if "qclp" in strategies and "portfolio" in strategies:
        qclp_solved = {
            name
            for name, entry in per_benchmark.items()
            if entry["strategies"]["qclp"]["feasible"]
        }
        portfolio_solved = {
            name
            for name, entry in per_benchmark.items()
            if entry["strategies"]["portfolio"]["feasible"]
        }
        report["portfolio_vs_qclp"] = {
            "qclp_solved": sorted(qclp_solved),
            "portfolio_solved": sorted(portfolio_solved),
            "portfolio_covers_qclp": qclp_solved <= portfolio_solved,
            "qclp_median_seconds": per_strategy["qclp"]["median_seconds"],
            "portfolio_median_seconds": per_strategy["portfolio"]["median_seconds"],
            "portfolio_median_at_most_qclp": (
                per_strategy["portfolio"]["median_seconds"]
                <= per_strategy["qclp"]["median_seconds"]
            ),
        }
    return report


#: The on/rows comparison's budget.  Three restarts let the pack wave run at
#: width 2 when the leader does not win alone; 40 iterations is
#: pendulum-cold's budget; no deadline, because a deadline cuts a solve
#: wherever the clock says and the comparison must be bit for bit.
BATCH_COMPARE_OPTIONS = SolverOptions(restarts=3, max_iterations=40, time_limit=None)


def measure_batch(
    quick: bool = True,
    limit: int | None = None,
    limit_variables: int = 8,
    portfolio: tuple[str, ...] = (),
) -> dict:
    """Batched qclp (``batch="on"``) against its one-member replay (``batch="rows"``).

    Two solves per suite program on one shared compiled problem, both under
    :data:`BATCH_COMPARE_OPTIONS`: qclp itself, or a portfolio walking
    ``portfolio`` when that is given.  Lockstep row independence says their
    winning assignments, statuses, final violations and restart counts are
    identical; ``widest_batch`` records the most restart members any
    ``"on"`` kernel call carried, which must reach 2 for the check to cover
    batching at all.
    """
    benchmarks = all_benchmarks()
    if quick:
        benchmarks = [b for b in benchmarks if b.variable_count() <= limit_variables]
    if limit is not None:
        benchmarks = benchmarks[:limit]
    strategy = "portfolio" if portfolio else "qclp"

    per_benchmark: dict[str, dict] = {}
    for benchmark in benchmarks:
        options = benchmark.options(upsilon=1) if quick else benchmark.options()
        task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
        compile_problem(task.system)

        results: dict[str, object] = {}
        seconds: dict[str, float] = {}
        for mode in ("on", "rows"):
            solver = make_solver(
                strategy, dataclasses.replace(BATCH_COMPARE_OPTIONS, batch=mode), portfolio
            )
            start = time.perf_counter()
            results[mode] = solver.solve(task.system)
            seconds[mode] = time.perf_counter() - start
        on, rows = results["on"], results["rows"]
        per_benchmark[benchmark.name] = {
            "on_seconds": seconds["on"],
            "rows_seconds": seconds["rows"],
            "on_feasible": bool(on.feasible),
            "batch_width": on.batch_width,
            # The determinism oracle: identical winning assignment (raw
            # floats), status, final violation and restarts used between
            # "on" and "rows".
            "fingerprint_match": (
                on.assignment == rows.assignment
                and on.status == rows.status
                and on.max_violation == rows.max_violation
                and on.restarts_used == rows.restarts_used
            ),
        }

    entries = per_benchmark.values()
    matches = sum(1 for row in entries if row["fingerprint_match"])
    return {
        "strategy": "portfolio:" + ",".join(portfolio) if portfolio else "qclp",
        "solver_options": {
            "restarts": BATCH_COMPARE_OPTIONS.restarts,
            "max_iterations": BATCH_COMPARE_OPTIONS.max_iterations,
            "time_limit": BATCH_COMPARE_OPTIONS.time_limit,
        },
        "programs": len(per_benchmark),
        "per_benchmark": per_benchmark,
        "on_total_seconds": sum(row["on_seconds"] for row in entries),
        "rows_total_seconds": sum(row["rows_seconds"] for row in entries),
        "on_solved": sum(1 for row in entries if row["on_feasible"]),
        "widest_batch": max((row["batch_width"] for row in entries), default=0),
        "batched_programs": sum(1 for row in entries if row["batch_width"] >= 2),
        "fingerprint_matches": matches,
        "fingerprints_deterministic": matches == len(per_benchmark),
    }


#: The ``--batch-compare`` sections: report key and the portfolio line-up
#: (empty: qclp standalone).
BATCH_COMPARE_LEGS = (("batch_on_vs_rows", ()), ("batch_on_vs_rows_portfolio", ("qclp",)))


def append_history(report: dict, path: str) -> dict:
    """Append one compact trajectory row for this run to ``path`` (JSONL).

    ``BENCH_solvers.json`` is overwritten per revision; the history file
    accumulates, so regressions show as a series, not a diff.  Each row keeps
    just the shared meta block (minus the per-run resource dump), per-strategy
    totals and the RSS high-water of the run.
    """
    resources = _bench_config.resource_snapshot() or {}
    meta = report["meta"]
    row = {
        "bench": "solvers",
        "git_revision": meta.get("git_revision"),
        "timestamp_utc": meta.get("timestamp_utc"),
        "quick": meta.get("quick"),
        "cpus": meta.get("cpus"),
        "solver_options": meta.get("solver_options"),
        "rss_high_water_bytes": resources.get("rss_high_water_bytes"),
        "per_strategy": {
            name: {
                "solved": entry["solved"],
                "total": entry["total"],
                "median_seconds": entry["median_seconds"],
                "total_seconds": entry["total_seconds"],
            }
            for name, entry in report["per_strategy"].items()
        },
    }
    legs = [report[key] for key, _ in BATCH_COMPARE_LEGS if key in report]
    if legs:
        row["batch_fingerprints_deterministic"] = all(
            leg["fingerprints_deterministic"] for leg in legs
        )
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    return row


def main(argv: list[str] | None = None) -> int:
    _bench_config.start_resource_monitor()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI preset: small benchmarks, multiplier degree 1")
    parser.add_argument("--strategies", default=",".join(DEFAULT_STRATEGIES),
                        help="comma-separated strategies to benchmark")
    parser.add_argument("--limit", type=int, default=None, help="only run the first N programs")
    parser.add_argument("--restarts", type=int, default=1)
    parser.add_argument("--max-iterations", type=int, default=150)
    parser.add_argument("--time-limit", type=float, default=15.0,
                        help="per-solve wall-clock budget in seconds (not used by "
                             "--batch-compare, which runs on the iteration budget alone)")
    parser.add_argument("--output", default="BENCH_solvers.json",
                        help="write the JSON report here ('-' for stdout only)")
    parser.add_argument("--batch-compare", action="store_true",
                        help="also solve with batched qclp (batch='on') and its one-member "
                             "replay (batch='rows') at restarts=3, max_iterations=40, no "
                             "deadline, standalone and through a ('qclp',) portfolio; fail "
                             "unless every fingerprint matches and some program batches at "
                             "least two members")
    parser.add_argument("--history", default="BENCH_history.jsonl", metavar="PATH",
                        help="append one compact per-run row here (JSONL trajectory)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip appending to the history file")
    args = parser.parse_args(argv)

    strategies = tuple(name.strip() for name in args.strategies.split(",") if name.strip())
    options = SolverOptions(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        time_limit=args.time_limit,
    )
    report = run(strategies=strategies, quick=args.quick, limit=args.limit, solver_options=options)

    failures: list[str] = []
    legs = BATCH_COMPARE_LEGS if args.batch_compare else ()
    for key, portfolio in legs:
        batch = measure_batch(quick=args.quick, limit=args.limit, portfolio=portfolio)
        report[key] = batch
        print(
            f"[batch] {batch['strategy']} on {batch['on_total_seconds']:.2f}s, "
            f"rows {batch['rows_total_seconds']:.2f}s "
            f"(widest batch {batch['widest_batch']} on {batch['batched_programs']} programs, "
            f"fingerprints {batch['fingerprint_matches']}/{batch['programs']})",
            file=sys.stderr,
        )
        if not batch["fingerprints_deterministic"]:
            mismatched = sorted(
                name for name, row in batch["per_benchmark"].items() if not row["fingerprint_match"]
            )
            failures.append(f"{batch['strategy']} on/rows fingerprints diverged: {mismatched}")
        if batch["widest_batch"] < 2:
            failures.append(
                f"no program's batch='on' {batch['strategy']} solve iterated two restart "
                "members at once, so the on/rows comparison did not cover batching"
            )

    rendered = json.dumps(report, indent=2, sort_keys=True)
    print(rendered)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    if args.history and not args.no_history:
        append_history(report, args.history)
        print(f"appended trend row to {args.history}", file=sys.stderr)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
