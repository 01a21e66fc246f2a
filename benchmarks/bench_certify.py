"""Certificate subsystem benchmarks: exact-check cost, repair rounds, coverage.

Measures the ``verify="exact"`` pipeline over the suite's quick preset and
emits machine-readable JSON (``BENCH_certify.json`` by default) so the
verification trajectory is tracked across PRs::

    python benchmarks/bench_certify.py --quick          # CI preset
    python benchmarks/bench_certify.py --output BENCH_certify.json

Per benchmark: whether the Step-4 solution verified, the denominator of the
successful lift, how many repair rounds were needed, and the exact-check time
next to the solve time (the certificate tax).  Aggregates report the
verified/unverified counts and a repair-round histogram.  The run exits 1
when a solved instance is unverified or a certificate fails its independent
re-check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import _bench_config

from repro.api.engine import Engine
from repro.bench.runner import quick_subset, request_from_benchmark
from repro.certify import Certificate, check_certificate
from repro.pipeline.jobs import job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.suite.registry import all_benchmarks

SOLVE_BUDGET = SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)


def _select(quick: bool, limit: int | None, limit_variables: int = 8):
    benchmarks = all_benchmarks()
    if quick:
        benchmarks = quick_subset(benchmarks, limit_variables=limit_variables)
    if limit is not None:
        benchmarks = benchmarks[:limit]
    return benchmarks


def measure_certification(benchmarks, quick: bool, max_repair_rounds: int) -> dict:
    """Run ``verify="exact"`` over the benchmarks and collect per-row metrics."""
    rows = []
    histogram: dict[int, int] = {}
    with Engine() as engine:
        for benchmark in benchmarks:
            job = job_from_benchmark(benchmark, quick=quick)
            options = dataclasses.replace(
                job.options,
                verify="exact",
                strategy="portfolio",
                max_repair_rounds=max_repair_rounds,
            )
            request = request_from_benchmark(
                benchmark, solve=True, quick=quick, options=options
            )
            start = time.perf_counter()
            response = engine.synthesize(
                dataclasses.replace(request, solver_options=SOLVE_BUDGET)
            )
            total = time.perf_counter() - start
            verification = response.verification or {}
            recheck_seconds = None
            recheck_ok = None
            if response.certificate is not None:
                # The independent re-check: deserialize and validate from scratch.
                certificate = Certificate.from_dict(response.certificate)
                t0 = time.perf_counter()
                recheck_ok = check_certificate(certificate, task=response.task).ok
                recheck_seconds = time.perf_counter() - t0
            rounds = int(verification.get("repair_rounds", 0))
            histogram[rounds] = histogram.get(rounds, 0) + 1
            rows.append(
                {
                    "benchmark": benchmark.name,
                    "status": response.status,
                    "verified": bool(verification.get("verified", False)),
                    "repair_rounds": rounds,
                    "lift_denominator": verification.get("lift_denominator"),
                    "solve_seconds": response.timings.get("solve_seconds"),
                    "verify_seconds": response.timings.get("verify_seconds"),
                    "recheck_seconds": recheck_seconds,
                    "recheck_ok": recheck_ok,
                    "total_seconds": total,
                    "reason": verification.get("reason"),
                }
            )
            print(
                f"[certify] {benchmark.name}: status={response.status} "
                f"verified={rows[-1]['verified']} rounds={rounds} "
                f"solve={rows[-1]['solve_seconds'] or 0:.2f}s "
                f"verify={rows[-1]['verify_seconds'] or 0:.2f}s",
                flush=True,
            )
    solved = [row for row in rows if row["status"] == "ok"]
    verified = [row for row in solved if row["verified"]]
    solve_total = sum(row["solve_seconds"] or 0.0 for row in solved)
    verify_total = sum(row["verify_seconds"] or 0.0 for row in solved)
    return {
        "rows": rows,
        "summary": {
            "benchmarks": len(rows),
            "solved": len(solved),
            "verified": len(verified),
            "unverified": len(solved) - len(verified),
            "recheck_failed": sum(1 for row in rows if row["recheck_ok"] is False),
            "via_repair": sum(1 for row in verified if row["repair_rounds"]),
            "repair_round_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "solve_seconds_total": solve_total,
            "verify_seconds_total": verify_total,
            "verify_over_solve": (verify_total / solve_total) if solve_total else None,
        },
    }


def main(argv=None) -> int:
    _bench_config.start_resource_monitor()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI preset (small benchmarks, Upsilon=1)")
    parser.add_argument("--limit", type=int, default=None, help="measure at most N benchmarks")
    parser.add_argument("--max-repair-rounds", type=int, default=3)
    parser.add_argument("--output", default="BENCH_certify.json")
    args = parser.parse_args(argv)

    benchmarks = _select(args.quick, args.limit)
    report = {
        "benchmark": "certify",
        "meta": _bench_config.bench_meta(args.quick),
        "quick": args.quick,
        **measure_certification(benchmarks, args.quick, args.max_repair_rounds),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    summary = report["summary"]
    print(
        f"[certify] verified {summary['verified']}/{summary['solved']} solved instances "
        f"({summary['via_repair']} via repair); verify/solve time ratio "
        f"{summary['verify_over_solve']:.3f}"
        if summary["verify_over_solve"] is not None
        else "[certify] no solved instances"
    )
    print(f"[certify] wrote {args.output}")
    # A solved instance that did not verify, or a certificate its re-check
    # rejects, is a wrong answer: fail the run.
    if summary["unverified"] or summary["recheck_failed"]:
        print(
            f"[certify] FAIL: {summary['unverified']} solved instance(s) unverified, "
            f"{summary['recheck_failed']} certificate(s) rejected by the re-check",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
