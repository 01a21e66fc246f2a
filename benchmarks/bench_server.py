"""Front-door benchmark: the HTTP server under concurrent load, cold vs warm.

Runs one :class:`~repro.server.app.SynthesisServer` against a fresh
persistent store root and drives the quick-preset suite subset through it
with concurrent stdlib clients, in three phases:

* **cold** — empty store: every request pays reduction + solve,
* **warm** — same server, same requests: served from the content-addressed
  store (``served_from_store=True``),
* **restart_warm** — a *new* server (fresh engine, fresh process-level
  caches) on the same store root: persistence across restarts, not
  process-lifetime memoisation.

On a multi-core host a fourth section runs the **concurrency sweep**: a
fresh store-less server per point at ``--workers`` 1/2/4 (one in-process
engine at 1, worker processes above), all-cold traffic each time, reporting
req/s and p50/p95 per point — the multi-core scaling curve of the engine.
The sweep is skipped entirely on single-vCPU hosts, where every worker
process would share the one core.

Reports to ``BENCH_server.json`` (shared ``bench_meta`` provenance block,
resource monitor included) and appends one summary row per run to
``BENCH_history.jsonl`` for cross-PR trend tracking.  ``--min-warm-speedup``
and ``--min-scaling`` turn the warm-latency ratio and the workers=2-vs-1
throughput ratio into CI gates::

    python benchmarks/bench_server.py --quick --limit 6 \
        --min-warm-speedup 2 --min-scaling 1.3
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import _bench_config

from repro.api import SynthesisRequest
from repro.server import SynthesisClient, SynthesisServer, serve_in_background
from repro.solvers.base import SolverOptions
from repro.suite.registry import all_benchmarks

SOLVE_BUDGET = SolverOptions(restarts=1, max_iterations=100, time_limit=10.0)

#: The concurrency-sweep work-list: quick-preset programs whose cold cost sits
#: in the same tens-to-hundreds-of-ms band.  A balanced set is what makes the
#: workers=2-vs-1 ratio measure the *worker processes*: one dominant program
#: (e.g. ``sum`` at ~10x the rest) would put a serial floor under every point
#: and cap the apparent scaling at ~1.1x however many cores run.
SWEEP_PROGRAMS = (
    "euclidex2",
    "prod4br",
    "wensley",
    "prodbin",
    "hard",
    "petter",
    "cohencu",
    "lcm1",
    "lcm2",
    "z3sqrt",
    "mannadiv",
    "dijkstra",
)


def _document(benchmark) -> dict:
    return SynthesisRequest(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(upsilon=1),
        solver_options=SOLVE_BUDGET,
        request_id=benchmark.name,
    ).to_dict()


def _documents(quick: bool, limit: int | None, limit_variables: int = 8) -> list[dict]:
    benchmarks = all_benchmarks()
    if quick:
        benchmarks = [b for b in benchmarks if b.variable_count() <= limit_variables]
    if limit is not None:
        benchmarks = benchmarks[:limit]
    return [_document(benchmark) for benchmark in benchmarks]


def _sweep_documents() -> list[dict]:
    from repro.suite.registry import get_benchmark

    return [_document(get_benchmark(name)) for name in SWEEP_PROGRAMS]


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def _drive(url: str, documents: list[dict], clients: int, rounds: int) -> dict:
    """Fire ``rounds`` copies of every document from ``clients`` threads."""
    work = [document for _ in range(rounds) for document in documents]
    latencies: list[float] = []
    served = 0

    def one(document: dict) -> tuple[float, bool]:
        client = SynthesisClient(url)
        start = time.perf_counter()
        envelope = client.synthesize(document)
        elapsed = time.perf_counter() - start
        if envelope["status"] == "error":
            raise RuntimeError(f"{document.get('request_id')}: {envelope['error']}")
        return elapsed, bool(envelope.get("served_from_store"))

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for elapsed, from_store in pool.map(one, work):
            latencies.append(elapsed)
            served += from_store
    wall = time.perf_counter() - wall_start
    return {
        "requests": len(work),
        "served_from_store": served,
        "wall_seconds": wall,
        "requests_per_second": len(work) / wall if wall else None,
        "latency_mean_ms": statistics.fmean(latencies) * 1e3,
        "latency_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "latency_p95_ms": _percentile(latencies, 0.95) * 1e3,
    }


def _sweep_points(cpus: int) -> list[int]:
    """The worker counts of the concurrency sweep (empty on a 1-vCPU host)."""
    if cpus < 2:
        return []
    return [w for w in (1, 2, 4) if w <= max(2, cpus)]


def workers_sweep(
    documents: list[dict] | None = None, clients: int = 4, cpus: int | None = None
) -> dict:
    """Cold req/s per worker count: a fresh store-less server per point.

    Every point pays full reduction + solve for every request (no store, a
    brand-new engine each time) over the balanced :data:`SWEEP_PROGRAMS`
    work-list, so the curve isolates how the engine scales with worker
    processes.
    """
    documents = documents if documents is not None else _sweep_documents()
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    points: dict[str, dict] = {}
    for workers in _sweep_points(cpus):
        server = SynthesisServer(workers=workers)
        with serve_in_background(server) as handle:
            point = _drive(handle.url, documents, clients, rounds=1)
        point["workers"] = workers
        points[str(workers)] = point
    result: dict = {"skipped": not points, "cpus": cpus, "points": points}
    if "1" in points and "2" in points:
        result["scaling_2x"] = (
            points["2"]["requests_per_second"] / points["1"]["requests_per_second"]
        )
    if "1" in points and "4" in points:
        result["scaling_4x"] = (
            points["4"]["requests_per_second"] / points["1"]["requests_per_second"]
        )
    return result


def run(
    quick: bool = True,
    limit: int | None = None,
    clients: int = 4,
    warm_rounds: int = 3,
    sweep: bool = True,
) -> dict:
    documents = _documents(quick, limit)
    with tempfile.TemporaryDirectory(prefix="bench-server-store-") as root:
        first = SynthesisServer(store=root, workers=clients)
        with serve_in_background(first) as handle:
            cold = _drive(handle.url, documents, clients, rounds=1)
            warm = _drive(handle.url, documents, clients, rounds=warm_rounds)
        # A brand-new server+engine on the same root: only the disk is warm.
        second = SynthesisServer(store=root, workers=clients)
        with serve_in_background(second) as handle:
            restart = _drive(handle.url, documents, clients, rounds=warm_rounds)
    scaling = workers_sweep(clients=clients) if sweep else {"skipped": True, "points": {}}

    assert cold["served_from_store"] == 0
    warm_speedup = cold["latency_mean_ms"] / warm["latency_mean_ms"]
    restart_speedup = cold["latency_mean_ms"] / restart["latency_mean_ms"]
    summary = {
        "programs": len(documents),
        "concurrent_clients": clients,
        "warm_speedup": warm_speedup,
        "restart_warm_speedup": restart_speedup,
        "warm_hit_rate": warm["served_from_store"] / warm["requests"],
        "restart_hit_rate": restart["served_from_store"] / restart["requests"],
    }
    if "scaling_2x" in scaling:
        summary["scaling_2x"] = scaling["scaling_2x"]
    return {
        "benchmark": "server-front-door",
        "meta": _bench_config.bench_meta(quick),
        "quick": quick,
        "phases": {"cold": cold, "warm": warm, "restart_warm": restart},
        "workers_sweep": scaling,
        "summary": summary,
    }


def append_history(path: str, report: dict) -> None:
    """Append one compact trend row for this run to the in-repo history file.

    One JSON object per line (append-only): enough to plot req/s, store-hit
    behaviour and multi-core scaling across PRs without re-opening the full
    per-run reports.
    """
    meta = report["meta"]
    sweep = report.get("workers_sweep", {})
    row = {
        "bench": report["benchmark"],
        "git_revision": meta.get("git_revision"),
        "timestamp_utc": meta.get("timestamp_utc"),
        "quick": report["quick"],
        "cpus": meta.get("cpus"),
        "summary": report["summary"],
        "cold_rps": report["phases"]["cold"]["requests_per_second"],
        "sweep_rps": {
            workers: point["requests_per_second"]
            for workers, point in sweep.get("points", {}).items()
        },
    }
    resources = meta.get("resources")
    if resources:
        row["rss_high_water_bytes"] = resources.get("rss_high_water_bytes")
        row["cpu_children_seconds"] = resources.get(
            "cpu_children_user_seconds", 0.0
        ) + resources.get("cpu_children_system_seconds", 0.0)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", default=True, help="small benchmarks only (default)")
    parser.add_argument("--full", dest="quick", action="store_false", help="include the large benchmarks")
    parser.add_argument("--limit", type=int, default=None, help="only the first N programs")
    parser.add_argument("--clients", type=int, default=4, help="concurrent client threads")
    parser.add_argument("--output", default="BENCH_server.json", help="write the JSON report here")
    parser.add_argument(
        "--no-sweep",
        dest="sweep",
        action="store_false",
        help="skip the multi-core concurrency sweep",
    )
    parser.add_argument(
        "--history",
        default="BENCH_history.jsonl",
        help="append one summary row per run to this JSONL trend file (default: %(default)s)",
    )
    parser.add_argument(
        "--no-history", dest="history", action="store_const", const=None,
        help="do not append to the trend history",
    )
    parser.add_argument(
        "--min-warm-speedup",
        type=float,
        default=None,
        help="fail (exit 1) when warm mean latency is not this many times "
        "better than cold (CI gate)",
    )
    parser.add_argument(
        "--min-scaling",
        type=float,
        default=None,
        help="fail (exit 1) when workers=2 cold throughput is not this many "
        "times workers=1 (CI gate; skipped where the sweep is skipped)",
    )
    args = parser.parse_args(argv)

    _bench_config.start_resource_monitor()
    report = run(quick=args.quick, limit=args.limit, clients=args.clients, sweep=args.sweep)
    report["meta"]["resources"] = _bench_config.resource_snapshot()
    phases, summary = report["phases"], report["summary"]
    for name in ("cold", "warm", "restart_warm"):
        phase = phases[name]
        print(
            f"{name:<13}: {phase['requests']:>3} requests, "
            f"{phase['requests_per_second']:7.2f} req/s, "
            f"p50 {phase['latency_p50_ms']:8.2f}ms, p95 {phase['latency_p95_ms']:8.2f}ms, "
            f"{phase['served_from_store']} from store"
        )
    print(f"warm speedup  : {summary['warm_speedup']:.2f}x (hit rate {summary['warm_hit_rate']:.0%})")
    print(f"restart warm  : {summary['restart_warm_speedup']:.2f}x (hit rate {summary['restart_hit_rate']:.0%})")
    sweep = report["workers_sweep"]
    if sweep.get("skipped"):
        print(f"workers sweep : skipped ({sweep.get('cpus', '?')} vCPU host)")
    else:
        for workers, point in sweep["points"].items():
            print(
                f"workers={workers:<5} : {point['requests_per_second']:7.2f} req/s cold, "
                f"p50 {point['latency_p50_ms']:8.2f}ms, "
                f"p95 {point['latency_p95_ms']:8.2f}ms"
            )
        if "scaling_2x" in sweep:
            print(f"scaling 2x    : {sweep['scaling_2x']:.2f}x req/s at workers=2 vs 1")
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    print(f"\nwrote {args.output}")
    if args.history:
        append_history(args.history, report)
        print(f"appended trend row to {args.history}")

    failed = False
    if args.min_warm_speedup is not None and summary["warm_speedup"] < args.min_warm_speedup:
        print(
            f"FAIL: warm speedup {summary['warm_speedup']:.2f}x "
            f"< required {args.min_warm_speedup:.2f}x",
            file=sys.stderr,
        )
        failed = True
    if args.min_scaling is not None and not sweep.get("skipped"):
        scaling = sweep.get("scaling_2x")
        if scaling is None or scaling < args.min_scaling:
            print(
                f"FAIL: workers=2 scaling {scaling if scaling is None else f'{scaling:.2f}x'} "
                f"< required {args.min_scaling:.2f}x",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
