"""Command-line entry point: ``python -m repro.bench <command>``."""

from __future__ import annotations

import argparse
import sys

from repro.api.engine import Engine
from repro.bench.runner import Measurement, bench_engine, measure_many, quick_subset
from repro.bench.tables import render_measurements, render_strategy_summary, render_table1
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.synthesis import build_task
from repro.solvers.farkas import can_express_target, linear_baseline_system
from repro.solvers.portfolio import parse_strategy, strategy_names
from repro.suite.registry import all_benchmarks, benchmarks_by_category, get_benchmark


def _degree(value: str) -> int | str:
    """Parse the --degree flag: a positive integer or the literal "auto"."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a degree or 'auto', got {value!r}") from exc


def _overrides(args: argparse.Namespace) -> dict:
    overrides = parse_strategy(args.strategy)
    if args.translation:
        overrides["translation"] = args.translation
    if args.degree is not None:
        overrides["degree"] = args.degree
    if args.max_degree is not None:
        overrides["max_degree"] = args.max_degree
    if args.verify:
        overrides["verify"] = args.verify
    return overrides


def _select(names: str | None, category: str) -> list:
    benchmarks = benchmarks_by_category(category)
    if names:
        wanted = [name.strip() for name in names.split(",") if name.strip()]
        benchmarks = [get_benchmark(name) for name in wanted]
    return benchmarks


def _render(measurements: list[Measurement], title: str) -> str:
    report = render_measurements(measurements, title)
    summary = render_strategy_summary(measurements)
    if summary:
        report += "\n" + summary
    return report


def _run_table(category: str, title: str, args: argparse.Namespace, engine: Engine) -> str:
    benchmarks = _select(args.names, category)
    if args.quick:
        benchmarks = quick_subset(benchmarks)
    measurements = measure_many(
        benchmarks,
        solve=args.solve,
        quick=args.quick,
        verbose=not args.no_progress,
        engine=engine,
        option_overrides=_overrides(args),
    )
    return _render(measurements, title)


def _run_table3(args: argparse.Namespace, engine: Engine) -> str:
    benchmarks = []
    if not args.names:
        benchmarks = benchmarks_by_category("reinforcement") + benchmarks_by_category("recursive")
    else:
        benchmarks = [get_benchmark(name.strip()) for name in args.names.split(",") if name.strip()]
    if args.quick:
        benchmarks = quick_subset(benchmarks)
    measurements = measure_many(
        benchmarks,
        solve=args.solve,
        quick=args.quick,
        verbose=not args.no_progress,
        engine=engine,
        option_overrides=_overrides(args),
    )
    return _render(measurements, "Table 3 - recursive and reinforcement-learning benchmarks")


def _run_ablation(args: argparse.Namespace) -> str:
    names = args.names or "freire1,sqrt,petter"
    lines = ["## Ablation - translation scheme and linear baseline", ""]
    lines.append("| Benchmark | |S| Putinar | |S| Handelman | |S| Farkas(d=1) | linear template can express target |")
    lines.append("|---|---|---|---|---|")
    for name in names.split(","):
        benchmark = get_benchmark(name.strip())
        options = benchmark.options(upsilon=1) if args.quick else benchmark.options()
        task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
        putinar_size = task.system.size
        handelman_size = handelman_translate(task.pairs).size
        templates, farkas_system = linear_baseline_system(task.cfg, task.precondition)
        target = benchmark.target_polynomial()
        expressible = "-"
        if target is not None and benchmark.target_label is not None and benchmark.target_kind == "label":
            expressible = str(
                can_express_target(templates, target, benchmark.target_function, benchmark.target_label)
            )
        lines.append(
            f"| {benchmark.name} | {putinar_size} | {handelman_size} | {farkas_system.size} | {expressible} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation tables on this machine.",
    )
    parser.add_argument("command", choices=["table1", "table2", "table3", "ablation", "all"])
    parser.add_argument("--names", help="comma-separated benchmark names to restrict to")
    parser.add_argument("--quick", action="store_true", help="small parameter preset (Upsilon=1, small benchmarks)")
    parser.add_argument("--solve", action="store_true", help="also run the Step-4 solver per benchmark")
    parser.add_argument(
        "--translation",
        choices=["putinar", "handelman"],
        help="Step-3 translation scheme override (default: the paper's Putinar encoding)",
    )
    parser.add_argument(
        "--degree",
        type=_degree,
        default=None,
        help=(
            "template degree override: a fixed d, or 'auto' to escalate "
            "d = 1..max_degree and keep the minimal feasible degree (needs --solve)"
        ),
    )
    parser.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="the largest degree tried by --degree auto (default: 3)",
    )
    parser.add_argument(
        "--strategy",
        help=(
            "Step-4 strategy: one of "
            + ", ".join(strategy_names())
            + "; 'portfolio' for the default line-up, or a comma-separated "
            "list of strategies to walk in order"
        ),
    )
    parser.add_argument(
        "--verify",
        choices=["none", "sample", "exact"],
        help=(
            "post-solve verification tier (needs --solve): 'sample' re-checks by "
            "simulation + pair sampling, 'exact' lifts every solution to a rational "
            "certificate validated in pure Fraction arithmetic (repairing on rejection)"
        ),
    )
    parser.add_argument("--no-progress", action="store_true", help="suppress per-benchmark progress lines")
    parser.add_argument("--output", help="write the rendered tables to this file as well")
    args = parser.parse_args(argv)

    sections: list[str] = []
    # One engine for the whole invocation: every table command shares its cache.
    with bench_engine() as engine:
        if args.command in ("table1", "all"):
            sections.append("## Table 1 - literature summary\n\n" + render_table1() + "\n")
        if args.command in ("table2", "all"):
            sections.append(_run_table("nonrecursive", "Table 2 - non-recursive benchmarks", args, engine))
        if args.command in ("table3", "all"):
            sections.append(_run_table3(args, engine))
        if args.command in ("ablation", "all"):
            sections.append(_run_ablation(args))

    report = "\n".join(sections)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
