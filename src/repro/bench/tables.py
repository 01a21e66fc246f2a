"""Rendering of reproduced tables (plain text / markdown)."""

from __future__ import annotations

import statistics
from typing import Sequence

from repro.bench.literature import LITERATURE_SUMMARY
from repro.bench.runner import Measurement
from repro.reduction import STAGE_NAMES


def _format_runtime(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds >= 60:
        minutes = int(seconds // 60)
        return f"{minutes}m{seconds - 60 * minutes:.1f}s"
    return f"{seconds:.2f}s"


def table_rows(measurements: Sequence[Measurement]) -> list[dict[str, str]]:
    """The reproduced rows in the paper's column layout plus paper-reported columns."""
    with_strategy = any(measurement.strategy for measurement in measurements)
    with_stages = any(measurement.stages_cached for measurement in measurements)
    with_escalation = any(measurement.escalation_attempts is not None for measurement in measurements)
    with_verification = any(measurement.verified is not None for measurement in measurements)
    rows = []
    for measurement in measurements:
        row = {
            "Benchmark": measurement.name,
            "n": str(measurement.conjuncts),
            "d": str(measurement.degree),
            "|V|": str(measurement.variables),
            "|S|": str(measurement.system_size),
            "Runtime": _format_runtime(measurement.total_seconds),
            "|S| (paper)": str(measurement.paper_system_size) if measurement.paper_system_size else "-",
            "Runtime (paper)": _format_runtime(measurement.paper_runtime_seconds),
            "Solver": measurement.solver_status or "-",
        }
        if with_strategy:
            row["Strategy"] = measurement.strategy or "-"
        if with_stages:
            # How much of the staged Step 1-3 reduction came from the cache.
            row["Stages cached"] = f"{measurement.stages_cached}/{len(STAGE_NAMES)}"
        if with_escalation:
            if measurement.escalation_attempts is None:
                row["Escalation"] = "-"
            elif measurement.final_degree is not None:
                row["Escalation"] = f"d*={measurement.final_degree} ({measurement.escalation_attempts} tried)"
            else:
                row["Escalation"] = f"none ({measurement.escalation_attempts} tried)"
        if with_verification:
            if measurement.verified is None:
                row["Verified"] = "-"
            else:
                status = "yes" if measurement.verified else "NO"
                if measurement.repair_rounds:
                    status += f" ({measurement.repair_rounds} repair)"
                row["Verified"] = status
        rows.append(row)
    return rows


def strategy_summary_rows(measurements: Sequence[Measurement]) -> list[dict[str, str]]:
    """Per-strategy win/loss and wall-clock aggregates of portfolio measurements.

    A strategy *wins* a benchmark when the portfolio returned its result
    (first feasible point); the per-strategy seconds come from the
    columns the portfolio records in ``Measurement.extra``.
    """
    names: list[str] = []
    for measurement in measurements:
        for key in measurement.extra:
            if key.startswith("portfolio_") and key.endswith("_seconds"):
                name = key[len("portfolio_"):-len("_seconds")]
                if name not in names:
                    names.append(name)
    if not names:
        return []

    rows = []
    for name in names:
        seconds = [
            measurement.extra[f"portfolio_{name}_seconds"]
            for measurement in measurements
            if f"portfolio_{name}_seconds" in measurement.extra
        ]
        feasible = [
            measurement.extra.get(f"portfolio_{name}_feasible", -1.0) for measurement in measurements
        ]
        wins = sum(1 for measurement in measurements if measurement.strategy == name)
        ran = sum(1 for flag in feasible if flag >= 0.0)
        solved = sum(1 for flag in feasible if flag == 1.0)
        median = statistics.median(seconds) if seconds else 0.0
        rows.append(
            {
                "Strategy": name,
                "Wins": str(wins),
                "Feasible": f"{solved}/{ran}" if ran else "0/0",
                "Median wall-clock": _format_runtime(median),
                "Total wall-clock": _format_runtime(sum(seconds)),
            }
        )
    return rows


def render_strategy_summary(measurements: Sequence[Measurement], title: str = "Portfolio strategies") -> str:
    """Render the per-strategy summary table (empty string without portfolio data)."""
    rows = strategy_summary_rows(measurements)
    if not rows:
        return ""
    return f"### {title}\n\n" + render_rows(rows) + "\n"


def render_rows(rows: Sequence[dict[str, str]], columns: Sequence[str] | None = None) -> str:
    """Render dict rows as a markdown table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())
    widths = {column: max(len(column), *(len(row.get(column, "")) for row in rows)) for column in columns}
    header = "| " + " | ".join(column.ljust(widths[column]) for column in columns) + " |"
    separator = "|" + "|".join("-" * (widths[column] + 2) for column in columns) + "|"
    lines = [header, separator]
    for row in rows:
        lines.append("| " + " | ".join(row.get(column, "").ljust(widths[column]) for column in columns) + " |")
    return "\n".join(lines)


def render_measurements(measurements: Sequence[Measurement], title: str = "") -> str:
    """Render a full reproduced table with an optional title line."""
    body = render_rows(table_rows(measurements))
    return f"## {title}\n\n{body}\n" if title else body + "\n"


def render_table1() -> str:
    """Render the Table 1 literature summary (qualitative feature matrix)."""
    columns = [
        "Approach",
        "Assignments",
        "Invariants",
        "Nondet",
        "Rec",
        "Prob",
        "Sound",
        "Complete",
        "Weak",
        "Strong",
    ]
    return render_rows(LITERATURE_SUMMARY, columns)
