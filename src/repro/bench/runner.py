"""Measurement runner: execute the reduction (and optionally a solve) per benchmark.

Since the service-API refactor this module is a thin measurement layer on top
of :class:`repro.api.Engine`: benchmarks become typed
:class:`~repro.api.request.SynthesisRequest` values and reductions are
deduplicated through the engine's task cache.  Rows are read from each
response's in-process ``task``/``result`` extras, which a worker process's
wire envelope does not carry, so the runner uses a sequential engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.engine import Engine
from repro.api.request import SynthesisRequest
from repro.api.response import SynthesisResponse
from repro.invariants.synthesis import SynthesisOptions
from repro.pipeline.jobs import job_from_benchmark
from repro.reduction import EscalationTrace
from repro.solvers.base import SolverOptions
from repro.suite.base import Benchmark


@dataclass
class Measurement:
    """One row of a reproduced table."""

    name: str
    category: str
    conjuncts: int
    degree: int
    variables: int
    constraint_pairs: int
    system_size: int
    unknowns: int
    reduction_seconds: float
    solve_seconds: float | None = None
    solver_status: str | None = None
    strategy: str | None = None
    paper_system_size: int | None = None
    paper_runtime_seconds: float | None = None
    paper_variables: int | None = None
    notes: str = ""
    extra: dict[str, float] = field(default_factory=dict)
    stages_cached: int = 0
    escalation_attempts: int | None = None
    final_degree: int | None = None
    verified: bool | None = None
    repair_rounds: int | None = None

    @property
    def total_seconds(self) -> float:
        """Reduction + solve + verification time (the full cost of the row)."""
        return (
            self.reduction_seconds
            + (self.solve_seconds or 0.0)
            + self.extra.get("verify_seconds", 0.0)
        )


def bench_solver_options() -> SolverOptions:
    """The short solve budget used when measuring with ``solve=True``."""
    return SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)


def bench_engine() -> Engine:
    """A sequential engine configured like the benchmark runner uses it.

    Pass the same engine to several :func:`measure_many` calls (or table
    commands) to share its task cache and solve-dedup table between them.
    """
    return Engine(solver_options=bench_solver_options())


def request_from_benchmark(
    benchmark: Benchmark,
    solve: bool = True,
    quick: bool = False,
    options: SynthesisOptions | None = None,
    **option_overrides,
) -> SynthesisRequest:
    """The typed request that measures one suite benchmark."""
    if options is None:
        job = job_from_benchmark(benchmark, quick=quick, **option_overrides)
        options = job.options
        if options.is_auto_degree and "max_degree" not in option_overrides:
            # Escalate at least up to the benchmark's own table degree —
            # recursive rows declare targets that need d=3/4, which the
            # uniform default ladder would never reach.
            options = dataclasses.replace(
                options, max_degree=max(options.max_degree, benchmark.degree)
            )
    if options.is_auto_degree and not solve:
        raise ValueError(
            'degree="auto" escalates through Step-4 solves; measure it with solve=True '
            "(bench CLI: add --solve)"
        )
    return SynthesisRequest(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=options,
        request_id=benchmark.name,
        reduce_only=not solve,
    )


def measurement_from_response(benchmark: Benchmark, response: SynthesisResponse) -> Measurement:
    """Convert one engine response into a table row."""
    if response.task is None:
        error = response.error.traceback if response.error else response.solver_status
        raise RuntimeError(f"benchmark {benchmark.name!r} failed during reduction:\n{error}")
    task = response.task
    counts = task.system.counts()
    solver_status = None
    strategy = None
    extra = {
        "template_variables": float(counts["template_variables"]),
        "equalities": float(counts["equalities"]),
        "inequalities": float(counts["inequalities"]),
    }
    if response.result is not None:
        solver_status = response.result.solver_status
        strategy = response.result.strategy
        # Per-strategy portfolio columns (portfolio solves record one
        # wall-clock and one feasibility flag per strategy in the line-up).
        extra.update(
            {
                key: value
                for key, value in response.result.statistics.items()
                if key.startswith("portfolio_")
            }
        )
    elif response.error is not None:
        solver_status = "error"
    # Per-stage reduction timings and cache reuse (staged reduction).
    extra.update(
        {key: value for key, value in response.timings.items() if key.startswith("stage_")}
    )
    verified = None
    repair_rounds = None
    if response.verification is not None:
        verified = bool(response.verification.get("verified"))
        repair_rounds = int(response.verification.get("repair_rounds", 0))
        extra["verify_seconds"] = float(response.timings.get("verify_seconds", 0.0))
    escalation_attempts = None
    final_degree = None
    if response.escalation is not None:
        # Count only the rungs that actually ran (deadline-skipped entries
        # record degrees the ladder never reached).
        escalation_attempts = len(EscalationTrace.from_dict(response.escalation).degrees_tried)
        final_degree = response.escalation.get("final_degree")
    return Measurement(
        name=benchmark.name,
        category=benchmark.category,
        conjuncts=task.options.conjuncts,
        degree=task.options.degree,
        variables=task.cfg.variable_count(),
        constraint_pairs=len(task.pairs),
        system_size=task.system.size,
        unknowns=counts["variables"],
        reduction_seconds=response.timings.get("reduction_seconds", 0.0),
        solve_seconds=response.timings.get("solve_seconds"),
        solver_status=solver_status,
        strategy=strategy,
        paper_system_size=benchmark.paper.system_size if benchmark.paper else None,
        paper_runtime_seconds=benchmark.paper.runtime_seconds if benchmark.paper else None,
        paper_variables=benchmark.paper.variables if benchmark.paper else None,
        notes=benchmark.notes,
        extra=extra,
        stages_cached=int(response.timings.get("stages_from_cache", 0.0)),
        escalation_attempts=escalation_attempts,
        final_degree=final_degree,
        verified=verified,
        repair_rounds=repair_rounds,
    )


def measure_benchmark(
    benchmark: Benchmark,
    options: SynthesisOptions | None = None,
    solve: bool = False,
) -> Measurement:
    """Run Steps 1-3 (and optionally Step 4) on one benchmark and record a row.

    Parameters
    ----------
    benchmark:
        The suite entry to measure.
    options:
        Synthesis options; defaults to the benchmark's own table parameters.
    solve:
        Whether to also run the Step-4 solver (adds its wall-clock time and
        status to the row).  The reduction alone reproduces the structural
        columns n, d, |V| and |S|.
    """
    return measure_many([benchmark], solve=solve, options=options, verbose=False)[0]


def measure_many(
    benchmarks: Iterable[Benchmark],
    solve: bool = False,
    quick: bool = False,
    verbose: bool = True,
    options: SynthesisOptions | None = None,
    engine: Engine | None = None,
    option_overrides: dict | None = None,
) -> list[Measurement]:
    """Measure a collection of benchmarks through the service engine.

    The quick preset lowers the multiplier degree (Upsilon) to 1, which keeps
    every reduction under a few seconds; it is used by the default pytest
    benchmark run so that CI stays fast.  The full preset (``quick=False``)
    reproduces the paper's parameters.  Pass an ``engine`` (see
    :func:`bench_engine`) to share its task cache between calls.

    ``option_overrides`` patches individual synthesis options per benchmark
    (e.g. ``{"translation": "handelman", "strategy": "portfolio"}``).  Each
    request's Step-4 back-end follows its options' ``strategy``/``portfolio``
    knobs under the short bench budget of :func:`bench_solver_options`.
    """
    benchmarks = list(benchmarks)
    requests = [
        request_from_benchmark(
            benchmark, solve=solve, quick=quick, options=options, **(option_overrides or {})
        )
        for benchmark in benchmarks
    ]
    owns_engine = engine is None
    if engine is None:
        engine = bench_engine()

    try:
        measurements: list[Measurement] = []
        for benchmark, request, response in zip(
            benchmarks, requests, engine.map(requests, ordered=True)
        ):
            if verbose:
                print(
                    f"[bench] {benchmark.name} (d={request.options.degree}, "
                    f"n={request.options.conjuncts}, Y={request.options.upsilon}) ..."
                )
            measurement = measurement_from_response(benchmark, response)
            if verbose:
                cached = " (cached reduction)" if response.from_cache else ""
                if not solve:
                    solve_note = ""
                elif measurement.solve_seconds is not None and response.ok:
                    solve_note = f" solve={measurement.solve_seconds:.2f}s [{measurement.solver_status}]"
                else:
                    solve_note = f" solve failed [{measurement.solver_status}]"
                print(
                    f"         |V|={measurement.variables} pairs={measurement.constraint_pairs} "
                    f"|S|={measurement.system_size} reduction={measurement.reduction_seconds:.2f}s"
                    + solve_note
                    + cached
                )
            measurements.append(measurement)
        return measurements
    finally:
        if owns_engine:
            engine.close()


def quick_subset(benchmarks: Sequence[Benchmark], limit_variables: int = 8) -> list[Benchmark]:
    """The benchmarks whose variable count keeps the reduction cheap (used by default CI runs)."""
    return [benchmark for benchmark in benchmarks if benchmark.variable_count() <= limit_variables]


__all__ = [
    "Measurement",
    "bench_engine",
    "bench_solver_options",
    "job_from_benchmark",
    "measure_benchmark",
    "measure_many",
    "measurement_from_response",
    "quick_subset",
    "request_from_benchmark",
]
