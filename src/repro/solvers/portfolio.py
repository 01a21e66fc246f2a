"""A racing portfolio of Step-4 strategies over one compiled problem.

The paper's Step 4 hands each quadratic system to a single solver; in
practice different systems favour different back-ends (the pure-feasibility
Gauss-Newton sprint cracks most structured systems in a fraction of the
penalty solver's schedule, while objective-tracking instances need the full
penalty machinery).  :class:`PortfolioSolver` compiles the system **once**
into the shared :class:`~repro.solvers.problem.CompiledProblem` IR and races
a configurable list of strategies over it:

* a **shared deadline** (``SolverOptions.time_limit``) enforced inside every
  strategy's iteration loop;
* **first-feasible-wins cancellation** — the first strategy to report a
  feasible point stops the rest through the shared
  :class:`~repro.solvers.problem.SolveControl`;
* **warm-start exchange** — every strategy may seed its next restart from the
  portfolio's best-known point.

Three executors are supported.  ``"thread"`` races all strategies
concurrently (the numpy-heavy evaluation closures release the GIL for most of
their work).  ``"sequential"`` runs the strategies cheapest-first and stops at
the first feasible point — the optimistic "race cheap certificates before
expensive ones" mode, and the right choice on single-core machines.
``"process"`` fans strategies out over separate processes (no warm-start
exchange, cancellation only between completions).  The default ``"auto"``
picks ``"thread"`` on multi-core machines and ``"sequential"`` otherwise.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.errors import SynthesisError
from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.problem import CompiledProblem, Deadline, SolveControl, improves
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver


def _qclp_feasibility(options: SolverOptions) -> Solver:
    return PenaltyQCLPSolver(options, objective_weight=0.0)


#: Registered Step-4 strategies, cheapest first (the sequential executor
#: honours this ordering when the caller does not specify one).
STRATEGIES: dict[str, Callable[[SolverOptions], Solver]] = {
    "gauss-newton": GaussNewtonSolver,
    "qclp": PenaltyQCLPSolver,
    "qclp-feasibility": _qclp_feasibility,
    "alternating": AlternatingSolver,
}

#: The default racing line-up: the cheap feasibility sprint, the default
#: penalty solver, and the bilinear block-coordinate solver.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("gauss-newton", "qclp", "alternating")

EXECUTORS = ("auto", "thread", "sequential", "process")


def strategy_names() -> tuple[str, ...]:
    """Every registered strategy name (for CLIs and option validation)."""
    return tuple(STRATEGIES)


def parse_strategy(value: str | None) -> dict:
    """Turn a ``--strategy`` CLI value into synthesis-option overrides.

    A single registered name selects that back-end; ``"portfolio"`` races the
    default line-up; a comma-separated list races exactly those strategies.
    Returns a (possibly empty) dict of ``strategy``/``portfolio`` overrides
    for :class:`~repro.invariants.synthesis.SynthesisOptions`.
    """
    if not value:
        return {}
    names = [name.strip() for name in value.split(",") if name.strip()]
    if len(names) == 1 and names[0] != "portfolio":
        return {"strategy": names[0]}
    if names == ["portfolio"]:
        return {"strategy": "portfolio"}
    return {"strategy": "portfolio", "portfolio": tuple(name for name in names if name != "portfolio")}


def make_solver(
    strategy: str = "qclp",
    options: SolverOptions | None = None,
    portfolio: Sequence[str] = (),
    executor: str = "auto",
) -> Solver:
    """Instantiate the Step-4 solver named by ``strategy``.

    ``strategy`` is either a registered strategy name or ``"portfolio"``, in
    which case ``portfolio`` lists the strategies to race (empty means
    :data:`DEFAULT_PORTFOLIO`).
    """
    if strategy == "portfolio":
        return PortfolioSolver(options, strategies=tuple(portfolio) or DEFAULT_PORTFOLIO, executor=executor)
    factory = STRATEGIES.get(strategy)
    if factory is None:
        known = ", ".join([*STRATEGIES, "portfolio"])
        raise SynthesisError(f"unknown solver strategy {strategy!r}; known strategies: {known}")
    solver = factory(options if options is not None else SolverOptions())
    solver.strategy_label = strategy
    return solver


@dataclass
class StrategyOutcome:
    """What one racing strategy produced (``result`` is None when it was skipped).

    ``seconds`` is recorded for every strategy — winners, losers and
    cancelled entries alike — so schedulers mining race outcomes see the full
    per-strategy cost, not just the winning time.  ``cancelled`` marks a
    strategy that never ran its solver: the race was already won (or the
    deadline gone) when its turn came, including a staggered launch whose
    grace period was cut short by the primary's win.
    """

    name: str
    result: SolverResult | None
    seconds: float
    error: str | None = None
    cancelled: bool = False

    @property
    def feasible(self) -> bool:
        return self.result is not None and self.result.feasible


def _run_strategy(solver: Solver, problem: CompiledProblem) -> tuple[SolverResult, float]:
    """Process-executor entry point (module-level for picklability)."""
    start = time.perf_counter()
    result = solver.solve_compiled(problem)
    return result, time.perf_counter() - start


class PortfolioSolver(Solver):
    """Race several Step-4 strategies on one shared compiled problem."""

    def __init__(
        self,
        options: SolverOptions | None = None,
        strategies: Sequence[str] = DEFAULT_PORTFOLIO,
        executor: str = "auto",
        stop_on_feasible: bool = True,
        stagger_seconds: float = 0.0,
    ):
        super().__init__(options)
        if not strategies:
            raise SynthesisError("a portfolio needs at least one strategy")
        if stagger_seconds < 0:
            raise SynthesisError(f"stagger_seconds must be non-negative, got {stagger_seconds}")
        unknown = [name for name in strategies if name not in STRATEGIES]
        if unknown:
            raise SynthesisError(
                f"unknown portfolio strategies {unknown!r}; known strategies: {', '.join(STRATEGIES)}"
            )
        if len(set(strategies)) != len(strategies):
            raise SynthesisError(
                f"duplicate portfolio strategies in {tuple(strategies)!r}; "
                "outcomes and racing columns are keyed by strategy name"
            )
        if executor not in EXECUTORS:
            raise SynthesisError(f"unknown executor {executor!r}; known executors: {', '.join(EXECUTORS)}")
        self.strategies = tuple(strategies)
        self.executor = executor
        self.stop_on_feasible = stop_on_feasible
        #: Grace period before every strategy after the first launches (a
        #: scheduler's "predicted primary first" staggered start).  0 races
        #: everything at once — the historical behaviour.
        self.stagger_seconds = stagger_seconds

    # -- strategy construction -----------------------------------------------------

    def _solvers(self) -> list[tuple[str, Solver]]:
        """One freshly configured solver per strategy, with decorrelated seeds."""
        solvers = []
        for index, name in enumerate(self.strategies):
            per_strategy = replace(self.options, seed=self.options.seed + 1009 * index)
            solver = STRATEGIES[name](per_strategy)
            solver.strategy_label = name
            solvers.append((name, solver))
        return solvers

    def _resolved_executor(self) -> str:
        if self.executor != "auto":
            return self.executor
        return "thread" if (os.cpu_count() or 1) > 1 else "sequential"

    # -- main entry ------------------------------------------------------------------

    def solve_compiled(
        self, problem: CompiledProblem, control: SolveControl | None = None
    ) -> SolverResult:
        if problem.dimension == 0:
            return SolverResult(assignment={}, status="trivial", objective_value=0.0, max_violation=0.0)
        if control is None:
            control = SolveControl(
                deadline=Deadline.after(self.options.time_limit),
                tolerance=self.options.tolerance,
                stop_on_feasible=self.stop_on_feasible,
            )
        executor = self._resolved_executor()
        if executor == "thread":
            outcomes = self._race_threads(problem, control)
        elif executor == "process":
            outcomes = self._race_processes(problem, control)
        else:
            outcomes = self._race_sequential(problem, control)
        return self._assemble(outcomes, control)

    # -- executors ----------------------------------------------------------------------

    def _race_sequential(
        self, problem: CompiledProblem, control: SolveControl
    ) -> list[StrategyOutcome]:
        """Cheapest-first racing with early exit: optimistic certificate order."""
        outcomes = []
        for name, solver in self._solvers():
            if control.should_stop():
                outcomes.append(StrategyOutcome(name=name, result=None, seconds=0.0, cancelled=True))
                continue
            start = time.perf_counter()
            try:
                result = solver.solve_compiled(problem, control)
                outcomes.append(StrategyOutcome(name, result, time.perf_counter() - start))
            except Exception as error:  # pragma: no cover - defensive: bad strategy config
                outcomes.append(
                    StrategyOutcome(name, None, time.perf_counter() - start, error=repr(error))
                )
        return outcomes

    def _race_threads(self, problem: CompiledProblem, control: SolveControl) -> list[StrategyOutcome]:
        solvers = self._solvers()

        def run(entry: tuple[str, Solver], defer_seconds: float = 0.0) -> StrategyOutcome:
            name, solver = entry
            start = time.perf_counter()
            # Staggered launch: sleep out the grace period on the shared
            # control so a primary win (or the deadline) cancels the launch
            # outright — the deferred strategy then never costs a core.
            if defer_seconds > 0.0 and control.wait_stop(defer_seconds):
                return StrategyOutcome(name, None, time.perf_counter() - start, cancelled=True)
            try:
                result = solver.solve_compiled(problem, control)
                return StrategyOutcome(name, result, time.perf_counter() - start)
            except Exception as error:  # pragma: no cover - defensive: bad strategy config
                return StrategyOutcome(name, None, time.perf_counter() - start, error=repr(error))

        with ThreadPoolExecutor(max_workers=len(solvers)) as pool:
            futures = [
                pool.submit(run, entry, self.stagger_seconds if index else 0.0)
                for index, entry in enumerate(solvers)
            ]
            return [future.result() for future in futures]

    def _race_processes(self, problem: CompiledProblem, control: SolveControl) -> list[StrategyOutcome]:
        """Process racing: isolated strategies, first feasible completion wins.

        No shared control crosses the process boundary, so there is no
        warm-start exchange and cancellation happens between completions: once
        a feasible result arrives the remaining futures are abandoned.
        """
        solvers = self._solvers()
        remaining = control.deadline.remaining()
        if remaining is not None:
            solvers = [
                (name, replace_time_limit(solver, remaining)) for name, solver in solvers
            ]
        outcomes: dict[str, StrategyOutcome] = {}
        with ProcessPoolExecutor(max_workers=len(solvers)) as pool:
            futures = {
                pool.submit(_run_strategy, solver, problem): name for name, solver in solvers
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                stop = False
                for future in done:
                    name = futures[future]
                    try:
                        result, seconds = future.result()
                        outcomes[name] = StrategyOutcome(name, result, seconds)
                        if result.feasible:
                            control.report(
                                problem.vector(result.assignment),
                                result.max_violation or 0.0,
                                result.objective_value or 0.0,
                                strategy=name,
                            )
                            if self.stop_on_feasible:
                                stop = True
                    except Exception as error:  # pragma: no cover - worker crash
                        outcomes[name] = StrategyOutcome(name, None, 0.0, error=repr(error))
                if stop:
                    for future in pending:
                        future.cancel()
                    break
        for name, _ in solvers:
            outcomes.setdefault(name, StrategyOutcome(name=name, result=None, seconds=0.0, cancelled=True))
        return [outcomes[name] for name, _ in solvers]

    # -- result assembly ------------------------------------------------------------------

    def _assemble(self, outcomes: list[StrategyOutcome], control: SolveControl) -> SolverResult:
        tolerance = self.options.tolerance
        best: SolverResult | None = None
        best_name: str | None = None
        best_violation = float("inf")
        best_objective = float("inf")
        best_settled = False
        iterations = 0
        restarts = 0
        residual_evaluations = 0
        jacobian_evaluations = 0
        batch_width = 0
        details: dict[str, float] = {}

        for outcome in outcomes:
            details[f"portfolio_{outcome.name}_seconds"] = outcome.seconds
            details[f"portfolio_{outcome.name}_cancelled"] = float(outcome.cancelled)
            if outcome.result is None:
                details[f"portfolio_{outcome.name}_feasible"] = -1.0  # skipped or failed
                continue
            result = outcome.result
            details[f"portfolio_{outcome.name}_feasible"] = float(result.feasible)
            iterations += result.iterations
            restarts += result.restarts_used
            residual_evaluations += result.residual_evaluations
            jacobian_evaluations += result.jacobian_evaluations
            batch_width = max(batch_width, result.batch_width)
            violation = result.max_violation if result.max_violation is not None else float("inf")
            objective = result.objective_value if result.objective_value is not None else float("inf")
            # A strategy stopped mid-descent (a rival's win or the deadline)
            # returns wherever it stood, often only barely feasible: it may
            # win on violation, but never displace a completed feasible
            # result on objective.
            settled = violation <= tolerance and not result.details.get("interrupted")
            if (
                best is None
                or (settled and not best_settled)
                or (
                    settled == best_settled
                    and improves(best_violation, best_objective, violation, objective, tolerance)
                )
            ):
                best, best_name = result, outcome.name
                best_violation, best_objective, best_settled = violation, objective, settled

        if best is None:
            return SolverResult(
                assignment=None,
                status="no-progress",
                iterations=iterations,
                restarts_used=restarts,
                details=details,
                strategy=None,
                residual_evaluations=residual_evaluations,
                jacobian_evaluations=jacobian_evaluations,
                batch_width=batch_width,
            )
        details.update(best.details)
        details["timed_out"] = float(control.timed_out)
        return SolverResult(
            assignment=best.assignment,
            status=best.status,
            objective_value=best.objective_value,
            max_violation=best.max_violation,
            iterations=iterations,
            restarts_used=restarts,
            details=details,
            residual_evaluations=residual_evaluations,
            jacobian_evaluations=jacobian_evaluations,
            batch_width=batch_width,
            # The strategy whose result is actually returned; the first
            # feasible *reporter* (control.winner) can differ when a slower
            # strategy still finishes with a better point.
            strategy=best_name,
        )


def replace_time_limit(solver: Solver, seconds: float) -> Solver:
    """A copy-free tightening of a solver's wall-clock budget (process racing)."""
    limit = solver.options.time_limit
    solver.options = replace(
        solver.options, time_limit=seconds if limit is None else min(limit, seconds)
    )
    return solver
