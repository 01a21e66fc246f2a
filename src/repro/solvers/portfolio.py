"""A portfolio of Step-4 strategies over one compiled problem.

The paper's Step 4 hands each quadratic system to a single solver; in
practice different systems favour different back-ends (the pure-feasibility
Gauss-Newton sprint cracks most structured systems in a fraction of the
penalty solver's schedule, while objective-tracking instances need the full
penalty machinery).  :class:`PortfolioSolver` compiles the system **once**
into the shared :class:`~repro.solvers.problem.CompiledProblem` IR and walks
a configurable line-up of strategies over it, in order and in the calling
thread:

* a **shared deadline** (``SolverOptions.time_limit``) enforced inside every
  strategy's iteration loop;
* **first-feasible-wins** — the walk ends with the first strategy whose
  result is feasible, so later strategies never start;
* **warm-start exchange** — every strategy may seed its next restart from the
  portfolio's best-known point, through the shared
  :class:`~repro.solvers.problem.SolveControl`.

Walking cheapest-first is the optimistic order: the expensive strategies
run only when the cheap ones fail, and a fixed seed gives a fixed answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.errors import SynthesisError
from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.problem import CompiledProblem, SolveControl, improves
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver


#: Registered Step-4 strategies, cheapest first.
STRATEGIES: dict[str, Callable[[SolverOptions], Solver]] = {
    "gauss-newton": GaussNewtonSolver,
    "qclp": PenaltyQCLPSolver,
    "alternating": AlternatingSolver,
}

#: The default line-up, walked in order: the cheap feasibility sprint, the
#: default penalty solver, and the bilinear block-coordinate solver.
DEFAULT_PORTFOLIO: tuple[str, ...] = ("gauss-newton", "qclp", "alternating")


def strategy_names() -> tuple[str, ...]:
    """Every registered strategy name (for CLIs and option validation)."""
    return tuple(STRATEGIES)


def parse_strategy(value: str | None) -> dict:
    """Turn a ``--strategy`` CLI value into synthesis-option overrides.

    A single registered name selects that back-end; ``"portfolio"`` walks the
    default line-up; a comma-separated list walks exactly those strategies.
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
) -> Solver:
    """Instantiate the Step-4 solver named by ``strategy``.

    ``strategy`` is either a registered strategy name or ``"portfolio"``, in
    which case ``portfolio`` lists the strategies to walk (empty means
    :data:`DEFAULT_PORTFOLIO`).
    """
    if strategy == "portfolio":
        return PortfolioSolver(options, strategies=tuple(portfolio) or DEFAULT_PORTFOLIO)
    factory = STRATEGIES.get(strategy)
    if factory is None:
        known = ", ".join([*STRATEGIES, "portfolio"])
        raise SynthesisError(f"unknown solver strategy {strategy!r}; known strategies: {known}")
    solver = factory(options if options is not None else SolverOptions())
    solver.strategy_label = strategy
    return solver


@dataclass
class StrategyOutcome:
    """What one portfolio strategy produced (``result`` is None when it was skipped).

    ``seconds`` is recorded for every strategy — winners, losers and
    cancelled entries alike — so portfolio reports show the full
    per-strategy cost, not just the winning time.  ``cancelled`` marks a
    strategy that never ran its solver: an earlier strategy had already
    won (or the deadline was gone) when its turn came.
    """

    name: str
    result: SolverResult | None
    seconds: float
    error: str | None = None
    cancelled: bool = False

    @property
    def feasible(self) -> bool:
        return self.result is not None and self.result.feasible


class PortfolioSolver(Solver):
    """Walk several Step-4 strategies, in order, over one shared compiled problem."""

    def __init__(
        self,
        options: SolverOptions | None = None,
        strategies: Sequence[str] = DEFAULT_PORTFOLIO,
    ):
        super().__init__(options)
        if not strategies:
            raise SynthesisError("a portfolio needs at least one strategy")
        unknown = [name for name in strategies if name not in STRATEGIES]
        if unknown:
            raise SynthesisError(
                f"unknown portfolio strategies {unknown!r}; known strategies: {', '.join(STRATEGIES)}"
            )
        if len(set(strategies)) != len(strategies):
            raise SynthesisError(
                f"duplicate portfolio strategies in {tuple(strategies)!r}; "
                "outcomes and portfolio columns are keyed by strategy name"
            )
        self.strategies = tuple(strategies)

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

    # -- the walk ----------------------------------------------------------------------

    def _search(self, problem: CompiledProblem, control: SolveControl) -> SolverResult:
        return self._assemble(self._walk(problem, control), problem, control)

    def _walk(self, problem: CompiledProblem, control: SolveControl) -> list[StrategyOutcome]:
        """Run the strategies in line-up order until one answers feasibly.

        Every strategy after the first feasible result, and every one whose
        turn comes after the deadline, is recorded as cancelled.
        """
        outcomes = []
        for name, solver in self._solvers():
            if control.should_stop() or any(outcome.feasible for outcome in outcomes):
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

    # -- result assembly ------------------------------------------------------------------

    def _assemble(
        self, outcomes: list[StrategyOutcome], problem: CompiledProblem, control: SolveControl
    ) -> SolverResult:
        """The walk's answer: the best outcome by :func:`improves`, with every strategy's columns.

        The walk stops at the first feasible result, so that result, when
        there is one, is the only feasible outcome and wins.
        """
        tolerance = self.options.tolerance
        best: SolverResult | None = None
        best_name: str | None = None
        best_violation = float("inf")
        best_objective = float("inf")
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
            if best is None or improves(best_violation, best_objective, violation, objective, tolerance):
                best, best_name = result, outcome.name
                best_violation, best_objective = violation, objective

        details.update(problem.size_details() if best is None else best.details)
        details["timed_out"] = float(control.should_stop())
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
            strategy=best_name,
        )
