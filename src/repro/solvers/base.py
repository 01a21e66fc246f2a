"""Common solver interface and result type."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping

from repro.invariants.quadratic_system import QuadraticSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.solvers.problem import CompiledProblem, SolveControl

#: The canonical numeric-solve defaults.  These used to be hard-coded at every
#: consumer (``CompiledProblem``, ``SolveControl``); they now live here, next
#: to the :class:`SolverOptions` fields they default, and every consumer
#: resolves an explicit ``None`` back to them.
DEFAULT_STRICT_MARGIN = 1e-4
DEFAULT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the numeric solvers.

    These fields, :class:`~repro.reduction.options.SynthesisOptions` and the
    request's :class:`~repro.solvers.problem.Deadline` are all that
    configure Step 4.  The numerics no caller varies (stopping tolerances,
    line-search and CG budgets, penalty schedules, the penalty solver's
    objective threshold) are constants of the module that uses them.

    Attributes
    ----------
    max_iterations:
        Iteration budget per restart (meaning depends on the solver).
    restarts:
        Number of random restarts.
    tolerance:
        Feasibility tolerance: an assignment is accepted when the maximum
        constraint violation is below this value.
    seed:
        Seed of the pseudo-random restart generator (for reproducibility).
    strict_margin:
        The margin used to turn strict inequalities ``p > 0`` into
        ``p >= strict_margin`` for the numeric solvers.
    time_limit:
        Wall-clock limit in seconds (``None``: no limit).  The batched
        engines check a :class:`~repro.solvers.problem.Deadline` once per
        batched iteration, so a solve overshoots the budget by at most one
        batched iteration: one Jacobian fill and its CG solve, or one
        L-BFGS step with its line search.
    batch:
        How the multi-start solvers walk the restart axis.  ``"on"`` (the
        default) iterates all restarts as one vectorised batch with survivor
        masks; ``"rows"`` runs the same batched engine one restart at a time
        (the determinism oracle: same-seed ``"on"``/``"rows"`` runs produce
        the same winning assignment fingerprint).
    """

    max_iterations: int = 400
    restarts: int = 3
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0
    strict_margin: float = DEFAULT_STRICT_MARGIN
    time_limit: float | None = None
    batch: str = "on"

    def __post_init__(self) -> None:
        # Validation only, never normalisation: ``repr`` feeds the store keys.
        for name in ("max_iterations", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts!r}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {self.max_iterations!r}")
        if not _finite(self.tolerance) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be a positive finite number, got {self.tolerance!r}")
        if not _finite(self.strict_margin) or self.strict_margin < 0:
            raise ValueError(
                f"strict_margin must be a non-negative finite number, got {self.strict_margin!r}"
            )
        if self.time_limit is not None and (not _finite(self.time_limit) or self.time_limit <= 0):
            raise ValueError(
                f"time_limit must be a positive finite number of seconds or None, got {self.time_limit!r}"
            )
        if self.batch not in ("on", "rows"):
            raise ValueError(f"batch must be one of 'on', 'rows'; got {self.batch!r}")

    def within(self, seconds: float | None) -> "SolverOptions":
        """These options with ``time_limit`` tightened to ``seconds`` (``None``: no bound).

        Never loosens the limit, and returns ``self`` when ``seconds`` does
        not tighten it.  An exhausted budget becomes a 1 ms limit, because
        ``time_limit`` must be positive.
        """
        if seconds is None:
            return self
        limit = max(seconds, 1e-3)
        if self.time_limit is not None and self.time_limit <= limit:
            return self
        return replace(self, time_limit=limit)


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number (bools excluded)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class SolverResult:
    """Outcome of a Step-4 solve.

    ``residual_evaluations`` / ``jacobian_evaluations`` count kernel work in
    *member evaluations* (a width-``k`` batched call on ``k`` live members
    counts ``k``), so they stay comparable across batch modes;
    ``batch_width`` is the most live restart members any one batched kernel
    call carried (1 in ``"rows"`` mode or when the leader wave wins alone, 0
    when no batched kernel ran: a system the presolve decided, or a deadline
    that passed before the first descent).

    ``details`` carries solver diagnostics.  Its ``dimension`` and
    ``constraints`` count the presolved problem the solver descended on
    (free unknowns and kept rows), not the system; ``fixed_unknowns`` and
    ``dropped_rows`` count the unknowns the presolve fixed at 0 and the
    rows it dropped (:meth:`~repro.solvers.problem.CompiledProblem.size_details`).
    ``status`` is ``"infeasible"`` when the presolve proved the system
    has no solution, which it does before any descent.
    """

    assignment: Mapping[str, float] | None
    status: str
    objective_value: float | None = None
    max_violation: float | None = None
    iterations: int = 0
    restarts_used: int = 0
    details: dict[str, float] = field(default_factory=dict)
    strategy: str | None = None
    residual_evaluations: int = 0
    jacobian_evaluations: int = 0
    batch_width: int = 0

    @property
    def feasible(self) -> bool:
        """Whether the solver returned an assignment it considers feasible."""
        return self.assignment is not None

    # -- JSON round-trip (the persistent solve store speaks this) -----------------

    def to_dict(self) -> dict:
        return {
            "assignment": dict(self.assignment) if self.assignment is not None else None,
            "status": self.status,
            "objective_value": self.objective_value,
            "max_violation": self.max_violation,
            "iterations": self.iterations,
            "restarts_used": self.restarts_used,
            "details": {str(name): float(value) for name, value in self.details.items()},
            "strategy": self.strategy,
            "residual_evaluations": self.residual_evaluations,
            "jacobian_evaluations": self.jacobian_evaluations,
            "batch_width": self.batch_width,
        }

    @staticmethod
    def from_dict(payload: Mapping) -> "SolverResult":
        if not isinstance(payload, Mapping):
            raise ValueError("solver result document must be a JSON object")
        assignment = payload.get("assignment")
        objective_value = payload.get("objective_value")
        max_violation = payload.get("max_violation")
        strategy = payload.get("strategy")
        return SolverResult(
            assignment={str(k): float(v) for k, v in assignment.items()}
            if assignment is not None
            else None,
            status=str(payload.get("status", "")),
            objective_value=float(objective_value) if objective_value is not None else None,
            max_violation=float(max_violation) if max_violation is not None else None,
            iterations=int(payload.get("iterations", 0)),
            restarts_used=int(payload.get("restarts_used", 0)),
            details={str(k): float(v) for k, v in (payload.get("details") or {}).items()},
            strategy=str(strategy) if strategy is not None else None,
            residual_evaluations=int(payload.get("residual_evaluations", 0)),
            jacobian_evaluations=int(payload.get("jacobian_evaluations", 0)),
            batch_width=int(payload.get("batch_width", 0)),
        )

    def __str__(self) -> str:
        pieces = [f"status={self.status}"]
        if self.objective_value is not None:
            pieces.append(f"objective={self.objective_value:.6g}")
        if self.max_violation is not None:
            pieces.append(f"max_violation={self.max_violation:.3g}")
        pieces.append(f"iterations={self.iterations}")
        return "SolverResult(" + ", ".join(pieces) + ")"


class Solver(ABC):
    """Interface of every Step-4 solver.

    Solvers operate on the compiled problem IR
    (:class:`~repro.solvers.problem.CompiledProblem`); :meth:`solve` is a
    convenience wrapper that compiles (memoised) and delegates to
    :meth:`solve_compiled`, the one entry point: it answers a problem the
    presolve decided and hands every other one to the solver's
    :meth:`_search`.  The portfolio compiles once, builds one
    :class:`~repro.solvers.problem.SolveControl` and calls each strategy's
    :meth:`solve_compiled` with it in turn.
    """

    def __init__(self, options: SolverOptions | None = None):
        self.options = options if options is not None else SolverOptions()
        #: Portfolio strategy key this instance runs under (set by the portfolio).
        self.strategy_label: str | None = None

    def label(self) -> str:
        """The name this solver reports results under (strategy key or class name)."""
        return self.strategy_label if self.strategy_label is not None else self.name()

    def solve(self, system: QuadraticSystem) -> SolverResult:
        """Find an assignment of the unknowns satisfying ``system`` (best effort)."""
        from repro.solvers.problem import compile_problem

        return self.solve_compiled(compile_problem(system, self.options.strict_margin))

    def solve_compiled(
        self, problem: "CompiledProblem", control: "SolveControl | None" = None
    ) -> SolverResult:
        """Solve an already-compiled problem under an optional shared control.

        A problem the presolve proved infeasible, or left without a free
        unknown, is answered without a search.  Without a ``control`` the
        search gets one built from ``options.time_limit`` and
        ``options.tolerance``.
        """
        from repro.solvers.problem import Deadline, SolveControl, presolve_verdict

        verdict = presolve_verdict(problem)
        if verdict is not None:
            return verdict
        if control is None:
            control = SolveControl(
                deadline=Deadline.after(self.options.time_limit), tolerance=self.options.tolerance
            )
        return self._search(problem, control)

    @abstractmethod
    def _search(self, problem: "CompiledProblem", control: "SolveControl") -> SolverResult:
        """Search a problem with free unknowns under ``control``'s deadline."""

    def name(self) -> str:
        """Short solver name used in reports."""
        return type(self).__name__
