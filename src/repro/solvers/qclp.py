"""Penalty and Gauss-Newton solvers over the compiled problem IR.

The paper hands its quadratically-constrained linear programs to the LOQO
interior-point solver.  This reproduction has no commercial solver, so
:class:`PenaltyQCLPSolver` minimises the merit function::

    objective(x) + rho * sum_i residual_i(x)^2

over an increasing penalty schedule ``rho``, with analytic gradients from the
shared :class:`~repro.solvers.problem.CompiledProblem` IR and several random
restarts; a feasible restart whose objective reaches ``_STOP_AT_OBJECTIVE``
ends the loop.  :class:`GaussNewtonSolver` is the portfolio's
pure-feasibility strategy: it skips the penalty schedule entirely and drives
the residuals to zero with batched Levenberg–Marquardt.  Both run on the
batched engines of :mod:`repro.solvers.batched`, which check the
:class:`~repro.solvers.problem.SolveControl` deadline once per batched
iteration, and both can seed restarts from the portfolio's best-known point.
Both are configured by :class:`~repro.solvers.base.SolverOptions` alone.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import Solver, SolverResult
from repro.solvers.batched import (
    BatchDescent,
    KernelCounters,
    batched_least_squares,
    batched_penalty_descent,
    run_multistart,
)
from repro.solvers.problem import CompiledProblem, SolveControl

#: The penalty solver's rho stages, lowest first.
_PENALTY_SCHEDULE = (1.0, 10.0, 100.0, 1_000.0, 10_000.0)
#: A feasible restart whose objective is at or below this value ends the
#: restart loop (weak-synthesis objectives are squared distances, so 0
#: means "target matched exactly").
_STOP_AT_OBJECTIVE = 1e-6


class PenaltyQCLPSolver(Solver):
    """Quadratic-penalty solver with random restarts (the default Step-4 back-end)."""

    def _cold_scale(self, attempt: int) -> float:
        # The very first restart of the default seed starts from the origin (good
        # for the highly structured Step-3 systems); every other restart perturbs
        # randomly so multi-seed enumeration explores different components.
        return 0.0 if (attempt == 0 and self.options.seed == 0) else 0.1 * max(attempt, 1)

    def _win_trigger(self):
        tolerance = self.options.tolerance
        return lambda violation, objective: (
            violation <= tolerance and objective <= _STOP_AT_OBJECTIVE
        )

    def _descend(
        self,
        problem: CompiledProblem,
        control: SolveControl,
        points: np.ndarray,
        counters: KernelCounters,
    ) -> BatchDescent:
        """The batched member pipeline: feasibility sprint → schedule → polish.

        Phase A drives every member's residuals toward zero with batched
        Levenberg–Marquardt (feasibility is cheap on the structured Step-3
        systems — the penalty schedule is not the tool for it).  Phase B
        minimises the penalty merit under the rho schedule with per-member
        stages: a member leaves the schedule as soon as a finished rho phase
        leaves it feasible.  Phase C re-runs the sprint on members the
        schedule left infeasible (the polish).
        """
        options = self.options
        tolerance = options.tolerance
        target = max(tolerance * 1e-3, 1e-12)
        sprint_budget = max(options.max_iterations, 50)
        trigger = self._win_trigger()

        outcome = batched_least_squares(
            problem,
            points,
            control=control,
            counters=counters,
            max_iterations=sprint_budget,
            target=target,
        )
        x = outcome.points
        iterations = outcome.iterations
        if outcome.interrupted:
            return BatchDescent(x, iterations, True)

        members = x.shape[0]
        schedule = np.asarray(_PENALTY_SCHEDULE, dtype=float)
        finished = np.zeros(members, dtype=bool)
        #: Members the sequential loop would never have started: once a lower
        #: member completes its pipeline satisfying the win trigger, the fold
        #: of :func:`~repro.solvers.batched.winning_member` stops before the
        #: higher members, so their rows stop iterating (and skip the polish).
        cancelled = np.zeros(members, dtype=bool)

        def cancel_overtaken_members(violation: np.ndarray) -> None:
            complete = np.flatnonzero(finished & (violation <= tolerance) & ~cancelled)
            if complete.size == 0:
                return
            objectives = problem.objective_value_batch(x)
            for index in complete:
                if trigger(violation[index], objectives[index]):
                    cancelled[index + 1 :] = True
                    return

        # Members the sprint already made feasible skip straight to the top
        # rho: a low penalty weight would trade their feasibility away for
        # objective, leaving the closing polish to re-earn it from far
        # outside the feasible manifold (the expensive case).
        violation = problem.max_violation_batch(x)
        stage = np.where(violation <= tolerance, schedule.size - 1, 0)
        while not (finished | cancelled).all():
            if control.should_stop():
                return BatchDescent(x, iterations, True)
            outcome = batched_penalty_descent(
                problem,
                x,
                schedule[stage],
                control=control,
                counters=counters,
                max_iterations=options.max_iterations,
                active=~finished & ~cancelled,
            )
            x = outcome.points
            iterations += outcome.iterations
            if outcome.interrupted:
                return BatchDescent(x, iterations, True)
            violation = problem.max_violation_batch(x)
            finished |= violation <= tolerance
            finished |= stage >= schedule.size - 1
            stage = np.minimum(stage + 1, schedule.size - 1)
            cancel_overtaken_members(violation)

        need_polish = (problem.max_violation_batch(x) > tolerance) & ~cancelled
        if need_polish.any():
            outcome = batched_least_squares(
                problem,
                x,
                control=control,
                counters=counters,
                max_iterations=sprint_budget,
                target=target,
                active=need_polish,
            )
            x = outcome.points
            iterations += outcome.iterations
            if outcome.interrupted:
                return BatchDescent(x, iterations, True)
        return BatchDescent(x, iterations, False)

    # -- main loop ---------------------------------------------------------------------

    def _search(self, problem: CompiledProblem, control: SolveControl) -> SolverResult:
        return run_multistart(
            problem,
            control,
            self.options,
            self.label(),
            cold_scale=self._cold_scale,
            warm_scale=lambda attempt: 0.05 * (attempt + 1),
            descend=lambda points, counters: self._descend(problem, control, points, counters),
            trigger=self._win_trigger(),
        )


class GaussNewtonSolver(Solver):
    """Pure-feasibility strategy: Levenberg–Marquardt least squares on the residuals.

    This is the cheapest certificate in the portfolio: no penalty schedule, no
    objective tracking — just drive all residuals to zero from a few starting
    points.  On the highly structured Step-3 systems it often finds a feasible
    point long before the penalty solver finishes its first schedule, which is
    why the portfolio walks it first.
    """

    def _cold_scale(self, attempt: int) -> float:
        # Restart 0 deliberately starts at the deterministic role-floor
        # origin under every seed: the structured Step-3 systems often solve
        # right there, and the exact-certificate repair's re-solve
        # (decorrelated seed) counts on the structured solutions it yields.
        # Later restarts jitter with strictly growing scales, so no two
        # batch rows coincide.
        return 0.2 * attempt

    def _descend(
        self,
        problem: CompiledProblem,
        control: SolveControl,
        points: np.ndarray,
        counters: KernelCounters,
    ) -> BatchDescent:
        tolerance = self.options.tolerance
        return batched_least_squares(
            problem,
            points,
            control=control,
            counters=counters,
            max_iterations=max(self.options.max_iterations, 50),
            target=max(tolerance * 1e-3, 1e-12),
            win_tolerance=tolerance,
        )

    def _search(self, problem: CompiledProblem, control: SolveControl) -> SolverResult:
        options = self.options
        return run_multistart(
            problem,
            control,
            options,
            self.label(),
            cold_scale=self._cold_scale,
            warm_scale=lambda attempt: 0.1 * (attempt + 1),
            descend=lambda points, counters: self._descend(problem, control, points, counters),
            trigger=lambda violation, objective: violation <= options.tolerance,
        )
