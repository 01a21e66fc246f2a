"""Block-coordinate (alternating) solver exploiting the bilinear structure.

The Step-3 systems are *bilinear*: every quadratic term is either a product of
a template coefficient (s-variable) with a multiplier coefficient
(t-variable), or a product of two Cholesky entries (l-variables).  Fixing one
block makes the merit function much better conditioned in the other, so this
solver alternates batched L-BFGS sweeps over

* the template block (s-variables), and
* the certificate block (t-, l- and eps-variables),

under an increasing penalty schedule.  It tends to track a target-invariant
objective more faithfully than the joint penalty solver, at the cost of more
iterations.  Like every Step-4 solver it consumes the shared
:class:`~repro.solvers.problem.CompiledProblem` IR and checks the
deadline of its :class:`~repro.solvers.problem.SolveControl`.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import Solver, SolverResult
from repro.solvers.batched import (
    BatchDescent,
    KernelCounters,
    batched_penalty_descent,
    run_multistart,
)
from repro.solvers.problem import CompiledProblem, SolveControl

#: The block sweeps' rho stages, lowest first.
_PENALTY_SCHEDULE = (10.0, 100.0, 1_000.0, 10_000.0)


class AlternatingSolver(Solver):
    """Alternate penalty minimisation over the template and certificate blocks."""

    def __init__(self, options=None, sweeps: int = 6):
        super().__init__(options)
        self.sweeps = sweeps

    def _cold_scale(self, attempt: int) -> float:
        """Restart ``attempt``'s cold-start jitter scale.

        The deterministic role-floor start (scale ``0.0``) is what lets the
        block sweeps crack most bilinear systems, so restart 0 keeps it as
        the deliberate single origin row under every seed; the remaining
        rows jitter with strictly growing scales, so no two batch rows ever
        coincide.
        """
        return 0.05 * attempt

    def _descend(
        self,
        problem: CompiledProblem,
        control: SolveControl,
        points: np.ndarray,
        counters: KernelCounters,
    ) -> BatchDescent:
        """Batched block-coordinate sweeps with per-member penalty stages.

        Every member alternates certificate-block and template-block descents
        under its own rho stage; a member leaves the schedule as soon as a
        finished stage leaves it feasible, and retired members' rows freeze
        while the rest sweep on.
        """
        options = self.options
        tolerance = options.tolerance
        template_columns = problem.template_mask.astype(float)
        certificate_columns = 1.0 - template_columns
        schedule = np.asarray(_PENALTY_SCHEDULE, dtype=float)

        x = points.copy()
        members = x.shape[0]
        stage = np.zeros(members, dtype=int)
        finished = np.zeros(members, dtype=bool)
        iterations = 0
        while not finished.all():
            if control.should_stop():
                return BatchDescent(x, iterations, True)
            active = ~finished
            for _ in range(self.sweeps):
                for columns in (certificate_columns, template_columns):
                    if not columns.any():
                        continue
                    outcome = batched_penalty_descent(
                        problem,
                        x,
                        schedule[stage],
                        control=control,
                        counters=counters,
                        max_iterations=options.max_iterations,
                        active=active,
                        columns=columns,
                    )
                    x = outcome.points
                    iterations += outcome.iterations
                    if outcome.interrupted:
                        return BatchDescent(x, iterations, True)
            violation = problem.max_violation_batch(x)
            finished |= violation <= tolerance
            finished |= stage >= schedule.size - 1
            stage = np.minimum(stage + 1, schedule.size - 1)
        return BatchDescent(x, iterations, False)

    # -- main loop -------------------------------------------------------------------------

    def _search(self, problem: CompiledProblem, control: SolveControl) -> SolverResult:
        return run_multistart(
            problem,
            control,
            self.options,
            self.label(),
            cold_scale=self._cold_scale,
            warm_scale=None,
            descend=lambda points, counters: self._descend(problem, control, points, counters),
            trigger=None,
        )
