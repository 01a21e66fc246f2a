"""Representative-solution enumeration for Strong Invariant Synthesis.

The paper's Step 4 for strong synthesis calls the Grigor'ev–Vorobjov
procedure, which returns one point per connected component of the solution
set; the authors themselves note (Remark 8) that the procedure is impractical
and never implement it.  This module provides the practical substitute used
by this reproduction: run the penalty solver
(:class:`~repro.solvers.qclp.PenaltyQCLPSolver`, one restart per attempt)
from many seeds and keep one representative per *cluster* of solutions,
where two solutions are considered equivalent when their
template-coefficient vectors are close after normalisation.  On the small
systems where enumeration is meaningful this recovers distinct connected
components; on large systems it degrades gracefully into "whatever distinct
solutions the budget found".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from repro.invariants.quadratic_system import QuadraticSystem, VariableRole, classify_unknown
from repro.solvers.base import SolverOptions, SolverResult
from repro.solvers.problem import Deadline, compile_problem
from repro.solvers.qclp import PenaltyQCLPSolver


@dataclass
class EnumerationResult:
    """A set of representative solutions of a quadratic system."""

    representatives: list[Mapping[str, float]] = field(default_factory=list)
    attempts: int = 0
    feasible_attempts: int = 0

    @property
    def count(self) -> int:
        return len(self.representatives)


def _template_vector(assignment: Mapping[str, float], names: Sequence[str]) -> np.ndarray:
    vector = np.array([float(assignment.get(name, 0.0)) for name in names])
    norm = np.linalg.norm(vector)
    return vector / norm if norm > 1e-12 else vector


class RepresentativeEnumerator:
    """Multi-start enumeration with clustering of template-coefficient vectors.

    Every attempt is one single-restart :class:`PenaltyQCLPSolver` solve
    with its own seed.
    """

    def __init__(
        self,
        attempts: int = 12,
        distance_threshold: float = 0.15,
        options: SolverOptions | None = None,
    ):
        self.options = options if options is not None else SolverOptions(restarts=1)
        self.attempts = attempts
        self.distance_threshold = distance_threshold

    def enumerate(
        self, system: QuadraticSystem, deadline: Deadline | None = None
    ) -> EnumerationResult:
        """Collect representative feasible assignments of ``system``.

        The system is compiled into the shared
        :class:`~repro.solvers.problem.CompiledProblem` IR exactly once; the
        per-attempt solvers all consume that one compilation.  Each attempt
        runs on what remains of ``deadline``, and the enumeration stops when
        nothing does.
        """
        deadline = deadline if deadline is not None else Deadline.never()
        template_names = [
            name for name in system.variables() if classify_unknown(name) is VariableRole.TEMPLATE
        ]
        problem = compile_problem(system, strict_margin=self.options.strict_margin)
        result = EnumerationResult()
        kept_vectors: list[np.ndarray] = []
        for attempt in range(self.attempts):
            if deadline.expired():
                break
            per_attempt = replace(
                self.options.within(deadline.remaining()),
                restarts=1,
                seed=self.options.seed + attempt,
            )
            solve_result: SolverResult = PenaltyQCLPSolver(per_attempt).solve_compiled(problem)
            result.attempts += 1
            if not solve_result.feasible or solve_result.assignment is None:
                continue
            result.feasible_attempts += 1
            vector = _template_vector(solve_result.assignment, template_names)
            if all(np.linalg.norm(vector - kept) > self.distance_threshold for kept in kept_vectors):
                kept_vectors.append(vector)
                result.representatives.append(dict(solve_result.assignment))
        return result
