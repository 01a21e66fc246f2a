"""The four top-level algorithms of the paper.

* :func:`weak_inv_synth` — ``WeakInvSynth`` (Section 3.4): reduce to a QCLP
  and return the invariant optimising the objective.
* :func:`strong_inv_synth` — ``StrongInvSynth`` (Section 3.3): return a
  representative set of invariants.
* :func:`rec_weak_inv_synth` / :func:`rec_strong_inv_synth` — the recursive
  variants (Section 4).  The pipeline detects recursion automatically, so
  these are thin aliases kept for fidelity with the paper's algorithm names.

Every function accepts either program source text or a parsed
:class:`~repro.lang.ast_nodes.Program`, and pre-conditions either as a
:class:`~repro.spec.preconditions.Precondition` or as the nested-dict textual
form accepted by :meth:`Precondition.from_spec`.

All four functions are thin wrappers that construct a typed
:class:`~repro.api.request.SynthesisRequest` and run it on the module-level
:class:`~repro.api.engine.Engine` (see :func:`repro.api.default_engine`), so
repeated calls share Step 1-3 reductions and deduplicated Step-4 solves with
every other caller of the service surface.  This module keeps the algorithm
cores (:func:`build_task`, :func:`result_from_solution`,
:func:`enumerate_task`) that the engine executes.
"""

from __future__ import annotations

import time
from typing import Mapping, Union

from repro.invariants.result import Invariant, SynthesisResult
from repro.lang.ast_nodes import Program
from repro.reduction.options import AUTO_DEGREE, SynthesisOptions
from repro.reduction.task import SynthesisTask
from repro.spec.objectives import Objective
from repro.spec.preconditions import Precondition
from repro.solvers.base import Solver, SolverResult
from repro.solvers.problem import Deadline
from repro.solvers.strong import RepresentativeEnumerator

ProgramLike = Union[str, Program]
PreconditionLike = Union[None, Precondition, Mapping[str, Mapping[int, str]]]

__all__ = [
    "AUTO_DEGREE",
    "SynthesisOptions",
    "SynthesisTask",
    "build_task",
    "enumerate_task",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "result_from_solution",
    "strong_inv_synth",
    "weak_inv_synth",
]


# ---------------------------------------------------------------------------
# Steps 1-3
# ---------------------------------------------------------------------------


def build_task(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    objective: Objective | None = None,
    options: SynthesisOptions | None = None,
) -> SynthesisTask:
    """Run Steps 1-3 and return the resulting task (templates, pairs, system).

    Since the staged-reduction refactor this compiles the request into a
    :class:`~repro.reduction.plan.ReductionPlan` and executes its stages
    uncached (callers wanting cross-request stage reuse go through
    :class:`~repro.pipeline.cache.TaskCache`, which runs the same plan
    against a shared :class:`~repro.reduction.cache.StageCache`).
    """
    from repro.reduction.plan import compile_plan

    plan = compile_plan(program, precondition, objective, options)
    task, _ = plan.execute(cache=None)
    return task


# ---------------------------------------------------------------------------
# Step 4 wrappers
# ---------------------------------------------------------------------------


def _clean_assignment(assignment: Mapping[str, float], threshold: float = 1e-7) -> dict[str, float]:
    """Zero out numerically-insignificant coefficients for readable invariants."""
    return {name: (0.0 if abs(value) < threshold else round(value, 9)) for name, value in assignment.items()}


def _instantiate_invariant(
    task: SynthesisTask, assignment: Mapping[str, float], clean: bool = True
) -> Invariant:
    values: Mapping = _clean_assignment(assignment) if clean else assignment
    assertions = {
        label: entry.instantiate_assertion(values) for label, entry in task.templates.entries.items()
    }
    postconditions = {
        name: entry.instantiate_assertion(values)
        for name, entry in task.templates.post_entries.items()
    }
    return Invariant(assertions=assertions, postconditions=postconditions)


def result_from_solution(
    task: SynthesisTask,
    solve_result: SolverResult,
    solve_seconds: float | None = None,
    exact_assignment: Mapping | None = None,
) -> SynthesisResult:
    """Assemble a :class:`SynthesisResult` from a task and a Step-4 solver outcome.

    This is the single place where a numeric solver assignment becomes a
    concrete invariant; :func:`weak_inv_synth` and the
    :class:`~repro.api.engine.Engine` both go through it, which is what
    guarantees batched and sequential runs produce identical results.

    ``exact_assignment`` carries the certified rational template coefficients
    of a ``verify="exact"`` run: the invariant is then instantiated from
    those exact values (no float cleaning), so the reported assertions are
    *precisely* the ones the attached certificate proves.

    ``task.statistics`` is copied, never mutated: the per-solve timing lands
    in the *result's* statistics (as ``time_solver``) so that one task can be
    reused across several solvers without the runs polluting each other.
    """
    invariant = None
    invariants: list[Invariant] = []
    assignment = None
    if solve_result.feasible and solve_result.assignment is not None:
        assignment = dict(solve_result.assignment)
        if exact_assignment is not None:
            invariant = _instantiate_invariant(task, exact_assignment, clean=False)
            assignment.update({name: float(value) for name, value in exact_assignment.items()})
        else:
            invariant = _instantiate_invariant(task, assignment)
        invariants = [invariant]

    statistics = dict(task.statistics)
    if solve_seconds is not None:
        statistics["time_solver"] = solve_seconds
    statistics.update(
        {key: value for key, value in solve_result.details.items() if key.startswith("portfolio_")}
    )
    return SynthesisResult(
        invariant=invariant,
        invariants=invariants,
        assignment=assignment,
        system=task.system,
        templates=task.templates,
        cfg=task.cfg,
        statistics=statistics,
        solver_status=solve_result.status,
        strategy=solve_result.strategy,
    )


def enumerate_task(
    task: SynthesisTask, enumerator: RepresentativeEnumerator, deadline: Deadline | None = None
) -> SynthesisResult:
    """Run the representative-set enumeration of ``StrongInvSynth`` on a built task.

    The enumeration runs on what remains of ``deadline`` (``None``: no
    limit).  Like :func:`result_from_solution`, this copies
    ``task.statistics`` rather than mutating it, so a task can be shared
    between runs.
    """
    start = time.perf_counter()
    enumeration = enumerator.enumerate(task.system, deadline)
    statistics = dict(task.statistics)
    statistics["time_solver"] = time.perf_counter() - start
    statistics["enumeration_attempts"] = float(enumeration.attempts)
    statistics["enumeration_feasible"] = float(enumeration.feasible_attempts)

    invariants = [
        _instantiate_invariant(task, assignment) for assignment in enumeration.representatives
    ]
    best_assignment = enumeration.representatives[0] if enumeration.representatives else None

    return SynthesisResult(
        invariant=invariants[0] if invariants else None,
        invariants=invariants,
        assignment=best_assignment,
        system=task.system,
        templates=task.templates,
        cfg=task.cfg,
        statistics=statistics,
        solver_status=f"representatives={len(invariants)}",
    )


# ---------------------------------------------------------------------------
# The paper's four entry points (thin wrappers over the default Engine)
# ---------------------------------------------------------------------------


def _run_request(
    mode: str,
    program: ProgramLike,
    precondition: PreconditionLike,
    objective: Objective | None,
    options: SynthesisOptions | None,
    solver: Solver | None,
    enumerator: RepresentativeEnumerator | None,
    task: SynthesisTask | None,
) -> SynthesisResult:
    """Build a typed request, run it on the default engine, unwrap the result."""
    from repro.api.engine import default_engine
    from repro.api.request import SynthesisRequest

    if task is not None:
        # A pre-built reduction fixes the effective options (and the inputs
        # the request would otherwise re-reduce from).
        options = task.options
    request = SynthesisRequest(
        program=program,
        mode=mode,
        precondition=precondition,
        objective=objective,
        options=options if options is not None else SynthesisOptions(),
    )
    response = default_engine().synthesize(request, solver=solver, task=task, enumerator=enumerator)
    if response.exception is not None:
        raise response.exception
    assert response.result is not None
    return response.result


def weak_inv_synth(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    objective: Objective | None = None,
    options: SynthesisOptions | None = None,
    solver: Solver | None = None,
    task: SynthesisTask | None = None,
) -> SynthesisResult:
    """The paper's ``WeakInvSynth``: reduce to QCLP and solve.

    Pass ``task`` to reuse a previously built Step-1-3 reduction (e.g. to try
    several solvers on the same system without re-translating).  When no
    explicit ``solver`` is given the Step-4 back-end follows the options'
    ``strategy``/``portfolio`` knobs (default: the penalty QCLP solver).
    """
    return _run_request("weak", program, precondition, objective, options, solver, None, task)


def strong_inv_synth(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    options: SynthesisOptions | None = None,
    enumerator: RepresentativeEnumerator | None = None,
    task: SynthesisTask | None = None,
) -> SynthesisResult:
    """The paper's ``StrongInvSynth``: a representative set of invariants.

    The Grigor'ev–Vorobjov procedure is replaced by multi-start enumeration
    with clustering (see DESIGN.md for the substitution rationale).
    """
    return _run_request("strong", program, precondition, None, options, None, enumerator, task)


def rec_weak_inv_synth(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    objective: Objective | None = None,
    options: SynthesisOptions | None = None,
    solver: Solver | None = None,
    task: SynthesisTask | None = None,
) -> SynthesisResult:
    """``RecWeakInvSynth`` (Section 4) — identical pipeline, recursion handled automatically.

    Like :func:`weak_inv_synth`, accepts ``task`` to reuse a pre-built
    Step 1-3 reduction.
    """
    return _run_request("rec-weak", program, precondition, objective, options, solver, None, task)


def rec_strong_inv_synth(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    options: SynthesisOptions | None = None,
    enumerator: RepresentativeEnumerator | None = None,
    task: SynthesisTask | None = None,
) -> SynthesisResult:
    """``RecStrongInvSynth`` (Section 4) — identical pipeline, recursion handled automatically.

    Like :func:`strong_inv_synth`, accepts ``task`` to reuse a pre-built
    Step 1-3 reduction.
    """
    return _run_request("rec-strong", program, precondition, None, options, None, enumerator, task)
