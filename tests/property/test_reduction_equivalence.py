"""Staged, cached and escalated reductions equal a cold ``build_task``.

The staged reduction compiler (:mod:`repro.reduction`) shares stages between
requests through a :class:`~repro.reduction.cache.StageCache`: a task
assembled from cached stages, or built as one rung of a degree ladder, must
have the same row arrays as a cold :func:`build_task` with the same options,
and an engine's cached solve must return what a direct solve of that system
returns.  Systems are compared by the sha256 of their row arrays (the
``rows_digest`` fixture); ``tests/integration/test_golden_reduction.py``
freezes those digests over the same option space.  Hypothesis drives the
options; the programs are kept tiny so each reduction stays in the
milliseconds.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.engine import Engine
from repro.api.request import SynthesisRequest
from repro.invariants.synthesis import SynthesisOptions, build_task, result_from_solution
from repro.pipeline.cache import TaskCache
from repro.pipeline.jobs import SynthesisJob
from repro.solvers.base import SolverOptions
from repro.solvers.qclp import PenaltyQCLPSolver

LOOP_SOURCE = """
count(n) {
    i := 0;
    while i <= n do
        i := i + 1
    od;
    return i
}
"""

BRANCH_SOURCE = """
gain(x) {
    y := 0;
    while x >= 1 do
        if * then y := y + x else y := y + 1 fi;
        x := x - 1
    od;
    return y
}
"""

PROGRAMS = {
    "loop": (LOOP_SOURCE, {"count": {1: "n >= 0"}}),
    "branch": (BRANCH_SOURCE, {"gain": {1: "x >= 0"}}),
}

options_strategy = st.builds(
    SynthesisOptions,
    degree=st.integers(min_value=1, max_value=2),
    conjuncts=st.integers(min_value=1, max_value=2),
    upsilon=st.integers(min_value=1, max_value=2),
    translation=st.sampled_from(["putinar", "handelman"]),
    add_entry_assumptions=st.booleans(),
    with_witness=st.booleans(),
    encode_sos=st.booleans(),
)


#: The statistics vocabulary of the seed's ``build_task``.
STATISTICS = ("time_frontend", "time_preconditions", "time_templates",
              "time_constraint_pairs", "time_translation", "constraint_pairs", "system_size")


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.sampled_from(sorted(PROGRAMS)), options=options_strategy)
def test_stage_cached_reduction_matches_cold(rows_digest, program, options):
    """A reduction assembled from cached stages equals a cold one."""
    source, precondition = PROGRAMS[program]
    cache = TaskCache()
    # Warm the prefix stages with a *different* suffix configuration first.
    warm_options = SynthesisOptions(
        degree=3 - options.degree if options.degree in (1, 2) else 1,
        conjuncts=options.conjuncts,
        upsilon=options.upsilon,
        translation=options.translation,
        add_entry_assumptions=options.add_entry_assumptions,
        with_witness=options.with_witness,
        encode_sos=options.encode_sos,
    )
    cache.get_or_build(SynthesisJob(name="warm", source=source, precondition=precondition, options=warm_options))
    task, from_cache = cache.get_or_build(
        SynthesisJob(name="cold", source=source, precondition=precondition, options=options)
    )
    assert not from_cache  # different degree: a whole-task miss, stages partially reused
    cold = build_task(source, precondition, None, options)
    assert [pair.name for pair in task.pairs] == [pair.name for pair in cold.pairs]
    assert task.templates.coefficient_names() == cold.templates.coefficient_names()
    assert rows_digest(task.system.rows) == rows_digest(cold.system.rows)
    for key in STATISTICS:
        assert key in task.statistics, key


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(program=st.sampled_from(sorted(PROGRAMS)), upsilon=st.integers(min_value=1, max_value=2))
def test_fixed_degree_result_fingerprint_matches_seed_path(program, upsilon):
    """The engine (staged, cached) equals a direct solve of ``build_task``'s system.

    The direct path is the seed's: build the task, solve its system, and
    assemble the result with :func:`result_from_solution`.  The solver is
    deterministic (fixed seed, no time limit), so identical quadratic systems
    must yield identical assignments, hence identical response/result
    fingerprints.
    """
    source, precondition = PROGRAMS[program]
    options = SynthesisOptions(degree=1, upsilon=upsilon)
    solver_options = SolverOptions(restarts=1, max_iterations=120, time_limit=None, seed=0)

    task = build_task(source, precondition, None, options)
    seed_result = result_from_solution(task, PenaltyQCLPSolver(solver_options).solve(task.system))

    request = SynthesisRequest(
        program=source,
        mode="weak",
        precondition=precondition,
        options=options,
        solver_options=solver_options,
    )
    with Engine() as engine:
        engine.synthesize(request)          # cold: populates the stage cache
        response = engine.synthesize(request)  # warm: assembled from cached stages
    assert response.ok
    assert response.result is not None
    assert response.result.solver_status == seed_result.solver_status
    if seed_result.assignment is None:
        assert response.result.assignment is None
    else:
        assert response.result.assignment == dict(seed_result.assignment)
    assert [inv.pretty() for inv in response.result.invariants] == [
        inv.pretty() for inv in seed_result.invariants
    ]


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(options=options_strategy)
def test_escalated_rung_system_equals_fixed_degree_system(rows_digest, options):
    """Each rung of the degree ladder reduces exactly like the fixed-degree request.

    The rungs share one task cache (and its stage cache), as an engine's do.
    """
    source, precondition = PROGRAMS["loop"]
    cache = TaskCache()
    for degree in SynthesisOptions(degree="auto", max_degree=2).escalation_degrees():
        rung = replace(options, degree=degree)
        staged, _ = cache.get_or_build(
            SynthesisJob(name=f"rung{degree}", source=source, precondition=precondition, options=rung)
        )
        fixed = build_task(source, precondition, None, rung)
        assert rows_digest(staged.system.rows) == rows_digest(fixed.system.rows)
