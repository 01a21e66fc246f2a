"""Tests of the service engine (repro.api.engine)."""

import time

import numpy as np
import pytest

from repro.api import (
    Engine,
    EngineClosedError,
    RequestValidationError,
    SynthesisRequest,
    SynthesisResponse,
)
from repro.api import engine as engine_module
from repro.invariants.synthesis import build_task
from repro.pipeline.cache import TaskCache
from repro.reduction import StageCache
from repro.reduction import plan as plan_module
from repro.solvers import strong as strong_module
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.problem import CompiledProblem, Deadline
from repro.solvers.qclp import PenaltyQCLPSolver
from repro.suite.registry import get_benchmark

QUICK_SOLVE = SolverOptions(restarts=1, max_iterations=60)


def request_for(name: str, **overrides) -> SynthesisRequest:
    benchmark = get_benchmark(name)
    fields = dict(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(upsilon=1),
        request_id=name,
    )
    fields.update(overrides)
    return SynthesisRequest(**fields)


@pytest.fixture(scope="module")
def engine():
    with Engine(solver_options=QUICK_SOLVE) as shared:
        yield shared


# -- synthesize --------------------------------------------------------------------


def test_synthesize_returns_ok_response(engine):
    response = engine.synthesize(request_for("sum"))
    assert response.ok and response.status == "ok"
    assert response.result is not None and response.result.success
    assert response.invariants and response.assignment
    assert response.system_size == response.result.system_size
    assert response.timings["total_seconds"] > 0
    # Invariants are rendered both pretty and machine-readable.
    entry = response.invariants[0]["assertions"][0]
    assert {"function", "index", "kind", "text", "atoms"} <= set(entry)


def test_synthesize_matches_direct_solver_run(engine):
    benchmark = get_benchmark("freire1")
    response = engine.synthesize(request_for("freire1"))
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), benchmark.options(upsilon=1))
    direct = PenaltyQCLPSolver(QUICK_SOLVE).solve(task.system)
    assert response.assignment == dict(direct.assignment)


def test_identical_requests_share_reduction_and_solve(engine):
    first = engine.synthesize(request_for("cohendiv"))
    second = engine.synthesize(request_for("cohendiv"))
    assert second.from_cache and second.shared_solve
    assert not first.shared_solve
    assert first == second  # fingerprint equality ignores cache flags


def test_requests_differing_only_in_strategy_share_reduction_not_solve():
    benchmark = get_benchmark("sum")
    qclp = request_for("sum", options=benchmark.options(upsilon=1, strategy="qclp"))
    gauss = request_for("sum", options=benchmark.options(upsilon=1, strategy="gauss-newton"))
    with Engine(solver_options=QUICK_SOLVE) as engine:
        first = engine.synthesize(qclp)
        second = engine.synthesize(gauss)
        assert engine.stats()["misses"] == 1.0  # one shared reduction
    assert not first.from_cache and second.from_cache
    assert not second.shared_solve


def test_portfolio_strategy_resolves_the_race():
    benchmark = get_benchmark("freire1")
    request = request_for(
        "freire1",
        options=benchmark.options(upsilon=1, strategy="portfolio"),
        solver_options=SolverOptions(restarts=1, max_iterations=80),
    )
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.ok
    assert response.strategy is not None
    assert any(key.startswith("portfolio_") for key in response.result.statistics)


def test_strong_mode_returns_representatives(engine):
    from repro.solvers.strong import RepresentativeEnumerator

    benchmark = get_benchmark("freire1")
    request = SynthesisRequest(
        program=benchmark.source,
        mode="strong",
        precondition=benchmark.precondition,
        options=benchmark.options(upsilon=1, with_witness=False),
    )
    enumerator = RepresentativeEnumerator(attempts=3, options=QUICK_SOLVE)
    response = engine.synthesize(request, enumerator=enumerator)
    assert response.ok
    assert "representatives" in response.solver_status


def test_reduce_only_requests_report_structure(engine):
    response = engine.synthesize(request_for("sum", reduce_only=True))
    assert response.status == "reduced"
    assert response.result is None and response.task is not None
    assert response.system_size == response.task.system.size


def test_error_requests_never_raise(engine):
    response = engine.synthesize(request_for("sum", program="this is not a program"))
    assert not response.ok and response.status == "error"
    assert response.error is not None and response.error.type == "ParseError"
    assert "Traceback" in response.error.traceback


# -- submit / map ------------------------------------------------------------------


def test_submit_returns_completed_handle_on_sequential_engine(engine):
    handle = engine.submit(request_for("sum"))
    assert handle.done()
    assert handle.result().status == "ok"
    assert handle.submission_id >= 0


def test_map_streams_with_submission_ids_and_isolates_failures(engine):
    requests = [
        request_for("sum"),
        request_for("sum", program="not a program at all", request_id="broken"),
        request_for("freire1"),
    ]
    responses = list(engine.map(requests))
    assert len(responses) == 3
    by_id = {response.submission_id: response for response in responses}
    assert len(by_id) == 3  # every response has a distinct submission id
    statuses = [response.status for response in responses]
    assert statuses.count("error") == 1
    assert all(isinstance(response, SynthesisResponse) for response in responses)


def test_map_out_of_order_streaming_with_workers():
    # A slow first request must not block the fast second one from arriving first.
    slow = request_for("sum", request_id="slow")
    fast = request_for("sum", program="broken on purpose", request_id="fast")
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        responses = list(engine.map([slow, fast]))
        assert {response.request_id for response in responses} == {"slow", "fast"}
        # Out-of-order mode yields the parse failure (milliseconds) before the solve.
        assert responses[0].request_id == "fast"
        # Ordered mode restores submission order.
        ordered = list(engine.map([slow, fast], ordered=True))
        assert [response.request_id for response in ordered] == ["slow", "fast"]


def test_threaded_engine_matches_sequential():
    requests = [request_for("freire1"), request_for("cohendiv")]
    with Engine(solver_options=QUICK_SOLVE) as sequential:
        baseline = [sequential.synthesize(request) for request in requests]
    with Engine(workers=2, solver_options=QUICK_SOLVE) as threaded:
        pooled = sorted(threaded.map(requests), key=lambda response: response.submission_id)
    assert baseline == pooled


# -- deadlines and options ---------------------------------------------------------


def test_deadline_tightens_solver_time_limit():
    engine = Engine(solver_options=SolverOptions(time_limit=60.0))
    effective = engine._effective_solver_options(request_for("sum", deadline=5.0))
    assert effective.time_limit == 5.0
    # A looser deadline never relaxes an existing limit.
    effective = engine._effective_solver_options(request_for("sum", deadline=600.0))
    assert effective.time_limit == 60.0
    # With no engine default, the deadline alone becomes the limit.
    bare = Engine()
    effective = bare._effective_solver_options(request_for("sum", deadline=2.5))
    assert effective.time_limit == 2.5


def test_request_solver_options_override_engine_default(engine):
    request = request_for("sum", solver_options=SolverOptions(restarts=2, max_iterations=40))
    assert engine._effective_solver_options(request).restarts == 2


def test_deadline_bounds_an_explicit_solver_without_mutating_it():
    # "sum" normally needs several seconds at this budget; a tiny deadline
    # must cut the explicit solver short even though its own time_limit is None.
    solver = PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=4000, time_limit=None))
    with Engine() as engine:
        response = engine.synthesize(request_for("sum", deadline=0.25), solver=solver)
    assert response.timings["solve_seconds"] < 2.0
    # The caller's solver instance was not mutated.
    assert solver.options.time_limit is None


def test_identical_deadline_requests_share_one_solve():
    with Engine(solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("sum", deadline=100.0))
        second = engine.synthesize(request_for("sum", deadline=100.0))
        assert second.shared_solve
        assert engine.stats()["solves_cached"] == 1.0


def test_verification_tiers_share_a_stored_solve_under_a_deadline(tmp_path):
    options = get_benchmark("sum").options
    for verify, hits in (("exact", 0.0), ("none", 1.0)):
        request = request_for("sum", options=options(upsilon=1, verify=verify), deadline=100.0)
        with Engine(solver_options=QUICK_SOLVE, store=str(tmp_path)) as engine:
            assert engine.synthesize(request).status == "ok"
            assert engine.stats()["store_solve_hits"] == hits


def test_the_solve_gets_only_what_the_reduction_left(monkeypatch, solve_limits):
    translate = plan_module.run_translation

    def slow_translation(*args, **kwargs):
        time.sleep(1.0)
        return translate(*args, **kwargs)

    monkeypatch.setattr(plan_module, "run_translation", slow_translation)
    with Engine(solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("sum", deadline=3.0))
    assert len(solve_limits) == 1 and solve_limits[0] <= 2.1


class SleepingSolver(Solver):
    """A Step-4 stub that runs to its time limit and finds nothing."""

    def _search(self, problem, control):
        time.sleep(self.options.time_limit or 0.0)
        return SolverResult(assignment=None, status="infeasible-best-effort")


def test_strong_mode_attempts_share_the_request_deadline(monkeypatch):
    monkeypatch.setattr(strong_module, "PenaltyQCLPSolver", SleepingSolver)
    request = request_for("sum", mode="strong", objective=None, deadline=0.3)
    with Engine(solver_options=QUICK_SOLVE) as engine:
        start = time.perf_counter()
        response = engine.synthesize(request)
        seconds = time.perf_counter() - start
    assert response.status == "no_invariant"
    assert seconds < 0.6


def test_a_solve_the_deadline_cut_short_is_not_shared(monkeypatch, solve_limits):
    solve = engine_module._solve_system

    def cut_short(solver, system):
        if solver.options.time_limit < 1.0:
            time.sleep(solver.options.time_limit)  # runs to its limit
        return solve(solver, system)

    monkeypatch.setattr(engine_module, "_solve_system", cut_short)
    with Engine(solver_options=QUICK_SOLVE) as engine:
        # Admitted with 0.2 s of its 100 s left: its solve runs out of time.
        engine.synthesize(request_for("sum", deadline=100.0), deadline_epoch=time.time() + 0.2)
        second = engine.synthesize(request_for("sum", deadline=100.0))
        assert not second.shared_solve
        assert engine.stats()["solves_cached"] == 1.0
    assert len(solve_limits) == 2
    assert solve_limits[0] <= 0.2 and solve_limits[1] > 99.0


def test_a_response_the_deadline_starved_is_not_filed(tmp_path, monkeypatch):
    """Admitted after its deadline, a request still answers but leaves no response behind.

    Admission leaves the solve only the floor budget, and the deadline
    strikes the moment a descent first evaluates a feasible point, so the
    answer is feasible but cut short however fast the host runs.
    """
    request = request_for("sum", deadline=100.0)
    reached = {"feasible": False}
    residuals_batch = CompiledProblem.residuals_batch

    def watch(self, points):
        residuals = residuals_batch(self, points)
        if residuals.size and (np.abs(residuals).max(axis=1) <= 1e-5).any():
            reached["feasible"] = True
        return residuals

    with monkeypatch.context() as patch:
        patch.setattr(CompiledProblem, "residuals_batch", watch)
        patch.setattr(Deadline, "expired", lambda self: reached["feasible"])
        with Engine(solver_options=QUICK_SOLVE, store=str(tmp_path)) as engine:
            starved = engine.synthesize(request, deadline_epoch=time.time() - 1)
            assert starved.status == "ok" and starved.solver_status == "feasible-at-deadline"
            assert engine.stats()["store_response_writes"] == 0
    with Engine(solver_options=QUICK_SOLVE, store=str(tmp_path)) as engine:
        assert not engine.synthesize(request).served_from_store


def test_a_deadline_spent_before_the_first_rung_is_a_deadline_outcome():
    """No escalation rung fits the budget: no invariant, and the trace says why."""
    options = get_benchmark("sum").options(upsilon=1, degree="auto")
    request = request_for("sum", options=options, deadline=5.0)
    with Engine(solver_options=QUICK_SOLVE) as engine:
        response = engine.synthesize(request, deadline_epoch=time.time() + 0.005)
    assert response.status == "no_invariant" and response.error is None
    assert response.escalation["exhausted_deadline"] is True
    assert response.escalation["final_degree"] is None


def test_solve_dedup_table_is_bounded():
    with Engine(solver_options=QUICK_SOLVE, max_cached_solves=1) as engine:
        engine.synthesize(request_for("freire1"))
        engine.synthesize(request_for("cohendiv"))  # evicts the freire1 entry
        third = engine.synthesize(request_for("freire1"))
        assert not third.shared_solve  # re-solved after eviction
        assert engine.stats()["solves_cached"] == 1.0


def test_task_cache_is_boundable():
    with Engine(cache=TaskCache(max_entries=1), solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("freire1", reduce_only=True))
        engine.synthesize(request_for("cohendiv", reduce_only=True))
        assert len(engine.cache) == 1
        again = engine.synthesize(request_for("freire1", reduce_only=True))
        assert not again.from_cache  # rebuilt after eviction


def test_an_engines_own_task_cache_is_bounded():
    bound = engine_module.DEFAULT_CACHE_ENTRIES
    assert bound == 128
    with Engine() as engine:
        assert engine.cache.max_entries == bound
        assert engine.cache.stages.max_entries == bound


@pytest.mark.parametrize(
    "engine_with_bound",
    [
        lambda bound: Engine(solver_options=QUICK_SOLVE, max_cached_solves=bound),
        lambda bound: Engine(solver_options=QUICK_SOLVE, cache=TaskCache(max_entries=bound)),
        lambda bound: Engine(
            solver_options=QUICK_SOLVE, cache=TaskCache(stages=StageCache(max_entries=bound))
        ),
    ],
    ids=["solve-table", "task-cache", "stage-cache"],
)
def test_a_negative_cache_bound_is_refused_and_none_or_zero_still_serve(engine_with_bound):
    # A negative bound used to empty the table and then fail every request
    # with a bare StopIteration from the eviction loop.
    with pytest.raises(ValueError, match="must be non-negative or None, got -1"):
        engine_with_bound(-1)
    for bound in (None, 0):
        with engine_with_bound(bound) as engine:
            assert engine.synthesize(request_for("sum")).status == "ok"


# -- lifecycle ---------------------------------------------------------------------


def test_engine_rejects_negative_workers():
    with pytest.raises(ValueError, match="workers must be non-negative"):
        Engine(workers=-1)


def test_context_manager_closes_a_pooled_engine():
    with Engine(workers=2, solver_options=QUICK_SOLVE) as engine:
        assert engine.synthesize(request_for("sum")).ok
    assert engine.closed and engine._jobs is None


def test_closed_engine_rejects_submissions():
    engine = Engine()
    engine.close()
    with pytest.raises(EngineClosedError):
        engine.submit(request_for("sum"))


def test_submit_rejects_non_requests(engine):
    with pytest.raises(RequestValidationError):
        engine.submit({"program": "sum(n) { return n }"})


def test_stats_expose_cache_counters(engine):
    stats = engine.stats()
    assert stats["submissions"] > 0
    assert "entries" in stats and "solves_cached" in stats


def test_stats_accumulate_solver_kernel_counters():
    with Engine(solver_options=QUICK_SOLVE) as engine:
        engine.synthesize(request_for("sum"))
        stats = engine.stats()
    assert stats["solver_residual_evaluations"] > 0
    assert stats["solver_jacobian_evaluations"] > 0
    assert stats["solver_batch_width_max"] >= 1


# -- JSON round-trip of the whole loop ---------------------------------------------


@pytest.mark.parametrize("name", ["freire1", "cohendiv"])
def test_request_json_round_trip_resynthesizes_to_equal_response(name):
    """Acceptance: serialise → deserialise → re-synthesize gives an equal response."""
    request = request_for(name, solver_options=SolverOptions(restarts=1, max_iterations=60))
    with Engine() as first_engine:
        original = first_engine.synthesize(request)
    revived = SynthesisRequest.from_json(request.to_json())
    with Engine() as second_engine:
        again = second_engine.synthesize(revived)
    assert again == original
    # And the response envelope itself survives JSON.
    assert SynthesisResponse.from_json(original.to_json()) == original


def test_empty_assignment_survives_json_round_trip():
    response = SynthesisResponse(mode="weak", status="ok", assignment={})
    revived = SynthesisResponse.from_json(response.to_json())
    assert revived.assignment == {} and revived == response


def test_equal_responses_hash_equal():
    first = SynthesisResponse(mode="weak", status="ok", assignment={"x": 1.0})
    second = SynthesisResponse(mode="weak", status="ok", assignment={"x": 1.0})
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1


def test_response_json_carries_structured_error(engine):
    response = engine.synthesize(request_for("sum", program="nope nope"))
    revived = SynthesisResponse.from_json(response.to_json())
    assert revived.status == "error"
    assert revived.error.type == response.error.type
    assert revived == response
