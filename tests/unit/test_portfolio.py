"""Tests of the Step-4 solver portfolio (repro.solvers.portfolio)."""

import pickle
import threading

import numpy as np
import pytest

from repro.errors import SynthesisError
from repro.invariants.quadratic_system import QuadraticSystem
from repro.polynomial.parse import parse_polynomial
from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import Solver, SolverOptions, SolverResult
from repro.solvers.portfolio import (
    DEFAULT_PORTFOLIO,
    PortfolioSolver,
    STRATEGIES,
    StrategyOutcome,
    make_solver,
    strategy_names,
)
from repro.solvers.problem import CompiledProblem, Deadline, SolveControl, compile_problem
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver


def bilinear_system():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_f_1_0_0 * $t_c0_0_0 - 1"))
    system.add_nonnegative(parse_polynomial("$t_c0_0_0"))
    system.add_nonnegative(parse_polynomial("$s_f_1_0_0"))
    return system


def infeasible_system():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_a_0_0_0 * $s_a_0_0_0 + 1"))
    return system


# -- registry and factory ----------------------------------------------------------------


def test_default_portfolio_strategies_are_registered():
    assert set(DEFAULT_PORTFOLIO) <= set(STRATEGIES)
    assert set(strategy_names()) == set(STRATEGIES)


def test_make_solver_resolves_strategies():
    assert isinstance(make_solver("qclp"), PenaltyQCLPSolver)
    assert isinstance(make_solver("gauss-newton"), GaussNewtonSolver)
    assert isinstance(make_solver("alternating"), AlternatingSolver)
    portfolio = make_solver("portfolio", portfolio=("qclp", "alternating"))
    assert isinstance(portfolio, PortfolioSolver)
    assert portfolio.strategies == ("qclp", "alternating")


def test_make_solver_rejects_unknown_strategy():
    for strategy in ("simplex", "qclp-feasibility"):
        with pytest.raises(SynthesisError):
            make_solver(strategy)


def test_portfolio_validates_configuration():
    with pytest.raises(SynthesisError):
        PortfolioSolver(strategies=())
    with pytest.raises(SynthesisError):
        PortfolioSolver(strategies=("qclp", "nope"))
    with pytest.raises(SynthesisError):
        PortfolioSolver(strategies=("qclp", "qclp"))  # outcomes are keyed by name


# -- the walk ----------------------------------------------------------------------------


@pytest.mark.parametrize("in_thread", [False, True], ids=["sequential", "thread"])
def test_portfolio_solves_bilinear_system(in_thread):
    """The walk serves its caller's thread, whether that is the main one or not."""
    solver = PortfolioSolver(SolverOptions(restarts=2, max_iterations=150))
    if in_thread:
        results = []
        caller = threading.Thread(target=lambda: results.append(solver.solve(bilinear_system())))
        caller.start()
        caller.join(timeout=60.0)
        assert not caller.is_alive()
        (result,) = results
    else:
        result = solver.solve(bilinear_system())
    assert result.feasible
    assert result.strategy in STRATEGIES
    product = result.assignment["$s_f_1_0_0"] * result.assignment["$t_c0_0_0"]
    assert product == pytest.approx(1.0, abs=1e-3)
    # Every strategy of the line-up left a wall-clock column.
    for name in solver.strategies:
        assert f"portfolio_{name}_seconds" in result.details
        assert f"portfolio_{name}_feasible" in result.details


def test_portfolio_first_feasible_wins_skips_later_sequential_strategies():
    solver = PortfolioSolver(
        SolverOptions(restarts=2, max_iterations=150), strategies=("qclp", "alternating")
    )
    result = solver.solve(bilinear_system())
    assert result.feasible
    assert result.strategy == "qclp"
    # The remaining strategy was cancelled before it started.
    assert result.details["portfolio_alternating_feasible"] == -1.0


def test_every_strategy_runs_in_the_callers_thread(monkeypatch):
    """The portfolio walks its line-up in the calling thread: no strategy threads."""
    threads = {}

    def recording(name, factory):
        def build(options):
            solver = factory(options)
            solve_compiled = solver.solve_compiled

            def record(problem, control=None):
                threads[name] = threading.get_ident()
                return solve_compiled(problem, control)

            solver.solve_compiled = record
            return solver

        return build

    for name in DEFAULT_PORTFOLIO:
        monkeypatch.setitem(STRATEGIES, name, recording(name, STRATEGIES[name]))
    # No strategy solves this system, so every one of them gets its turn.
    result = PortfolioSolver(SolverOptions(restarts=1, max_iterations=20)).solve(infeasible_system())
    assert not result.feasible
    assert threads == {name: threading.get_ident() for name in DEFAULT_PORTFOLIO}


def test_same_seed_portfolio_solves_are_bit_identical(quick_sum_system):
    options = SolverOptions(restarts=1, max_iterations=150, seed=5)
    first = PortfolioSolver(options).solve(quick_sum_system)
    second = PortfolioSolver(options).solve(quick_sum_system)
    assert first.feasible
    assert first.strategy == second.strategy
    assert first.assignment == second.assignment


def test_portfolio_reports_infeasible_best_effort():
    solver = PortfolioSolver(
        SolverOptions(restarts=1, max_iterations=60), strategies=("qclp", "gauss-newton")
    )
    result = solver.solve(infeasible_system())
    assert not result.feasible
    assert result.status in ("infeasible-best-effort", "no-progress")


def test_portfolio_trivial_system():
    result = PortfolioSolver().solve(QuadraticSystem())
    assert result.status == "trivial"


def test_portfolio_shares_one_compilation():
    system = bilinear_system()
    problem = compile_problem(system)
    solver = PortfolioSolver(SolverOptions(restarts=1, max_iterations=100))
    result = solver.solve(system)
    assert result.feasible
    assert compile_problem(system) is problem  # memo entry untouched by the walk


def test_portfolio_respects_shared_deadline():
    control = SolveControl(deadline=Deadline.after(0.0), tolerance=1e-5)
    solver = PortfolioSolver(SolverOptions(restarts=3, max_iterations=5000))
    result = solver.solve_compiled(compile_problem(bilinear_system()), control)
    assert result.details.get("timed_out") == 1.0 or result.status == "no-progress"


def test_portfolio_solver_is_picklable():
    solver = PortfolioSolver(SolverOptions(restarts=2), strategies=("qclp", "gauss-newton"))
    clone = pickle.loads(pickle.dumps(solver))
    assert clone.strategies == solver.strategies
    assert clone.solve(bilinear_system()).feasible


def test_a_deadline_cut_feasible_solve_reads_feasible_at_deadline(quick_sum_system, monkeypatch):
    """A winner the deadline stopped mid-descent is not reported as "optimal".

    The deadline strikes the moment a descent first evaluates a feasible
    point, so the winner is feasible but its polish never finished.
    """
    problem = compile_problem(quick_sum_system)
    solvers = {
        "gauss-newton": GaussNewtonSolver(SolverOptions(restarts=1, max_iterations=150)),
        "portfolio": PortfolioSolver(SolverOptions(restarts=1, max_iterations=150)),
    }
    for name, solver in solvers.items():
        uncut = solver.solve_compiled(problem)
        assert (uncut.status, uncut.details["interrupted"]) == ("optimal", 0.0), name

    reached = {"feasible": False}
    residuals_batch = CompiledProblem.residuals_batch

    def watch(self, points):
        residuals = residuals_batch(self, points)
        if residuals.size and (np.abs(residuals).max(axis=1) <= 1e-5).any():
            reached["feasible"] = True
        return residuals

    monkeypatch.setattr(CompiledProblem, "residuals_batch", watch)
    monkeypatch.setattr(Deadline, "expired", lambda self: reached["feasible"])
    for name, solver in solvers.items():
        reached["feasible"] = False
        cut = solver.solve_compiled(problem)
        assert cut.feasible, name
        assert cut.status == "feasible-at-deadline", name
        assert cut.details["interrupted"] == 1.0 and cut.details["timed_out"] == 1.0, name
    # The portfolio passed on the status of gauss-newton, the strategy it cut.
    assert cut.strategy == "gauss-newton"


# -- first-feasible-wins ------------------------------------------------------------------


def stub_strategy(feasible, calls):
    """A registry factory whose solver answers at once, without reporting any point."""

    class Stub(Solver):
        def _search(self, problem, control):
            calls.append(self.label())
            return SolverResult(
                assignment={"$s_f_1_0_0": 1.0} if feasible else None,
                status="optimal" if feasible else "infeasible-best-effort",
                objective_value=0.0,
                max_violation=0.0 if feasible else 1.0,
                details=problem.size_details(),
            )

    return Stub


def test_no_strategy_runs_after_a_feasible_one(monkeypatch):
    """The result decides: a feasible answer ends the walk even when nothing was reported."""
    problem = compile_problem(bilinear_system())
    for first_feasible in range(len(DEFAULT_PORTFOLIO)):
        calls = []
        for index, name in enumerate(DEFAULT_PORTFOLIO):
            monkeypatch.setitem(STRATEGIES, name, stub_strategy(index >= first_feasible, calls))
        result = PortfolioSolver().solve_compiled(problem)
        assert calls == list(DEFAULT_PORTFOLIO[: first_feasible + 1])
        assert result.strategy == DEFAULT_PORTFOLIO[first_feasible]
        for name in DEFAULT_PORTFOLIO[first_feasible + 1 :]:
            assert result.details[f"portfolio_{name}_cancelled"] == 1.0
            assert result.details[f"portfolio_{name}_feasible"] == -1.0


def row_free_system():
    """No constraint rows, and an objective that falls without bound in ``$eps_c0``."""
    system = QuadraticSystem()
    system.objective = parse_polynomial("$s_f_1_0_0^2 + $eps_c0")
    return system


def test_a_row_free_system_is_answered_by_the_first_strategy():
    """gauss-newton's role-floor point wins; qclp never gets to chase the objective down."""
    result = PortfolioSolver(SolverOptions(restarts=3, max_iterations=40)).solve(row_free_system())
    assert result.strategy == "gauss-newton"
    assert result.assignment == {"$s_f_1_0_0": 0.0, "$eps_c0": 1e-3}
    assert result.details["portfolio_qclp_cancelled"] == 1.0
    assert result.details["portfolio_alternating_cancelled"] == 1.0


def test_every_result_carries_the_size_keys():
    sizes = {"dimension", "constraints", "fixed_unknowns", "dropped_rows"}
    gauss_newton = GaussNewtonSolver(SolverOptions(restarts=1, max_iterations=40))
    assert sizes <= set(gauss_newton.solve(row_free_system()).details)
    expired = SolveControl(deadline=Deadline.after(0.0))
    cut = PortfolioSolver().solve_compiled(compile_problem(bilinear_system()), expired)
    assert cut.status == "no-progress"
    assert sizes <= set(cut.details) and cut.details["timed_out"] == 1.0


def test_an_interrupted_feasible_result_beats_infeasible_ones():
    """The deadline cut qclp mid-descent at a feasible point, after gauss-newton failed."""
    solver = PortfolioSolver(SolverOptions(tolerance=1e-5), strategies=("gauss-newton", "qclp"))
    outcomes = []
    for name, violation, interrupted in (("gauss-newton", 0.5, False), ("qclp", 3e-6, True)):
        feasible = violation <= 1e-5
        result = SolverResult(
            assignment={"$s_f_1_0_0": 1.0} if feasible else None,
            status="feasible-at-deadline" if feasible else "infeasible-best-effort",
            objective_value=1.0,
            max_violation=violation,
            details={"interrupted": float(interrupted)},
            strategy=name,
        )
        outcomes.append(StrategyOutcome(name, result, seconds=0.1))
    problem = compile_problem(bilinear_system())
    assembled = solver._assemble(outcomes, problem, SolveControl(tolerance=1e-5))
    assert assembled.strategy == "qclp"
    assert assembled.status == "feasible-at-deadline"


# -- warm-start exchange ------------------------------------------------------------------


def test_warm_start_exchange_through_control():
    problem = compile_problem(bilinear_system())
    control = SolveControl(tolerance=1e-5)
    assert control.warm_start() is None
    point = problem.vector({"$s_f_1_0_0": 2.0, "$t_c0_0_0": 0.5})
    control.report(point, violation=0.0, objective=0.0)
    warm = control.warm_start()
    assert warm is not None and warm is not point
    # A worse report must not displace the best-known point.
    control.report(problem.vector({}), violation=5.0, objective=0.0)
    assert control.best_violation == 0.0
