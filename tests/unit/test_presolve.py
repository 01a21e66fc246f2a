"""Unit tests for the exact presolve that every Step-4 solve runs on.

:func:`~repro.solvers.problem.compile_problem` hands the solvers
:meth:`CompiledProblem.presolved`: equality rows left with one term ``a*x``
or ``a*x^2`` and a zero constant fix ``x = 0``, the zeros propagate to a
fixpoint, rows left identically satisfied are dropped, and a row left as a
constant that breaks its kind proves the system infeasible.
"""

import pytest

from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.synthesis import build_task
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import SolverOptions
from repro.solvers.problem import compile_problem
from repro.solvers.portfolio import make_solver
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver
from repro.suite.registry import get_benchmark

QUICK = SolverOptions(restarts=2, max_iterations=100)
STRATEGIES = ("gauss-newton", "qclp", "alternating", "portfolio")


def system_of(*rows: str) -> QuadraticSystem:
    """A system from ``"p = 0"`` / ``"p >= 0"`` / ``"p > 0"`` lines."""
    system = QuadraticSystem()
    relations = (
        (">=", system.add_nonnegative),
        (">", system.add_positive),
        ("=", system.add_equality),
    )
    for row in rows:
        for relation, add in relations:
            if relation in row:
                left, right = row.split(relation)
                assert right.strip() == "0"
                add(parse_polynomial(left))
                break
    return system


def sum_system(upsilon: int) -> QuadraticSystem:
    benchmark = get_benchmark("sum")
    return build_task(
        benchmark.source, benchmark.precondition, benchmark.objective(), benchmark.options(upsilon=upsilon)
    ).system


def test_a_cascade_of_three_rounds_fixes_every_forced_unknown():
    system = system_of(
        "a = 0",  # round 1: a
        "a*b + b = 0",  # round 2: b, once a*b is dead
        "b*c + 2*c^2 = 0",  # round 3: c, once b*c is dead
        "c*d + d - 1 = 0",  # d - 1 = 0 is left: a nonzero constant fixes nothing
        "d >= 0",
    )
    problem = compile_problem(system)
    assert problem.variables == ["d"]
    assert list(problem.kept_rows) == [3, 4]
    assert problem.size_details() == {
        "dimension": 1.0,
        "constraints": 2.0,
        "fixed_unknowns": 3.0,
        "dropped_rows": 3.0,
    }
    assert not problem.infeasible

    result = GaussNewtonSolver(QUICK).solve(system)
    assert result.feasible
    assert {name: result.assignment[name] for name in "abc"} == {"a": 0.0, "b": 0.0, "c": 0.0}
    assert result.assignment["d"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_infeasible_system_is_answered_without_a_descent(strategy):
    system = system_of("x = 0", "x + 1 = 0")  # x = 0 leaves 1 = 0
    assert compile_problem(system).infeasible
    result = make_solver(strategy, options=QUICK).solve(system)
    assert result.status == "infeasible"
    assert not result.feasible
    assert result.iterations == 0
    assert result.residual_evaluations == result.jacobian_evaluations == 0


def test_each_broken_constant_kind_proves_infeasibility():
    for broken in ("-x*x - 1 >= 0", "-x*x > 0", "x*x + 2 = 0"):
        system = system_of("x = 0", broken)
        assert compile_problem(system).infeasible, broken
    # Constants that hold are dropped instead.
    problem = compile_problem(system_of("x = 0", "x*x + 1 >= 0", "x + 1 > 0", "y - 1 = 0"))
    assert not problem.infeasible
    assert problem.variables == ["y"]
    assert list(problem.kept_rows) == [3]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_system_fixed_completely_assigns_every_unknown_zero(strategy):
    system = system_of("x = 0", "x*y + y^2 = 0", "x + y >= 0")
    assert compile_problem(system).dimension == 0
    result = make_solver(strategy, options=QUICK).solve(system)
    assert result.status == "trivial"
    assert result.assignment == {"x": 0.0, "y": 0.0}
    assert result.max_violation == 0.0


def test_sum_golden_counts():
    # At upsilon=2 the Gram basis has the multipliers' degree: nothing is forced.
    even = sum_system(upsilon=2)
    problem = compile_problem(even)
    assert problem.dimension == len(even.variables()) == 1922
    assert problem.row_count == even.size == 2434

    system = sum_system(upsilon=1)
    problem = compile_problem(system)
    assert (len(system.variables()), problem.dimension) == (487, 218)
    assert (system.size, problem.row_count) == (879, 236)

    result = GaussNewtonSolver(SolverOptions(restarts=1, max_iterations=60)).solve(system)
    assert result.feasible
    assert set(result.assignment) == set(system.variables())
    assert result.details["dimension"] == 218.0
    assert result.details["constraints"] == 236.0
    assert result.details["fixed_unknowns"] == 487.0 - 218.0
    assert result.details["dropped_rows"] == 879.0 - 236.0


@pytest.mark.parametrize("seed", [2, 37])
def test_lm_cg_budget_does_not_shrink_with_the_presolved_dimension(seed):
    """qclp reaches the tolerance on the presolved ``sum`` at a short budget.

    With a CG budget of ``dimension // 8`` steps, the presolved dimension
    (218) left these seeds stalled near 1e-5 as infeasible-best-effort.
    """
    solver = PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=60, seed=seed))
    result = solver.solve(sum_system(upsilon=1))
    assert result.status == "optimal"
