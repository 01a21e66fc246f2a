"""Unit tests for the Step-4 solvers on small hand-written systems."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.synthesis import build_task
from repro.polynomial.parse import parse_polynomial
from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import SolverOptions
from repro.solvers.portfolio import PortfolioSolver
from repro.solvers.problem import CompiledProblem, Deadline, SolveControl, compile_problem
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver
from repro.solvers.strong import RepresentativeEnumerator
from repro.suite.registry import get_benchmark


def bilinear_system():
    """A tiny bilinear feasibility problem: s*t = 1, t >= 0, s >= 0."""
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_f_1_0_0 * $t_c0_0_0 - 1"))
    system.add_nonnegative(parse_polynomial("$t_c0_0_0"))
    system.add_nonnegative(parse_polynomial("$s_f_1_0_0"))
    return system


def objective_system():
    """Feasible region s >= 2 with objective (s - 3)^2."""
    system = QuadraticSystem()
    system.add_nonnegative(parse_polynomial("$s_f_1_0_0 - 2"))
    system.objective = parse_polynomial("($s_f_1_0_0 - 3)^2")
    return system


# -- CompiledProblem -----------------------------------------------------------------


def test_compiled_values_and_residuals():
    system = bilinear_system()
    problem = compile_problem(system)
    point = problem.vector({"$s_f_1_0_0": 2.0, "$t_c0_0_0": 0.5})
    assert problem.max_violation(point) == pytest.approx(0.0, abs=1e-12)
    bad = problem.vector({"$s_f_1_0_0": 2.0, "$t_c0_0_0": -1.0})
    assert problem.max_violation(bad) > 1.0


def test_compiled_penalty_gradient_matches_finite_difference():
    system = bilinear_system()
    problem = compile_problem(system)
    rng = np.random.default_rng(0)
    point = rng.normal(size=problem.dimension)
    analytic = problem.penalty_gradient(point, rho=10.0)
    numeric = np.zeros_like(point)
    step = 1e-6
    for i in range(point.size):
        forward = point.copy()
        forward[i] += step
        backward = point.copy()
        backward[i] -= step
        numeric[i] = (problem.penalty(forward, 10.0) - problem.penalty(backward, 10.0)) / (2 * step)
    assert np.allclose(analytic, numeric, rtol=1e-4, atol=1e-5)


def test_compiled_objective():
    system = objective_system()
    problem = compile_problem(system)
    point = problem.vector({"$s_f_1_0_0": 3.0})
    assert problem.objective_value(point) == pytest.approx(0.0)
    assert problem.objective_value(problem.vector({"$s_f_1_0_0": 5.0})) == pytest.approx(4.0)


def test_compiled_residual_jacobian_masks_inactive_inequalities():
    system = objective_system()
    problem = compile_problem(system)
    satisfied = problem.vector({"$s_f_1_0_0": 5.0})
    jacobian = problem.residual_jacobian(satisfied)
    assert jacobian.nnz == 0  # inequality inactive: row is zeroed


def test_compile_problem_is_memoised_per_system():
    system = bilinear_system()
    assert compile_problem(system) is compile_problem(system)
    # A different margin is a different compilation.
    assert compile_problem(system, strict_margin=1e-3) is not compile_problem(system)
    # Mutating the system invalidates the memo key.
    before = compile_problem(system)
    system.add_nonnegative(parse_polynomial("$s_f_1_0_0 - 1"))
    after = compile_problem(system)
    assert after is not before
    assert after.row_count == before.row_count + 1
    # Reassigning the objective (same constraint count) also invalidates it.
    system.objective = parse_polynomial("$s_f_1_0_0 * $s_f_1_0_0")
    reassigned = compile_problem(system)
    assert reassigned is not after
    assert reassigned.objective_value(reassigned.vector({"$s_f_1_0_0": 2.0})) == pytest.approx(4.0)


def test_compiled_problem_cache_never_pickles():
    import pickle

    system = bilinear_system()
    compile_problem(system)
    clone = pickle.loads(pickle.dumps(system))
    assert not hasattr(clone, "_compiled_problems")
    assert clone.size == system.size


def test_compiled_role_masks():
    system = bilinear_system()
    problem = compile_problem(system)
    by_name = dict(zip(problem.variables, problem.template_mask))
    assert by_name["$s_f_1_0_0"] and not by_name["$t_c0_0_0"]


# -- Deadline ---------------------------------------------------------------------------


def test_deadline_never_and_after():
    assert not Deadline.never().expired()
    expired = Deadline.after(0.0)
    assert expired.expired()
    assert not Deadline.after(60.0).expired()


# -- PenaltyQCLPSolver -----------------------------------------------------------------


def test_penalty_solver_finds_bilinear_solution():
    solver = PenaltyQCLPSolver(SolverOptions(restarts=3, max_iterations=200))
    result = solver.solve(bilinear_system())
    assert result.feasible
    assignment = result.assignment
    assert assignment["$s_f_1_0_0"] * assignment["$t_c0_0_0"] == pytest.approx(1.0, abs=1e-4)


def test_penalty_solver_tracks_objective():
    solver = PenaltyQCLPSolver(SolverOptions(restarts=2, max_iterations=200))
    result = solver.solve(objective_system())
    assert result.feasible
    assert result.assignment["$s_f_1_0_0"] == pytest.approx(3.0, abs=1e-2)


def test_penalty_solver_reports_infeasible_best_effort():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_a_0_0_0 * $s_a_0_0_0 + 1"))  # s^2 = -1: infeasible
    solver = PenaltyQCLPSolver(SolverOptions(restarts=2, max_iterations=100))
    result = solver.solve(system)
    assert not result.feasible
    assert result.status == "infeasible-best-effort"
    assert result.max_violation is not None and result.max_violation > 0.1


def test_penalty_solver_trivial_system():
    result = PenaltyQCLPSolver().solve(QuadraticSystem())
    assert result.feasible
    assert result.status == "trivial"


@pytest.mark.parametrize("batch", ["on", "rows"])
def test_time_limit_is_enforced_inside_iteration_loops(batch):
    """Regression: a restart's inner optimisation loop must respect the deadline.

    The ``sum`` system grinds for seconds at this iteration budget on the
    jittered later members, and the historical implementation only checked
    the limit *between* restarts, so a tiny ``time_limit`` was ignored
    entirely.  The deadline checks live inside every engine's iteration
    loop, so the solve returns almost immediately in both batch modes.
    """
    benchmark = get_benchmark("sum")
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(),
                      benchmark.options(upsilon=1))
    solver = PenaltyQCLPSolver(
        SolverOptions(restarts=3, max_iterations=100_000, time_limit=0.25, batch=batch)
    )
    start = time.monotonic()
    result = solver.solve(task.system)
    elapsed = time.monotonic() - start
    assert elapsed < 3.0  # generous CI margin over the 0.25s budget
    assert result.restarts_used >= 1  # the limit struck inside a restart
    assert result.details["timed_out"] == 1.0


@pytest.mark.parametrize("batch", ["on", "rows"])
def test_results_say_whether_the_winner_was_stopped_mid_descent(batch):
    """``details["interrupted"]`` flags a winner the control cut short."""

    class StopAtSecondCheck(SolveControl):
        checks = 0

        def should_stop(self):
            self.checks += 1
            return self.checks > 1

    problem = compile_problem(bilinear_system())
    solver = PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=200, batch=batch))
    assert solver.solve_compiled(problem).details["interrupted"] == 0.0
    # The first check launches the descent; the second stops its first iteration.
    assert solver.solve_compiled(problem, StopAtSecondCheck()).details["interrupted"] == 1.0


# -- GaussNewtonSolver ------------------------------------------------------------------


def test_gauss_newton_solver_on_bilinear_system():
    solver = GaussNewtonSolver(SolverOptions(restarts=4, max_iterations=200, seed=1))
    result = solver.solve(bilinear_system())
    assert result.feasible
    product = result.assignment["$s_f_1_0_0"] * result.assignment["$t_c0_0_0"]
    assert product == pytest.approx(1.0, abs=1e-3)


def test_gauss_newton_solver_trivial_and_unconstrained():
    assert GaussNewtonSolver().solve(QuadraticSystem()).status == "trivial"
    unconstrained = QuadraticSystem()
    unconstrained.objective = parse_polynomial("$s_f_1_0_0 * $s_f_1_0_0")
    result = GaussNewtonSolver().solve(unconstrained)
    assert result.feasible and result.max_violation == 0.0


# -- AlternatingSolver ------------------------------------------------------------------


def test_alternating_solver_on_bilinear_system():
    solver = AlternatingSolver(SolverOptions(restarts=2, max_iterations=150), sweeps=3)
    result = solver.solve(bilinear_system())
    assert result.feasible
    product = result.assignment["$s_f_1_0_0"] * result.assignment["$t_c0_0_0"]
    assert product == pytest.approx(1.0, abs=1e-3)
    # Like every strategy, it reports the size of the presolved problem,
    # also when the deadline stops it before any descent.
    sizes = {"dimension", "constraints", "fixed_unknowns", "dropped_rows"}
    assert sizes <= set(result.details)
    expired = SolveControl(deadline=Deadline.after(0.0))
    cut = solver.solve_compiled(compile_problem(bilinear_system()), expired)
    assert cut.status == "no-progress" and sizes <= set(cut.details)


def test_alternating_solver_trivial_system():
    result = AlternatingSolver().solve(QuadraticSystem())
    assert result.status == "trivial"


# -- RepresentativeEnumerator --------------------------------------------------------------


def test_enumerator_finds_multiple_components():
    # (s - 1)*(s + 1) = 0 has two connected components {1} and {-1}.
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_f_1_0_0^2 - 1"))
    enumerator = RepresentativeEnumerator(attempts=8, options=SolverOptions(max_iterations=150, seed=1))
    result = enumerator.enumerate(system)
    assert result.feasible_attempts >= 2
    values = sorted(round(rep["$s_f_1_0_0"]) for rep in result.representatives)
    assert -1 in values and 1 in values


def test_enumerator_reports_attempts():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_f_1_0_0 - 2"))
    enumerator = RepresentativeEnumerator(attempts=3, options=SolverOptions(max_iterations=50))
    result = enumerator.enumerate(system)
    assert result.attempts == 3
    assert result.count >= 1


# -- batched multi-start (batch="on"/"rows") -------------------------------------------


def test_solver_options_reject_unknown_batch_mode():
    for batch in ("sometimes", "off"):
        with pytest.raises(ValueError):
            SolverOptions(batch=batch)


def test_importing_repro_leaves_scipy_optimize_unloaded():
    """No solver needs ``scipy.optimize``, so no process should pay for its import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", "import repro, sys; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_batch_modes_agree_on_winning_assignment(quick_sum_system):
    """`batch="on"` and the one-member-at-a-time replay pick the same winner.

    Also through a one-strategy portfolio: on quick ``sum`` the replay used
    to stop at its first feasible member there, where ``"on"`` ran qclp's
    own objective trigger to the end.
    """
    makers = (PenaltyQCLPSolver, lambda options: PortfolioSolver(options, strategies=("qclp",)))
    for system in (bilinear_system(), objective_system(), quick_sum_system):
        for make in makers:
            fingerprints = []
            for mode in ("on", "rows"):
                options = SolverOptions(restarts=3, max_iterations=200, batch=mode)
                result = make(options).solve(system)
                fingerprints.append(
                    (result.assignment, result.status, result.max_violation, result.restarts_used)
                )
            assert fingerprints[0] == fingerprints[1]


def test_solver_results_report_kernel_counters():
    """``batch_width`` is the most live members one batched kernel call carried."""
    cases = (
        # The origin leader does not win here, so the two-member pack wave runs.
        (bilinear_system(), "on", 2, 2),
        (bilinear_system(), "rows", 1, 2),
        # The leader wave wins alone, so the pack never launches.
        (objective_system(), "on", 1, 1),
    )
    for system, mode, width, restarts_used in cases:
        options = SolverOptions(restarts=3, max_iterations=200, batch=mode)
        result = PenaltyQCLPSolver(options).solve(system)
        assert result.feasible
        assert result.residual_evaluations > 0
        assert result.jacobian_evaluations > 0
        assert result.batch_width == width
        assert result.restarts_used == restarts_used


def test_start_batch_rows_are_pairwise_distinct():
    """No two restart rows may coincide — including warm rows vs the warm point.

    Regression for the zero-jitter bug: ``warm_scale * attempt`` gave the
    first warm perturbation a zero scale, duplicating the already-explored
    warm point.  Restart 0's cold row is the *deliberate* role-floor origin
    (a single deterministic row under every seed); every other row must
    carry a strictly positive, strictly growing jitter scale.
    """
    from repro.solvers.batched import start_batch

    problem = compile_problem(bilinear_system())
    solvers = (
        PenaltyQCLPSolver(SolverOptions()),
        GaussNewtonSolver(SolverOptions()),
        AlternatingSolver(SolverOptions()),
    )
    warm_scales = (lambda a: 0.05 * (a + 1), lambda a: 0.1 * (a + 1), None)
    for seed in (0, 7):
        for solver, warm_scale in zip(solvers, warm_scales):
            solver.options = SolverOptions(seed=seed)
            control = SolveControl(deadline=Deadline.never(), tolerance=1e-6)
            warm = problem.vector({"$s_f_1_0_0": 1.0, "$t_c0_0_0": 1.0})
            control.report(warm, 0.0, 0.0)
            assert control.warm_start() is not None
            points = start_batch(
                problem,
                control,
                np.random.default_rng(seed),
                restarts=4,
                cold_scale=solver._cold_scale,
                warm_scale=warm_scale,
            )
            rows = [tuple(row) for row in points]
            assert len(set(rows)) == len(rows), (type(solver).__name__, seed)
            # Warm rows are perturbations, never the warm point itself.
            for row in points:
                assert not np.array_equal(row, warm)
