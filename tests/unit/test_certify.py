"""Unit tests for the certificate subsystem (repro.certify)."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.certify import (
    Certificate,
    PairCertificate,
    SOSWitness,
    check_certificate,
    derive_argument_sets,
    exact_violations,
    harvest_trace_cuts,
    ldl_decompose,
    lift_solution,
    rationalize,
    repair_solution,
    solve_linear,
)
from repro.certify.lift import DENOMINATOR_LADDER, snap
from repro.certify.sampling import check_invariant
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.synthesis import build_task
from repro.pipeline.jobs import job_from_benchmark
from repro.polynomial.monomial import Monomial
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import DEFAULT_STRICT_MARGIN, SolverOptions
from repro.solvers.portfolio import make_solver
from repro.solvers.problem import CompiledProblem, SolveControl, compile_problem
from repro.suite.running_example import RUNNING_EXAMPLE

F = Fraction


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


def test_solve_linear_prefers_the_guess_on_free_columns():
    # x0 + x1 = 3 with guess (1, 1): x1 stays free at 1, x0 becomes 2.
    solution = solve_linear([{0: F(1), 1: F(1)}], [F(3)], [F(1), F(1)])
    assert solution == [F(2), F(1)]


def test_solve_linear_detects_inconsistency():
    rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
    assert solve_linear(rows, [F(1), F(3)], [F(0), F(0)]) is None
    assert solve_linear(rows, [F(1), F(2)], [F(0), F(0)]) is not None


def _dense_solve(matrix, rhs, guess):
    """Dense Gauss-Jordan with free columns pinned to ``guess``: the sparse solve's oracle."""
    rows = len(matrix)
    cols = len(guess)
    augmented = [list(matrix[i]) + [rhs[i]] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        pivot_row = next((r for r in range(rank, rows) if augmented[r][col]), None)
        if pivot_row is None:
            continue
        augmented[rank], augmented[pivot_row] = augmented[pivot_row], augmented[rank]
        pivot = augmented[rank][col]
        augmented[rank] = [value / pivot for value in augmented[rank]]
        lead = augmented[rank]
        for r in range(rows):
            factor = augmented[r][col]
            if r != rank and factor:
                augmented[r] = [a - factor * b for a, b in zip(augmented[r], lead)]
        pivots.append((rank, col))
        rank += 1
        if rank == rows:
            break
    if any(augmented[r][cols] for r in range(rank, rows)):
        return None
    pivot_columns = {col for _, col in pivots}
    solution = [F(guess[j]) if j not in pivot_columns else F(0) for j in range(cols)]
    for r, c in pivots:
        value = augmented[r][cols]
        for j in range(cols):
            if j != c and j not in pivot_columns:
                value -= augmented[r][j] * solution[j]
        solution[c] = value
    return solution


def _random_system(rng):
    """A sparse rational system; often rank-deficient, sometimes inconsistent."""
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)

    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.35 else F(0)

    matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
    point = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
    rhs = [sum(a * x for a, x in zip(row, point)) for row in matrix]
    for _ in range(rng.randint(0, 3)):
        # A combination of two rows, whose right-hand side sometimes breaks consistency.
        a, b = rng.randrange(rows), rng.randrange(rows)
        s, t = F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-3, 3))
        matrix.append([s * x + t * y for x, y in zip(matrix[a], matrix[b])])
        rhs.append(s * rhs[a] + t * rhs[b] + (F(1) if rng.random() < 0.3 else F(0)))
    order = list(range(len(matrix)))
    rng.shuffle(order)
    guess = [F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(cols)]
    return [matrix[i] for i in order], [rhs[i] for i in order], guess


def test_sparse_solve_matches_the_dense_elimination():
    rng = random.Random(20201015)
    inconsistent = 0
    for _ in range(600):
        matrix, rhs, guess = _random_system(rng)
        rows = [{j: value for j, value in enumerate(row) if value} for row in matrix]
        expected = _dense_solve(matrix, rhs, guess)
        assert solve_linear(rows, rhs, guess) == expected
        inconsistent += expected is None
    # Both outcomes are exercised.
    assert 100 < inconsistent < 500


def test_ldl_decides_psd_exactly():
    psd = [[F(2), F(1)], [F(1), F(2)]]
    decomposition = ldl_decompose(psd)
    assert decomposition is not None
    lower, diagonal = decomposition
    # L D L^T reproduces the matrix exactly.
    n = len(psd)
    for i in range(n):
        for j in range(n):
            value = sum(lower[i][k] * diagonal[k] * lower[j][k] for k in range(n))
            assert value == psd[i][j]
    assert ldl_decompose([[F(1), F(2)], [F(2), F(1)]]) is None  # indefinite
    # Boundary case: singular PSD passes, singular-with-coupling fails.
    assert ldl_decompose([[F(0), F(0)], [F(0), F(1)]]) is not None
    assert ldl_decompose([[F(0), F(1)], [F(1), F(0)]]) is None


# ---------------------------------------------------------------------------
# Checker soundness: Gram shape
# ---------------------------------------------------------------------------


def _one_multiplier_certificate(basis, gram):
    """A claim that ``x + 1 > 0`` everywhere, as ``x + 1 = 1/2 + h_0`` with no assumptions.

    The claim is false at x = -2, so no SOS ``h_0`` can make it valid.
    """
    pair = PairCertificate(
        name="pair",
        target="f",
        scheme="putinar",
        assumptions=(),
        conclusion=parse_polynomial("x + 1"),
        witness=F(1, 2),
        multipliers=(SOSWitness(basis=basis, gram=gram),),
    )
    return Certificate(scheme="putinar", pairs=(pair,))


def test_checker_rejects_a_gram_with_fewer_rows_than_its_basis():
    # Row (1/2, 1) over basis (1, x) expands to 1/2 + x, which closes the
    # identity; a PSD test of the leading 1x1 block alone would pass it.
    basis = (Monomial.one(), Monomial.of("x"))
    certificate = _one_multiplier_certificate(basis, ((F(1, 2), F(1)),))
    for candidate in (certificate, Certificate.from_json(certificate.to_json())):
        check = check_certificate(candidate)
        assert not check.ok
        assert check.failures[0][1] == "Gram matrix of multiplier h_0 is not 2x2 for its basis"


def test_checker_rejects_a_gram_with_more_rows_than_its_basis():
    certificate = _one_multiplier_certificate((Monomial.one(),), ((F(1, 2), F(0)), (F(0), F(1))))
    check = check_certificate(certificate)
    assert not check.ok
    assert check.failures[0][1] == "Gram matrix of multiplier h_0 is not 1x1 for its basis"


# ---------------------------------------------------------------------------
# Rationalization and exact system evaluation
# ---------------------------------------------------------------------------


def test_rationalize_snaps_solver_noise_to_clean_rationals():
    snapped = rationalize({"a": 0.50000001, "b": -1e-12}, max_denominator=4)
    assert snapped == {"a": F(1, 2), "b": F(0)}


def test_snap_equals_limit_denominator_on_every_rung():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 0.1, -0.3333333, 7.75]
    rng = random.Random(7)
    values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-9, 2) for _ in range(200)]
    nudge = Fraction(1, 10**30)
    for denominator in DENOMINATOR_LADDER:
        half = 1 / (2 * denominator)
        candidates = [Fraction(value) for value in values]
        for tie in (Fraction(1, 2 * denominator), Fraction(-1, 2 * denominator)):
            candidates += [tie, tie - nudge, tie + nudge]
        for side in (half, -half):
            candidates += [
                Fraction(math.nextafter(side, 0.0)),
                Fraction(math.nextafter(side, 2 * side)),
            ]
        for value in candidates:
            expected = value.limit_denominator(denominator)
            assert snap(value, denominator) == expected, (value, denominator)


def test_exact_violations_has_no_float_tolerance():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_x_1_0_0 - 1"), origin="eq")
    system.add_positive(parse_polynomial("$s_x_1_0_1"), origin="gt")
    exact_point = {"$s_x_1_0_0": F(1), "$s_x_1_0_1": F(1, 10**9)}
    assert exact_violations(system, exact_point) == []
    # An equality off by 1e-30 is still a violation; a witness of exactly 0 fails > 0.
    off = {"$s_x_1_0_0": F(1) + F(1, 10**30), "$s_x_1_0_1": F(0)}
    kinds = {violation.kind for violation in exact_violations(system, off)}
    assert kinds == {"eq", "gt"}


# ---------------------------------------------------------------------------
# Solver-option centralisation (strict margin / tolerance)
# ---------------------------------------------------------------------------


def test_custom_strict_margin_reaches_the_residual_rewrite():
    system = QuadraticSystem()
    system.add_positive(parse_polynomial("$s_f_1_0_0"), origin="witness")
    problem = compile_problem(system, strict_margin=0.5)
    import numpy as np

    # At 0.3 the constraint value is positive but below the margin: the
    # residual rewrite (p > 0  ->  p >= margin) must flag it.
    residuals = problem.residuals(np.array([0.3]))
    assert residuals[0] == pytest.approx(0.3 - 0.5)
    # The default-margin compilation considers the same point feasible.
    default_problem = compile_problem(system)
    assert default_problem.strict_margin == DEFAULT_STRICT_MARGIN
    assert default_problem.max_violation(np.array([0.3])) == 0.0


def test_solver_options_margin_threads_through_solve():
    system = QuadraticSystem()
    system.add_positive(parse_polynomial("$s_f_1_0_0"), origin="witness")
    solver = make_solver("gauss-newton", options=SolverOptions(strict_margin=0.25, restarts=1))
    result = solver.solve(system)
    assert result.feasible
    assert result.assignment["$s_f_1_0_0"] >= 0.25 - 1e-6


def test_solve_control_default_tolerance_comes_from_the_shared_constant():
    from repro.solvers.base import DEFAULT_TOLERANCE

    assert SolveControl().tolerance == DEFAULT_TOLERANCE
    assert SolveControl(tolerance=1e-3).tolerance == 1e-3
    assert CompiledProblem(QuadraticSystem()).strict_margin == DEFAULT_STRICT_MARGIN


# ---------------------------------------------------------------------------
# Sampling tier: derived arguments and reproducible seeding
# ---------------------------------------------------------------------------


def test_derive_argument_sets_respects_the_precondition_box(sum_cfg, sum_precondition):
    argument_sets = derive_argument_sets(sum_cfg, sum_precondition, runs=6, rng_seed=1)
    assert argument_sets
    # n >= 1 at the entry: every derived argument satisfies the box.
    assert all(arguments["n"] >= 1 for arguments in argument_sets)
    # Deterministic under the same seed.
    assert argument_sets == derive_argument_sets(sum_cfg, sum_precondition, runs=6, rng_seed=1)


def test_check_invariant_simulates_without_explicit_arguments(sum_cfg, sum_precondition):
    from repro.invariants.result import Invariant
    from repro.spec.assertions import parse_assertion

    function = sum_cfg.function("sum")
    label = function.label_by_index(9)
    invariant = Invariant(assertions={label: parse_assertion("ret_sum - 1000 > 0")})
    # No argument sets: simulation arguments derive from the precondition box
    # instead of silently skipping, so the wrong invariant is caught.
    report = check_invariant(sum_cfg, sum_precondition, invariant, pair_samples=0, rng_seed=3)
    assert report.simulation_runs > 0
    assert not report.passed


def test_check_invariant_is_reproducible_per_seed(sum_cfg, sum_precondition):
    from repro.invariants.result import Invariant

    invariant = Invariant(assertions={})
    first = check_invariant(sum_cfg, sum_precondition, invariant, rng_seed=7)
    second = check_invariant(sum_cfg, sum_precondition, invariant, rng_seed=7)
    assert first.simulation_elements_checked == second.simulation_elements_checked
    assert first.pair_samples == second.pair_samples


# ---------------------------------------------------------------------------
# Lift + certificate round trip on the running example
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified_sum():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), job.options)
    solver = make_solver(
        "portfolio", options=SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)
    )
    result = solver.solve(task.system)
    assert result.feasible
    lift = lift_solution(task, result.assignment)
    assert lift.ok, lift.reason
    return task, lift


def test_lift_produces_a_checkable_certificate(certified_sum):
    task, lift = certified_sum
    check = check_certificate(lift.certificate, task=task)
    assert check.ok, check.summary()
    assert check.pairs_checked == len(task.pairs)
    # Exact values: every template coefficient is a bona fide Fraction.
    assert all(isinstance(value, Fraction) for value in lift.exact_assignment.values())


def test_certificate_round_trips_through_json(certified_sum):
    task, lift = certified_sum
    rebuilt = Certificate.from_json(lift.certificate.to_json())
    assert check_certificate(rebuilt, task=task).ok
    assert rebuilt.to_dict() == lift.certificate.to_dict()


def test_task_binding_rejects_a_foreign_assignment(certified_sum):
    task, lift = certified_sum
    tampered_assignment = dict(lift.certificate.assignment)
    name = next(iter(tampered_assignment))
    tampered_assignment[name] += 7
    tampered = Certificate(
        scheme=lift.certificate.scheme,
        assignment=tampered_assignment,
        pairs=lift.certificate.pairs,
        denominator=lift.certificate.denominator,
    )
    # Internally consistent pairs, but no longer bound to the task's reduction.
    assert not check_certificate(tampered, task=task).ok


def test_tampered_witness_is_rejected(certified_sum):
    task, lift = certified_sum
    pair = lift.certificate.pairs[0]
    assert pair.witness is not None
    tampered_pair = replace(pair, witness=pair.witness + 1)
    tampered = Certificate(
        scheme=lift.certificate.scheme,
        assignment=lift.certificate.assignment,
        pairs=(tampered_pair, *lift.certificate.pairs[1:]),
        denominator=lift.certificate.denominator,
    )
    check = check_certificate(tampered)
    assert not check.ok
    assert "identity" in check.failures[0][1]


# ---------------------------------------------------------------------------
# Repair round 2: trace cuts (Lemma 2.1)
# ---------------------------------------------------------------------------


def test_repair_round_two_injects_sound_trace_cuts():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    options = replace(job.options, strategy="gauss-newton", verify="exact")
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
    solver_options = SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)
    result = make_solver("gauss-newton", options=solver_options).solve(task.system)
    verified = lift_solution(task, result.assignment)
    assert verified.ok, verified.reason

    # sum's variables stay non-negative, so an all-negative template fails at
    # every reachable state: each cut is a violation cut, and by Lemma 2.1 any
    # inductive invariant (the verified one) satisfies it.
    candidate = {name: -1.0 for name in task.templates.coefficient_names()}
    cuts = harvest_trace_cuts(task, candidate)
    assert cuts
    for origin, cut in cuts:
        assert origin.startswith("violation@"), origin
        assert cut.substitute(verified.exact_assignment).constant_value() >= 0, origin

    # Round 1 re-races without cuts; rejecting its answer forces round 2 to
    # harvest cuts from it and re-solve the cut system.
    validations = []

    def validate(assignment):
        validations.append(assignment)
        if len(validations) == 1:
            return False, None
        lift = lift_solution(task, assignment)
        return lift.ok and check_certificate(lift.certificate, task=task).ok, lift

    outcome = repair_solution(
        task, candidate, validate, solver_options=solver_options, strategy="gauss-newton"
    )
    assert outcome.ok
    first, second = outcome.rounds
    assert first.feasible and not first.validated and first.cuts_added == 0
    assert second.cuts_added > 0 and second.validated
