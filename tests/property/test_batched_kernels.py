"""Property tests: the batched kernels agree with the per-point kernels.

The batched Step-4 engines (:mod:`repro.solvers.batched`) rest on two
properties of the ``*_batch`` kernels of
:class:`repro.solvers.problem.CompiledProblem`:

* **per-point agreement** — row ``i`` of every batched kernel equals the
  scalar kernel applied to point ``i`` (up to floating-point reduction
  order), on random quadratic systems and random batches;
* **lockstep row independence** — a member's row is *bit-identical* whether
  it is evaluated alone or inside a wider batch, which is what makes
  ``batch="on"`` and ``batch="rows"`` produce the same winning assignment.

The CSR Jacobian is checked against a dense reference built here by a plain
loop over the lowered linear and bilinear triplets, since the per-point
``residual_jacobian`` shares the assembly under test.

The solver-level corollary is checked too: with the same seed, the three
multi-start solvers and a one-strategy portfolio return identical
fingerprints (assignment, status, violation, restarts used) under
``batch="on"`` and ``batch="rows"``.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.invariants.quadratic_system import (
    ConstraintKind,
    QuadraticConstraint,
    QuadraticSystem,
)
from repro.polynomial.compiled import lower_quadratic
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial
from repro.solvers.alternating import AlternatingSolver
from repro.solvers.base import SolverOptions
from repro.solvers.portfolio import PortfolioSolver
from repro.solvers.problem import CompiledProblem
from repro.solvers.qclp import GaussNewtonSolver, PenaltyQCLPSolver

UNKNOWNS = ["$s_a_0_0_0", "$s_a_0_0_1", "$s_a_0_0_2", "$t_c0_0_0", "$t_c0_0_1", "$l_f_0_1_1"]

_QUADRATIC_MONOMIALS = [Monomial({})]
_QUADRATIC_MONOMIALS += [Monomial({name: 1}) for name in UNKNOWNS]
_QUADRATIC_MONOMIALS += [Monomial({name: 2}) for name in UNKNOWNS]
_QUADRATIC_MONOMIALS += [
    Monomial({left: 1, right: 1})
    for i, left in enumerate(UNKNOWNS)
    for right in UNKNOWNS[i + 1:]
]

# Odd denominators: a coefficient like 5/7 is no float, so a row's sum rounds
# and its value depends on the order of the additions.
coefficients = st.integers(min_value=-6, max_value=6).map(Fraction) | st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.sampled_from([3, 7, 9, 11, 97])
)

polynomials = st.dictionaries(
    st.sampled_from(_QUADRATIC_MONOMIALS), coefficients, min_size=1, max_size=8
).map(Polynomial)

constraints = st.builds(
    QuadraticConstraint,
    polynomial=polynomials,
    kind=st.sampled_from(list(ConstraintKind)),
)


def build_system(constraint_list, objective):
    system = QuadraticSystem()
    for constraint in constraint_list:
        system.add(constraint)
    system.objective = objective
    return system


# Every objective has a linear term in each unknown (the draws can zero
# some), so the objective's sums round at the points below.
linear_forms = st.lists(coefficients, min_size=len(UNKNOWNS), max_size=len(UNKNOWNS)).map(
    lambda weights: Polynomial(
        {Monomial({name: 1}): weight for name, weight in zip(UNKNOWNS, weights)}
    )
)
objectives = st.builds(lambda linear, rest: linear + rest, linear_forms, polynomials)

systems = st.builds(
    build_system, st.lists(constraints, min_size=1, max_size=6), objectives
)

# Random batches: lists of assignments, lowered to (k, d) rows per system
# with problem.vector (the compiled dimension varies with the system).
# Sevenths are no floats either, so products and sums at these points round:
# a kernel whose reduction order changes with the batch's height gives a
# member's row different bits inside a wider batch than alone.
assignments = st.fixed_dictionaries(
    {name: st.integers(min_value=-28, max_value=28).map(lambda n: n / 7) for name in UNKNOWNS}
)
batches = st.lists(assignments, min_size=1, max_size=5)


def _points(problem, assignment_list):
    return np.array([problem.vector(assignment) for assignment in assignment_list])

rhos = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(systems, batches)
def test_batched_values_and_residuals_match_per_point(system, batch):
    problem = CompiledProblem(system)
    points = _points(problem, batch)
    values = problem.constraint_values_batch(points)
    residuals = problem.residuals_batch(points)
    violations = problem.max_violation_batch(points)
    objectives = problem.objective_value_batch(points)
    for i, point in enumerate(points):
        assert np.allclose(values[i], problem.constraint_values(point), rtol=1e-9, atol=1e-12)
        assert np.allclose(residuals[i], problem.residuals(point), rtol=1e-9, atol=1e-12)
        assert np.isclose(violations[i], problem.max_violation(point), rtol=1e-9, atol=1e-12)
        assert np.isclose(objectives[i], problem.objective_value(point), rtol=1e-9, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(systems, batches, rhos)
def test_batched_penalty_and_gradients_match_per_point(system, batch, rho):
    problem = CompiledProblem(system)
    points = _points(problem, batch)
    # Per-member rho: distinct multiples exercise the (k,) broadcast path.
    rho_members = rho * (1.0 + np.arange(points.shape[0], dtype=float))
    penalties = problem.penalty_batch(points, rho_members)
    gradients = problem.penalty_gradient_batch(points, rho_members)
    objective_gradients = problem.objective_gradient_batch(points)
    for i, point in enumerate(points):
        assert np.isclose(
            penalties[i], problem.penalty(point, rho_members[i], 1.0), rtol=1e-9, atol=1e-9
        )
        assert np.allclose(
            gradients[i],
            problem.penalty_gradient(point, rho_members[i], 1.0),
            rtol=1e-8,
            atol=1e-9,
        )
        assert np.allclose(
            objective_gradients[i], problem.objective_gradient(point), rtol=1e-9, atol=1e-12
        )


#: Relative tolerance of the CSR Jacobian against the dense reference.
JACOBIAN_RTOL = 1e-12


def _dense_jacobian(problem, point):
    """Reference residual Jacobian: one plain loop per triplet, inactive rows zeroed."""
    polynomials = [constraint.polynomial for constraint in problem.system.constraints]
    triplets = lower_quadratic(polynomials, problem.index)
    reference = np.zeros((problem.row_count, problem.dimension))
    for row, col, value in zip(
        triplets.linear_rows, triplets.linear_cols, triplets.linear_values
    ):
        reference[row, col] += value
    for row, left, right, value in zip(
        triplets.quad_rows, triplets.quad_left, triplets.quad_right, triplets.quad_values
    ):
        reference[row, left] += value * point[right]
        reference[row, right] += value * point[left]
    values = problem.constraint_values(point)
    for row in range(problem.row_count):
        if problem.nonneg_mask[row] and values[row] >= 0.0:
            reference[row] = 0.0
        if problem.positive_mask[row] and values[row] >= problem.strict_margin:
            reference[row] = 0.0
    return reference


def _assert_product_close(product, matrix, vector):
    """``product == matrix @ vector`` up to JACOBIAN_RTOL of the summands' magnitude."""
    expected = matrix @ vector
    bound = JACOBIAN_RTOL * (np.abs(matrix) @ np.abs(vector))
    assert np.all(np.abs(product - expected) <= bound)


@settings(max_examples=100, deadline=None)
@given(systems, batches)
def test_batched_jacobian_matches_per_point_jacobian(system, batch):
    problem = CompiledProblem(system)
    points = _points(problem, batch)
    jacobian = problem.residual_jacobian_batch(points)
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal(points.shape)
    weights = rng.standard_normal((points.shape[0], problem.row_count))
    jv = jacobian.matvec(vectors)
    jtw = jacobian.rmatvec(weights)
    for i, point in enumerate(points):
        reference = _dense_jacobian(problem, point)
        assert np.allclose(
            problem.residual_jacobian(point).toarray(),
            reference,
            rtol=JACOBIAN_RTOL,
            atol=JACOBIAN_RTOL,
        )
        _assert_product_close(jv[i], reference, vectors[i])
        _assert_product_close(jtw[i], reference.T, weights[i])


@settings(max_examples=60, deadline=None)
@given(systems, batches, rhos)
def test_lockstep_rows_are_bit_identical_to_wide_batches(system, batch, rho):
    """Row ``i`` of a width-``k`` kernel call equals the same row alone, bitwise."""
    problem = CompiledProblem(system)
    points = _points(problem, batch)
    rho_members = rho * (1.0 + np.arange(points.shape[0], dtype=float))
    values = problem.constraint_values_batch(points)
    residuals = problem.residuals_batch(points)
    # Each kernel on its own: inside the penalty, the large residual term
    # absorbs a last-bit difference of the objective.
    objectives = problem.objective_value_batch(points)
    objective_gradients = problem.objective_gradient_batch(points)
    violations = problem.max_violation_batch(points)
    active = problem.active_rows_batch(points)
    penalties = problem.penalty_batch(points, rho_members)
    gradients = problem.penalty_gradient_batch(points, rho_members)
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal(points.shape)
    weights = rng.standard_normal((points.shape[0], problem.row_count))
    jacobian = problem.residual_jacobian_batch(points)
    jv = jacobian.matvec(vectors)
    jtw = jacobian.rmatvec(weights)
    # Only the live members are assembled; the others' products are zero.
    live = np.arange(points.shape[0]) % 2 == 0
    partial = problem.residual_jacobian_batch(points, live)
    assert np.array_equal(partial.matvec(vectors)[live], jv[live])
    assert np.array_equal(partial.rmatvec(weights)[live], jtw[live])
    assert not partial.matvec(vectors)[~live].any()
    assert not partial.rmatvec(weights)[~live].any()
    for i in range(points.shape[0]):
        row = points[i : i + 1]
        alone = problem.residual_jacobian_batch(row)
        assert np.array_equal(jv[i], alone.matvec(vectors[i : i + 1])[0])
        assert np.array_equal(jtw[i], alone.rmatvec(weights[i : i + 1])[0])
        assert np.array_equal(values[i], problem.constraint_values_batch(row)[0])
        assert np.array_equal(residuals[i], problem.residuals_batch(row)[0])
        assert np.array_equal(objectives[i], problem.objective_value_batch(row)[0])
        assert np.array_equal(objective_gradients[i], problem.objective_gradient_batch(row)[0])
        assert np.array_equal(violations[i], problem.max_violation_batch(row)[0])
        assert np.array_equal(active[i], problem.active_rows_batch(row)[0])
        assert np.array_equal(
            penalties[i], problem.penalty_batch(row, rho_members[i : i + 1])[0]
        )
        assert np.array_equal(
            gradients[i],
            problem.penalty_gradient_batch(row, rho_members[i : i + 1])[0],
        )


def test_objective_rows_are_bit_identical_to_wide_batches():
    """The lockstep guarantee on a wide objective at Gaussian points.

    A fixed witness beside the property above: at points like these BLAS
    gemv (``points @ vector``) can round a row of the linear objective
    differently with the batch's height, which lets a solver's
    ``batch="on"`` and ``"rows"`` answers drift apart.
    """
    rng = np.random.default_rng(0)
    names = [f"$s_a_0_0_{index}" for index in range(12)]
    system = QuadraticSystem()
    system.add_nonnegative(Polynomial({Monomial({names[0]: 1}): Fraction(1)}))
    system.objective = Polynomial(
        {Monomial({name: 1}): Fraction(int(rng.integers(-500, 500)), 97) for name in names}
    )
    problem = CompiledProblem(system)
    points = rng.standard_normal((5, problem.dimension))
    values = problem.objective_value_batch(points)
    for i in range(points.shape[0]):
        assert values[i] == problem.objective_value_batch(points[i : i + 1])[0]


def _fingerprint(result):
    return (result.assignment, result.status, result.max_violation, result.restarts_used)


@settings(max_examples=10, deadline=None)
@given(systems, st.integers(min_value=0, max_value=2 ** 16))
def test_same_seed_batched_and_replay_fingerprints_match(system, seed):
    """``batch="on"`` equals the one-member-at-a-time replay, solver by solver."""
    for make in (
        lambda options: PenaltyQCLPSolver(options),
        lambda options: GaussNewtonSolver(options),
        lambda options: AlternatingSolver(options, sweeps=2),
        lambda options: PortfolioSolver(options, strategies=("qclp",)),
    ):
        fingerprints = []
        for mode in ("on", "rows"):
            options = SolverOptions(
                restarts=3, max_iterations=25, time_limit=None, seed=seed, batch=mode
            )
            fingerprints.append(_fingerprint(make(options).solve(system)))
        assert fingerprints[0] == fingerprints[1]
