"""Property tests: the compiled problem IR matches exact system evaluation.

Every Step-4 solver consumes :class:`repro.solvers.problem.CompiledProblem`
instead of the exact :class:`repro.invariants.quadratic_system.QuadraticSystem`;
these tests check, on random quadratic systems and random assignments, that
the lowered numpy evaluation agrees with the exact polynomial semantics —
constraint values, residual/violation conventions, objective value and the
penalty gradient's finite-difference consistency.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.invariants.quadratic_system import (
    ConstraintKind,
    QuadraticConstraint,
    QuadraticSystem,
)
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial
from repro.solvers.problem import CompiledProblem

UNKNOWNS = ["$s_a_0_0_0", "$s_a_0_0_1", "$t_c0_0_0", "$l_f_0_1_1"]

# All monomials of total degree <= 2 over the unknowns (the Step-3 systems
# are quadratic by construction).
_QUADRATIC_MONOMIALS = [Monomial({})]
_QUADRATIC_MONOMIALS += [Monomial({name: 1}) for name in UNKNOWNS]
_QUADRATIC_MONOMIALS += [Monomial({name: 2}) for name in UNKNOWNS]
_QUADRATIC_MONOMIALS += [
    Monomial({left: 1, right: 1})
    for i, left in enumerate(UNKNOWNS)
    for right in UNKNOWNS[i + 1:]
]

coefficients = st.integers(min_value=-6, max_value=6).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)

polynomials = st.dictionaries(
    st.sampled_from(_QUADRATIC_MONOMIALS), coefficients, min_size=1, max_size=4
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


systems = st.builds(
    build_system, st.lists(constraints, min_size=1, max_size=6), polynomials
)

assignments = st.fixed_dictionaries(
    {name: st.integers(min_value=-4, max_value=4).map(float) for name in UNKNOWNS}
)


@settings(max_examples=100, deadline=None)
@given(systems, assignments)
def test_constraint_values_match_exact_evaluation(system, assignment):
    problem = CompiledProblem(system)
    point = problem.vector(assignment)
    values = problem.constraint_values(point)
    for value, constraint in zip(values, system.constraints):
        expected = constraint.polynomial.evaluate_float(assignment)
        assert np.isclose(value, expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(systems, assignments)
def test_objective_matches_exact_evaluation(system, assignment):
    problem = CompiledProblem(system)
    point = problem.vector(assignment)
    expected = system.objective.evaluate_float(assignment)
    assert np.isclose(problem.objective_value(point), expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(systems, assignments)
def test_residual_conventions_match_constraint_kinds(system, assignment):
    margin = 1e-4
    problem = CompiledProblem(system, strict_margin=margin)
    point = problem.vector(assignment)
    residuals = problem.residuals(point)
    for residual, constraint in zip(residuals, system.constraints):
        value = constraint.polynomial.evaluate_float(assignment)
        if constraint.kind is ConstraintKind.EQUALITY:
            expected = value
        elif constraint.kind is ConstraintKind.NONNEGATIVE:
            expected = min(value, 0.0)
        else:  # strict: rewritten as value >= strict_margin
            expected = min(value - margin, 0.0)
        assert np.isclose(residual, expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(systems, assignments)
def test_max_violation_matches_system_on_nonstrict_constraints(system, assignment):
    nonstrict = QuadraticSystem(
        constraints=[
            constraint
            for constraint in system.constraints
            if constraint.kind is not ConstraintKind.POSITIVE
        ],
        objective=system.objective,
    )
    problem = CompiledProblem(nonstrict)
    point = problem.vector(assignment)
    expected = 0.0
    for constraint in nonstrict.constraints:
        value = constraint.polynomial.evaluate_float(assignment)
        if constraint.kind is ConstraintKind.EQUALITY:
            expected = max(expected, abs(value))
        else:
            expected = max(expected, -value)
    assert np.isclose(problem.max_violation(point), expected, rtol=1e-9, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(systems, assignments)
def test_penalty_gradient_matches_finite_difference(system, assignment):
    problem = CompiledProblem(system)
    if problem.dimension == 0:
        return
    point = problem.vector(assignment) + 0.25  # keep away from kinks of min(., 0)
    analytic = problem.penalty_gradient(point, rho=3.0)
    step = 1e-6
    numeric = np.zeros_like(point)
    for i in range(point.size):
        forward, backward = point.copy(), point.copy()
        forward[i] += step
        backward[i] -= step
        numeric[i] = (problem.penalty(forward, 3.0) - problem.penalty(backward, 3.0)) / (2 * step)
    assert np.allclose(analytic, numeric, rtol=2e-3, atol=2e-3)


@settings(max_examples=150, deadline=None)
@given(systems, assignments)
def test_presolved_residuals_equal_the_faithful_ones_at_the_expanded_point(system, assignment):
    """The presolve loses nothing: dropped rows read 0, kept rows read the same.

    ``assignment()`` expands a reduced point onto every unknown, with each
    fixed unknown at 0; the faithful lowering evaluated there must agree
    with the presolved problem row for row, and be exactly 0 on every row
    the presolve dropped.
    """
    faithful = CompiledProblem(system)
    presolved = CompiledProblem.presolved(system)
    point = presolved.vector(assignment)
    expanded = presolved.assignment(point)
    assert list(expanded) == faithful.variables
    fixed = set(faithful.variables) - set(presolved.variables)
    assert all(expanded[name] == 0.0 for name in fixed)

    residuals = faithful.residuals(faithful.vector(expanded))
    assert np.array_equal(residuals[presolved.kept_rows], presolved.residuals(point))
    dropped = np.setdiff1d(np.arange(faithful.row_count), presolved.kept_rows)
    assert np.all(residuals[dropped] == 0.0)
    assert np.isclose(
        faithful.objective_value(faithful.vector(expanded)),
        presolved.objective_value(point),
        rtol=1e-12,
        atol=1e-12,
    )
