"""Unit tests for repro.invariants.putinar, handelman and quadratic_system (Step 3)."""

from fractions import Fraction

import pytest

from repro.certify.lift import exact_violations
from repro.errors import SynthesisError
from repro.invariants.constraints import ConstraintPair
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.quadratic_system import (
    ConstraintKind,
    QuadraticConstraint,
    QuadraticSystem,
    VariableRole,
    classify_unknown,
)
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial


def simple_pair():
    """x >= 0  ==>  s*x + 1 > 0 with one template unknown."""
    return ConstraintPair(
        name="pair",
        assumptions=(parse_polynomial("x"),),
        conclusion=parse_polynomial("$s_f_1_0_0") * parse_polynomial("x") + 1,
        program_variables=("x",),
    )


def test_putinar_constraints_are_quadratic():
    system = putinar_translate([simple_pair()], upsilon=2)
    assert system.size > 0
    for constraint in system:
        assert constraint.polynomial.degree() <= 2


def test_putinar_introduces_all_variable_roles():
    system = putinar_translate([simple_pair()], upsilon=2)
    roles = system.variables_by_role()
    assert roles[VariableRole.TEMPLATE]
    assert roles[VariableRole.MULTIPLIER]
    assert roles[VariableRole.CHOLESKY]
    assert roles[VariableRole.WITNESS]


def test_putinar_witness_optional():
    with_witness = putinar_translate([simple_pair()], upsilon=2, with_witness=True)
    without = putinar_translate([simple_pair()], upsilon=2, with_witness=False)
    assert without.size < with_witness.size
    assert not without.variables_by_role()[VariableRole.WITNESS]


def test_putinar_without_sos_encoding_is_smaller():
    full = putinar_translate([simple_pair()], upsilon=2)
    relaxed = putinar_translate([simple_pair()], upsilon=2, encode_sos=False)
    assert relaxed.size < full.size
    assert not relaxed.variables_by_role()[VariableRole.CHOLESKY]


def test_putinar_size_grows_with_upsilon():
    small = putinar_translate([simple_pair()], upsilon=1)
    large = putinar_translate([simple_pair()], upsilon=4)
    assert large.size > small.size


def test_putinar_objective_attached():
    objective = parse_polynomial("$s_f_1_0_0") ** 2
    system = putinar_translate([simple_pair()], upsilon=2, objective=objective)
    assert system.objective == objective


def test_putinar_coefficient_matching_on_known_certificate():
    """For the concrete pair x >= 0 ==> x + 1 > 0, the values eps=1, h_0=0, h_1=1
    satisfy every generated equality (the certificate x + 1 = 1 + 0 + 1*x)."""
    pair = ConstraintPair(
        name="concrete",
        assumptions=(parse_polynomial("x"),),
        conclusion=parse_polynomial("x + 1"),
        program_variables=("x",),
    )
    system = putinar_translate([pair], upsilon=2)
    # Unmentioned unknowns are 0.  h_1 must equal the constant 1: its
    # t-coefficient of the monomial 1 is t_c0_1_0, and its Gram matrix is
    # L = diag(1, 0) so the (0,0) Cholesky entry is 1.
    assignment = {"$eps_c0": Fraction(1), "$t_c0_1_0": Fraction(1), "$l_c0_1_0_0": Fraction(1)}
    assert exact_violations(system, assignment) == []


def test_handelman_translation_no_gram_matrices():
    system = handelman_translate([simple_pair()], max_factors=2)
    roles = system.variables_by_role()
    assert not roles[VariableRole.CHOLESKY]
    assert roles[VariableRole.MULTIPLIER]
    for constraint in system:
        assert constraint.polynomial.degree() <= 2


def test_handelman_smaller_than_putinar():
    pair = simple_pair()
    assert handelman_translate([pair]).size < putinar_translate([pair], upsilon=2).size


# -- QuadraticSystem ------------------------------------------------------------------


def test_quadratic_constraint_rejects_cubic():
    with pytest.raises(SynthesisError):
        QuadraticConstraint(polynomial=parse_polynomial("x*y*z"), kind=ConstraintKind.EQUALITY)


def test_system_add_helpers_skip_trivial_and_detect_inconsistent():
    system = QuadraticSystem()
    system.add_equality(Polynomial.zero())
    assert system.size == 0
    with pytest.raises(SynthesisError):
        system.add_equality(Polynomial.constant(3), origin="bad")


def test_counts_and_variables():
    system = QuadraticSystem()
    system.add_equality(parse_polynomial("$s_f_1_0_0 - $t_c0_0_0"))
    system.add_nonnegative(parse_polynomial("$l_c0_0_0_0"))
    counts = system.counts()
    assert counts["constraints"] == 2
    assert counts["equalities"] == 1
    assert counts["inequalities"] == 1
    assert counts["template_variables"] == 1
    assert counts["cholesky_variables"] == 1


def test_classify_unknown():
    assert classify_unknown("$s_f_1_0_0") is VariableRole.TEMPLATE
    assert classify_unknown("$t_c0_1_2") is VariableRole.MULTIPLIER
    assert classify_unknown("$l_c0_1_0_0") is VariableRole.CHOLESKY
    assert classify_unknown("$eps_c0") is VariableRole.WITNESS
    assert classify_unknown("x") is VariableRole.OTHER


def test_pendulum_translation_interns_fewer_monomials_than_its_label_basis():
    """Regression: ``coeff[...]`` origin labels come from grlex ranks.

    Labelling the equalities once enumerated the whole label basis — every
    monomial of degree <= 9 over inverted-pendulum's 12 variables, 293,930
    ``Monomial`` objects interned for the life of the process — to print a
    few thousand of them.
    """
    from repro.polynomial.monomial import Monomial
    from repro.polynomial.ordering import count_monomials_up_to_degree
    from repro.reduction.stages import (
        run_frontend,
        run_pairs,
        run_preconditions,
        run_templates,
        run_translation,
    )
    from repro.suite.registry import get_benchmark

    benchmark = get_benchmark("inverted-pendulum")
    options = benchmark.options(upsilon=1)
    frontend = run_frontend(benchmark.source)
    precondition = run_preconditions(frontend, benchmark.precondition, options)
    pairs = run_pairs(frontend, precondition, run_templates(frontend, options))
    basis_size = count_monomials_up_to_degree(12, 9)
    assert basis_size == 293_930
    before = Monomial.interned_count()
    system = run_translation(pairs, options)
    assert system.size > 0
    assert Monomial.interned_count() - before < basis_size
