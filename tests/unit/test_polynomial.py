"""Unit tests for repro.polynomial.polynomial."""

from fractions import Fraction

import pytest

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial


def x():
    return Polynomial.variable("x")


def y():
    return Polynomial.variable("y")


def test_zero_and_one():
    assert Polynomial.zero().is_zero()
    assert Polynomial.one().is_constant()
    assert Polynomial.one().constant_value() == 1


def test_constant_construction():
    assert Polynomial.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert Polynomial.constant(0).is_zero()


def test_addition_and_subtraction():
    p = x() + y()
    q = p - y()
    assert q == x()
    assert (p - p).is_zero()


def test_scalar_coercion_in_arithmetic():
    assert x() + 1 == x() + Polynomial.one()
    assert 2 * x() == x() + x()
    assert 1 - x() == Polynomial.one() - x()


def test_multiplication_expands():
    p = (x() + y()) * (x() - y())
    assert p == x() * x() - y() * y()


def test_power():
    p = (x() + 1) ** 3
    assert p.coefficient(Monomial({"x": 2})) == 3
    assert p.coefficient(Monomial.one()) == 1
    assert (x() ** 0) == Polynomial.one()


def test_power_negative_rejected():
    with pytest.raises(PolynomialError):
        x() ** -2


def test_division_by_constant():
    assert (2 * x()) / 2 == x()
    with pytest.raises(PolynomialError):
        x() / 0


def test_degree():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.one().degree() == 0
    assert (x() * x() * y() + x()).degree() == 3
    assert (x() * x() + y()).degree_in("x") == 2


def test_coefficient_lookup():
    p = 3 * x() * y() + 2
    assert p.coefficient(Monomial({"x": 1, "y": 1})) == 3
    assert p.coefficient(Monomial({"x": 2})) == 0
    assert p.constant_term() == 2


def test_variables():
    assert (x() * y() + 1).variables() == frozenset({"x", "y"})
    assert Polynomial.constant(5).variables() == frozenset()


def test_constant_value_of_non_constant_raises():
    with pytest.raises(PolynomialError):
        (x() + 1).constant_value()


def test_evaluate_exact():
    p = x() * x() + 2 * y() - 1
    assert p.evaluate({"x": Fraction(1, 2), "y": 3}) == Fraction(1, 4) + 6 - 1


def test_evaluate_float():
    p = x() * y() + 1
    assert p.evaluate_float({"x": 2.0, "y": 3.0}) == pytest.approx(7.0)


def test_evaluate_missing_variable_raises():
    with pytest.raises(PolynomialError):
        (x() + y()).evaluate({"x": 1})


def test_substitute_single():
    p = x() * x() + y()
    substituted = p.substitute({"x": y() + 1})
    assert substituted == (y() + 1) * (y() + 1) + y()


def test_substitute_is_simultaneous():
    p = x() + y()
    swapped = p.substitute({"x": y(), "y": x()})
    assert swapped == p  # symmetric, but checks no sequential capture
    p2 = x() - y()
    assert p2.substitute({"x": y(), "y": x()}) == y() - x()


def test_substitute_empty_mapping_is_identity():
    p = x() * y() + 3
    assert p.substitute({}) is p


def test_rename():
    p = x() * x() + x() * y()
    renamed = p.rename({"x": "z"})
    assert renamed == Polynomial.variable("z") ** 2 + Polynomial.variable("z") * y()


def test_partial_derivative():
    p = x() ** 3 + 2 * x() * y() + 5
    assert p.partial_derivative("x") == 3 * x() ** 2 + 2 * y()
    assert p.partial_derivative("z").is_zero()


def test_restrict_to():
    p = x() * y() + x() + y()
    assert p.restrict_to(["x"]) == x()


def test_leading_term():
    p = x() * x() + 3 * y()
    monomial, coefficient = p.leading_term()
    assert monomial == Monomial({"x": 2})
    assert coefficient == 1
    with pytest.raises(PolynomialError):
        Polynomial.zero().leading_term()


def test_equality_with_scalars():
    assert Polynomial.constant(4) == 4
    assert Polynomial.zero() == 0
    assert x() != 0


def test_str_rendering():
    assert str(Polynomial.zero()) == "0"
    assert str(x() - y()) in ("x - y", "-y + x")
    assert "1/2" in str(Polynomial.constant(Fraction(1, 2)))


def test_float_coefficients_become_exact_fractions():
    p = Polynomial.constant(0.5) * x()
    assert p.coefficient(Monomial({"x": 1})) == Fraction(1, 2)


def test_scale():
    assert (x() + 1).scale(3) == 3 * x() + 3


def test_len_counts_terms():
    assert len(Polynomial.zero()) == 0
    assert len(x() * y() + x() + 1) == 3


def test_boolean_coefficients_are_rejected():
    # Regression: bool is a subclass of both int and numbers.Rational, so it
    # must be rejected *before* any numeric branch coerces it to 0/1.
    for flag in (True, False):
        with pytest.raises(PolynomialError):
            Polynomial({Monomial.one(): flag})
        with pytest.raises(PolynomialError):
            Polynomial.constant(flag)
        with pytest.raises(PolynomialError):
            x().scale(flag)
        with pytest.raises(PolynomialError):
            x() / flag
    with pytest.raises(PolynomialError):
        (x() + 1).evaluate({"x": True})


def test_pickle_round_trip_preserves_interning():
    import pickle

    p = x() * y() + Fraction(1, 3) * x() + 7
    restored = pickle.loads(pickle.dumps(p))
    assert restored == p
    monomial = Monomial({"x": 2, "y": 1})
    restored_monomial = pickle.loads(pickle.dumps(monomial))
    assert restored_monomial is monomial
