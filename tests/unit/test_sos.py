"""Unit tests for repro.polynomial.sos."""

from fractions import Fraction

import pytest

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.sos import gram_matrix_encoding, sos_basis


def test_sos_basis_half_degree():
    assert len(sos_basis(["x", "y"], 2)) == 3  # 1, x, y
    assert len(sos_basis(["x", "y"], 4)) == 6  # up to degree 2
    assert sos_basis(["x"], 0) == [Monomial.one()]


def test_sos_basis_negative_degree_rejected():
    with pytest.raises(PolynomialError):
        sos_basis(["x"], -1)


def test_gram_encoding_dimensions():
    encoding = gram_matrix_encoding(["x", "y"], 2, prefix="$l_test")
    assert encoding.dimension == 3
    assert len(encoding.all_l_names()) == 6  # lower triangle of a 3x3 matrix
    assert len(encoding.diagonal_names) == 3


def test_gram_encoding_polynomial_is_quadratic_in_l():
    encoding = gram_matrix_encoding(["x"], 2, prefix="$l_q")
    for monomial in encoding.polynomial.terms:
        l_degree = sum(exp for var, exp in monomial if var.startswith("$l_q"))
        assert l_degree == 2


def test_gram_encoding_matches_numeric_expansion():
    encoding = gram_matrix_encoding(["x"], 2, prefix="$l_n")
    values = {name: Fraction(0) for name in encoding.all_l_names()}
    # L = [[1, 0], [2, 3]]  ->  Q = L L^T = [[1, 2], [2, 13]] over y = (1, x),
    # so y^T Q y = 1 + 4x + 13x^2.
    values[encoding.l_variable_names[0][0]] = Fraction(1)
    values[encoding.l_variable_names[1][0]] = Fraction(2)
    values[encoding.l_variable_names[1][1]] = Fraction(3)
    substituted = encoding.polynomial.substitute(values)
    assert substituted == parse_polynomial("1 + 4*x + 13*x^2")
