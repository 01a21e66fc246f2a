"""Unit tests for the SOS basis and the Gram/Cholesky expansion Step 3 encodes."""

from fractions import Fraction

import pytest

from repro.errors import PolynomialError
from repro.polynomial.compiled import lower_gram_triples
from repro.polynomial.monomial import Monomial
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial
from repro.polynomial.sos import sos_basis


def test_sos_basis_half_degree():
    assert len(sos_basis(["x", "y"], 2)) == 3  # 1, x, y
    assert len(sos_basis(["x", "y"], 4)) == 6  # up to degree 2
    assert sos_basis(["x"], 0) == [Monomial.one()]


def test_sos_basis_negative_degree_rejected():
    with pytest.raises(PolynomialError):
        sos_basis(["x"], -1)


def test_gram_encoding_dimensions():
    rows_a, rows_b, cols, doubled = lower_gram_triples(3)
    # A 3x3 lower triangle has 6 entries; the expansion pairs entries of one column.
    assert {(row, col) for row, col in zip(rows_a.tolist(), cols.tolist())} == {
        (row, col) for row in range(3) for col in range(row + 1)
    }
    assert len(cols) == 6 + 3 + 1
    assert (rows_a <= rows_b).all() and (cols <= rows_a).all()
    assert doubled.tolist() == (rows_a != rows_b).tolist()


def test_gram_encoding_matches_numeric_expansion():
    # L = [[1, 0], [2, 3]]  ->  Q = L L^T = [[1, 2], [2, 13]] over y = (1, x),
    # so y^T Q y = 1 + 4x + 13x^2.
    lower = {(0, 0): Fraction(1), (1, 0): Fraction(2), (1, 1): Fraction(3)}
    basis = [Polynomial.from_monomial(monomial) for monomial in sos_basis(["x"], 2)]
    expansion = Polynomial.zero()
    for row_a, row_b, col, doubled in zip(*(array.tolist() for array in lower_gram_triples(2))):
        coefficient = (2 if doubled else 1) * lower[row_a, col] * lower[row_b, col]
        expansion = expansion + basis[row_a] * basis[row_b] * coefficient
    assert expansion == parse_polynomial("1 + 4*x + 13*x^2")
