"""Tests of the compiled numeric views in repro.polynomial.compiled."""

import numpy as np
import pytest

from repro.errors import PolynomialError
from repro.polynomial.compiled import lower_quadratic
from repro.polynomial.parse import parse_polynomial


def test_lower_quadratic_reconstructs_values():
    polynomials = [
        parse_polynomial("x^2 + 2*x*y - 3*x + 5"),
        parse_polynomial("y^2 - 1/4"),
        parse_polynomial("7*x"),
    ]
    index = {"x": 0, "y": 1}
    triplets = lower_quadratic(polynomials, index)
    point = np.array([1.5, -2.0])
    values = triplets.constants.copy()
    np.add.at(values, triplets.linear_rows, triplets.linear_values * point[triplets.linear_cols])
    np.add.at(
        values,
        triplets.quad_rows,
        triplets.quad_values * point[triplets.quad_left] * point[triplets.quad_right],
    )
    expected = [p.evaluate_float({"x": 1.5, "y": -2.0}) for p in polynomials]
    assert values == pytest.approx(expected)


def test_lower_quadratic_rejects_cubic_terms():
    with pytest.raises(PolynomialError):
        lower_quadratic([parse_polynomial("x^3")], {"x": 0})
