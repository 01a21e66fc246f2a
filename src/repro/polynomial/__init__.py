"""Exact multivariate polynomial arithmetic over the rationals.

This package is the algebraic substrate of the whole library: program
assignments, guards, pre/post-conditions, invariant templates and the
Positivstellensatz certificates are all represented as
:class:`~repro.polynomial.polynomial.Polynomial` values.

Design notes
------------
* Coefficients are :class:`fractions.Fraction` so the whole Steps 1-3
  reduction of the paper is exact; floats only appear inside the numeric
  Step-4 solvers.
* Template unknowns (the paper's *s-*, *t-*, *l-* and *eps-variables*) are
  ordinary variables living in the same ring as program variables.  Step 3's
  "equate coefficients of corresponding monomials" runs on the flat arrays of
  :mod:`repro.polynomial.compiled`, not on ``Polynomial`` values.
"""

from repro.polynomial.compiled import QuadraticTriplets, lower_quadratic
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import (
    MonomialOrder,
    count_monomials_up_to_degree,
    grevlex_key,
    grlex_key,
    lex_key,
    monomials_of_degree,
    monomials_up_to_degree,
)
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial
from repro.polynomial.sos import sos_basis

__all__ = [
    "Monomial",
    "MonomialOrder",
    "Polynomial",
    "QuadraticTriplets",
    "lower_quadratic",
    "sos_basis",
    "parse_polynomial",
    "lex_key",
    "grlex_key",
    "grevlex_key",
    "monomials_up_to_degree",
    "monomials_of_degree",
    "count_monomials_up_to_degree",
]
