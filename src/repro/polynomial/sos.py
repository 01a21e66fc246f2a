"""Sum-of-squares (SOS) machinery: the monomial basis of a Gram matrix.

The paper (Section 3.1, Theorems 3.4 and 3.5) reduces "``h`` is a sum of
squares" to the existence of a symmetric positive-semidefinite Gram matrix
``Q`` with ``h = y^T Q y``, and then to the existence of a lower-triangular
``L`` with non-negative diagonal such that ``Q = L L^T``, over the monomial
basis ``y`` of :func:`sos_basis`.  Step 3 encodes ``h = y^T L L^T y`` with
index triples (:func:`repro.polynomial.compiled.lower_gram_triples`, folded
into the kernel of :mod:`repro.invariants.translation`).  The inverse
direction, from solved l-values back to a Gram matrix, is exact and lives in
:mod:`repro.certify.lift`.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import monomials_up_to_degree


def sos_basis(variables: Sequence[str], max_degree: int) -> list[Monomial]:
    """The monomial basis used for SOS polynomials of degree at most ``max_degree``.

    A sum of squares has even degree; the basis therefore contains all
    monomials of degree at most ``max_degree // 2``.
    """
    if max_degree < 0:
        raise PolynomialError(f"SOS degree bound must be non-negative, got {max_degree}")
    return monomials_up_to_degree(variables, max_degree // 2)
