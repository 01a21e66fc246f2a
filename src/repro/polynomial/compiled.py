"""Compiled numeric views of polynomials: flat coefficient/exponent arrays.

The exact :class:`~repro.polynomial.polynomial.Polynomial` representation is
what Steps 1-2 need, but Step 3 matches coefficients over thousands of terms
and the Step-4 numeric solvers evaluate the result many times over float
vectors.  This module lowers polynomials into numpy arrays so that both loops
run on integers and floats, never on ``Fraction``:

* :class:`CoefficientPool` / :func:`lower_mixed` / :func:`lower_gram_triples` —
  the exact Step-3 lowering: mixed template polynomials become flat exponent
  matrices plus unknown-id and coefficient-pool-id columns, and the Gram/
  Cholesky SOS expansion becomes index triples, so the translation kernel in
  :mod:`repro.invariants.translation` works on integers only while the pool
  keeps the :class:`~fractions.Fraction` coefficients exact.  The kernel's
  output stays in arrays: the
  :class:`~repro.invariants.quadratic_system.RowArrays` Step 4 compiles.
* :class:`QuadraticTriplets` / :func:`lower_quadratic` — degree-<=2
  polynomials split into constants, linear triplets and bilinear triplets, the
  form from which :class:`~repro.solvers.problem.CompiledProblem` builds its
  sparse residual, Jacobian and penalty kernels.  ``CompiledProblem`` builds
  its triplets from the row arrays; :func:`lower_quadratic` is the
  per-polynomial reference the tests compare them with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, MutableMapping, Sequence

import numpy as np

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial


def exponent_rows(
    monomials: Iterable[Monomial], index: Mapping[str, int], width: int
) -> np.ndarray:
    """Dense ``(len(monomials), width)`` exponent matrix over a variable index."""
    rows = []
    for monomial in monomials:
        row = [0] * width
        for var, exp in monomial.items:
            try:
                row[index[var]] = exp
            except KeyError as exc:
                raise PolynomialError(
                    f"variable {var!r} is not part of the compilation variable order"
                ) from exc
        rows.append(row)
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), width)



# Reserved slots shared by every pool: the coefficients that translation
# synthesises itself (the -1 of the moved right-hand side and the -2 of the
# Gram expansion) get fixed ids so kernels can emit them without a pool lookup.
POOL_PLUS_ONE = 0
POOL_MINUS_ONE = 1
POOL_PLUS_TWO = 2
POOL_MINUS_TWO = 3
_POOL_RESERVED = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))


class CoefficientPool:
    """Deduplicated exact coefficients addressed by integer id.

    Flat kernel arrays carry pool ids instead of numeric values, so index
    arithmetic never touches a :class:`~fractions.Fraction` while assembly can
    recover the exact coefficient of every emitted term.
    """

    __slots__ = ("_values", "_ids")

    def __init__(self) -> None:
        self._values: list[Fraction] = list(_POOL_RESERVED)
        self._ids: dict[Fraction, int] = {value: i for i, value in enumerate(self._values)}

    def add(self, value: Fraction) -> int:
        """The id of ``value``, interning it on first use."""
        existing = self._ids.get(value)
        if existing is not None:
            return existing
        slot = len(self._values)
        self._values.append(value)
        self._ids[value] = slot
        return slot

    def values(self) -> tuple[Fraction, ...]:
        """The id -> coefficient table (reserved slots first)."""
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)


@dataclass(frozen=True)
class MixedTermArrays:
    """A Step-2 template polynomial lowered to flat per-term arrays.

    Each term of a mixed polynomial (program variables times at most one
    template unknown) becomes one row: the program-part exponent vector, the
    unknown id (``-1`` when the term is unknown-free) and the pool id of its
    exact coefficient.  ``max_degree`` is the largest program-part degree.
    """

    exponents: np.ndarray  # (terms, program_variables), int64
    unknown_ids: np.ndarray  # (terms,), int64, -1 for unknown-free terms
    coefficient_ids: np.ndarray  # (terms,), int64 into the owning CoefficientPool
    max_degree: int


def lower_mixed(
    polynomial: Polynomial,
    variables: Sequence[str],
    unknown_index: MutableMapping[str, int],
    pool: CoefficientPool,
    negate: bool = False,
) -> MixedTermArrays:
    """Lower a template polynomial that is linear in its unknowns.

    ``unknown_index`` assigns ids to unknown names on first occurrence and is
    shared across the polynomials of one constraint pair, so conclusion and
    assumptions agree on ids.  ``negate`` bakes the sign of moved right-hand
    sides into the pooled coefficients.
    """
    index = {name: position for position, name in enumerate(variables)}
    width = len(variables)
    rows: list[list[int]] = []
    unknown_ids: list[int] = []
    coefficient_ids: list[int] = []
    for monomial, coefficient in polynomial.items():
        # One pass per term: program variables fill the exponent row, and
        # what is left must be a single unknown to the first power.
        row = [0] * width
        unknown = None
        for name, exponent in monomial.items:
            position = index.get(name)
            if position is not None:
                row[position] = exponent
            elif unknown is None and exponent == 1:
                unknown = name
            else:
                raise PolynomialError(
                    f"term {monomial} is not linear in the template unknowns; "
                    "Step 3 requires degree <= 1 unknown parts"
                )
        if unknown is None:
            unknown_ids.append(-1)
        else:
            slot = unknown_index.get(unknown)
            if slot is None:
                slot = len(unknown_index)
                unknown_index[unknown] = slot
            unknown_ids.append(slot)
        rows.append(row)
        coefficient_ids.append(pool.add(-coefficient if negate else coefficient))
    exponents = np.asarray(rows, dtype=np.int64).reshape(len(rows), width)
    max_degree = int(exponents.sum(axis=1).max()) if exponents.size else 0
    return MixedTermArrays(
        exponents=exponents,
        unknown_ids=np.asarray(unknown_ids, dtype=np.int64),
        coefficient_ids=np.asarray(coefficient_ids, dtype=np.int64),
        max_degree=max_degree,
    )


def lower_gram_triples(dimension: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index triples of the Cholesky expansion ``sum_c (sum_{r>=c} l_{r,c} y_r)^2``.

    Returns ``(rows_a, rows_b, cols, doubled)`` over all ``c <= r1 <= r2 <
    dimension``: the expansion contributes ``l_{r1,c} * l_{r2,c} * y_{r1} *
    y_{r2}`` with coefficient 2 off the diagonal (``doubled`` marks ``r1 <
    r2``) and 1 on it.  Lower-triangle entries are addressed by the row-major
    triangular index ``r * (r + 1) // 2 + c`` used by the multiplier naming.
    """
    rows_a: list[int] = []
    rows_b: list[int] = []
    cols: list[int] = []
    for col in range(dimension):
        for row_a in range(col, dimension):
            for row_b in range(row_a, dimension):
                cols.append(col)
                rows_a.append(row_a)
                rows_b.append(row_b)
    rows_a_arr = np.asarray(rows_a, dtype=np.int64)
    rows_b_arr = np.asarray(rows_b, dtype=np.int64)
    return (
        rows_a_arr,
        rows_b_arr,
        np.asarray(cols, dtype=np.int64),
        (rows_a_arr != rows_b_arr),
    )


@dataclass(frozen=True)
class QuadraticTriplets:
    """Degree-<=2 polynomials split into constant, linear and bilinear parts.

    The linear part is ``(rows, cols, values)`` triplets (one per degree-1
    term) and the quadratic part ``(rows, left, right, values)`` triplets (one
    per degree-2 term, with ``left == right`` for squares) — exactly the form
    the sparse-matrix QCLP machinery consumes.
    """

    row_count: int
    constants: np.ndarray
    linear_rows: np.ndarray
    linear_cols: np.ndarray
    linear_values: np.ndarray
    quad_rows: np.ndarray
    quad_left: np.ndarray
    quad_right: np.ndarray
    quad_values: np.ndarray


def lower_quadratic(
    polynomials: Sequence[Polynomial], index: Mapping[str, int]
) -> QuadraticTriplets:
    """Split degree-<=2 polynomials into flat triplet arrays over ``index``."""
    constants = np.zeros(len(polynomials))
    linear_rows: list[int] = []
    linear_cols: list[int] = []
    linear_values: list[float] = []
    quad_rows: list[int] = []
    quad_left: list[int] = []
    quad_right: list[int] = []
    quad_values: list[float] = []

    for row, polynomial in enumerate(polynomials):
        for monomial, coefficient in polynomial.items():
            value = float(coefficient)
            items = monomial.items
            degree = monomial.degree()
            if degree == 0:
                constants[row] += value
            elif degree == 1:
                linear_rows.append(row)
                linear_cols.append(index[items[0][0]])
                linear_values.append(value)
            elif degree == 2:
                quad_rows.append(row)
                if len(items) == 1:
                    column = index[items[0][0]]
                    quad_left.append(column)
                    quad_right.append(column)
                else:
                    quad_left.append(index[items[0][0]])
                    quad_right.append(index[items[1][0]])
                quad_values.append(value)
            else:
                raise PolynomialError(f"polynomial of degree {degree} is not quadratic")

    return QuadraticTriplets(
        row_count=len(polynomials),
        constants=constants,
        linear_rows=np.asarray(linear_rows, dtype=np.int64),
        linear_cols=np.asarray(linear_cols, dtype=np.int64),
        linear_values=np.asarray(linear_values, dtype=np.float64),
        quad_rows=np.asarray(quad_rows, dtype=np.int64),
        quad_left=np.asarray(quad_left, dtype=np.int64),
        quad_right=np.asarray(quad_right, dtype=np.int64),
        quad_values=np.asarray(quad_values, dtype=np.float64),
    )
