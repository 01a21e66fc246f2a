"""Monomial orders and monomial enumeration.

The paper's Step 1 and Step 3 both need "the set of all monomials of degree at
most d over a variable set"; :func:`monomials_up_to_degree` provides that in a
deterministic order.  The order functions are standard term orders used for
deterministic printing and for the Groebner-free normal forms in tests.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from repro.polynomial.monomial import Monomial


class MonomialOrder(str, Enum):
    """Supported term orders."""

    LEX = "lex"
    GRLEX = "grlex"
    GREVLEX = "grevlex"


def _exponent_vector(monomial: Monomial, variables: Sequence[str]) -> tuple[int, ...]:
    return tuple(monomial.exponent(var) for var in variables)


def lex_key(monomial: Monomial, variables: Sequence[str]) -> tuple:
    """Lexicographic key with respect to the given variable order."""
    return _exponent_vector(monomial, variables)


def grlex_key(monomial: Monomial, variables: Sequence[str]) -> tuple:
    """Graded lexicographic key: total degree first, then lex."""
    return (monomial.degree(), _exponent_vector(monomial, variables))


def grevlex_key(monomial: Monomial, variables: Sequence[str]) -> tuple:
    """Graded reverse lexicographic key."""
    exponents = _exponent_vector(monomial, variables)
    return (monomial.degree(), tuple(-e for e in reversed(exponents)))


_KEY_FUNCTIONS = {
    MonomialOrder.LEX: lex_key,
    MonomialOrder.GRLEX: grlex_key,
    MonomialOrder.GREVLEX: grevlex_key,
}


def order_key(order: MonomialOrder, monomial: Monomial, variables: Sequence[str]) -> tuple:
    """Key of ``monomial`` under ``order`` with the given variable sequence."""
    return _KEY_FUNCTIONS[order](monomial, variables)


def sort_monomials(
    monomials: Iterable[Monomial],
    variables: Sequence[str],
    order: MonomialOrder = MonomialOrder.GRLEX,
    reverse: bool = False,
) -> list[Monomial]:
    """Sort monomials under the given term order (ascending by default)."""
    return sorted(monomials, key=lambda m: order_key(order, m, variables), reverse=reverse)


def monomials_up_to_degree(variables: Sequence[str], degree: int) -> list[Monomial]:
    """All monomials over ``variables`` of total degree at most ``degree``.

    The result is sorted in graded lexicographic order and always contains the
    constant monomial ``1`` first.  This is the paper's set ``M^f_d`` (Step 1)
    and ``M_Upsilon`` (Step 3).
    """
    if degree < 0:
        return []
    ordered_vars = list(variables)
    current: list[Monomial] = [Monomial.one()]
    result: list[Monomial] = [Monomial.one()]
    for _ in range(degree):
        next_layer: list[Monomial] = []
        seen: set[Monomial] = set()
        for monomial in current:
            for var in ordered_vars:
                candidate = monomial * Monomial.of(var)
                if candidate not in seen:
                    seen.add(candidate)
                    next_layer.append(candidate)
        result.extend(next_layer)
        current = next_layer
    unique = list(dict.fromkeys(result))
    return sort_monomials(unique, ordered_vars, MonomialOrder.GRLEX)


def monomials_of_degree(variables: Sequence[str], degree: int) -> list[Monomial]:
    """All monomials over ``variables`` of total degree exactly ``degree``."""
    return [m for m in monomials_up_to_degree(variables, degree) if m.degree() == degree]


def pascal_table(max_free: int, max_sum: int) -> np.ndarray:
    """Table ``T[m, s] = C(s + m, m)``: monomials over ``m`` variables of degree <= ``s``.

    Built by the hockey-stick recurrence ``T[m, s] = sum_{t<=s} T[m-1, t]`` so a
    single cumulative sum per row fills the whole table.
    """
    table = np.ones((max_free + 1, max_sum + 1), dtype=np.int64)
    for free in range(1, max_free + 1):
        np.cumsum(table[free - 1], out=table[free])
    return table


def grlex_ranks(exponents: np.ndarray) -> np.ndarray:
    """Vectorised rank of exponent rows in the graded lexicographic order.

    ``exponents`` is an ``(n, v)`` integer matrix; the result is the position of
    each row in :func:`monomials_up_to_degree` for any degree bound covering it
    (ranks are independent of the bound because grlex enumerates degree blocks
    in increasing order).  Rank 0 is the constant monomial.

    The closed form counts, per variable position, the same-degree monomials
    that are lex-smaller: with ``s`` exponent mass remaining at position ``i``
    and ``free = v - 1 - i`` positions after it, choosing a smaller ``i``-th
    exponent ``t < e_i`` leaves ``s - t`` mass for the free positions, and the
    hockey-stick sum of those compositions telescopes to
    ``C(s + free, free) - C(s - e_i + free, free)``.
    """
    exponents = np.asarray(exponents, dtype=np.int64)
    if exponents.ndim != 2:
        raise ValueError("grlex_ranks expects an (n, v) exponent matrix")
    count, width = exponents.shape
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.int64)
    degrees = exponents.sum(axis=1)
    max_degree = int(degrees.max())
    table = pascal_table(width, max_degree)
    # Monomials of strictly smaller degree: C(d - 1 + v, v).
    ranks = np.where(degrees > 0, table[width][np.maximum(degrees - 1, 0)], 0)
    remaining = degrees.copy()
    for position in range(width - 1):
        free = width - 1 - position
        row = table[free]
        exps = exponents[:, position]
        ranks = ranks + row[remaining] - row[remaining - exps]
        remaining = remaining - exps
    return ranks


def grlex_exponents(ranks: np.ndarray, width: int) -> np.ndarray:
    """Vectorised inverse of :func:`grlex_ranks`: the ``(n, width)`` exponent rows.

    Row ``i`` is the monomial at position ``ranks[i]`` of
    :func:`monomials_up_to_degree` over ``width`` variables.  The degree is
    the first Pascal block whose cumulative count passes the rank; each
    variable position then undoes one term of the closed form in
    :func:`grlex_ranks` with one ``searchsorted`` in the Pascal row shared by
    every rank: the exponent ``e`` is the largest one whose count
    ``row[s] - row[s - e]`` of lex-smaller monomials still fits in the
    offset left inside the degree block.
    """
    ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
    exponents = np.zeros((ranks.size, width), dtype=np.int64)
    if ranks.size == 0:
        return exponents
    top = int(ranks.max())
    if ranks.min() < 0 or (width == 0 and top > 0):
        raise ValueError("grlex ranks must index monomials over the given width")
    if width == 0:
        return exponents
    max_degree = 0
    while count_monomials_up_to_degree(width, max_degree) <= top:
        max_degree += 1
    table = pascal_table(width, max_degree)
    degrees = np.searchsorted(table[width], ranks, side="right")
    offsets = ranks - np.where(degrees > 0, table[width][np.maximum(degrees - 1, 0)], 0)
    remaining = degrees
    for position in range(width - 1):
        row = table[width - 1 - position]
        # Smallest j = s - e with row[j] >= row[s] - offset (row is strictly increasing).
        rest = np.searchsorted(row, row[remaining] - offsets, side="left")
        exponents[:, position] = remaining - rest
        offsets = offsets - (row[remaining] - row[rest])
        remaining = rest
    exponents[:, width - 1] = remaining
    return exponents


def grlex_labels(ranks: np.ndarray, variables: Sequence[str]) -> list[str]:
    """``str(monomial)`` of each grlex-ranked monomial, without building any monomial.

    Matches :meth:`Monomial.__str__`: factors in variable-name order, ``x^e``
    for exponents above one, and ``1`` for the constant monomial.
    """
    names = sorted(variables)
    position = {name: column for column, name in enumerate(variables)}
    rows = grlex_exponents(ranks, len(names))[:, [position[name] for name in names]]
    labels = []
    for row in rows.tolist():
        factors = [name if exp == 1 else f"{name}^{exp}" for name, exp in zip(names, row) if exp]
        labels.append("*".join(factors) or "1")
    return labels


def count_monomials_up_to_degree(num_variables: int, degree: int) -> int:
    """Number of monomials of degree <= ``degree`` in ``num_variables`` variables.

    This is the binomial coefficient C(num_variables + degree, degree); the
    closed form is used by the benchmark harness to report predicted template
    sizes without materialising the monomials.
    """
    if degree < 0 or num_variables < 0:
        return 0
    numerator = 1
    denominator = 1
    for i in range(1, degree + 1):
        numerator *= num_variables + i
        denominator *= i
    return numerator // denominator
