"""Exact rational linear algebra for certificate lifting and checking.

Two small, fully exact routines over :class:`fractions.Fraction`:

* :func:`solve_linear` — solve an (under/over-determined) sparse linear
  system ``A x = b`` exactly, pinning the free variables to a caller-supplied
  guess, so the solution stays close to the numeric point the solver found;
* :func:`ldl_decompose` — the rational ``L D L^T`` decomposition that decides
  positive semidefiniteness of a symmetric rational matrix *exactly* (no
  square roots, no eigenvalue tolerances).

Both are deliberately dependency-free (no numpy): certificate checking must
not inherit floating-point semantics from the solver stack.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_linear(
    rows: Sequence[Mapping[int, Fraction]],
    rhs: Sequence[Fraction],
    guess: Sequence[Fraction],
) -> list[Fraction] | None:
    """Solve ``A x = rhs`` exactly for sparse rows, pinning free variables to ``guess``.

    ``rows[i]`` maps column index to the non-zero entries of row ``i`` of
    ``A``.  Gauss–Jordan keeps every pivot row fully reduced (a one at its
    pivot column, zero at every other pivot column); each incoming row is
    reduced against them and, if anything is left, pivots on its lowest
    remaining non-zero column.  The pivot rows then form the reduced row
    echelon form of ``A``, which is unique, so neither the pivot set nor the
    solution depends on the row order.  Non-pivot columns are fixed at their
    ``guess`` values and the pivot columns solved from the reduced rows.
    Returns ``None`` when the system is inconsistent.  The ``guess`` supplies
    both the dimension of ``x`` and the preferred values of the solution's
    free coordinates.
    """
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for entries, value in zip(rows, rhs):
        row = {col: Fraction(entry) for col, entry in entries.items() if entry}
        value = Fraction(value)
        # Pivot rows are zero at each other's pivot columns, so one pass clears them all.
        for col in [col for col in row if col in pivots]:
            pivot_row, pivot_value = pivots[col]
            factor = row[col]
            _subtract(row, pivot_row, factor)
            value -= factor * pivot_value
        if not row:
            if value:
                return None
            continue
        lead = min(row)
        scale = row[lead]
        if scale != _ONE:
            row = {col: entry / scale for col, entry in row.items()}
            value /= scale
        for col, (pivot_row, pivot_value) in pivots.items():
            factor = pivot_row.get(lead)
            if factor is not None:
                _subtract(pivot_row, row, factor)
                pivots[col] = (pivot_row, pivot_value - factor * value)
        pivots[lead] = (row, value)
    solution = [_ZERO if j in pivots else Fraction(guess[j]) for j in range(len(guess))]
    for col, (pivot_row, value) in pivots.items():
        for other, entry in pivot_row.items():
            if other != col:
                value -= entry * solution[other]
        solution[col] = value
    return solution


def _subtract(
    target: dict[int, Fraction], source: Mapping[int, Fraction], factor: Fraction
) -> None:
    """``target -= factor * source`` in place, dropping the entries that cancel."""
    for col, entry in source.items():
        updated = target.get(col, _ZERO) - factor * entry
        if updated:
            target[col] = updated
        else:
            target.pop(col, None)


def ldl_decompose(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[Fraction]] | None:
    """Exact ``L D L^T`` of a symmetric rational matrix; ``None`` when not PSD.

    Returns ``(L, D)`` with ``L`` unit lower-triangular and ``D`` a
    non-negative diagonal, such that ``matrix == L diag(D) L^T`` exactly.
    A zero pivot is only admissible when its entire remaining column is zero
    (the standard exact PSD criterion); a negative pivot, or a zero pivot
    with a non-zero column, certifies that the matrix is *not* PSD.
    """
    n = len(matrix)
    work = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if work[i][j] != work[j][i]:
                return None
    lower = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    diagonal = [_ZERO] * n
    for k in range(n):
        pivot = work[k][k]
        if pivot < 0:
            return None
        if pivot == 0:
            if any(work[r][k] for r in range(k + 1, n)):
                return None
            continue
        diagonal[k] = pivot
        for r in range(k + 1, n):
            lower[r][k] = work[r][k] / pivot
        for r in range(k + 1, n):
            if not work[r][k]:
                continue
            factor = lower[r][k]
            for c in range(k + 1, r + 1):
                if work[c][k]:
                    update = factor * work[c][k]
                    work[r][c] -= update
                    work[c][r] = work[r][c]
    return lower, diagonal


def is_psd(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """Whether a symmetric rational matrix is PSD (decided exactly)."""
    return ldl_decompose(matrix) is not None
