"""Alternative Step 3 translation via Handelman/Schweighofer products (Remark 2).

Schweighofer's theorem (Theorem 3.3 of the paper) certifies positivity of
``g`` over ``{C_1 >= 0, ..., C_p >= 0, g_{p+1} >= 0, ...}`` using non-negative
combinations of *products* of the constraints::

    g = lambda_0 + sum_I lambda_I * S^I,      lambda_0 > 0, lambda_I >= 0

where each ``S^I`` is a product of assumption polynomials.  Compared to the
Putinar encoding this avoids Gram matrices entirely — the unknowns are the
scalar ``lambda`` multipliers — at the cost of completeness only over
polytopes (plus bounded product degree).

To keep the generated system quadratic in the unknowns we only form products
that contain **at most one** assumption with template (s-variable)
coefficients: a product of two template polynomials would make the
coefficient equations cubic.  This restriction is sound (it merely shrinks
the certificate search space) and is the variant used by the ablation
benchmarks.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from typing import Sequence

from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.template import UNKNOWN_PREFIX
from repro.invariants.translation import _compile_handelman_pair, _emit_handelman, translate
from repro.polynomial.polynomial import Polynomial


def _has_unknowns(polynomial: Polynomial) -> bool:
    return any(name.startswith(UNKNOWN_PREFIX) for name in polynomial.variables())


def enumerate_products(
    assumptions: Sequence[Polynomial], max_factors: int
) -> list[tuple[str, tuple[int, ...], Polynomial]]:
    """All admissible products ``S^I`` of at most ``max_factors`` assumptions.

    Returns ``(label, factor indices, product)`` triples; the empty product
    (the constant 1, index combination ``()``) is always first.  Products
    containing more than one unknown-bearing factor are skipped to keep the
    final system quadratic.  The enumeration order is the certificate
    contract: the ``k``-th triple owns the multiplier unknown
    ``$t_<tag>_<k>_0``, and :mod:`repro.certify` re-runs this enumeration to
    reconstruct witnesses from a numeric solution.
    """
    products: list[tuple[str, tuple[int, ...], Polynomial]] = [("1", (), Polynomial.one())]
    for count in range(1, max_factors + 1):
        for combination in combinations_with_replacement(range(len(assumptions)), count):
            factors = [assumptions[i] for i in combination]
            if sum(1 for f in factors if _has_unknowns(f)) > 1:
                continue
            product = Polynomial.one()
            for factor in factors:
                product = product * factor
            label = "*".join(f"g{i}" for i in combination)
            products.append((label, combination, product))
    return products


def handelman_translate(
    pairs: Sequence[ConstraintPair],
    max_factors: int = 2,
    with_witness: bool = True,
    objective: Polynomial | None = None,
) -> QuadraticSystem:
    """Translate constraint pairs into a quadratic system with scalar multipliers.

    Like :func:`repro.invariants.putinar.putinar_translate`, this runs the
    flat-array kernel of :mod:`repro.invariants.translation`; the ``k``-th
    product of :func:`enumerate_products` owns the multiplier ``lambda_k``.
    """
    compile_pair = partial(_compile_handelman_pair, max_factors=max_factors, with_witness=with_witness)
    return translate(pairs, compile_pair, _emit_handelman, objective)
