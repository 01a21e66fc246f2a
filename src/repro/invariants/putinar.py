"""Step 3: translating constraint pairs into quadratic systems via Putinar.

For a constraint pair ``(g_1 >= 0 /\\ ... /\\ g_m >= 0) ==> g > 0`` the paper
writes equation (†)::

    g = eps + h_0 + sum_i h_i * g_i

where ``eps > 0`` is a positivity witness and every ``h_i`` is a sum of
squares of degree at most the technical parameter Upsilon.  Each ``h_i`` is
represented as ``sum_j t_{i,j} * m'_j`` over the monomials ``m'_j`` of degree
at most Upsilon (*t-variables*), and its SOS-ness is encoded with a
lower-triangular Cholesky factor (*l-variables*, Theorems 3.4/3.5).  Equating
the coefficients of corresponding monomials on the two sides of (†) and of
``h_i = y^T L L^T y`` yields quadratic equalities over the s-, t-, l- and
eps-variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import PairProvenance, QuadraticSystem
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.ordering import grlex_key, monomials_up_to_degree
from repro.polynomial.polynomial import Polynomial
from repro.polynomial.sos import gram_matrix_encoding


@dataclass(frozen=True)
class PutinarOptions:
    """Options of the Putinar translation.

    Attributes
    ----------
    upsilon:
        The technical parameter of the paper: the maximum degree of the SOS
        multiplier polynomials ``h_i``.
    with_witness:
        When true (the default) a strict positivity witness ``eps`` is added,
        giving the paper's semi-complete encoding for strict invariants.
        When false the witness is omitted (Remark 6), which generates
        non-strict invariants soundly but without completeness.
    encode_sos:
        When true (the default) every multiplier is constrained to be a sum of
        squares through its Cholesky factor.  Disabling this yields a weaker
        relaxation used only by ablation experiments.
    """

    upsilon: int = 2
    with_witness: bool = True
    encode_sos: bool = True


def _pair_tag(index: int) -> str:
    return f"c{index}"


def _multiplier_polynomial(tag: str, which: int, monomials) -> Polynomial:
    result = Polynomial.zero()
    for j, monomial in enumerate(monomials):
        name = f"{UNKNOWN_PREFIX}t_{tag}_{which}_{j}"
        result = result + Polynomial.variable(name) * Polynomial.from_monomial(monomial)
    return result


def translate_pair(
    pair: ConstraintPair,
    pair_index: int,
    options: PutinarOptions,
    system: QuadraticSystem,
) -> None:
    """Translate one constraint pair, appending its constraints to ``system``."""
    tag = _pair_tag(pair_index)
    variables: Sequence[str] = pair.relevant_program_variables()
    monomials = monomials_up_to_degree(variables, options.upsilon)
    system.provenance.append(
        PairProvenance(
            index=pair_index,
            name=pair.name,
            target=pair.target,
            scheme="putinar",
            assumption_count=len(pair.assumptions),
            variables=tuple(variables),
            upsilon=options.upsilon,
            with_witness=options.with_witness,
        )
    )

    multipliers = [
        _multiplier_polynomial(tag, which, monomials)
        for which in range(len(pair.assumptions) + 1)
    ]

    # Right-hand side of equation (†).
    rhs = multipliers[0]
    if options.with_witness:
        witness = Polynomial.variable(f"{UNKNOWN_PREFIX}eps_{tag}")
        rhs = rhs + witness
        system.add_positive(witness, origin=f"{pair.name}:witness")
    for assumption, multiplier in zip(pair.assumptions, multipliers[1:]):
        rhs = rhs + multiplier * assumption

    # Coefficient-matching equalities are emitted in ascending grlex order of
    # the matched monomial — the canonical constraint order shared with the
    # vectorised kernel (which groups terms by grlex rank).
    difference = pair.conclusion - rhs
    collected = difference.collect(variables)
    for monomial in sorted(collected, key=lambda m: grlex_key(m, variables)):
        system.add_equality(collected[monomial], origin=f"{pair.name}:coeff[{monomial}]")

    if not options.encode_sos:
        return

    # Each multiplier must be a sum of squares: h_i = y^T L L^T y with the
    # diagonal of L non-negative (Theorems 3.4 and 3.5).
    for which, multiplier in enumerate(multipliers):
        encoding = gram_matrix_encoding(
            variables, options.upsilon, prefix=f"{UNKNOWN_PREFIX}l_{tag}_{which}"
        )
        sos_difference = multiplier - encoding.polynomial
        sos_collected = sos_difference.collect(variables)
        for monomial in sorted(sos_collected, key=lambda m: grlex_key(m, variables)):
            system.add_equality(
                sos_collected[monomial], origin=f"{pair.name}:sos{which}[{monomial}]"
            )
        for diagonal_name in encoding.diagonal_names:
            system.add_nonnegative(
                Polynomial.variable(diagonal_name), origin=f"{pair.name}:diag{which}"
            )


def putinar_translate(
    pairs: Sequence[ConstraintPair],
    upsilon: int = 2,
    with_witness: bool = True,
    encode_sos: bool = True,
    objective: Polynomial | None = None,
    kernel: str = "vectorized",
) -> QuadraticSystem:
    """Translate all constraint pairs into one quadratic system.

    Parameters
    ----------
    pairs:
        The constraint pairs produced by Step 2.
    upsilon:
        The paper's technical parameter (maximum degree of the SOS
        multipliers).  Larger values enlarge the system but make the
        encoding complete for more invariants (Lemma 3.7).
    with_witness, encode_sos:
        See :class:`PutinarOptions`.
    objective:
        Optional objective polynomial over the unknowns (for Weak synthesis).
    kernel:
        ``"vectorized"`` (the default) runs the flat-array translation kernel
        of :mod:`repro.invariants.translation`; ``"symbolic"`` runs the
        per-``Polynomial`` reference loop.  The two produce identical systems
        (the property tests in ``tests/property`` are the oracle).
    """
    options = PutinarOptions(upsilon=upsilon, with_witness=with_witness, encode_sos=encode_sos)
    if kernel == "vectorized":
        from repro.invariants.translation import putinar_translate_vectorized

        return putinar_translate_vectorized(pairs, options, objective=objective)
    if kernel != "symbolic":
        raise ValueError(f"unknown translation kernel {kernel!r}")
    system = QuadraticSystem()
    if objective is not None:
        system.objective = objective
    for index, pair in enumerate(pairs):
        translate_pair(pair, index, options, system)
    return system
