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

from functools import partial
from typing import Sequence

from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.translation import _compile_putinar_pair, _emit_putinar, translate
from repro.polynomial.polynomial import Polynomial


def putinar_translate(
    pairs: Sequence[ConstraintPair],
    upsilon: int = 2,
    with_witness: bool = True,
    encode_sos: bool = True,
    objective: Polynomial | None = None,
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
    with_witness:
        When true (the default) a strict positivity witness ``eps`` is added,
        giving the paper's semi-complete encoding for strict invariants.
        When false the witness is omitted (Remark 6), which generates
        non-strict invariants soundly but without completeness.
    encode_sos:
        When true (the default) every multiplier is constrained to be a sum of
        squares through its Cholesky factor.  Disabling this yields a weaker
        relaxation used only by ablation experiments.
    objective:
        Optional objective polynomial over the unknowns (for Weak synthesis).

    The system is built by the flat-array kernel of
    :mod:`repro.invariants.translation`, which emits the row arrays Step 4
    compiles.
    """
    compile_pair = partial(
        _compile_putinar_pair, upsilon=upsilon, with_witness=with_witness, encode_sos=encode_sos
    )
    return translate(pairs, compile_pair, _emit_putinar, objective)
