"""Exact lifting: from a floating-point solve to a rational certificate.

The Step-4 solvers return a floating-point assignment that satisfies the
Step-3 :class:`~repro.invariants.quadratic_system.QuadraticSystem` only up to
a tolerance.  This module turns such an assignment into an **exact** witness:

1. **Rationalization** — every template coefficient is rounded to a nearby
   rational by continued fractions (:meth:`fractions.Fraction.
   limit_denominator`) at escalating denominators; small denominators come
   first, so a solver solution that hovers around a clean invariant snaps to
   the clean one before any noise is chased.
2. **Witness completion** — with the template coefficients fixed, the
   coefficient-matching equations of the paper's equation (†) are *linear* in
   the multiplier coefficients.  They are re-solved exactly over ``Fraction``
   (free coordinates pinned near the solver's values), the positivity witness
   is carved out of the resulting constant slack, and SOS-ness of every
   multiplier is decided exactly via rational ``L D L^T``.

The verdict involves **no float tolerances**: a lift either produces a
:class:`~repro.certify.certificate.Certificate` whose
:func:`~repro.certify.certificate.check_certificate` passes by polynomial
identity, or it fails and reports the exact rational residuals of the
quadratic system at the best snapped point (:func:`exact_violations`) so the
repair loop has concrete violations to work from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.certify.certificate import Certificate, PairCertificate, SOSWitness, _concretize
from repro.certify.linalg import ldl_decompose, solve_linear
from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import (
    KIND_CODES,
    KINDS,
    ConstraintKind,
    PairProvenance,
    QuadraticSystem,
    VariableRole,
    classify_unknown,
)
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial
from repro.polynomial.sos import sos_basis
from repro.solvers.problem import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reduction.task import SynthesisTask

#: Escalating continued-fraction denominators tried by the lift, smallest
#: (cleanest) first.  The early rungs snap solver noise onto the simple
#: rationals real invariants are made of; the late rungs keep faith with
#: solutions that genuinely need large denominators.
DENOMINATOR_LADDER: tuple[int, ...] = (
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024, 10**4, 10**6,
)

_ZERO = Fraction(0)

#: A snapped-Cholesky multiplier: its polynomial and its exact Gram matrix.
_Pinned = tuple[Polynomial, tuple[tuple[Fraction, ...], ...]]


def snap(value: Fraction, max_denominator: int) -> Fraction:
    """The closest rational to ``value`` with denominator at most ``max_denominator``.

    Equal to ``value.limit_denominator(max_denominator)``.  When
    ``|value| < 1 / (2 * max_denominator)`` the answer is 0 without running
    the continued fraction: every non-zero candidate lies at least
    ``1 / max_denominator`` from 0, so it is farther from ``value`` than 0 is.
    """
    if 2 * max_denominator * abs(value.numerator) < value.denominator:
        return _ZERO
    return value.limit_denominator(max_denominator)


def _snap_solver_value(floats: Mapping[str, float], name: str, max_denominator: int) -> Fraction:
    """The solver's value of unknown ``name`` (0 when absent), snapped."""
    return snap(Fraction(float(floats.get(name, 0.0))), max_denominator)


def rationalize(
    assignment: Mapping[str, float], max_denominator: int
) -> dict[str, Fraction]:
    """Per-coefficient continued-fraction rounding of a numeric assignment."""
    return {
        name: snap(Fraction(float(value)), max_denominator)
        for name, value in assignment.items()
    }


@dataclass(frozen=True)
class ExactViolation:
    """One constraint of the quadratic system violated at an exact point."""

    index: int
    origin: str
    kind: str
    value: Fraction

    def __str__(self) -> str:
        relation = {"eq": "= 0", "ge": ">= 0", "gt": "> 0"}[self.kind]
        return f"constraint[{self.index}] ({self.origin}): {self.value} fails {relation}"


def exact_violations(
    system: QuadraticSystem, assignment: Mapping[str, Fraction], limit: int | None = None
) -> list[ExactViolation]:
    """Exact re-evaluation of every constraint at a rational point.

    Equalities must be exactly zero, ``>=`` exactly non-negative and ``>``
    exactly positive — no float tolerances enter the verdict.  Unmentioned
    variables default to zero.  The rows are read from the system's exact
    arrays: only terms whose unknowns are all non-zero are multiplied out,
    and a row without such a term is worth exactly zero.
    """
    rows = system.rows
    values = [Fraction(assignment.get(name, _ZERO)) for name in rows.names] + [Fraction(1)]
    # The spare last slot stands for the factor 1 of constant and linear terms (id -1).
    live_factor = np.array([value != 0 for value in values], dtype=bool)
    live = np.flatnonzero(live_factor[rows.term_a] & live_factor[rows.term_b])
    pool = rows.pool
    sums: dict[int, Fraction] = {}
    for row, a, b, coefficient in zip(
        rows.term_row[live].tolist(),
        rows.term_a[live].tolist(),
        rows.term_b[live].tolist(),
        rows.term_coeff[live].tolist(),
    ):
        sums[row] = sums.get(row, _ZERO) + pool[coefficient] * values[a] * values[b]
    # A row worth zero fails only a strict inequality.
    positive = rows.kinds == KIND_CODES[ConstraintKind.POSITIVE]
    candidates = sorted(set(sums).union(np.flatnonzero(positive).tolist()))
    violations: list[ExactViolation] = []
    for index in candidates:
        value = sums.get(index, _ZERO)
        kind = KINDS[rows.kinds[index]]
        failed = (
            value != 0
            if kind is ConstraintKind.EQUALITY
            else value < 0
            if kind is ConstraintKind.NONNEGATIVE
            else value <= 0
        )
        if failed:
            violations.append(
                ExactViolation(index=index, origin=rows.origin(index), kind=kind.value, value=value)
            )
            if limit is not None and len(violations) >= limit:
                break
    return violations


@dataclass
class LiftResult:
    """Outcome of one :func:`lift_solution` run."""

    ok: bool
    certificate: Certificate | None = None
    exact_assignment: dict[str, Fraction] | None = None
    denominator: int | None = None
    attempts: int = 0
    seconds: float = 0.0
    reason: str | None = None
    violations: list[ExactViolation] = field(default_factory=list)


def _template_values(assignment: Mapping[str, float]) -> dict[str, Fraction]:
    return {
        name: Fraction(float(value))
        for name, value in assignment.items()
        if classify_unknown(name) is VariableRole.TEMPLATE
    }


# ---------------------------------------------------------------------------
# Gram-matrix construction
# ---------------------------------------------------------------------------


def _slot_groups(basis: Sequence[Monomial]) -> dict[Monomial, list[tuple[int, int]]]:
    """Basis-pair slots grouped by their product monomial (i <= j)."""
    groups: dict[Monomial, list[tuple[int, int]]] = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            groups.setdefault(basis[i] * basis[j], []).append((i, j))
    return groups


def _float_gram(
    prov: PairProvenance,
    which: int,
    dimension: int,
    floats: Mapping[str, float],
    pin_denominator: int,
) -> list[list[Fraction]]:
    """The snapped ``L L^T`` of the solver's Cholesky factors (PSD by construction)."""
    prefix = f"{UNKNOWN_PREFIX}l_{prov.tag}_{which}"
    lower = [
        [
            _snap_solver_value(floats, f"{prefix}_{row}_{col}", pin_denominator)
            for col in range(row + 1)
        ]
        for row in range(dimension)
    ]
    gram = [[_ZERO] * dimension for _ in range(dimension)]
    for i in range(dimension):
        for j in range(i + 1):
            total = _ZERO
            for k in range(min(i, j) + 1):
                total += lower[i][k] * lower[j][k]
            gram[i][j] = total
            gram[j][i] = total
    return gram


def _gram_matrix(
    multiplier: Polynomial,
    basis: Sequence[Monomial],
    groups: Mapping[Monomial, list[tuple[int, int]]],
    pinned: _Pinned,
) -> tuple[tuple[Fraction, ...], ...] | None:
    """An exact Gram matrix with ``multiplier == y^T Q y``, or ``None``.

    When every product monomial has a unique basis-pair slot (true for the
    affine bases of Upsilon <= 3) the Gram matrix is determined by the
    multiplier's coefficients.  Otherwise the solver's snapped Cholesky
    factors (``pinned``) give a PSD starting matrix and the exact residual is
    folded into the first slot of each product group.
    """
    dimension = len(basis)
    unique = all(len(slots) == 1 for slots in groups.values())
    if unique:
        gram = [[_ZERO] * dimension for _ in range(dimension)]
        for monomial, coefficient in multiplier.items():
            slots = groups.get(monomial)
            if slots is None:
                return None  # monomial outside the SOS-representable support
            i, j = slots[0]
            if i == j:
                gram[i][i] = coefficient
            else:
                gram[i][j] = coefficient / 2
                gram[j][i] = coefficient / 2
        return tuple(tuple(row) for row in gram)
    expanded, start = pinned
    gram = [list(row) for row in start]
    residual = multiplier - expanded
    for monomial, coefficient in residual.items():
        slots = groups.get(monomial)
        if slots is None:
            return None
        i, j = slots[0]
        if i == j:
            gram[i][i] += coefficient
        else:
            gram[i][j] += coefficient / 2
            gram[j][i] += coefficient / 2
    return tuple(tuple(row) for row in gram)


# ---------------------------------------------------------------------------
# Per-pair witness completion
# ---------------------------------------------------------------------------


def _solve_completion(
    contributions: list[Polynomial],
    guesses: list[Fraction],
    target: Polynomial,
) -> list[Fraction] | None:
    """Exactly solve the coefficient-matching equations of equation (†).

    One equation per monomial (the constant included): the contribution
    columns combined with the solved coefficients must reproduce ``target``
    exactly.  Each equation is a sparse row gathered from the columns' terms.
    """
    rows: dict[Monomial, dict[int, Fraction]] = {}
    for column, contribution in enumerate(contributions):
        for monomial, coefficient in contribution.items():
            rows.setdefault(monomial, {})[column] = coefficient
    for monomial, _ in target.items():
        rows.setdefault(monomial, {})
    return solve_linear(
        list(rows.values()), [target.coefficient(monomial) for monomial in rows], guesses
    )


def _pinned_multiplier(
    prov: PairProvenance,
    which: int,
    basis: Sequence[Monomial],
    floats: Mapping[str, float],
    pin_denominator: int,
) -> _Pinned:
    """The snapped-Cholesky multiplier ``y^T (L̂ L̂^T) y`` — exactly SOS by construction."""
    gram = _float_gram(prov, which, len(basis), floats, pin_denominator)
    polynomial = Polynomial.zero()
    for i in range(len(basis)):
        for j in range(len(basis)):
            if gram[i][j]:
                polynomial = polynomial + Polynomial.from_monomial(basis[i] * basis[j], gram[i][j])
    return polynomial, tuple(tuple(row) for row in gram)


def _equality_partners(assumptions: Sequence[Polynomial]) -> dict[int, int]:
    """Greedy one-to-one matching of ``g`` / ``-g`` assumption pairs.

    Equalities reach Step 2 as two opposite non-strict atoms.  The multipliers
    of such a pair enjoy a gauge freedom — adding the *same* SOS polynomial to
    both leaves ``h_a * g + h_b * (-g)`` unchanged — which the lift exploits
    to restore PSD-ness after exact corrections, for free.
    """
    partners: dict[int, int] = {}
    for i in range(len(assumptions)):
        if i in partners:
            continue
        negated = -assumptions[i]
        for j in range(i + 1, len(assumptions)):
            if j not in partners and assumptions[j] == negated:
                partners[i] = j
                partners[j] = i
                break
    return partners


def _boost_paired_grams(
    gram_a: list[list[Fraction]], gram_b: list[list[Fraction]]
) -> tuple[list[list[Fraction]], list[list[Fraction]]] | None:
    """Add the same ``c * I`` to both Grams until both are PSD (exactly)."""
    if ldl_decompose(gram_a) is not None and ldl_decompose(gram_b) is not None:
        return gram_a, gram_b
    boost = Fraction(1, 2**20)
    for _ in range(48):
        boosted_a = [
            [value + (boost if i == j else 0) for j, value in enumerate(row)]
            for i, row in enumerate(gram_a)
        ]
        boosted_b = [
            [value + (boost if i == j else 0) for j, value in enumerate(row)]
            for i, row in enumerate(gram_b)
        ]
        if ldl_decompose(boosted_a) is not None and ldl_decompose(boosted_b) is not None:
            return boosted_a, boosted_b
        boost *= 2
    return None


def _certify_pair_putinar(
    pair: ConstraintPair,
    prov: PairProvenance,
    snapped: _Snap,
    pin_denominator: int,
    escalate_basis: bool = False,
) -> tuple[PairCertificate | None, str | None]:
    """Certify one pair, optionally escalating the witness basis on failure.

    The certificate's multipliers need not respect the translator's Upsilon —
    Putinar soundness only needs them SOS — so when the completion fails at
    the solver's multiplier degree and ``escalate_basis`` is set, one richer
    basis (Upsilon + 2) is tried: the extra columns often restore exact cone
    membership that the coarse basis lacks at a snapped template assignment.
    """
    outcome, reason = _certify_pair_putinar_at(
        pair, prov, snapped, pin_denominator, prov.upsilon or 0
    )
    if outcome is not None or not escalate_basis:
        return outcome, reason
    return _certify_pair_putinar_at(
        pair, prov, snapped, pin_denominator, (prov.upsilon or 0) + 2
    )


def _certify_pair_putinar_at(
    pair: ConstraintPair,
    prov: PairProvenance,
    snapped: _Snap,
    pin_denominator: int,
    upsilon: int,
) -> tuple[PairCertificate | None, str | None]:
    variables = prov.variables
    floats = snapped.floats
    assumptions = [snapped.concrete(polynomial) for polynomial in pair.assumptions]
    conclusion = snapped.concrete(pair.conclusion)
    basis = tuple(sos_basis(variables, upsilon))
    groups = _slot_groups(basis)
    one = Monomial.one()
    support = sorted(groups, key=Monomial.sort_key)
    multiplier_count = prov.assumption_count + 1
    partners = _equality_partners(assumptions)
    paired = {index + 1 for index in partners}  # multiplier index = assumption index + 1

    # Exactly-SOS pinned version of every multiplier, from the solver's
    # (snapped) Cholesky factors: a multiplier whose columns all stay free
    # keeps exactly this polynomial — and exactly this PSD Gram.
    pinned = [
        snapped.pinned(prov, which, basis, pin_denominator) for which in range(multiplier_count)
    ]
    eps_guess = _snap_solver_value(
        floats, f"{UNKNOWN_PREFIX}eps_{prov.tag}", max(pin_denominator, 10**6)
    )

    def contribution(which: int, monomial: Monomial) -> Polynomial:
        if which == 0:
            return Polynomial.from_monomial(monomial)
        return snapped.product(monomial, assumptions[which - 1])

    # Column order routes the RREF pivots: equality-paired multipliers first
    # (their PSD margins are repairable for free), then the unpaired ones,
    # then h_0, then eps — the trailing columns stay free at their pins.
    ordered = [
        *(which for which in range(1, multiplier_count) if which in paired),
        *(which for which in range(1, multiplier_count) if which not in paired),
        0,
    ]

    def attempt(protected: set[int]) -> tuple[object, str | None]:
        """One exact solve with ``protected`` multipliers frozen at their pins."""
        unknowns: list[tuple[int, Monomial]] = []
        guesses: list[Fraction] = []
        for which in ordered:
            if which in protected:
                continue
            for monomial in support:
                unknowns.append((which, monomial))
                guesses.append(pinned[which][0].coefficient(monomial))
        if prov.with_witness:
            unknowns.append((-1, one))  # the positivity witness, last so it stays free
            guesses.append(eps_guess)
        target = conclusion
        for which in protected:
            if which == 0:
                target = target - pinned[0][0]
            else:
                target = target - pinned[which][0] * assumptions[which - 1]
        columns = [
            Polynomial.one() if which < 0 else contribution(which, monomial)
            for which, monomial in unknowns
        ]
        solution = _solve_completion(columns, guesses, target)
        if solution is None:
            return None, "coefficient-matching equations have no exact solution at this snap"
        multipliers = [Polynomial.zero() for _ in range(multiplier_count)]
        eps: Fraction | None = None
        for (which, monomial), value in zip(unknowns, solution):
            if which < 0:
                eps = value
            elif value:
                multipliers[which] = multipliers[which] + Polynomial.from_monomial(monomial, value)
        for which in protected:
            multipliers[which] = pinned[which][0]
        if prov.with_witness and (eps is None or eps <= 0):
            return None, f"no positive witness at this snap (eps = {eps})"

        # Duplicate assumptions: only the *sum* of their multipliers enters
        # the identity, so averaging within a duplicate group is free — and
        # it heals the tiny negative pivot values the RREF parks on one
        # duplicate while the pinned mass sits on another.
        duplicate_groups: dict[Polynomial, list[int]] = {}
        for index, assumption in enumerate(assumptions):
            duplicate_groups.setdefault(assumption, []).append(index + 1)
        for members in duplicate_groups.values():
            free_members = [which for which in members if which not in protected]
            if len(free_members) < 2:
                continue
            total = Polynomial.zero()
            for which in free_members:
                total = total + multipliers[which]
            average = total / len(free_members)
            for which in free_members:
                multipliers[which] = average

        grams: list[list[list[Fraction]] | None] = [None] * multiplier_count
        for which in range(multiplier_count):
            if which in protected:
                grams[which] = [list(row) for row in pinned[which][1]]
                continue
            gram = _gram_matrix(multipliers[which], basis, groups, pinned[which])
            if gram is None:
                return which, "multiplier outside the SOS-representable support"
            grams[which] = [list(row) for row in gram]

        # Free PSD repair for equality-paired multipliers: the same diagonal
        # boost on both sides of a pair cancels out of the identity.
        repaired: set[int] = set()
        for index, partner in partners.items():
            which_a, which_b = index + 1, partner + 1
            if which_a in repaired or which_a in protected or which_b in protected:
                continue
            repaired.update((which_a, which_b))
            boosted = _boost_paired_grams(grams[which_a], grams[which_b])
            if boosted is None:
                return which_a, "multiplier not PSD"
            grams[which_a], grams[which_b] = boosted[0], boosted[1]

        witnesses: list[SOSWitness] = []
        for which in range(multiplier_count):
            gram = grams[which]
            assert gram is not None
            frozen = tuple(tuple(row) for row in gram)
            if which not in repaired and which not in protected:
                if ldl_decompose(frozen) is None:
                    return which, "multiplier not PSD"
            witnesses.append(SOSWitness(basis=basis, gram=frozen))
        certificate = PairCertificate(
            name=pair.name,
            target=pair.target or prov.target,
            scheme="putinar",
            assumptions=tuple(assumptions),
            conclusion=conclusion,
            witness=eps if prov.with_witness else None,
            multipliers=tuple(witnesses),
        )
        return certificate, None

    # Protection loop: when an (unpaired) multiplier's exact completion loses
    # PSD-ness, freeze it at its exactly-SOS Cholesky pin and re-solve.
    protected: set[int] = set()
    reason = "no PSD Gram completion for the multipliers"
    for _ in range(multiplier_count + 1):
        outcome, failure = attempt(protected)
        if isinstance(outcome, PairCertificate):
            return outcome, None
        if isinstance(outcome, int):
            protected.add(outcome)
            continue
        reason = failure or reason
        break
    return None, reason


def _certify_pair_handelman(
    pair: ConstraintPair,
    prov: PairProvenance,
    snapped: _Snap,
    pin_denominator: int,
) -> tuple[PairCertificate | None, str | None]:
    from repro.invariants.handelman import enumerate_products

    floats = snapped.floats
    assumptions = [snapped.concrete(polynomial) for polynomial in pair.assumptions]
    conclusion = snapped.concrete(pair.conclusion)
    products = enumerate_products(
        pair.assumptions, 2 if prov.max_factors is None else prov.max_factors
    )
    combos = [combo for _, combo, _ in products]
    concrete_products: list[Polynomial] = []
    for _, combo, _ in products:
        value = Polynomial.one()
        for index in combo:
            value = value * assumptions[index]
        concrete_products.append(value)

    guesses = [
        _snap_solver_value(floats, f"{UNKNOWN_PREFIX}t_{prov.tag}_{k}_0", pin_denominator)
        for k in range(len(products))
    ]
    # lambda_0 (the constant product) and eps are trailing unknowns so the
    # RREF keeps them free — pinned at the solver's (positive) values —
    # whenever the remaining columns can carry the pivots.
    columns = [*concrete_products[1:], Polynomial.one()]
    trailing = [guesses[0]]
    if prov.with_witness:
        columns.append(Polynomial.one())
        trailing.append(
            _snap_solver_value(
                floats, f"{UNKNOWN_PREFIX}eps_{prov.tag}", max(pin_denominator, 10**6)
            )
        )
    solution = _solve_completion(columns, [*guesses[1:], *trailing], conclusion)
    if solution is None:
        return None, "coefficient-matching equations have no exact solution at this snap"
    eps: Fraction | None = solution[-1] if prov.with_witness else None
    lambda_rest = solution[: len(concrete_products) - 1]
    lambdas = [solution[len(concrete_products) - 1], *lambda_rest]
    # Identical concrete products share one coefficient slot in the identity:
    # averaging their lambdas is free and heals negative pivot values.
    product_groups: dict[Polynomial, list[int]] = {}
    for index, product in enumerate(concrete_products):
        if index:
            product_groups.setdefault(product, []).append(index)
    for members in product_groups.values():
        if len(members) < 2:
            continue
        average = sum(lambdas[index] for index in members) / len(members)
        for index in members:
            lambdas[index] = average
    # Equality pairs give the same gauge freedom as in the Putinar scheme:
    # raising the lambdas of a g / -g single-factor pair by the same amount
    # cancels out of the identity, repairing negative values for free.
    single_factor = {combo[0]: index for index, combo in enumerate(combos) if len(combo) == 1}
    for i, j in _equality_partners(assumptions).items():
        if i > j:
            continue
        k_a, k_b = single_factor.get(i), single_factor.get(j)
        if k_a is None or k_b is None:
            continue
        boost = max(_ZERO, -lambdas[k_a], -lambdas[k_b])
        if boost:
            lambdas[k_a] += boost
            lambdas[k_b] += boost
    for coefficient, combo in zip(lambdas, combos):
        if coefficient < 0:
            return None, f"lambda[{combo}] = {coefficient} is negative"
    if prov.with_witness and (eps is None or eps <= 0):
        return None, f"no positive witness at this snap (eps = {eps})"
    return (
        PairCertificate(
            name=pair.name,
            target=pair.target or prov.target,
            scheme="handelman",
            assumptions=tuple(assumptions),
            conclusion=conclusion,
            witness=eps,
            lambdas=tuple(lambdas),
            products=tuple(combos),
        ),
        None,
    )


class _Snap:
    """One template snap of a lift, with what its pins, bases and passes reuse.

    :meth:`concrete` substitutes the snap into each distinct pair polynomial
    once, and :meth:`product` multiplies each (basis monomial, concretized
    assumption) column once.  :meth:`pinned` snaps each ``(pair, multiplier,
    pin, basis)`` Cholesky factor once, in a table every snap of the lift
    shares (it reads the solver's floats, not the snap).  The tables live as
    long as the :func:`lift_solution` call that made them.
    """

    def __init__(
        self,
        exact_s: Mapping[str, Fraction],
        floats: Mapping[str, float],
        pinned: dict[tuple, _Pinned],
    ):
        self.exact_s = exact_s
        self.floats = floats
        self._concrete: dict[Polynomial, Polynomial] = {}
        self._products: dict[tuple[Monomial, Polynomial], Polynomial] = {}
        self._pinned = pinned

    def concrete(self, polynomial: Polynomial) -> Polynomial:
        value = self._concrete.get(polynomial)
        if value is None:
            value = self._concrete[polynomial] = _concretize(polynomial, self.exact_s)
        return value

    def product(self, monomial: Monomial, polynomial: Polynomial) -> Polynomial:
        key = (monomial, polynomial)
        value = self._products.get(key)
        if value is None:
            value = self._products[key] = Polynomial.from_monomial(monomial) * polynomial
        return value

    def pinned(
        self, prov: PairProvenance, which: int, basis: tuple[Monomial, ...], pin_denominator: int
    ) -> _Pinned:
        key = (prov.index, which, pin_denominator, basis)
        value = self._pinned.get(key)
        if value is None:
            value = self._pinned[key] = _pinned_multiplier(
                prov, which, basis, self.floats, pin_denominator
            )
        return value


def _certify_snap(
    task: "SynthesisTask",
    snapped: _Snap,
    pin_denominator: int,
    escalate_basis: bool,
    deadline: Deadline,
) -> tuple[Certificate | None, str | None]:
    """Complete exact witnesses for every pair under one template snap.

    ``deadline`` is checked between pairs, so an exhausted budget aborts
    mid-snap instead of finishing the whole pair list.
    """
    system = task.system
    if len(system.provenance) != len(task.pairs):
        return None, (
            "the quadratic system carries no per-pair provenance "
            "(was it produced by a Step-3 translator?)"
        )
    certified: list[PairCertificate] = []
    scheme = "putinar"
    for pair, prov in zip(task.pairs, system.provenance):
        if deadline.expired():
            return None, "lift time budget exhausted"
        scheme = prov.scheme
        if prov.scheme == "putinar":
            pair_certificate, reason = _certify_pair_putinar(
                pair, prov, snapped, pin_denominator, escalate_basis=escalate_basis
            )
        else:
            pair_certificate, reason = _certify_pair_handelman(
                pair, prov, snapped, pin_denominator
            )
        if pair_certificate is None:
            return None, f"{pair.name}: {reason}"
        certified.append(pair_certificate)
    return (
        Certificate(
            scheme=scheme,
            assignment=dict(snapped.exact_s),
            pairs=tuple(certified),
            denominator=pin_denominator,
        ),
        None,
    )


def lift_solution(
    task: "SynthesisTask",
    assignment: Mapping[str, float],
    time_budget: float | None = 120.0,
) -> LiftResult:
    """Lift a numeric Step-4 assignment to an exact certificate.

    Walks :data:`DENOMINATOR_LADDER` smallest-first; each rung snaps the
    template coefficients, deduplicates against previously tried snaps, and
    attempts the exact witness completion.  On failure the result carries
    the exact quadratic-system residuals of the finest whole-assignment
    snap, which the repair loop turns into counterexample cuts.

    Exact work that no rung, pin or basis changes is done once per call:
    each rung's snap, each pair polynomial's concretization and each
    coefficient-matching column per distinct snap, and each snapped-Cholesky
    multiplier per (pair, multiplier, pin, basis).
    """
    start = time.perf_counter()
    deadline = Deadline.after(time_budget)
    template_values = _template_values(assignment)
    # An exact zero snaps to 0 at every rung, so only the other values are
    # snapped per rung, and only they can tell two rungs' snaps apart.
    nonzero = {name: value for name, value in template_values.items() if value}
    attempts = 0
    last_reason: str | None = None
    # Each rung's snap, and each multiplier's pin, is made once and reused
    # by both passes, both pins and both bases.
    pinned: dict[tuple, _Pinned] = {}
    snaps: dict[int, tuple[tuple[tuple[int, int], ...], _Snap]] = {}
    # Pass 1 walks the whole ladder at the translator's own witness basis
    # (cheap); pass 2 re-walks it with the escalated basis, which is an order
    # of magnitude more expensive and only pays off when the coarse basis
    # cannot express an exact witness at any snap.
    for escalate_basis in (False, True):
        seen: set[tuple[tuple[int, int], ...]] = set()
        for denominator in DENOMINATOR_LADDER:
            if deadline.expired():
                last_reason = last_reason or "lift time budget exhausted"
                break
            if denominator not in snaps:
                snapped_values = {name: snap(value, denominator) for name, value in nonzero.items()}
                exact_s = dict.fromkeys(template_values, _ZERO)
                exact_s.update(snapped_values)
                # Every rung snaps the same names in the same order.  Integer
                # pairs hash without the modular inverse of Fraction.__hash__.
                signature = tuple(
                    (value.numerator, value.denominator) for value in snapped_values.values()
                )
                snaps[denominator] = signature, _Snap(exact_s, assignment, pinned)
            signature, snapped = snaps[denominator]
            if signature in seen:
                continue
            seen.add(signature)
            # The witness pinning is decoupled from the template snap: the
            # coarse rung keeps clean multipliers clean, the fine fallback
            # stays faithful to the solver's values (whose PSD margins the
            # role floors guarantee).
            pins = (denominator,) if denominator >= 10**6 else (denominator, 10**6)
            for pin in pins:
                attempts += 1
                certificate, reason = _certify_snap(
                    task, snapped, pin, escalate_basis, deadline
                )
                if certificate is not None:
                    return LiftResult(
                        ok=True,
                        certificate=certificate,
                        exact_assignment=snapped.exact_s,
                        denominator=denominator,
                        attempts=attempts,
                        seconds=time.perf_counter() - start,
                    )
                last_reason = reason
    snapped = rationalize(assignment, max(DENOMINATOR_LADDER))
    return LiftResult(
        ok=False,
        attempts=attempts,
        seconds=time.perf_counter() - start,
        reason=last_reason or "no denominator rung admitted an exact completion",
        violations=exact_violations(task.system, snapped, limit=32),
    )
