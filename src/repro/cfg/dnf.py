"""Normal forms for propositional polynomial predicates.

Step 2 of the paper rewrites each branching guard into disjunctive normal
form: a disjunction of conjunctions of atomic polynomial inequalities.  Each
atomic inequality is normalised to the form ``polynomial >= 0`` (non-strict)
or ``polynomial > 0`` (strict); negation is pushed inwards with De Morgan's
laws and by flipping comparison operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SpecificationError
from repro.lang.ast_nodes import BinaryPredicate, Comparison, NegatedPredicate, Predicate
from repro.polynomial.polynomial import Polynomial


@dataclass(frozen=True)
class AtomicInequality:
    """A normalised atomic inequality ``polynomial >= 0`` or ``polynomial > 0``."""

    polynomial: Polynomial
    strict: bool = False

    def holds(self, valuation: Mapping[str, float]) -> bool:
        """Evaluate the inequality under a concrete valuation."""
        value = self.polynomial.evaluate_float(valuation)
        return value > 0 if self.strict else value >= 0

    def relaxed(self) -> "AtomicInequality":
        """The non-strict relaxation ``polynomial >= 0`` of this inequality."""
        if not self.strict:
            return self
        return AtomicInequality(polynomial=self.polynomial, strict=False)

    def negated(self) -> "AtomicInequality":
        """The normalised negation (``p >= 0`` becomes ``-p > 0`` and vice versa)."""
        return AtomicInequality(polynomial=-self.polynomial, strict=not self.strict)

    def substitute(self, mapping: Mapping[str, Polynomial]) -> "AtomicInequality":
        """Apply a substitution to the underlying polynomial."""
        return AtomicInequality(polynomial=self.polynomial.substitute(mapping), strict=self.strict)

    def __str__(self) -> str:
        op = ">" if self.strict else ">="
        return f"{self.polynomial} {op} 0"


Conjunction = tuple[AtomicInequality, ...]
DisjunctiveNormalForm = tuple[Conjunction, ...]


def normalize_comparison(comparison: Comparison, negate: bool = False) -> AtomicInequality:
    """Normalise a comparison (possibly negated) to an :class:`AtomicInequality`."""
    left, op, right = comparison.left, comparison.op, comparison.right
    if negate:
        flipped = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}
        op = flipped[op]
    if op == "<":
        return AtomicInequality(polynomial=right - left, strict=True)
    if op == "<=":
        return AtomicInequality(polynomial=right - left, strict=False)
    if op == ">=":
        return AtomicInequality(polynomial=left - right, strict=False)
    if op == ">":
        return AtomicInequality(polynomial=left - right, strict=True)
    raise SpecificationError(f"unsupported comparison operator {op!r}")


def _dnf(predicate: Predicate, negate: bool) -> list[list[AtomicInequality]]:
    if isinstance(predicate, Comparison):
        return [[normalize_comparison(predicate, negate=negate)]]
    if isinstance(predicate, NegatedPredicate):
        return _dnf(predicate.operand, not negate)
    if isinstance(predicate, BinaryPredicate):
        op = predicate.op
        if negate:
            op = "or" if op == "and" else "and"
        left = _dnf(predicate.left, negate)
        right = _dnf(predicate.right, negate)
        if op == "or":
            return left + right
        # Conjunction: distribute over the disjuncts of both sides.
        combined: list[list[AtomicInequality]] = []
        for clause_left in left:
            for clause_right in right:
                combined.append(clause_left + clause_right)
        return combined
    raise SpecificationError(f"unknown predicate node {predicate!r}")


def _dedupe(clause: Iterable[AtomicInequality]) -> Conjunction:
    seen: dict[tuple[Polynomial, bool], AtomicInequality] = {}
    for atom in clause:
        key = (atom.polynomial, atom.strict)
        if key not in seen:
            seen[key] = atom
    return tuple(seen.values())


def to_dnf(predicate: Predicate, negate: bool = False) -> DisjunctiveNormalForm:
    """Disjunctive normal form of ``predicate`` (or of its negation).

    The result is a tuple of clauses; each clause is a tuple of
    :class:`AtomicInequality` whose conjunction implies the original
    predicate, and the disjunction of all clauses is equivalent to it.
    """
    clauses = _dnf(predicate, negate)
    normalised = tuple(_dedupe(clause) for clause in clauses)
    return normalised


def predicate_holds(predicate: Predicate, valuation: Mapping[str, float]) -> bool:
    """Evaluate a predicate through its DNF (reference semantics used in tests)."""
    for clause in to_dnf(predicate):
        if all(atom.holds(valuation) for atom in clause):
            return True
    return False
