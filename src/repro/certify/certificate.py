"""Machine-checkable Positivstellensatz certificates.

A :class:`Certificate` packages everything needed to *re-derive* the paper's
guarantee for one synthesized invariant without trusting the numeric solver:
the exact rational values of the template coefficients, and — per Step-2
constraint pair — the concrete implication together with its witness
polynomials (Putinar: one rational PSD Gram matrix per SOS multiplier;
Handelman: one non-negative rational scalar per assumption product) and the
positivity witness ``eps``.

:func:`check_certificate` validates a certificate by **pure polynomial
identity over** :class:`~fractions.Fraction`: it rebuilds every multiplier
from its Gram matrix (PSD decided exactly via rational ``L D L^T``), expands
the right-hand side of the paper's equation (†) and compares polynomials
coefficient-for-coefficient.  No solver is invoked and nothing is sampled, so
a passing check is a proof — modulo this checker's ~200 lines — that the
implication of every constraint pair holds.

Certificates serialise to JSON (polynomials as text, rationals as
``"p/q"`` strings) and survive the round trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ReproError, SynthesisError, ValidationError
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.monomial import Monomial
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reduction.task import SynthesisTask

#: Witness schemes a certificate can carry.
SCHEMES = ("putinar", "handelman")

_ZERO = Fraction(0)


def certificate_fingerprint(payload: Mapping) -> str:
    """The sha256 content hash of a certificate's canonical JSON form.

    This is the key the persistent store files certificates under (and the
    name responses carry in ``verification["certificate_sha"]``), so an
    auditor can re-load the exact witness a response was gated by.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fraction_to_str(value: Fraction) -> str:
    return str(value)


def _fraction_from_str(text: str) -> Fraction:
    return Fraction(str(text))


def _polynomial_to_str(polynomial: Polynomial) -> str:
    return str(polynomial)


def _polynomial_from_str(text: str) -> Polynomial:
    return parse_polynomial(text)


def _monomial_to_str(monomial: Monomial) -> str:
    return str(Polynomial.from_monomial(monomial))


def _monomial_from_str(text: str) -> Monomial:
    polynomial = parse_polynomial(text)
    terms = list(polynomial.items())
    if len(terms) != 1 or terms[0][1] != 1:
        raise SynthesisError(f"{text!r} is not a monomial")
    return terms[0][0]


@dataclass(frozen=True)
class SOSWitness:
    """One SOS multiplier ``h = y^T Q y`` as its basis and rational Gram matrix.

    PSD-ness of ``Q`` is *not* stored — the checker re-decides it exactly via
    :func:`~repro.certify.linalg.ldl_decompose`, so a tampered Gram cannot
    smuggle a negative direction past the check.
    """

    basis: tuple[Monomial, ...]
    gram: tuple[tuple[Fraction, ...], ...]

    def polynomial(self) -> Polynomial:
        """The exact expansion ``y^T Q y``."""
        result = Polynomial.zero()
        for i, row in enumerate(self.gram):
            for j, value in enumerate(row):
                if value:
                    result = result + Polynomial.from_monomial(self.basis[i] * self.basis[j], value)
        return result

    def is_psd(self) -> bool:
        """Exact PSD decision of the Gram matrix."""
        from repro.certify.linalg import ldl_decompose

        return ldl_decompose(self.gram) is not None

    def to_dict(self) -> dict:
        return {
            "basis": [_monomial_to_str(monomial) for monomial in self.basis],
            "gram": [[_fraction_to_str(value) for value in row] for row in self.gram],
        }

    @staticmethod
    def from_dict(payload: Mapping) -> "SOSWitness":
        return SOSWitness(
            basis=tuple(_monomial_from_str(text) for text in payload["basis"]),
            gram=tuple(
                tuple(_fraction_from_str(value) for value in row) for row in payload["gram"]
            ),
        )


@dataclass(frozen=True)
class PairCertificate:
    """The certified implication of one Step-2 constraint pair.

    ``assumptions``/``conclusion`` are the pair's polynomials with the exact
    rational template coefficients substituted in (concrete, over program
    variables only).  For the Putinar scheme ``multipliers`` holds one
    :class:`SOSWitness` per assumption plus the free multiplier ``h_0`` at
    index 0; for Handelman, ``lambdas[k]`` is the non-negative coefficient of
    the assumption product ``products[k]`` (a tuple of assumption indices;
    the empty tuple is the constant product 1).
    """

    name: str
    target: str
    scheme: str
    assumptions: tuple[Polynomial, ...]
    conclusion: Polynomial
    witness: Fraction | None = None
    multipliers: tuple[SOSWitness, ...] = ()
    lambdas: tuple[Fraction, ...] = ()
    products: tuple[tuple[int, ...], ...] = ()

    # -- the exact right-hand side of equation (†) --------------------------------

    def rhs(self) -> Polynomial:
        """``eps + h_0 + sum_i h_i * g_i`` (Putinar) / the product combination (Handelman)."""
        total = Polynomial.zero()
        if self.witness is not None:
            total = total + Polynomial.constant(self.witness)
        if self.scheme == "putinar":
            for index, multiplier in enumerate(self.multipliers):
                expanded = multiplier.polynomial()
                if index == 0:
                    total = total + expanded
                else:
                    total = total + expanded * self.assumptions[index - 1]
            return total
        for coefficient, combination in zip(self.lambdas, self.products):
            if not coefficient:
                continue
            product = Polynomial.constant(coefficient)
            for assumption_index in combination:
                product = product * self.assumptions[assumption_index]
            total = total + product
        return total

    def check(self) -> str | None:
        """Validate this pair's witness; returns a failure reason or ``None``."""
        if self.scheme not in SCHEMES:
            return f"unknown scheme {self.scheme!r}"
        if self.witness is not None and self.witness <= 0:
            return f"positivity witness eps = {self.witness} is not > 0"
        if self.scheme == "putinar":
            if len(self.multipliers) != len(self.assumptions) + 1:
                return (
                    f"expected {len(self.assumptions) + 1} multipliers, "
                    f"got {len(self.multipliers)}"
                )
            for index, multiplier in enumerate(self.multipliers):
                # The PSD test reads a square block, the expansion every entry:
                # both must see the same matrix, one row and column per basis monomial.
                side = len(multiplier.basis)
                if len(multiplier.gram) != side or any(len(row) != side for row in multiplier.gram):
                    return f"Gram matrix of multiplier h_{index} is not {side}x{side} for its basis"
                if not multiplier.is_psd():
                    return f"Gram matrix of multiplier h_{index} is not PSD"
        else:
            if len(self.lambdas) != len(self.products):
                return "lambda/product length mismatch"
            for coefficient, combination in zip(self.lambdas, self.products):
                if coefficient < 0:
                    return f"lambda[{combination}] = {coefficient} is negative"
                if any(not 0 <= i < len(self.assumptions) for i in combination):
                    return f"product {combination} references a missing assumption"
        difference = self.conclusion - self.rhs()
        if not difference.is_zero():
            return f"polynomial identity fails with residual {difference}"
        return None

    # -- JSON ---------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "scheme": self.scheme,
            "assumptions": [_polynomial_to_str(p) for p in self.assumptions],
            "conclusion": _polynomial_to_str(self.conclusion),
            "witness": _fraction_to_str(self.witness) if self.witness is not None else None,
            "multipliers": [witness.to_dict() for witness in self.multipliers],
            "lambdas": [_fraction_to_str(value) for value in self.lambdas],
            "products": [list(combination) for combination in self.products],
        }

    @staticmethod
    def from_dict(payload: Mapping) -> "PairCertificate":
        witness = payload.get("witness")
        return PairCertificate(
            name=str(payload.get("name", "")),
            target=str(payload.get("target", "")),
            scheme=str(payload.get("scheme", "putinar")),
            assumptions=tuple(_polynomial_from_str(p) for p in payload.get("assumptions", [])),
            conclusion=_polynomial_from_str(payload["conclusion"]),
            witness=_fraction_from_str(witness) if witness is not None else None,
            multipliers=tuple(
                SOSWitness.from_dict(entry) for entry in payload.get("multipliers", [])
            ),
            lambdas=tuple(_fraction_from_str(value) for value in payload.get("lambdas", [])),
            products=tuple(
                tuple(int(i) for i in combination) for combination in payload.get("products", [])
            ),
        )


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of :func:`check_certificate`."""

    ok: bool
    pairs_checked: int
    failures: tuple[tuple[str, str], ...] = ()  # (pair name, reason)

    def summary(self) -> str:
        status = "VALID" if self.ok else "INVALID"
        detail = "" if self.ok else f"; first failure: {self.failures[0][0]}: {self.failures[0][1]}"
        return f"{status}: {self.pairs_checked} pairs checked{detail}"


@dataclass(frozen=True)
class Certificate:
    """An exact, independently checkable witness for one synthesized invariant."""

    scheme: str
    assignment: Mapping[str, Fraction] = field(default_factory=dict)
    pairs: tuple[PairCertificate, ...] = ()
    denominator: int = 1

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "assignment": {
                name: _fraction_to_str(value) for name, value in sorted(self.assignment.items())
            },
            "pairs": [pair.to_dict() for pair in self.pairs],
            "denominator": self.denominator,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def fingerprint(self) -> str:
        """This certificate's stable content hash (see :func:`certificate_fingerprint`)."""
        return certificate_fingerprint(self.to_dict())

    @staticmethod
    def from_dict(payload: Mapping) -> "Certificate":
        """Rebuild a certificate from its JSON form.

        Malformed documents — truncated blobs that still parse, fields of the
        wrong shape, unparsable polynomial/fraction text — raise a
        :class:`~repro.errors.ValidationError`, never a bare
        ``KeyError``/``TypeError``: the persistent store's miss-and-repair
        boundary (and every other loader) catches exactly that.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError("certificate document must be a JSON object")
        try:
            return Certificate(
                scheme=str(payload.get("scheme", "putinar")),
                assignment={
                    str(name): _fraction_from_str(value)
                    for name, value in (payload.get("assignment") or {}).items()
                },
                pairs=tuple(
                    PairCertificate.from_dict(entry) for entry in payload.get("pairs") or []
                ),
                denominator=int(payload.get("denominator", 1)),
            )
        except ValidationError:
            raise
        except (ReproError, TypeError, ValueError, KeyError, AttributeError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed certificate document: {exc}") from exc

    @staticmethod
    def from_json(text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"certificate document is not valid JSON: {exc}") from exc
        return Certificate.from_dict(payload)


def _concretize(polynomial: Polynomial, assignment: Mapping[str, Fraction]) -> Polynomial:
    """Substitute every unknown's exact value, or 0 for an unknown ``assignment`` lacks.

    Equal to :meth:`Polynomial.substitute` with one constant per unknown, term
    order included: that order becomes the row order of the lift's
    coefficient-matching equations.  One pass scales each term in integers;
    the sums then run over one common denominator, and a sum that cancels
    to 0 leaves the map, so a term that reappears after it goes to the end,
    as in ``substitute``.
    """
    scaled: list[tuple[Monomial, int, int]] = []
    substituted = False
    for monomial, coefficient in polynomial.items():
        numerator, denominator = coefficient.numerator, coefficient.denominator
        kept = []
        for item in monomial.items:
            name, exponent = item
            if not name.startswith(UNKNOWN_PREFIX):
                kept.append(item)
                continue
            substituted = True
            value = assignment.get(name, _ZERO)
            if exponent == 1:
                numerator *= value.numerator
                denominator *= value.denominator
            else:
                numerator *= value.numerator**exponent
                denominator *= value.denominator**exponent
        if not numerator:
            continue
        if len(kept) != len(monomial.items):
            monomial = Monomial._from_tuple(tuple(kept))
        scaled.append((monomial, numerator, denominator))
    if not substituted:
        return polynomial
    common = lcm(*(denominator for _, _, denominator in scaled))
    sums: dict[Monomial, int] = {}
    for monomial, numerator, denominator in scaled:
        value = numerator * (common // denominator)
        existing = sums.get(monomial)
        if existing is None:
            sums[monomial] = value
        elif existing + value:
            sums[monomial] = existing + value
        else:
            del sums[monomial]
    return Polynomial._from_validated(
        {monomial: Fraction(value, common) for monomial, value in sums.items()}
    )


def check_certificate(
    certificate: Certificate, task: "SynthesisTask | None" = None
) -> CertificateCheck:
    """Validate a certificate by exact polynomial identity over ``Fraction``.

    Per pair: the positivity witness must be strictly positive, every Putinar
    multiplier's Gram matrix must be square with one row per basis monomial
    and PSD (decided by exact rational ``L D L^T``), every Handelman lambda
    non-negative, and the paper's equation (†) must hold as a *polynomial
    identity* — the conclusion minus the expanded right-hand side must be the
    zero polynomial.  Nothing is sampled and no solver runs.

    When ``task`` is supplied the certificate is additionally *bound* to that
    reduction: every Step-2 constraint pair of the task must appear in the
    certificate, and its concrete assumptions/conclusion must equal the
    task's pair polynomials with ``certificate.assignment`` substituted —
    so the certificate provably certifies this program's proof obligations,
    not a look-alike set.
    """
    failures: list[tuple[str, str]] = []
    for pair in certificate.pairs:
        reason = pair.check()
        if reason is not None:
            failures.append((pair.name, reason))
    checked = len(certificate.pairs)
    if task is not None:
        by_name = {pair.name: pair for pair in certificate.pairs}
        for task_pair in task.pairs:
            certified = by_name.get(task_pair.name)
            if certified is None:
                failures.append((task_pair.name, "constraint pair missing from certificate"))
                continue
            expected_conclusion = _concretize(task_pair.conclusion, certificate.assignment)
            expected_assumptions = tuple(
                _concretize(polynomial, certificate.assignment)
                for polynomial in task_pair.assumptions
            )
            if certified.conclusion != expected_conclusion:
                failures.append(
                    (task_pair.name, "certified conclusion differs from the task's pair")
                )
            elif certified.assumptions != expected_assumptions:
                failures.append(
                    (task_pair.name, "certified assumptions differ from the task's pair")
                )
    return CertificateCheck(ok=not failures, pairs_checked=checked, failures=tuple(failures))
