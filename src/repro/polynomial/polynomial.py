"""Sparse multivariate polynomials with exact rational coefficients.

The validating :class:`Polynomial` constructor is the boundary for untrusted
input; all internal arithmetic goes through the trusted
:meth:`Polynomial._from_validated` raw constructor, which takes ownership of
an already-clean ``{Monomial: non-zero Fraction}`` map and skips coefficient
re-coercion entirely.  Together with monomial interning this makes the hot
add/mul/substitute paths allocation- and validation-free.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.errors import PolynomialError
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import MonomialOrder, order_key

Scalar = Union[int, float, Fraction]
PolynomialLike = Union["Polynomial", Monomial, Scalar]

_ZERO_FRACTION = Fraction(0)


def _common_denominator(terms: Mapping[Monomial, Fraction]) -> int:
    """Least common multiple of all coefficient denominators."""
    lcm = 1
    for coefficient in terms.values():
        denominator = coefficient.denominator
        if denominator != 1:
            lcm = lcm * denominator // gcd(lcm, denominator)
    return lcm


def _to_fraction(value: Scalar) -> Fraction:
    # Reject booleans before any numeric coercion: bool is a subclass of int
    # (and of numbers.Rational), so it would otherwise silently coerce to 0/1.
    if isinstance(value, bool):
        raise PolynomialError("booleans are not valid polynomial coefficients")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise PolynomialError(f"cannot interpret {value!r} as a rational coefficient")


class Polynomial:
    """A multivariate polynomial with :class:`fractions.Fraction` coefficients.

    Instances are immutable.  The representation is a sparse mapping from
    :class:`~repro.polynomial.monomial.Monomial` to non-zero coefficients.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        cleaned: dict[Monomial, Fraction] = {}
        for monomial, coefficient in dict(terms).items():
            if not isinstance(monomial, Monomial):
                raise PolynomialError(f"term keys must be Monomial, got {monomial!r}")
            value = _to_fraction(coefficient)
            if value:
                cleaned[monomial] = value
        self._terms = cleaned
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def _from_validated(cls, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Trusted raw constructor used by all internal arithmetic.

        ``terms`` must already be clean — every key an (interned)
        :class:`Monomial`, every value a non-zero :class:`Fraction` — and
        ownership of the dict transfers to the new polynomial.
        """
        self = object.__new__(cls)
        self._terms = terms
        self._hash = None
        return self

    @staticmethod
    def zero() -> "Polynomial":
        """The zero polynomial."""
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        """The constant polynomial 1."""
        return _ONE

    @staticmethod
    def constant(value: Scalar) -> "Polynomial":
        """The constant polynomial with the given value."""
        return Polynomial({Monomial.one(): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        """The polynomial consisting of the single variable ``name``."""
        return Polynomial({Monomial.of(name): 1})

    @staticmethod
    def from_monomial(monomial: Monomial, coefficient: Scalar = 1) -> "Polynomial":
        """The polynomial ``coefficient * monomial``."""
        return Polynomial({monomial: coefficient})

    @staticmethod
    def coerce(value: PolynomialLike) -> "Polynomial":
        """Coerce a scalar, monomial or polynomial into a :class:`Polynomial`."""
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, Monomial):
            return Polynomial({value: 1})
        return Polynomial.constant(value)

    def __reduce__(self):
        return (_restore_polynomial, (tuple(self._terms.items()),))

    # -- basic protocol ------------------------------------------------------

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        """Number of (non-zero) terms."""
        return len(self._terms)

    # -- accessors -----------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A copy of the monomial-to-coefficient map."""
        return dict(self._terms)

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate over ``(monomial, coefficient)`` pairs without copying."""
        return iter(self._terms.items())

    def coefficient(self, monomial: Monomial) -> Fraction:
        """The coefficient of ``monomial`` (0 when absent)."""
        return self._terms.get(monomial, _ZERO_FRACTION)

    def monomials(self) -> list[Monomial]:
        """All monomials with a non-zero coefficient, sorted deterministically."""
        return sorted(self._terms, key=Monomial.sort_key)

    def variables(self) -> frozenset[str]:
        """All variables occurring in the polynomial."""
        names: set[str] = set()
        for monomial in self._terms:
            names.update(monomial.variables())
        return frozenset(names)

    def degree(self) -> int:
        """Total degree (0 for constants; -1 for the zero polynomial by convention)."""
        if not self._terms:
            return -1
        return max(monomial.degree() for monomial in self._terms)

    def degree_in(self, var: str) -> int:
        """Maximum exponent of ``var`` across all terms."""
        if not self._terms:
            return -1
        return max(monomial.exponent(var) for monomial in self._terms)

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return not self._terms

    def is_constant(self) -> bool:
        """Whether this polynomial has no variables."""
        return all(monomial.is_constant() for monomial in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial; raises for non-constant ones."""
        if not self.is_constant():
            raise PolynomialError(f"{self} is not a constant polynomial")
        return self.coefficient(Monomial.one())

    def constant_term(self) -> Fraction:
        """The coefficient of the constant monomial."""
        return self.coefficient(Monomial.one())

    def leading_term(
        self, variables: Sequence[str] | None = None, order: MonomialOrder = MonomialOrder.GRLEX
    ) -> tuple[Monomial, Fraction]:
        """The leading (monomial, coefficient) pair under the given order."""
        if not self._terms:
            raise PolynomialError("the zero polynomial has no leading term")
        ordered_vars = list(variables) if variables is not None else sorted(self.variables())
        leading = max(self._terms, key=lambda m: order_key(order, m, ordered_vars))
        return leading, self._terms[leading]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: PolynomialLike) -> "Polynomial":
        other_poly = Polynomial.coerce(other)
        if not other_poly._terms:
            return self
        if not self._terms:
            return other_poly
        merged = dict(self._terms)
        for monomial, coefficient in other_poly._terms.items():
            existing = merged.get(monomial)
            if existing is None:
                merged[monomial] = coefficient
            else:
                total = existing + coefficient
                if total:
                    merged[monomial] = total
                else:
                    del merged[monomial]
        return Polynomial._from_validated(merged)

    def __radd__(self, other: PolynomialLike) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_validated(
            {monomial: -coefficient for monomial, coefficient in self._terms.items()}
        )

    def __sub__(self, other: PolynomialLike) -> "Polynomial":
        return self.__add__(-Polynomial.coerce(other))

    def __rsub__(self, other: PolynomialLike) -> "Polynomial":
        return Polynomial.coerce(other).__sub__(self)

    def __mul__(self, other: PolynomialLike) -> "Polynomial":
        other_poly = Polynomial.coerce(other)
        if not self._terms or not other_poly._terms:
            return _ZERO
        # Clear denominators so the O(n*m) accumulation runs on plain ints;
        # Fraction normalisation (a gcd per operation) then only happens once
        # per *output* term instead of once per term pair.
        den_a = _common_denominator(self._terms)
        den_b = _common_denominator(other_poly._terms)
        ints_a = [
            (mono, coeff.numerator * (den_a // coeff.denominator))
            for mono, coeff in self._terms.items()
        ]
        ints_b = [
            (mono, coeff.numerator * (den_b // coeff.denominator))
            for mono, coeff in other_poly._terms.items()
        ]
        product: dict[Monomial, int] = {}
        get = product.get
        for mono_a, val_a in ints_a:
            for mono_b, val_b in ints_b:
                key = mono_a * mono_b
                existing = get(key)
                contribution = val_a * val_b
                product[key] = contribution if existing is None else existing + contribution
        denominator = den_a * den_b
        if denominator == 1:
            cleaned = {mono: Fraction(value) for mono, value in product.items() if value}
        else:
            cleaned = {mono: Fraction(value, denominator) for mono, value in product.items() if value}
        return Polynomial._from_validated(cleaned)

    def __rmul__(self, other: PolynomialLike) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError(f"polynomial exponent must be a non-negative int, got {exponent!r}")
        result = _ONE
        base = self
        power = exponent
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __truediv__(self, other: Scalar) -> "Polynomial":
        divisor = _to_fraction(other)
        if divisor == 0:
            raise PolynomialError("division of a polynomial by zero")
        return Polynomial._from_validated({m: c / divisor for m, c in self._terms.items()})

    def scale(self, factor: Scalar) -> "Polynomial":
        """Multiply every coefficient by ``factor``."""
        value = _to_fraction(factor)
        if not value:
            return _ZERO
        return Polynomial._from_validated({m: c * value for m, c in self._terms.items()})

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, valuation: Mapping[str, Scalar]) -> Fraction:
        """Exact value under a valuation; missing variables raise an error."""
        total = _ZERO_FRACTION
        for monomial, coefficient in self._terms.items():
            term = coefficient
            for var, exp in monomial.items:
                if var not in valuation:
                    raise PolynomialError(f"valuation is missing variable {var!r}")
                term *= _to_fraction(valuation[var]) ** exp
            total += term
        return total

    def evaluate_float(self, valuation: Mapping[str, float]) -> float:
        """Floating-point value under a valuation (fast path for solvers)."""
        total = 0.0
        for monomial, coefficient in self._terms.items():
            term = float(coefficient)
            for var, exp in monomial.items:
                term *= float(valuation[var]) ** exp
            total += term
        return total

    def substitute(self, mapping: Mapping[str, PolynomialLike]) -> "Polynomial":
        """Simultaneously substitute polynomials for variables.

        Variables not listed in ``mapping`` are left untouched.  This is used
        both for the paper's update-function composition (``g o alpha``) and
        for the textual substitutions ``phi[x <- y]`` of Section 4.  When every
        replacement is a constant (exact template coefficients, program
        states), each term's coefficient is scaled directly.
        """
        if not mapping:
            return self
        replacements = {name: Polynomial.coerce(value) for name, value in mapping.items()}
        if all(replacement.is_constant() for replacement in replacements.values()):
            return self._substitute_constants(
                {name: replacement.constant_term() for name, replacement in replacements.items()}
            )
        accumulated: dict[Monomial, Fraction] = {}
        power_cache: dict[tuple[str, int], Polynomial] = {}
        for monomial, coefficient in self._terms.items():
            term = Polynomial._from_validated({_ONE_MONOMIAL: coefficient})
            for var, exp in monomial.items:
                replacement = replacements.get(var)
                if replacement is None:
                    factor_terms = {Monomial.of(var, exp): _ONE_FRACTION}
                    term = term * Polynomial._from_validated(factor_terms)
                    continue
                cached = power_cache.get((var, exp))
                if cached is None:
                    cached = replacement**exp
                    power_cache[(var, exp)] = cached
                term = term * cached
            for key, value in term._terms.items():
                existing = accumulated.get(key)
                if existing is None:
                    accumulated[key] = value
                else:
                    total = existing + value
                    if total:
                        accumulated[key] = total
                    else:
                        del accumulated[key]
        return Polynomial._from_validated(accumulated)

    def _substitute_constants(self, constants: Mapping[str, Fraction]) -> "Polynomial":
        """:meth:`substitute` for constant replacements: scale coefficients, drop variables."""
        accumulated: dict[Monomial, Fraction] = {}
        for monomial, coefficient in self._terms.items():
            kept: list[tuple[str, int]] = []
            for var, exp in monomial.items:
                constant = constants.get(var)
                if constant is None:
                    kept.append((var, exp))
                else:
                    coefficient *= constant if exp == 1 else constant**exp
            if not coefficient:
                continue
            unchanged = len(kept) == len(monomial.items)
            key = monomial if unchanged else Monomial._from_tuple(tuple(kept))
            existing = accumulated.get(key)
            if existing is None:
                accumulated[key] = coefficient
            else:
                total = existing + coefficient
                if total:
                    accumulated[key] = total
                else:
                    del accumulated[key]
        return Polynomial._from_validated(accumulated)

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables (a special case of :meth:`substitute` that stays sparse)."""
        renamed: dict[Monomial, Fraction] = {}
        for monomial, coefficient in self._terms.items():
            key = monomial.rename(mapping)
            existing = renamed.get(key)
            if existing is None:
                renamed[key] = coefficient
            else:
                total = existing + coefficient
                if total:
                    renamed[key] = total
                else:
                    del renamed[key]
        return Polynomial._from_validated(renamed)

    def partial_derivative(self, var: str) -> "Polynomial":
        """Formal partial derivative with respect to ``var``."""
        derived: dict[Monomial, Fraction] = {}
        single = Monomial.of(var)
        for monomial, coefficient in self._terms.items():
            exp = monomial.exponent(var)
            if exp == 0:
                continue
            lowered = monomial.divide(single)
            existing = derived.get(lowered)
            value = coefficient * exp
            derived[lowered] = value if existing is None else existing + value
        return Polynomial._from_validated({m: c for m, c in derived.items() if c})

    def restrict_to(self, variables: Iterable[str]) -> "Polynomial":
        """Terms involving only ``variables`` (other terms are dropped)."""
        keep = set(variables)
        return Polynomial._from_validated(
            {m: c for m, c in self._terms.items() if m.variables() <= keep}
        )

    # -- display --------------------------------------------------------------

    def _format_coefficient(self, coefficient: Fraction) -> str:
        if coefficient.denominator == 1:
            return str(coefficient.numerator)
        return f"{coefficient.numerator}/{coefficient.denominator}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for monomial in sorted(self._terms, key=Monomial.sort_key, reverse=True):
            coefficient = self._terms[monomial]
            sign = "-" if coefficient < 0 else "+"
            magnitude = abs(coefficient)
            if monomial.is_constant():
                body = self._format_coefficient(magnitude)
            elif magnitude == 1:
                body = str(monomial)
            else:
                body = f"{self._format_coefficient(magnitude)}*{monomial}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        rendered = first_body if first_sign == "+" else f"-{first_body}"
        for sign, body in parts[1:]:
            rendered += f" {sign} {body}"
        return rendered

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"


def _restore_polynomial(items: tuple[tuple[Monomial, Fraction], ...]) -> Polynomial:
    """Pickle helper: rebuild from (monomial, coefficient) pairs via the fast path."""
    return Polynomial._from_validated(dict(items))


_ZERO = Polynomial()
_ONE_MONOMIAL = Monomial.one()
_ONE_FRACTION = Fraction(1)
_ONE = Polynomial._from_validated({_ONE_MONOMIAL: _ONE_FRACTION})
