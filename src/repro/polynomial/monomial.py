"""Immutable, interned power-product monomials.

A :class:`Monomial` is a finite map from variable names to positive integer
exponents, e.g. ``x**2 * y``.  The empty map is the constant monomial ``1``.

Monomials are *flyweights*: every construction path canonicalises the power
map to a sorted ``(variable, exponent)`` tuple and returns the unique interned
instance for that tuple, so equality is identity, the hash is precomputed and
the graded-lexicographic sort key is cached.  The validating public
constructor :class:`Monomial` remains the boundary for untrusted input; all
internal arithmetic goes through the trusted :meth:`Monomial._from_tuple`
fast path, which skips re-validation entirely.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import PolynomialError

_Items = "tuple[tuple[str, int], ...]"


def _restore_interned(items: tuple[tuple[str, int], ...]) -> "Monomial":
    """Pickle/copy helper: re-intern a monomial from its canonical tuple."""
    return Monomial._from_tuple(items)


class Monomial:
    """A power product of variables, such as ``x**2 * y``.

    Instances are immutable and interned: two monomials with the same power
    map are always the *same object*, so ``==`` is identity-speed and
    dictionary lookups never re-hash the power map.
    """

    __slots__ = ("_items", "_powers", "_hash", "_key")

    #: Global flyweight table, keyed by the canonical sorted item tuple.
    _interned: dict[tuple[tuple[str, int], ...], "Monomial"] = {}

    def __new__(cls, powers: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        cleaned: dict[str, int] = {}
        for var, exp in dict(powers).items():
            if not isinstance(var, str) or not var:
                raise PolynomialError(f"variable names must be non-empty strings, got {var!r}")
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise PolynomialError(f"exponent of {var!r} must be an int, got {exp!r}")
            if exp < 0:
                raise PolynomialError(f"negative exponent {exp} for variable {var!r}")
            if exp > 0:
                cleaned[var] = exp
        return cls._from_tuple(tuple(sorted(cleaned.items())))

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_tuple(cls, items: tuple[tuple[str, int], ...]) -> "Monomial":
        """Trusted raw constructor used by all internal arithmetic.

        ``items`` must already be canonical: sorted by variable name, with
        every exponent a positive ``int``.  No validation is performed.
        """
        table = cls._interned
        cached = table.get(items)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self._items = items
        self._powers = dict(items)
        self._hash = hash(items)
        degree = 0
        for _, exp in items:
            degree += exp
        self._key = (degree, items)
        table[items] = self
        return self

    @staticmethod
    def one() -> "Monomial":
        """The constant monomial ``1``."""
        return _ONE

    @staticmethod
    def of(var: str, exponent: int = 1) -> "Monomial":
        """The monomial ``var**exponent``."""
        return Monomial({var: exponent})

    @classmethod
    def interned_count(cls) -> int:
        """Number of distinct monomials currently in the flyweight table."""
        return len(cls._interned)

    # -- basic protocol ------------------------------------------------------

    def __reduce__(self):
        return (_restore_interned, (self._items,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Monomial):
            # Interning makes distinct instances unequal by construction.
            return self._items == other._items
        return NotImplemented

    def __lt__(self, other: "Monomial") -> bool:
        return self._key < other._key

    def __le__(self, other: "Monomial") -> bool:
        return self._key <= other._key

    def __gt__(self, other: "Monomial") -> bool:
        return self._key > other._key

    def __ge__(self, other: "Monomial") -> bool:
        return self._key >= other._key

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._items)

    def __contains__(self, var: str) -> bool:
        return var in self._powers

    def __bool__(self) -> bool:
        """True for every monomial except the constant ``1``."""
        return bool(self._items)

    # -- accessors -----------------------------------------------------------

    @property
    def powers(self) -> dict[str, int]:
        """A copy of the variable-to-exponent map."""
        return dict(self._powers)

    @property
    def items(self) -> tuple[tuple[str, int], ...]:
        """The canonical sorted ``(variable, exponent)`` tuple (no copy)."""
        return self._items

    def exponent(self, var: str) -> int:
        """The exponent of ``var`` in this monomial (0 when absent)."""
        return self._powers.get(var, 0)

    def degree(self) -> int:
        """Total degree, i.e. the sum of all exponents."""
        return self._key[0]

    def variables(self) -> frozenset[str]:
        """The set of variables occurring with a positive exponent."""
        return frozenset(self._powers)

    def is_constant(self) -> bool:
        """Whether this is the constant monomial ``1``."""
        return not self._items

    def sort_key(self) -> tuple:
        """Graded-lexicographic key: first by total degree, then lexicographically."""
        return self._key

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        a = self._items
        b = other._items
        if not b:
            return self
        if not a:
            return other
        # Both sides are canonical sorted tuples, so the product is a merge.
        merged: list[tuple[str, int]] = []
        i = j = 0
        len_a = len(a)
        len_b = len(b)
        while i < len_a and j < len_b:
            var_a, exp_a = a[i]
            var_b, exp_b = b[j]
            if var_a == var_b:
                merged.append((var_a, exp_a + exp_b))
                i += 1
                j += 1
            elif var_a < var_b:
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        if i < len_a:
            merged.extend(a[i:])
        elif j < len_b:
            merged.extend(b[j:])
        return Monomial._from_tuple(tuple(merged))

    def __pow__(self, exponent: int) -> "Monomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise PolynomialError(f"monomial exponent must be a non-negative int, got {exponent!r}")
        if exponent == 0:
            return _ONE
        if exponent == 1:
            return self
        return Monomial._from_tuple(tuple((var, exp * exponent) for var, exp in self._items))

    def divides(self, other: "Monomial") -> bool:
        """Whether this monomial divides ``other`` exactly."""
        other_powers = other._powers
        return all(other_powers.get(var, 0) >= exp for var, exp in self._items)

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact division ``self / other``; raises if not divisible."""
        if not other.divides(self):
            raise PolynomialError(f"{other} does not divide {self}")
        quotient = dict(self._powers)
        for var, exp in other._items:
            remaining = quotient[var] - exp
            if remaining:
                quotient[var] = remaining
            else:
                del quotient[var]
        return Monomial._from_tuple(tuple(sorted(quotient.items())))

    def gcd(self, other: "Monomial") -> "Monomial":
        """Greatest common divisor (variable-wise minimum of exponents)."""
        other_powers = other._powers
        shared = tuple(
            (var, min(exp, other_powers[var]))
            for var, exp in self._items
            if var in other_powers
        )
        return Monomial._from_tuple(shared)

    def lcm(self, other: "Monomial") -> "Monomial":
        """Least common multiple (variable-wise maximum of exponents)."""
        merged = dict(self._powers)
        for var, exp in other._items:
            existing = merged.get(var)
            merged[var] = exp if existing is None else max(existing, exp)
        return Monomial._from_tuple(tuple(sorted(merged.items())))

    def restrict(self, variables: Iterable[str]) -> "Monomial":
        """The part of this monomial involving only ``variables`` (a set is used as is)."""
        keep = variables if isinstance(variables, (set, frozenset)) else set(variables)
        return Monomial._from_tuple(tuple(item for item in self._items if item[0] in keep))

    def exclude(self, variables: Iterable[str]) -> "Monomial":
        """The part of this monomial involving none of ``variables`` (a set is used as is)."""
        drop = variables if isinstance(variables, (set, frozenset)) else set(variables)
        return Monomial._from_tuple(tuple(item for item in self._items if item[0] not in drop))

    def evaluate(self, valuation: Mapping[str, float]) -> float:
        """Numeric value of the monomial under a (complete) valuation."""
        result = 1.0
        for var, exp in self._items:
            try:
                base = valuation[var]
            except KeyError as exc:
                raise PolynomialError(f"valuation is missing variable {var!r}") from exc
            result *= base**exp
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Monomial":
        """Rename variables according to ``mapping`` (unlisted variables are kept)."""
        renamed: dict[str, int] = {}
        for var, exp in self._items:
            target = mapping.get(var, var)
            existing = renamed.get(target)
            renamed[target] = exp if existing is None else existing + exp
        return Monomial._from_tuple(tuple(sorted(renamed.items())))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        if not self._items:
            return "1"
        parts = []
        for var, exp in self._items:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self._powers!r})"


_ONE = Monomial()
