"""Property tests: the interned fast-path core is observationally equivalent
to the validating constructors.

All internal arithmetic goes through the trusted raw constructors
(``Monomial._from_tuple`` / ``Polynomial._from_validated``).  These tests
check, over random rational polynomials, that the results of add, mul, pow and
substitution are indistinguishable from polynomials rebuilt through the
validating public constructors, and agree with an independent dict-based
reference implementation of the ring operations.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial

VARIABLES = ["x", "y", "z"]

coefficients = st.integers(min_value=-8, max_value=8).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

power_maps = st.dictionaries(
    st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=3), max_size=3
)

monomials = power_maps.map(Monomial)

polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)


# -- reference implementation over plain dicts --------------------------------


def to_reference(polynomial: Polynomial) -> dict:
    """A ``{sorted (var, exp) tuple: Fraction}`` view of a polynomial."""
    return {monomial.items: coefficient for monomial, coefficient in polynomial.items()}


def reference_add(left: dict, right: dict) -> dict:
    total = dict(left)
    for key, value in right.items():
        total[key] = total.get(key, Fraction(0)) + value
    return {key: value for key, value in total.items() if value}


def reference_mul(left: dict, right: dict) -> dict:
    product: dict = {}
    for key_a, value_a in left.items():
        for key_b, value_b in right.items():
            merged: dict = {}
            for var, exp in (*key_a, *key_b):
                merged[var] = merged.get(var, 0) + exp
            key = tuple(sorted(merged.items()))
            product[key] = product.get(key, Fraction(0)) + value_a * value_b
    return {key: value for key, value in product.items() if value}


def reference_pow(base: dict, exponent: int) -> dict:
    result = {(): Fraction(1)}
    for _ in range(exponent):
        result = reference_mul(result, base)
    return result


def from_reference(reference: dict) -> Polynomial:
    """Rebuild through the *validating* constructors only."""
    return Polynomial({Monomial(dict(key)): value for key, value in reference.items()})


def assert_equivalent(fast: Polynomial, reference: dict) -> None:
    rebuilt = from_reference(reference)
    assert fast == rebuilt
    assert hash(fast) == hash(rebuilt)
    assert str(fast) == str(rebuilt)
    assert to_reference(fast) == reference
    # Round-tripping the fast-path result through the validating constructor
    # must be the identity observationally.
    assert Polynomial(fast.terms) == fast
    for monomial in fast.monomials():
        revalidated = Monomial(monomial.powers)
        assert revalidated is monomial  # interning: equal implies identical
        assert revalidated.sort_key() == (monomial.degree(), monomial.items)


@settings(max_examples=80, deadline=None)
@given(polynomials, polynomials)
def test_fast_add_equals_validated_add(p, q):
    assert_equivalent(p + q, reference_add(to_reference(p), to_reference(q)))


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_fast_mul_equals_validated_mul(p, q):
    assert_equivalent(p * q, reference_mul(to_reference(p), to_reference(q)))


@settings(max_examples=30, deadline=None)
@given(polynomials, st.integers(min_value=0, max_value=3))
def test_fast_pow_equals_validated_pow(p, exponent):
    assert_equivalent(p**exponent, reference_pow(to_reference(p), exponent))


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, st.sampled_from(VARIABLES))
def test_fast_substitution_equals_validated_substitution(p, replacement, variable):
    substituted = p.substitute({variable: replacement})
    replacement_reference = to_reference(replacement)
    total: dict = {}
    for key, coefficient in to_reference(p).items():
        term = {(): coefficient}
        for var, exp in key:
            if var == variable:
                factor = reference_pow(replacement_reference, exp)
            else:
                factor = {((var, exp),): Fraction(1)}
            term = reference_mul(term, factor)
        total = reference_add(total, term)
    assert_equivalent(substituted, total)


@settings(max_examples=80, deadline=None)
@given(
    polynomials,
    st.dictionaries(st.sampled_from(VARIABLES), coefficients, min_size=1, max_size=3),
)
def test_constant_substitution_equals_the_generic_path(p, constants):
    direct = p.substitute(constants)
    # A non-constant replacement for a variable ``p`` lacks changes nothing
    # but sends the substitution down the generic polynomial-product path.
    generic = p.substitute({**constants, "w": Polynomial.variable("w") + 1})
    assert_equivalent(direct, to_reference(generic))


@settings(max_examples=80, deadline=None)
@given(power_maps, power_maps)
def test_monomial_interning_is_canonical(a, b):
    left, right = Monomial(a), Monomial(b)
    product = left * right
    revalidated = Monomial(product.powers)
    assert revalidated is product
    assert (left == right) == (left is right)
    merged = dict(a)
    for var, exp in b.items():
        merged[var] = merged.get(var, 0) + exp
    assert product.powers == merged
