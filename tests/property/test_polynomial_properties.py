"""Property-based tests (hypothesis) for the polynomial substrate."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial

VARIABLES = ["x", "y", "z"]

coefficients = st.integers(min_value=-8, max_value=8).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

monomials = st.dictionaries(
    st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=3), max_size=3
).map(Monomial)

polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)

valuations = st.fixed_dictionaries(
    {name: st.integers(min_value=-5, max_value=5).map(Fraction) for name in VARIABLES}
)


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polynomials)
def test_additive_inverse(p):
    assert (p + (-p)).is_zero()


@settings(max_examples=60, deadline=None)
@given(polynomials)
def test_multiplicative_identity(p):
    assert p * Polynomial.one() == p
    assert (p * Polynomial.zero()).is_zero()


@settings(max_examples=60, deadline=None)
@given(polynomials, polynomials, valuations)
def test_evaluation_is_ring_homomorphism(p, q, valuation):
    assert (p + q).evaluate(valuation) == p.evaluate(valuation) + q.evaluate(valuation)
    assert (p * q).evaluate(valuation) == p.evaluate(valuation) * q.evaluate(valuation)


@settings(max_examples=40, deadline=None)
@given(polynomials, polynomials, valuations)
def test_substitution_commutes_with_evaluation(p, q, valuation):
    """Evaluating p[x := q] equals evaluating p at x := value of q."""
    substituted = p.substitute({"x": q})
    inner = q.evaluate(valuation)
    shifted = dict(valuation)
    shifted["x"] = inner
    assert substituted.evaluate(valuation) == p.evaluate(shifted)


@settings(max_examples=60, deadline=None)
@given(polynomials)
def test_degree_of_product(p):
    q = Polynomial.variable("x") + 1
    if p.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree() == p.degree() + 1


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=4), max_size=3),
       st.dictionaries(st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=4), max_size=3))
def test_monomial_multiplication_degree_adds(a, b):
    left, right = Monomial(a), Monomial(b)
    assert (left * right).degree() == left.degree() + right.degree()


@settings(max_examples=60, deadline=None)
@given(polynomials, valuations)
def test_partial_derivative_sum_rule(p, valuation):
    q = Polynomial.variable("x") * Polynomial.variable("y")
    assert (p + q).partial_derivative("x") == p.partial_derivative("x") + q.partial_derivative("x")
