"""Unit tests for repro.polynomial.ordering."""

import numpy as np
import pytest

from repro.polynomial.compiled import exponent_rows
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import (
    MonomialOrder,
    count_monomials_up_to_degree,
    grevlex_key,
    grlex_exponents,
    grlex_key,
    grlex_labels,
    grlex_ranks,
    lex_key,
    monomials_of_degree,
    monomials_up_to_degree,
    sort_monomials,
)


def test_monomials_up_to_degree_counts():
    # C(n + d, d) monomials of degree <= d over n variables.
    assert len(monomials_up_to_degree(["x"], 3)) == 4
    assert len(monomials_up_to_degree(["x", "y"], 2)) == 6
    assert len(monomials_up_to_degree(["x", "y", "z"], 2)) == 10


def test_monomials_up_to_degree_contains_one_first():
    monomials = monomials_up_to_degree(["x", "y"], 2)
    assert monomials[0] == Monomial.one()


def test_monomials_up_to_degree_zero_and_negative():
    assert monomials_up_to_degree(["x", "y"], 0) == [Monomial.one()]
    assert monomials_up_to_degree(["x"], -1) == []


def test_monomials_are_unique():
    monomials = monomials_up_to_degree(["x", "y", "z"], 3)
    assert len(monomials) == len(set(monomials))


def test_monomials_of_degree():
    exact = monomials_of_degree(["x", "y"], 2)
    assert set(exact) == {Monomial({"x": 2}), Monomial({"x": 1, "y": 1}), Monomial({"y": 2})}


def test_count_matches_enumeration():
    for variables, degree in [(1, 4), (2, 3), (3, 2), (5, 2)]:
        names = [f"v{i}" for i in range(variables)]
        assert count_monomials_up_to_degree(variables, degree) == len(
            monomials_up_to_degree(names, degree)
        )


def test_count_edge_cases():
    assert count_monomials_up_to_degree(0, 3) == 1
    assert count_monomials_up_to_degree(3, 0) == 1
    assert count_monomials_up_to_degree(-1, 2) == 0


def test_lex_vs_grlex_disagree():
    variables = ["x", "y"]
    x3 = Monomial({"x": 3})
    xy = Monomial({"x": 1, "y": 1})
    # lex puts x^3 above x*y, grlex puts x^3 (degree 3) above x*y (degree 2) too,
    # but x*y vs y^3 flips between the two orders.
    y3 = Monomial({"y": 3})
    assert lex_key(xy, variables) > lex_key(y3, variables)
    assert grlex_key(xy, variables) < grlex_key(y3, variables)
    assert grlex_key(x3, variables) > grlex_key(xy, variables)


def test_grevlex_key_orders_by_degree_first():
    variables = ["x", "y", "z"]
    assert grevlex_key(Monomial({"z": 2}), variables) > grevlex_key(Monomial({"x": 1}), variables)


def test_sort_monomials_deterministic():
    variables = ["x", "y"]
    monomials = [Monomial({"y": 1}), Monomial.one(), Monomial({"x": 1})]
    ordered = sort_monomials(monomials, variables, MonomialOrder.GRLEX)
    assert ordered[0] == Monomial.one()
    assert ordered == sort_monomials(list(reversed(monomials)), variables, MonomialOrder.GRLEX)


def test_grlex_ranks_match_enumeration_indices():
    """The vectorised rank formula agrees with the grlex enumeration order."""
    import numpy as np

    from repro.polynomial.compiled import exponent_rows
    from repro.polynomial.ordering import grlex_ranks

    for width in range(1, 5):
        for degree in range(0, 5):
            names = [f"v{i}" for i in range(width)]
            basis = monomials_up_to_degree(names, degree)
            index = {name: position for position, name in enumerate(names)}
            ranks = grlex_ranks(exponent_rows(basis, index, width))
            assert ranks.tolist() == list(range(len(basis))), (width, degree)


def test_grlex_ranks_edge_cases():
    import numpy as np

    from repro.polynomial.ordering import grlex_ranks

    # No rows at all, and the zero-variable constant monomial.
    assert grlex_ranks(np.zeros((0, 3), dtype=np.int64)).tolist() == []
    assert grlex_ranks(np.zeros((2, 0), dtype=np.int64)).tolist() == [0, 0]


def test_grlex_exponents_invert_ranks_and_the_enumeration_order():
    for width in range(0, 7):
        names = [f"v{i}" for i in range(width)]
        index = {name: position for position, name in enumerate(names)}
        for degree in range(0, 6):
            basis = monomials_up_to_degree(names, degree)
            exponents = grlex_exponents(np.arange(len(basis)), width)
            assert np.array_equal(exponents, exponent_rows(basis, index, width)), (width, degree)
            assert grlex_ranks(exponents).tolist() == list(range(len(basis))), (width, degree)


def test_grlex_exponents_of_scattered_ranks():
    """Any subset of ranks, in any order and with repeats, unranks row by row."""
    rng = np.random.default_rng(0)
    for width in range(1, 7):
        total = count_monomials_up_to_degree(width, 5)
        ranks = rng.integers(0, total, size=50)
        assert grlex_ranks(grlex_exponents(ranks, width)).tolist() == ranks.tolist()


def test_grlex_labels_match_monomial_str():
    # Variable orders that differ from name order exercise the factor sort.
    for variables in (["x"], ["y", "x"], ["n", "i", "s"], ["v2", "v10", "a", "b1"]):
        for degree in range(0, 5):
            basis = monomials_up_to_degree(variables, degree)
            labels = grlex_labels(np.arange(len(basis)), variables)
            assert labels == [str(monomial) for monomial in basis], (variables, degree)
    basis = monomials_up_to_degree(["y", "x"], 4)
    ranks = [7, 0, 13, 7]
    assert grlex_labels(ranks, ["y", "x"]) == [str(basis[rank]) for rank in ranks]


def test_grlex_exponents_edge_cases():
    assert grlex_exponents(np.zeros(0, dtype=np.int64), 3).shape == (0, 3)
    assert grlex_exponents(np.zeros(2, dtype=np.int64), 0).shape == (2, 0)
    assert grlex_labels([0, 0], []) == ["1", "1"]
    with pytest.raises(ValueError):
        grlex_exponents(np.array([1]), 0)
    with pytest.raises(ValueError):
        grlex_exponents(np.array([-1]), 2)
