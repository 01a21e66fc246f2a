"""Unit tests for repro.invariants.template (Step 1 / 1.a)."""

from fractions import Fraction

import pytest

from repro.errors import SynthesisError
from repro.invariants.template import TemplateSet, UNKNOWN_PREFIX
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import count_monomials_up_to_degree
from repro.polynomial.polynomial import Polynomial
from repro.suite.registry import get_benchmark


def test_template_monomial_count_matches_formula(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=2)
    entry = templates.entry_for("sum", 1)
    # V^sum has 5 variables (n, n_init, i, s, ret_sum); degree-2 monomials: C(7,2) = 21.
    assert len(entry.monomials) == count_monomials_up_to_degree(5, 2) == 21


def test_template_example_6_size(sum_cfg):
    """Example 6 of the paper: the degree-2 template at each label has 21 terms."""
    templates = TemplateSet.build(sum_cfg, degree=2, conjuncts=1)
    for entry in templates:
        assert len(entry.coefficient_names()) == 21


def test_coefficient_names_are_prefixed_and_unique(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1, conjuncts=2)
    names = templates.coefficient_names()
    assert len(names) == len(set(names))
    assert all(name.startswith(UNKNOWN_PREFIX) for name in names)
    # 9 labels x 2 conjuncts x 6 monomials (1, n, n_init, i, s, ret_sum)
    assert templates.coefficient_count() == 9 * 2 * 6


def test_conjunct_polynomial_contains_every_monomial(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    entry = templates.entry_for("sum", 3)
    polynomial = entry.conjunct_polynomial(0)
    program_monomials = {m.exclude([v for v in m.variables() if v.startswith(UNKNOWN_PREFIX)])
                         for m in polynomial.terms}
    assert Monomial.of("i") in program_monomials
    assert Monomial.one() in program_monomials


def test_instantiate_assigns_coefficients(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    entry = templates.entry_for("sum", 9)
    name = entry.coefficient_name(0, Monomial.of("ret_sum"))
    concrete = entry.instantiate(0, {name: 2.5})
    assert concrete.coefficient(Monomial.of("ret_sum")) == 2.5
    assert concrete.coefficient(Monomial.of("i")) == 0


def test_instantiate_assertion_is_strict(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    entry = templates.entry_for("sum", 9)
    assertion = entry.instantiate_assertion({})
    assert all(atom.strict for atom in assertion)


def test_unknown_monomial_rejected(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    entry = templates.entry_for("sum", 1)
    with pytest.raises(SynthesisError):
        entry.coefficient_name(0, Monomial({"i": 5}))


def test_bad_parameters_rejected(sum_cfg):
    with pytest.raises(SynthesisError):
        TemplateSet.build(sum_cfg, degree=0)
    with pytest.raises(SynthesisError):
        TemplateSet.build(sum_cfg, degree=1, conjuncts=0)


def test_conjunct_out_of_range(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1, conjuncts=1)
    entry = templates.entry_for("sum", 1)
    with pytest.raises(SynthesisError):
        entry.conjunct_polynomial(1)


def test_lookup_errors(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1)
    with pytest.raises(SynthesisError):
        templates.entry_for("sum", 42)
    with pytest.raises(SynthesisError):
        templates.post_entry_for("sum")  # non-recursive: no post templates by default


def test_non_recursive_program_has_no_post_templates(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=2)
    assert not templates.has_postconditions()


def test_recursive_program_gets_post_templates(recursive_sum_cfg):
    templates = TemplateSet.build(recursive_sum_cfg, degree=2)
    assert templates.has_postconditions()
    post = templates.post_entry_for("recursive_sum")
    # Example 11: the post-condition template ranges over n_init and ret only:
    # monomials 1, n_init, ret, n_init^2, n_init*ret, ret^2.
    assert set(post.variables) == {"n_init", "ret_recursive_sum"}
    assert len(post.monomials) == 6


def test_forced_post_templates_for_non_recursive(sum_cfg):
    templates = TemplateSet.build(sum_cfg, degree=1, with_postconditions=True)
    assert templates.has_postconditions()
    assert set(templates.post_entry_for("sum").variables) == {"n_init", "ret_sum"}


def test_post_entry_instantiate(recursive_sum_cfg):
    templates = TemplateSet.build(recursive_sum_cfg, degree=2)
    post = templates.post_entry_for("recursive_sum")
    name = post.coefficient_name(0, Monomial.one())
    polynomial = post.instantiate(0, {name: 3})
    assert polynomial.constant_term() == 3
    assertion = post.instantiate_assertion({name: 3})
    assert assertion.holds({"n_init": 0.0, "ret_recursive_sum": 0.0})


# -- the built-once polynomials against the term-by-term construction --------------

QUICK_SUITE = (
    "sum", "cohendiv", "divbin", "hard", "mannadiv", "wensley", "sqrt", "dijkstra",
    "z3sqrt", "freire1", "freire2", "euclidex2", "lcm1", "lcm2", "prodbin", "prod4br",
    "cohencu", "petter", "inverted-pendulum", "strict-inverted-pendulum", "oscillator",
    "recursive-sum", "recursive-square-sum", "recursive-cube-sum", "pw2", "merge-sort",
)


def reference_conjunct(entry, conjunct):
    """The repeated-addition construction: one ``+`` per template monomial."""
    names = entry.coefficient_names()[conjunct * len(entry.monomials):]
    result = Polynomial.zero()
    for name, monomial in zip(names, entry.monomials):
        result = result + Polynomial.variable(name) * Polynomial.from_monomial(monomial)
    return result


def reference_instantiate(entry, conjunct, assignment):
    """Build the symbolic conjunct, then substitute a constant for each s-variable."""
    symbolic = reference_conjunct(entry, conjunct)
    substitution = {
        name: Polynomial.constant(assignment.get(name, 0))
        for name in symbolic.variables()
        if name.startswith(UNKNOWN_PREFIX)
    }
    return symbolic.substitute(substitution)


def same_terms(left, right):
    """Equal values and the same term order."""
    return list(left.items()) == list(right.items())


#: float, int, Fraction, exact zero, a float that rounds to 0, and (by the
#: stride) names the assignment leaves out.
VALUES = (0.37, 3, Fraction(-5, 7), 0, 1e-13, -2.5, Fraction(1, 3))


def template_sets(name):
    """The program's templates at upsilon 1 and 2, and with a second conjunct.

    Upsilon sizes the Step-3 multipliers, not the templates, so both
    presets share one shape; post-condition entries are forced on.
    """
    benchmark = get_benchmark(name)
    cfg = benchmark.cfg()
    shapes = set()
    for upsilon in (1, 2):
        options = benchmark.options(upsilon=upsilon)
        shapes.update({(options.degree, options.conjuncts), (options.degree, 2)})
    for degree, conjuncts in sorted(shapes):
        yield TemplateSet.build(cfg, degree=degree, conjuncts=conjuncts, with_postconditions=True)


@pytest.mark.parametrize("name", QUICK_SUITE)
def test_built_once_conjuncts_equal_the_repeated_addition(name):
    for templates in template_sets(name):
        entries = [*templates.entries.values(), *templates.post_entries.values()]
        assert templates.post_entries
        for entry in entries:
            names = entry.coefficient_names()
            assignment = {
                coefficient: VALUES[index % len(VALUES)]
                for index, coefficient in enumerate(names)
                if index % 11 != 10
            }
            for conjunct in range(entry.conjuncts):
                assert same_terms(entry.conjunct_polynomial(conjunct), reference_conjunct(entry, conjunct))
                assert same_terms(
                    entry.instantiate(conjunct, assignment),
                    reference_instantiate(entry, conjunct, assignment),
                )
            assert [list(p.items()) for p in entry.polynomials()] == [
                list(reference_conjunct(entry, conjunct).items())
                for conjunct in range(entry.conjuncts)
            ]


def test_polynomials_returns_a_fresh_list(sum_cfg, recursive_sum_cfg):
    entries = [
        TemplateSet.build(sum_cfg, degree=1, conjuncts=2).entry_for("sum", 3),
        TemplateSet.build(recursive_sum_cfg, degree=2).post_entry_for("recursive_sum"),
    ]
    for entry in entries:
        first = entry.polynomials()
        expected = list(first)
        first.append(Polynomial.one())
        first[0] = Polynomial.zero()
        assert entry.polynomials() == expected
        assert entry.polynomials() is not entry.polynomials()
        assert entry.conjunct_polynomial(0) == expected[0]


def test_out_of_range_conjuncts_raise_from_every_entry_kind(sum_cfg, recursive_sum_cfg):
    label_entry = TemplateSet.build(sum_cfg, degree=1, conjuncts=2).entry_for("sum", 1)
    post_entry = TemplateSet.build(recursive_sum_cfg, degree=1).post_entry_for("recursive_sum")
    for entry in (label_entry, post_entry):
        for conjunct in (-1, entry.conjuncts):
            with pytest.raises(SynthesisError):
                entry.conjunct_polynomial(conjunct)
            with pytest.raises(SynthesisError):
                entry.instantiate(conjunct, {})
