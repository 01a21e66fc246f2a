"""Property tests: tampered certificates never pass the exact check."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.certify import Certificate, check_certificate, lift_solution
from repro.certify.certificate import _concretize
from repro.certify.linalg import ldl_decompose
from repro.invariants.synthesis import build_task
from repro.invariants.template import UNKNOWN_PREFIX
from repro.pipeline.jobs import job_from_benchmark
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial
from repro.solvers.base import SolverOptions
from repro.solvers.portfolio import make_solver
from repro.suite.running_example import RUNNING_EXAMPLE


@pytest.fixture(scope="module")
def certified_sum():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), job.options)
    solver = make_solver(
        "portfolio", options=SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)
    )
    result = solver.solve(task.system)
    assert result.feasible
    lift = lift_solution(task, result.assignment)
    assert lift.ok, lift.reason
    assert check_certificate(lift.certificate, task=task).ok
    return task, lift.certificate


perturbations = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=64
).filter(lambda value: value != 0)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), delta=perturbations)
def test_perturbed_assignment_is_rejected(certified_sum, data, delta):
    """Any nonzero nudge of a template coefficient breaks the task binding."""
    task, certificate = certified_sum
    names = sorted(certificate.assignment)
    name = data.draw(st.sampled_from(names))
    tampered = Certificate(
        scheme=certificate.scheme,
        assignment={**certificate.assignment, name: certificate.assignment[name] + delta},
        pairs=certificate.pairs,
        denominator=certificate.denominator,
    )
    assert not check_certificate(tampered, task=task).ok


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), delta=perturbations)
def test_perturbed_witness_polynomials_are_rejected(certified_sum, data, delta):
    """Nudging a conclusion, witness or lambda breaks the polynomial identity."""
    from dataclasses import replace

    task, certificate = certified_sum
    index = data.draw(st.integers(min_value=0, max_value=len(certificate.pairs) - 1))
    pair = certificate.pairs[index]
    field = data.draw(st.sampled_from(["conclusion", "witness"]))
    if field == "witness" and pair.witness is None:
        field = "conclusion"
    if field == "conclusion":
        tampered_pair = replace(pair, conclusion=pair.conclusion + delta)
    else:
        tampered_pair = replace(pair, witness=pair.witness + delta)
    pairs = list(certificate.pairs)
    pairs[index] = tampered_pair
    tampered = Certificate(
        scheme=certificate.scheme,
        assignment=certificate.assignment,
        pairs=tuple(pairs),
        denominator=certificate.denominator,
    )
    assert not check_certificate(tampered, task=task).ok


@settings(max_examples=50, deadline=None)
@given(
    a=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=32),
    b=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=32),
    c=st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=32),
)
def test_ldl_agrees_with_the_psd_definition_on_2x2(a, b, c):
    """Exact LDL accepts a symmetric 2x2 iff it is PSD (det/trace criterion)."""
    matrix = [[a, b], [b, c]]
    expected = a >= 0 and c >= 0 and a * c - b * b >= 0
    assert (ldl_decompose(matrix) is not None) == expected


# -- _concretize against substitute -------------------------------------------------

_PROGRAM_MONOMIALS = (
    Monomial.one(), Monomial.of("x"), Monomial.of("y"), Monomial({"x": 1, "y": 1}), Monomial.of("x", 2),
)
_UNKNOWNS = ("$s_f_1_0_0", "$s_f_1_0_1", "$l_c0_1_0_0", "$eps_c0")
#: Unknowns only the cancel-then-reappear block uses.
_CANCEL = tuple(Monomial.of(f"$t_c9_{index}_0") for index in range(3))

_denominators = st.sampled_from((1, 2, 3, 7, 12, 1000, 10**6 + 3))
_values = st.builds(Fraction, st.integers(-3000, 3000), _denominators)
_nonzero = st.builds(Fraction, st.integers(1, 30) | st.integers(-30, -1), _denominators)


@st.composite
def _random_term(draw):
    monomial = draw(st.sampled_from(_PROGRAM_MONOMIALS))
    for name, exponent in draw(
        st.lists(st.tuples(st.sampled_from(_UNKNOWNS), st.integers(1, 2)), max_size=2)
    ):
        monomial = monomial * Monomial.of(name, exponent)
    return monomial, draw(_nonzero)


@st.composite
def _concretizations(draw):
    """A polynomial over x, y and unknowns, in a drawn term order, and exact values.

    Between random terms sits a block whose first two terms cancel once
    substituted, then another key, then a term that brings the cancelled
    key back: ``substitute`` deletes it at the cancellation and re-inserts
    it at the end.
    """
    kept, between = draw(
        st.lists(st.sampled_from(_PROGRAM_MONOMIALS), min_size=2, max_size=2, unique=True)
    )
    scale = draw(_nonzero)
    block = [
        (kept * _CANCEL[0], scale),
        (kept * _CANCEL[1], -scale),
        (between, draw(_nonzero)),
        (kept * _CANCEL[2], draw(_nonzero)),
    ]
    terms: dict[Monomial, Fraction] = {}
    for monomial, coefficient in [
        *draw(st.lists(_random_term(), max_size=6)),
        *block,
        *draw(st.lists(_random_term(), max_size=6)),
    ]:
        terms[monomial] = terms.get(monomial, 0) + coefficient
    polynomial = Polynomial({monomial: value for monomial, value in terms.items() if value})
    shared = draw(_nonzero)
    assignment = {
        name: value
        for name, value in draw(
            st.dictionaries(st.sampled_from(_UNKNOWNS), _values, max_size=len(_UNKNOWNS))
        ).items()
    }
    assignment.update(
        {"$t_c9_0_0": shared, "$t_c9_1_0": shared, "$t_c9_2_0": draw(_nonzero)}
    )
    return polynomial, assignment


def _substituted(polynomial, assignment):
    return polynomial.substitute(
        {
            name: Polynomial.constant(assignment.get(name, 0))
            for name in polynomial.variables()
            if name.startswith(UNKNOWN_PREFIX)
        }
    )


@settings(max_examples=150, deadline=None)
@given(case=_concretizations())
def test_concretize_equals_substitute_in_value_and_term_order(case):
    polynomial, assignment = case
    assert list(_concretize(polynomial, assignment).items()) == list(
        _substituted(polynomial, assignment).items()
    )


def test_a_term_that_cancels_and_reappears_goes_to_the_end():
    x, y, a, b, c = (Monomial.of(name) for name in ("x", "y", "$s_a", "$s_b", "$s_c"))
    polynomial = Polynomial({x * a: 1, x * b: -1, y: 2, x * c: 5})
    assignment = {"$s_a": Fraction(1, 3), "$s_b": Fraction(1, 3), "$s_c": Fraction(2)}
    concrete = _concretize(polynomial, assignment)
    assert list(concrete.items()) == [(y, 2), (x, 10)]
    assert list(concrete.items()) == list(_substituted(polynomial, assignment).items())
