"""Step 3's row arrays are the one stored form of a quadratic system.

The translation kernels emit exact row arrays and ``compile_problem`` reads
them directly.  The oracle here is the per-polynomial lowering the arrays
replaced: materialise the ``constraints`` view, lower every polynomial with
:func:`~repro.polynomial.compiled.lower_quadratic` over its sorted unknowns,
and presolve that.  Both must agree bit for bit on every quick program, with
the program's Weak-synthesis objective attached as an engine request attaches
it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.api.engine import Engine
from repro.api.request import SynthesisRequest
from repro.certify.lift import ExactViolation, exact_violations
from repro.errors import SynthesisError
from repro.invariants.constraints import ConstraintPair
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.quadratic_system import ConstraintKind, RowArrays, classify_unknown
from repro.invariants.synthesis import build_task
from repro.polynomial.compiled import lower_quadratic
from repro.polynomial.parse import parse_polynomial
from repro.solvers import problem as problem_module
from repro.solvers.base import SolverOptions
from repro.solvers.problem import CompiledProblem, compile_problem
from repro.spec.objectives import TargetInvariantObjective
from repro.suite.registry import get_benchmark

#: The quick suite (the programs with at most 8 variables), frozen.
QUICK_SUITE = (
    "sum", "cohendiv", "divbin", "hard", "mannadiv", "wensley", "sqrt", "dijkstra",
    "z3sqrt", "freire1", "freire2", "euclidex2", "lcm1", "lcm2", "prodbin", "prod4br",
    "cohencu", "petter", "inverted-pendulum", "strict-inverted-pendulum", "oscillator",
    "recursive-sum", "recursive-square-sum", "recursive-cube-sum", "pw2", "merge-sort",
)
CASES = [(name, "putinar") for name in QUICK_SUITE] + [
    (name, "handelman") for name in ("sum", "cohencu", "merge-sort")
]


def polynomial_lower(system):
    """The lowering the arrays replaced: one ``lower_quadratic`` walk over the view."""
    constraints = system.constraints
    names = set(system.objective.variables())
    for constraint in constraints:
        names.update(constraint.polynomial.variables())
    variables = sorted(names, key=lambda name: (classify_unknown(name).value, name))
    index = {name: column for column, name in enumerate(variables)}
    rows = lower_quadratic([constraint.polynomial for constraint in constraints], index)
    kinds = np.array([constraint.kind.value for constraint in constraints], dtype="<U2")
    return variables, rows, kinds, lower_quadratic([system.objective], index)


def assert_identical(left, right, what):
    left = np.asarray(left)
    right = np.asarray(right)
    assert left.dtype == right.dtype, what
    assert left.shape == right.shape, what
    assert left.tobytes() == right.tobytes(), what


TRIPLET_FIELDS = (
    "constants", "linear_rows", "linear_cols", "linear_values",
    "quad_rows", "quad_left", "quad_right", "quad_values",
)


def _case_system(name: str, translation: str):
    benchmark = get_benchmark(name)
    options = benchmark.options(upsilon=1, translation=translation)
    task = build_task(benchmark.source, benchmark.precondition, benchmark.objective(), options)
    return task.system


@pytest.mark.parametrize("name,translation", CASES)
def test_compiled_arrays_equal_the_per_polynomial_lowering(name, translation, monkeypatch):
    system = _case_system(name, translation)
    lowered = problem_module._lower(system)
    compiled = compile_problem(system)

    monkeypatch.setattr(problem_module, "_lower", polynomial_lower)
    expected = polynomial_lower(system)
    reference = CompiledProblem.presolved(system)

    assert lowered[0] == expected[0]
    assert_identical(lowered[2], expected[2], "kinds")
    pairs = ((lowered[1], expected[1], "rows"), (lowered[3], expected[3], "objective"))
    for triplets, oracle, side in pairs:
        assert triplets.row_count == oracle.row_count
        for field in TRIPLET_FIELDS:
            assert_identical(getattr(triplets, field), getattr(oracle, field), f"{side}.{field}")

    assert compiled.system_variables == reference.system_variables
    assert compiled.infeasible == reference.infeasible
    for field in ("free_columns", "kept_rows", "equality_mask", "nonneg_mask", "positive_mask",
                  "constants", "objective_linear_dense"):
        assert_identical(getattr(compiled, field), getattr(reference, field), field)
    for field in ("indptr", "indices", "data"):
        assert_identical(getattr(compiled.linear, field), getattr(reference.linear, field), field)
    for terms, oracle in ((compiled.quadratic, reference.quadratic),
                          (compiled.objective_quadratic, reference.objective_quadratic)):
        for field in ("rows", "left", "right", "coefficients"):
            assert_identical(getattr(terms, field), getattr(oracle, field), field)
    assert compiled.objective_constant == reference.objective_constant


def polynomial_violations(system, assignment, limit=None):
    """Every violated row found by evaluating the view's polynomials exactly."""
    valuation = {name: Fraction(assignment.get(name, 0)) for name in system.variables()}
    violations = []
    for index, constraint in enumerate(system.constraints):
        value = constraint.polynomial.evaluate(valuation)
        failed = {
            ConstraintKind.EQUALITY: value != 0,
            ConstraintKind.NONNEGATIVE: value < 0,
            ConstraintKind.POSITIVE: value <= 0,
        }[constraint.kind]
        if failed:
            violations.append(ExactViolation(index, constraint.origin, constraint.kind.value, value))
            if limit is not None and len(violations) >= limit:
                break
    return violations


@pytest.mark.parametrize("name", ["sum", "recursive-cube-sum"])
def test_exact_violations_read_the_arrays(name, monkeypatch):
    system = _case_system(name, "putinar")
    rng = random.Random(name)
    assignment = {
        unknown: Fraction(0) if rng.random() < 0.5 else Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        for unknown in system.variables()
    }
    materialise = RowArrays.constraints
    monkeypatch.setattr(RowArrays, "constraints", lambda rows: pytest.fail("view built"))
    found = {limit: exact_violations(system, assignment, limit=limit) for limit in (None, 32)}
    monkeypatch.setattr(RowArrays, "constraints", materialise)
    assert len(found[None]) > 32
    for limit, violations in found.items():
        assert violations == polynomial_violations(system, assignment, limit=limit)


def test_served_request_never_builds_the_polynomial_view(monkeypatch):
    """Translation, compile, solve and the exact check all read the row arrays."""
    built = []
    materialise = RowArrays.constraints

    def spy(rows):
        built.append(rows.row_count)
        return materialise(rows)

    monkeypatch.setattr(RowArrays, "constraints", spy)
    benchmark = get_benchmark("sum")
    objective = benchmark.objective()
    assert isinstance(objective, TargetInvariantObjective)
    request = SynthesisRequest(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=objective,
        options=benchmark.options(
            upsilon=1, strategy="gauss-newton", verify="exact", portfolio=("gauss-newton",)
        ),
        solver_options=SolverOptions(time_limit=15.0),
    )
    with Engine(workers=0) as engine:
        response = engine.synthesize(request)
    assert response.status == "ok"
    assert response.verification["verified"]
    assert response.verification["repair_rounds"] == 0
    assert built == []


def _unreachable_pair(conclusion: str) -> ConstraintPair:
    """x >= 0 ==> the conclusion, whose top monomial no multiplier product reaches."""
    return ConstraintPair(
        name="pair",
        assumptions=(parse_polynomial("x"),),
        conclusion=parse_polynomial(conclusion),
        program_variables=("x", "y"),
    )


@pytest.mark.parametrize(
    "translate,conclusion,message",
    [
        (lambda pairs: putinar_translate(pairs, upsilon=1),
         "y^3 + $s_f_1_0_0", "inconsistent constant equality from 'pair:coeff[y^3]': 1 = 0"),
        (lambda pairs: handelman_translate(pairs, max_factors=1),
         "-2*y^2 + $s_f_1_0_0", "inconsistent constant equality from 'pair:coeff[y^2]': -2 = 0"),
    ],
)
def test_a_constant_group_is_refused_at_translation(translate, conclusion, message):
    with pytest.raises(SynthesisError) as raised:
        translate([_unreachable_pair(conclusion)])
    assert str(raised.value) == message
