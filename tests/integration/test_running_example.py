"""Integration tests: the paper's running example through the whole Step 1-3 pipeline."""

import pytest

from repro.invariants.synthesis import SynthesisOptions, build_task
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.parse import parse_polynomial
from repro.spec.objectives import TargetInvariantObjective

TARGET = "0.5*n_init^2 + 0.5*n_init + 1 - ret_sum"


@pytest.fixture(scope="module")
def running_example_task(sum_source):
    objective = TargetInvariantObjective(
        function="sum", label_index=9, target=parse_polynomial(TARGET)
    )
    return build_task(
        sum_source,
        {"sum": {1: "n >= 1"}},
        objective,
        SynthesisOptions(degree=2, upsilon=2),
    )


def test_pipeline_produces_eleven_constraint_pairs(running_example_task):
    # 10 CFG transitions (single-clause guards) + 1 initiation pair.
    assert len(running_example_task.pairs) == 11


def test_pair_names_cover_every_transition_kind(running_example_task):
    kinds = {pair.name.split(":", 1)[0] for pair in running_example_task.pairs}
    assert kinds == {"init", "step", "guard", "nondet"}


def test_templates_follow_example_6(running_example_task):
    entry = running_example_task.templates.entry_for("sum", 5)
    assert len(entry.monomials) == 21  # Example 6: 21 monomials of degree <= 2 over 5 variables


def test_system_is_purely_quadratic_over_unknowns(running_example_task):
    system = running_example_task.system
    assert system.size > 1000
    for constraint in system:
        assert constraint.polynomial.degree() <= 2
        assert all(name.startswith(UNKNOWN_PREFIX) for name in constraint.polynomial.variables())


def test_system_size_has_the_papers_order_of_magnitude(running_example_task):
    # The paper reports |S| = 1700 for the recursive variant with 3 variables; the
    # non-recursive running example with the same degree lands in the same range.
    assert 1000 <= running_example_task.system.size <= 10000


def test_objective_references_only_label_9_coefficients(running_example_task):
    objective = running_example_task.system.objective
    assert objective.degree() == 2
    assert all("sum_9" in name for name in objective.variables())


def test_statistics_recorded(running_example_task):
    statistics = running_example_task.statistics
    assert statistics["constraint_pairs"] == 11
    assert statistics["system_size"] == running_example_task.system.size
    assert statistics["time_translation"] > 0


def test_appendix_b1_invariant_is_consistent_with_simulation(sum_cfg, sum_precondition):
    """The invariant the paper reports at label 9 (Appendix B.1) survives simulation and
    constraint-pair sampling when combined with the paper's pre-condition."""
    from repro.certify.sampling import check_invariant
    from repro.invariants.result import Invariant
    from repro.spec.assertions import parse_assertion

    function = sum_cfg.function("sum")
    assertions = {label: parse_assertion("true") for label in function.labels}
    assertions[function.label_by_index(9)] = parse_assertion(
        "1 + 0.5*n_init + 0.5*n_init^2 - ret_sum > 0"
    )
    invariant = Invariant(assertions=assertions)
    report = check_invariant(
        sum_cfg,
        sum_precondition,
        invariant,
        argument_sets=[{"n": n} for n in range(1, 10)],
        pair_samples=0,
    )
    assert report.passed
