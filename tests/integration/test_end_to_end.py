"""End-to-end weak/strong synthesis on small programs (Step 4 included)."""

import pytest

from repro.certify.sampling import check_invariant
from repro.invariants.synthesis import SynthesisOptions, build_task, strong_inv_synth, weak_inv_synth
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import SolverOptions
from repro.solvers.qclp import PenaltyQCLPSolver
from repro.solvers.strong import RepresentativeEnumerator
from repro.spec.objectives import TargetInvariantObjective
from repro.spec.preconditions import Precondition

DOUBLE_SOURCE = """
double(x) {
    y := x + x;
    return y
}
"""

DOUBLE_PRE = {"double": {1: "x >= 0"}}


@pytest.fixture(scope="module")
def double_result():
    objective = TargetInvariantObjective(
        function="double", label_index=3, target=parse_polynomial("ret_double - 2*x_init + 1")
    )
    options = SynthesisOptions(degree=1, upsilon=2)
    solver = PenaltyQCLPSolver(SolverOptions(restarts=2, max_iterations=300))
    return weak_inv_synth(DOUBLE_SOURCE, DOUBLE_PRE, objective, options, solver)


def test_weak_synthesis_finds_an_invariant(double_result):
    assert double_result.success, double_result.solver_status
    assert double_result.solver_status == "optimal"


def test_synthesized_invariant_is_nontrivial_and_holds_on_reachable_states(double_result):
    exit_assertion = double_result.invariant.at_index("double", 3)
    polynomial = exit_assertion.atoms[0].polynomial
    # A meaningful exit invariant was synthesized (not the vacuous constant assertion) ...
    assert not polynomial.is_constant()
    assert "ret_double" in polynomial.variables() or "x_init" in polynomial.variables()
    # ... and it holds on every reachable endpoint state (ret = y = 2*x for x >= 0).
    for x_value in range(0, 21):
        state = {
            "x": float(x_value),
            "x_init": float(x_value),
            "y": 2.0 * x_value,
            "ret_double": 2.0 * x_value,
        }
        assert exit_assertion.holds(state)


def test_synthesized_invariant_survives_independent_checking(double_result):
    from repro.cfg.builder import build_cfg
    from repro.lang.parser import parse_program

    cfg = build_cfg(parse_program(DOUBLE_SOURCE))
    precondition = Precondition.from_spec(cfg, DOUBLE_PRE)
    report = check_invariant(
        cfg,
        precondition,
        double_result.invariant,
        argument_sets=[{"x": value} for value in (0, 1, 2, 5, 10, 50)],
        pair_samples=40,
        sample_range=20.0,
    )
    assert report.passed, [str(v) for v in report.violations]


def test_statistics_include_solver_time(double_result):
    assert "time_solver" in double_result.statistics
    assert double_result.statistics["time_solver"] > 0


def test_strong_synthesis_returns_representatives():
    options = SynthesisOptions(degree=1, upsilon=1, with_witness=False)
    enumerator = RepresentativeEnumerator(
        attempts=4, options=SolverOptions(max_iterations=150, seed=2)
    )
    result = strong_inv_synth(DOUBLE_SOURCE, DOUBLE_PRE, options, enumerator)
    assert result.invariants is not None
    assert len(result.invariants) >= 1
    assert "representatives" in result.solver_status


def test_build_task_reuse_between_solvers():
    objective = TargetInvariantObjective(
        function="double", label_index=3, target=parse_polynomial("ret_double + 1")
    )
    options = SynthesisOptions(degree=1, upsilon=1)
    task = build_task(DOUBLE_SOURCE, DOUBLE_PRE, objective, options)
    first = weak_inv_synth(
        DOUBLE_SOURCE, task=task, solver=PenaltyQCLPSolver(SolverOptions(restarts=1, max_iterations=150))
    )
    second = weak_inv_synth(
        DOUBLE_SOURCE, task=task, solver=PenaltyQCLPSolver(SolverOptions(restarts=2, max_iterations=150))
    )
    assert first.system is second.system
