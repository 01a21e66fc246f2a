"""Snapshot of the public API surface.

These lists are the checked-in contract: adding, removing or renaming a
public name must update them deliberately, so accidental surface breaks fail
CI instead of shipping silently.
"""

import repro
import repro.api
import repro.certify
import repro.polynomial
import repro.reduction
import repro.solvers

EXPECTED_REPRO_ALL = [
    "AUTO_DEGREE",
    "AlternatingSolver",
    "BlobStore",
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "CompiledProblem",
    "ConjunctiveAssertion",
    "Engine",
    "EngineStore",
    "ErrorInfo",
    "EscalationTrace",
    "FeasibilityObjective",
    "GaussNewtonSolver",
    "Interpreter",
    "Invariant",
    "LiftResult",
    "Monomial",
    "ParseError",
    "PenaltyQCLPSolver",
    "Polynomial",
    "PolynomialError",
    "PortfolioSolver",
    "Postcondition",
    "Precondition",
    "QuadraticSystem",
    "ReductionPlan",
    "RepresentativeEnumerator",
    "ReproError",
    "RequestValidationError",
    "SemanticsError",
    "SolverError",
    "SpecificationError",
    "StageCache",
    "SynthesisError",
    "SynthesisHandle",
    "SynthesisJob",
    "SynthesisOptions",
    "SynthesisRequest",
    "SynthesisResponse",
    "SynthesisResult",
    "SynthesisTask",
    "TaskCache",
    "TargetInvariantObjective",
    "TemplateSet",
    "ValidationError",
    "VerificationOutcome",
    "build_cfg",
    "build_task",
    "check_certificate",
    "check_invariant",
    "compile_plan",
    "compile_problem",
    "default_engine",
    "generate_constraint_pairs",
    "job_from_benchmark",
    "lift_solution",
    "open_store",
    "parse_assertion",
    "parse_polynomial",
    "parse_program",
    "pretty_print",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "repair_solution",
    "reset_default_engine",
    "strong_inv_synth",
    "verify_solution",
    "weak_inv_synth",
    "__version__",
]

EXPECTED_CERTIFY_ALL = [
    "Certificate",
    "CertificateCheck",
    "CheckReport",
    "DENOMINATOR_LADDER",
    "ExactViolation",
    "LiftResult",
    "PairCertificate",
    "RepairOutcome",
    "RepairRound",
    "SOSWitness",
    "VerificationOutcome",
    "Violation",
    "check_certificate",
    "check_invariant",
    "derive_argument_sets",
    "exact_violations",
    "harvest_trace_cuts",
    "is_psd",
    "ldl_decompose",
    "lift_solution",
    "rationalize",
    "repair_solution",
    "solve_linear",
    "verify_solution",
]

EXPECTED_API_ALL = [
    "Engine",
    "EngineClosedError",
    "ErrorInfo",
    "MODES",
    "RequestValidationError",
    "STRONG_MODES",
    "SynthesisHandle",
    "SynthesisRequest",
    "SynthesisResponse",
    "default_engine",
    "invariant_to_dict",
    "objective_from_dict",
    "objective_to_dict",
    "precondition_to_spec",
    "reset_default_engine",
    "response_from_result",
]


EXPECTED_REDUCTION_ALL = [
    "AUTO_DEGREE",
    "EscalationAttempt",
    "EscalationTrace",
    "ReductionPlan",
    "ReductionReport",
    "STAGE_NAMES",
    "StageCache",
    "StageExecution",
    "SynthesisOptions",
    "SynthesisTask",
    "compile_plan",
]


EXPECTED_SOLVERS_ALL = [
    "AlternatingSolver",
    "BatchDescent",
    "CompiledProblem",
    "DEFAULT_PORTFOLIO",
    "Deadline",
    "GaussNewtonSolver",
    "KernelCounters",
    "PenaltyQCLPSolver",
    "PortfolioSolver",
    "RepresentativeEnumerator",
    "STRATEGIES",
    "SolveControl",
    "Solver",
    "SolverOptions",
    "SolverResult",
    "batched_least_squares",
    "batched_penalty_descent",
    "compile_problem",
    "farkas_translate",
    "linear_baseline_system",
    "make_solver",
    "run_multistart",
    "start_batch",
    "strategy_names",
    "winning_member",
]


EXPECTED_POLYNOMIAL_ALL = [
    "Monomial",
    "MonomialOrder",
    "Polynomial",
    "QuadraticTriplets",
    "count_monomials_up_to_degree",
    "grevlex_key",
    "grlex_key",
    "lex_key",
    "lower_quadratic",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "parse_polynomial",
    "sos_basis",
]


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == sorted(EXPECTED_REPRO_ALL)


def test_repro_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == sorted(EXPECTED_API_ALL)


def test_repro_reduction_all_matches_snapshot():
    assert sorted(repro.reduction.__all__) == sorted(EXPECTED_REDUCTION_ALL)


def test_repro_certify_all_matches_snapshot():
    assert sorted(repro.certify.__all__) == sorted(EXPECTED_CERTIFY_ALL)


def test_repro_solvers_all_matches_snapshot():
    assert sorted(repro.solvers.__all__) == sorted(EXPECTED_SOLVERS_ALL)


def test_repro_polynomial_all_matches_snapshot():
    assert sorted(repro.polynomial.__all__) == sorted(EXPECTED_POLYNOMIAL_ALL)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name, None) is not None, name
    for name in repro.reduction.__all__:
        assert getattr(repro.reduction, name, None) is not None, name
    for name in repro.certify.__all__:
        assert getattr(repro.certify, name, None) is not None, name
    for name in repro.solvers.__all__:
        assert getattr(repro.solvers, name, None) is not None, name
    for name in repro.polynomial.__all__:
        assert getattr(repro.polynomial, name, None) is not None, name


def test_paper_entry_points_route_through_the_engine():
    """The four paper-named functions are wrappers over the default engine."""
    import inspect

    from repro.invariants import synthesis

    for function in (
        synthesis.weak_inv_synth,
        synthesis.strong_inv_synth,
        synthesis.rec_weak_inv_synth,
        synthesis.rec_strong_inv_synth,
    ):
        assert "_run_request" in inspect.getsource(function), function.__name__
    assert "default_engine" in inspect.getsource(synthesis._run_request)
