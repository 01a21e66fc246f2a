"""End-to-end certified synthesis: verify="exact" through the Engine.

Covers the certificate-carrying response contract: the running example and
two recursive suite programs produce certificates that survive the JSON round
trip and re-validate independently, under the Putinar and the Handelman
encoding, and a deliberately crippled first solve demonstrably goes through a
repair round to a verified result.
"""

import dataclasses
from collections import Counter

import pytest

from repro.api import Engine, SynthesisRequest, SynthesisResponse
from repro.certify import Certificate, check_certificate
from repro.pipeline.jobs import job_from_benchmark
from repro.solvers.base import SolverOptions
from repro.suite.registry import get_benchmark
from repro.suite.running_example import RUNNING_EXAMPLE

BENCH_SOLVE = SolverOptions(restarts=1, max_iterations=200, time_limit=60.0)


def _exact_request(benchmark, **option_overrides) -> SynthesisRequest:
    job = job_from_benchmark(benchmark, quick=True)
    overrides = {"verify": "exact", "strategy": "portfolio", **option_overrides}
    options = dataclasses.replace(job.options, **overrides)
    return SynthesisRequest(
        program=benchmark.source,
        mode="weak",
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=options,
        solver_options=BENCH_SOLVE,
        request_id=benchmark.name,
    )


@pytest.mark.parametrize(
    "name, translation",
    [
        pytest.param("sum", "putinar", id="sum"),
        pytest.param("recursive-sum", "putinar", id="recursive-sum"),
        pytest.param("recursive-square-sum", "putinar", id="recursive-square-sum"),
        pytest.param("sum", "handelman", id="sum-handelman"),
    ],
)
def test_exact_verification_round_trip(name, translation):
    benchmark = RUNNING_EXAMPLE if name == "sum" else get_benchmark(name)
    with Engine() as engine:
        response = engine.synthesize(_exact_request(benchmark, translation=translation))
    assert response.status == "ok", response.error
    assert response.verification is not None
    assert response.verification["verified"] is True
    assert response.certificate is not None

    # Extract -> JSON -> re-check: the certificate survives the wire format
    # and re-validates from scratch, bound to the task's proof obligations.
    wire = SynthesisResponse.from_json(response.to_json())
    certificate = Certificate.from_dict(wire.certificate)
    assert certificate.scheme == translation
    check = check_certificate(certificate, task=response.task)
    assert check.ok, check.summary()
    assert check.pairs_checked == len(response.task.pairs)

    # The reported invariant is the certified one: its coefficients are the
    # exact rational assignment, not the float solver output.
    assert response.invariants


def test_repair_round_reaches_a_verified_result(monkeypatch):
    """A deliberately crippled first solve is repaired to a certified one.

    The pure-feasibility Gauss-Newton sprint deterministically lands on a
    boundary solution whose positivity witnesses live inside the float
    slack — exactly the kind of pseudo-solution the exact lift rejects — and
    the repair loop's tightened re-race must then reach a certificate.
    """
    import repro.certify.verify as verify_module

    lift_attempts = []
    unrecorded_lift = verify_module.lift_solution

    def recording_lift(*args, **kwargs):
        lift = unrecorded_lift(*args, **kwargs)
        lift_attempts.append(lift.attempts)
        return lift

    monkeypatch.setattr(verify_module, "lift_solution", recording_lift)
    benchmark = get_benchmark("recursive-cube-sum")
    request = _exact_request(benchmark, max_repair_rounds=3, strategy="gauss-newton")
    with Engine() as engine:
        response = engine.synthesize(request)
    assert response.status == "ok", response.error
    verification = response.verification
    assert verification is not None
    assert verification["verified"] is True, verification
    assert verification["repaired"] is True
    assert verification["repair_rounds"] >= 1
    # The reported lift work covers the rejected lift as well as the accepted one.
    assert len(lift_attempts) >= 2
    assert verification["details"]["lift_attempts"] == sum(lift_attempts)
    certificate = Certificate.from_dict(response.certificate)
    assert check_certificate(certificate, task=response.task).ok


def test_sample_tier_and_counters():
    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    options = dataclasses.replace(job.options, verify="sample", strategy="portfolio")
    request = SynthesisRequest(
        program=benchmark.source,
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=options,
        solver_options=BENCH_SOLVE,
    )
    with Engine() as engine:
        response = engine.synthesize(request)
        stats = engine.stats()
    assert response.status == "ok"
    assert response.verification["mode"] == "sample"
    assert response.verification["verified"] is True
    assert response.certificate is None  # sampling does not issue certificates
    assert stats["verify_requested"] == 1.0
    assert stats["verify_passed"] == 1.0


def test_strong_modes_reject_verification_up_front():
    from repro.api import RequestValidationError

    benchmark = RUNNING_EXAMPLE
    job = job_from_benchmark(benchmark, quick=True)
    options = dataclasses.replace(job.options, verify="exact")
    with pytest.raises(RequestValidationError) as excinfo:
        SynthesisRequest(
            program=benchmark.source,
            mode="strong",
            precondition=benchmark.precondition,
            options=options,
        )
    assert any(error["field"] == "options.verify" for error in excinfo.value.errors)


def test_verify_options_round_trip_through_request_json():
    benchmark = RUNNING_EXAMPLE
    request = _exact_request(benchmark, max_repair_rounds=1, verify_seed=42)
    rebuilt = SynthesisRequest.from_json(request.to_json())
    assert rebuilt.options.verify == "exact"
    assert rebuilt.options.max_repair_rounds == 1
    assert rebuilt.options.verify_seed == 42
    assert rebuilt == request or rebuilt.to_dict() == request.to_dict()


def test_one_lift_concretizes_and_pins_each_object_once(monkeypatch):
    """merge-sort's first lift fails at every rung, so it walks the whole ladder.

    That walk tries two pins per rung and then re-walks the ladder with the
    escalated basis.  None of it may redo exact work: each pair polynomial
    is concretized once per distinct template snap, and each multiplier's
    Cholesky factors are snapped once per (pair, multiplier, pin, basis).
    """
    import repro.certify.lift as lift_module

    concretized: Counter = Counter()
    snaps: dict[int, tuple] = {}
    unrecorded_concretize = lift_module._concretize

    def recording_concretize(polynomial, assignment):
        # Key the snap by its values; the dict is kept alive so its id stays unique.
        if id(assignment) not in snaps:
            values = tuple(sorted((n, v.numerator, v.denominator) for n, v in assignment.items()))
            snaps[id(assignment)] = (assignment, values)
        concretized[(polynomial, snaps[id(assignment)][1])] += 1
        return unrecorded_concretize(polynomial, assignment)

    grams: Counter = Counter()
    unrecorded_float_gram = lift_module._float_gram

    def recording_float_gram(prov, which, dimension, floats, pin_denominator):
        grams[(prov.index, which, dimension, pin_denominator)] += 1
        return unrecorded_float_gram(prov, which, dimension, floats, pin_denominator)

    monkeypatch.setattr(lift_module, "_concretize", recording_concretize)
    monkeypatch.setattr(lift_module, "_float_gram", recording_float_gram)
    benchmark = get_benchmark("merge-sort")
    request = SynthesisRequest(
        program=benchmark.source,
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(
            upsilon=1,
            strategy="gauss-newton",
            portfolio=("gauss-newton",),
            verify="exact",
            max_repair_rounds=0,
        ),
        solver_options=SolverOptions(time_limit=15.0),
    )
    with Engine(workers=0) as engine:
        response = engine.synthesize(request)
    verification = response.verification
    assert verification["verified"] is False, verification
    assert verification["details"]["lift_attempts"] >= 10
    assert concretized and grams
    twice = [key for key, count in concretized.items() if count > 1]
    assert not twice, f"{len(twice)} (polynomial, snap) pairs concretized more than once"
    assert max(grams.values()) == 1, "a (pair, multiplier, pin, basis) Gram was snapped twice"
