"""Tests of the typed request surface (repro.api.request)."""

import json

import pytest

from repro.api import RequestValidationError, SynthesisRequest, objective_from_dict, objective_to_dict
from repro.api.request import precondition_to_spec
from repro.invariants.synthesis import SynthesisOptions
from repro.lang.parser import parse_program
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import SolverOptions
from repro.spec.objectives import (
    FeasibilityObjective,
    LinearCoefficientObjective,
    TargetInvariantObjective,
    TargetPostconditionObjective,
)
from repro.spec.preconditions import Precondition
from repro.suite.registry import get_benchmark

SUM = get_benchmark("sum")


def sum_request(**overrides) -> SynthesisRequest:
    fields = dict(
        program=SUM.source,
        mode="weak",
        precondition=SUM.precondition,
        objective=SUM.objective(),
        options=SUM.options(upsilon=1),
        solver_options=SolverOptions(restarts=1, max_iterations=50, time_limit=5.0),
        deadline=30.0,
        request_id="sum",
    )
    fields.update(overrides)
    return SynthesisRequest(**fields)


# -- JSON round-trip --------------------------------------------------------------


def test_request_round_trips_through_json():
    request = sum_request()
    clone = SynthesisRequest.from_json(request.to_json())
    assert clone == request
    # The JSON form itself is stable under a second round trip.
    assert clone.to_dict() == request.to_dict()


def test_request_json_is_plain_data():
    payload = json.loads(sum_request().to_json(indent=2))
    assert payload["mode"] == "weak"
    assert payload["options"]["upsilon"] == 1
    assert isinstance(payload["precondition"], dict)
    assert payload["objective"]["kind"] == "target-invariant"


def test_program_ast_is_normalised_to_source():
    request = SynthesisRequest(program=parse_program(SUM.source))
    assert isinstance(request.program, str)
    # The normalised source re-parses to the same program shape.
    assert parse_program(request.program).functions[0].name == "sum"


def test_precondition_object_serialises_to_spec():
    from repro.cfg.builder import build_cfg

    cfg = build_cfg(parse_program(SUM.source))
    precondition = Precondition.from_spec(cfg, {"sum": {1: "n >= 1"}})
    spec = precondition_to_spec(precondition)
    assert set(spec) == {"sum"} and set(spec["sum"]) == {1}
    # The rendered text re-parses into an equivalent precondition.
    rebuilt = Precondition.from_spec(cfg, spec)
    label = cfg.function("sum").label_by_index(1)
    assert rebuilt.at(label).holds({"n": 2.0})
    assert not rebuilt.at(label).holds({"n": 0.0})


# -- objective codec --------------------------------------------------------------


@pytest.mark.parametrize(
    "objective",
    [
        FeasibilityObjective(),
        TargetInvariantObjective(function="sum", label_index=9, target=parse_polynomial("1 + n - x")),
        TargetPostconditionObjective(function="sum", target=parse_polynomial("n_init - ret_sum")),
        LinearCoefficientObjective(weights={"s_1": 1.0, "s_2": -2.5}),
    ],
)
def test_objective_round_trips(objective):
    assert objective_from_dict(objective_to_dict(objective)) == objective


def test_unknown_objective_kind_is_structured_error():
    with pytest.raises(RequestValidationError) as info:
        objective_from_dict({"kind": "maximise-profit"})
    assert info.value.errors[0]["field"] == "objective.kind"


# -- validation -------------------------------------------------------------------


def test_unknown_mode_is_rejected():
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program=SUM.source, mode="weakest")
    assert any(entry["field"] == "mode" for entry in info.value.errors)


def test_strong_mode_rejects_objective():
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program=SUM.source, mode="strong", objective=FeasibilityObjective())
    assert any(entry["field"] == "objective" for entry in info.value.errors)


def test_empty_program_is_rejected():
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program="   ")
    assert info.value.errors[0]["field"] == "program"


def test_negative_deadline_is_rejected():
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program=SUM.source, deadline=-1.0)
    assert any(entry["field"] == "deadline" for entry in info.value.errors)


@pytest.mark.parametrize("deadline", [float("inf"), float("nan")])
def test_non_finite_deadline_is_rejected(deadline):
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program=SUM.source, deadline=deadline)
    assert any(entry["field"] == "deadline" for entry in info.value.errors)


def test_multiple_violations_are_all_reported():
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest(program="", mode="nope", deadline=0)
    fields = {entry["field"] for entry in info.value.errors}
    assert {"program", "mode", "deadline"} <= fields


def test_from_dict_rejects_unknown_fields():
    payload = sum_request().to_dict()
    payload["solver"] = "loqo"
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest.from_dict(payload)
    assert "solver" in str(info.value)


@pytest.mark.parametrize("field", ["upsilon_max", "scheduler"])
def test_from_dict_rejects_unknown_option_fields(field):
    payload = sum_request().to_dict()
    payload["options"][field] = 3
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest.from_dict(payload)
    assert any(entry["field"] == "options" for entry in info.value.errors)


@pytest.mark.parametrize("field, value", [("verbose", True), ("stop_at_objective", 1e-6)])
def test_from_dict_rejects_unknown_solver_option_fields(field, value):
    payload = sum_request().to_dict()
    payload["solver_options"][field] = value
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest.from_dict(payload)
    assert any(entry["field"] == "solver_options" for entry in info.value.errors)
    assert "unknown solver option fields" in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("restarts", "3"),
        ("restarts", True),
        ("restarts", -2),
        ("restarts", 0),
        ("max_iterations", 2.5),
        ("max_iterations", -1),
        ("seed", 1.5),
        ("tolerance", -1.0),
        ("tolerance", 0.0),
        ("tolerance", float("nan")),
        ("strict_margin", -1e-4),
        ("strict_margin", float("inf")),
        ("time_limit", -1),
        ("time_limit", 0),
        ("time_limit", float("inf")),
        ("batch", "off"),
    ],
)
def test_from_dict_rejects_invalid_solver_option_values(field, value):
    payload = sum_request().to_dict()
    payload["solver_options"][field] = value
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest.from_dict(payload)
    assert [entry["field"] for entry in info.value.errors] == ["solver_options"]


@pytest.mark.parametrize(
    "overrides",
    [
        {"upsilon": "2"},
        {"upsilon": 1.5},
        {"upsilon": True},
        {"upsilon": -1},
        {"conjuncts": "1"},
        {"conjuncts": 1.0},
        {"conjuncts": 0},
        {"bound": "x", "bounded": True},
        {"bound": -5, "bounded": True},
        {"bounded": 1},
        {"with_witness": "no"},
        {"add_entry_assumptions": "false"},
        {"encode_sos": 0},
    ],
)
def test_from_dict_rejects_invalid_synthesis_option_values(overrides):
    payload = sum_request().to_dict()
    payload["options"].update(overrides)
    with pytest.raises(RequestValidationError) as info:
        SynthesisRequest.from_dict(payload)
    assert [entry["field"] for entry in info.value.errors] == ["options"]


def test_from_json_rejects_invalid_json_and_non_objects():
    with pytest.raises(RequestValidationError):
        SynthesisRequest.from_json("{not json")
    with pytest.raises(RequestValidationError):
        SynthesisRequest.from_json('["a", "list"]')


def test_precondition_label_indices_are_normalised_to_int():
    request = SynthesisRequest(program=SUM.source, precondition={"sum": {"1": "n >= 0"}})
    assert request.precondition == {"sum": {1: "n >= 0"}}


def test_options_survive_strategy_and_portfolio():
    options = SynthesisOptions(upsilon=1, strategy="portfolio", portfolio=("qclp", "gauss-newton"))
    request = SynthesisRequest(program=SUM.source, options=options)
    clone = SynthesisRequest.from_json(request.to_json())
    assert clone.options == options
