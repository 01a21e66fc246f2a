"""The typed synthesis request: one envelope for all four paper algorithms.

A :class:`SynthesisRequest` unifies ``WeakInvSynth``, ``StrongInvSynth`` and
their recursive variants behind a single ``mode`` switch, carries the program
(source text or AST), the pre-condition, the objective and every per-request
knob (synthesis options, solver options, a wall-clock deadline), and
round-trips losslessly through JSON — so the same value works as a library
call argument, a queue message and an HTTP body.

The JSON codecs in this module are strict: unknown fields, wrong types and
out-of-range values raise a structured
:class:`~repro.api.errors.RequestValidationError` naming every offending
field, never a bare ``KeyError``/``TypeError``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.errors import RequestValidationError
from repro.errors import ReproError
from repro.invariants.synthesis import SynthesisOptions
from repro.lang.ast_nodes import Program
from repro.lang.pretty import pretty_print
from repro.pipeline.jobs import SynthesisJob
from repro.polynomial.parse import parse_polynomial
from repro.solvers.base import SolverOptions
from repro.spec.objectives import (
    FeasibilityObjective,
    LinearCoefficientObjective,
    Objective,
    TargetInvariantObjective,
    TargetPostconditionObjective,
)
from repro.spec.preconditions import Precondition

#: The four algorithm entry points of the paper, as request modes.
MODES = ("weak", "strong", "rec-weak", "rec-strong")

#: Modes that run the representative-set enumeration instead of a single solve.
STRONG_MODES = ("strong", "rec-strong")


# ---------------------------------------------------------------------------
# Objective codec
# ---------------------------------------------------------------------------

_OBJECTIVE_KINDS = {
    FeasibilityObjective: "feasibility",
    TargetInvariantObjective: "target-invariant",
    TargetPostconditionObjective: "target-postcondition",
    LinearCoefficientObjective: "linear-coefficients",
}


def objective_to_dict(objective: Objective) -> dict:
    """Serialise an objective to its JSON form (polynomials become text)."""
    kind = _OBJECTIVE_KINDS.get(type(objective))
    if kind is None:
        raise RequestValidationError.single(
            "objective", f"objective type {type(objective).__name__!r} has no JSON form"
        )
    if isinstance(objective, FeasibilityObjective):
        return {"kind": kind}
    if isinstance(objective, TargetInvariantObjective):
        return {
            "kind": kind,
            "function": objective.function,
            "label_index": objective.label_index,
            "target": str(objective.target),
            "conjunct": objective.conjunct,
            "normalise": objective.normalise,
        }
    if isinstance(objective, TargetPostconditionObjective):
        return {
            "kind": kind,
            "function": objective.function,
            "target": str(objective.target),
            "conjunct": objective.conjunct,
        }
    return {"kind": kind, "weights": {name: float(w) for name, w in objective.weights.items()}}


def objective_from_dict(payload: Mapping, field_path: str = "objective") -> Objective:
    """Rebuild an objective from its JSON form (inverse of :func:`objective_to_dict`)."""
    if not isinstance(payload, Mapping):
        raise RequestValidationError.single(field_path, "expected an object with a 'kind' field")
    kind = payload.get("kind")
    known = {name: cls for cls, name in _OBJECTIVE_KINDS.items()}
    if kind not in known:
        raise RequestValidationError.single(
            f"{field_path}.kind", f"unknown objective kind {kind!r}; known kinds: {', '.join(known)}"
        )
    data = {key: value for key, value in payload.items() if key != "kind"}
    try:
        if kind == "feasibility":
            if data:
                raise RequestValidationError.single(
                    field_path, f"feasibility objective takes no fields, got {sorted(data)}"
                )
            return FeasibilityObjective()
        if kind in ("target-invariant", "target-postcondition"):
            data["target"] = parse_polynomial(str(data.get("target", "")))
        return known[kind](**data)
    except RequestValidationError:
        raise
    except (ReproError, TypeError, ValueError) as exc:
        raise RequestValidationError.single(field_path, str(exc)) from exc


# ---------------------------------------------------------------------------
# Precondition codec
# ---------------------------------------------------------------------------


def precondition_to_spec(precondition) -> dict[str, dict[int, str]] | None:
    """A precondition's nested-dict textual form (JSON-ready).

    Textual specs pass through (normalised to ``int`` label keys);
    :class:`~repro.spec.preconditions.Precondition` objects are rendered back
    to per-label assertion text, which re-parses to an equivalent object.
    """
    if precondition is None:
        return None
    if isinstance(precondition, Precondition):
        spec: dict[str, dict[int, str]] = {}
        for label, assertion in precondition.assertions.items():
            if assertion.is_true():
                continue
            spec.setdefault(label.function, {})[label.index] = str(assertion)
        return spec or None
    return {
        str(function): {int(index): str(text) for index, text in per_label.items()}
        for function, per_label in precondition.items()
    }


def _validate_precondition(value, errors: list[dict[str, str]]):
    """Normalise/validate a precondition field; returns the canonical value."""
    if value is None or isinstance(value, Precondition):
        return value
    if not isinstance(value, Mapping):
        errors.append(
            {
                "field": "precondition",
                "reason": "expected null, a Precondition, or {function: {label_index: assertion}}",
            }
        )
        return None
    normalised: dict[str, dict[int, str]] = {}
    for function, per_label in value.items():
        if not isinstance(function, str) or not isinstance(per_label, Mapping):
            errors.append(
                {
                    "field": f"precondition.{function}",
                    "reason": "expected {function name: {label_index: assertion text}}",
                }
            )
            continue
        inner: dict[int, str] = {}
        for index, text in per_label.items():
            try:
                index_int = int(index)
            except (TypeError, ValueError):
                errors.append(
                    {
                        "field": f"precondition.{function}.{index!r}",
                        "reason": "label index must be an integer",
                    }
                )
                continue
            if not isinstance(text, str):
                errors.append(
                    {
                        "field": f"precondition.{function}.{index_int}",
                        "reason": "assertion must be a string",
                    }
                )
                continue
            inner[index_int] = text
        normalised[function] = inner
    return normalised


# ---------------------------------------------------------------------------
# Options codecs
# ---------------------------------------------------------------------------


def _options_to_dict(options: SynthesisOptions) -> dict:
    payload = dataclasses.asdict(options)
    payload["portfolio"] = list(options.portfolio)
    return payload


def _options_from_dict(payload: Mapping, field_path: str = "options") -> SynthesisOptions:
    if not isinstance(payload, Mapping):
        raise RequestValidationError.single(field_path, "expected an object of synthesis options")
    known = {f.name for f in dataclasses.fields(SynthesisOptions)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestValidationError.single(
            field_path, f"unknown option fields {unknown}; known fields: {', '.join(sorted(known))}"
        )
    data = dict(payload)
    if "portfolio" in data:
        if not isinstance(data["portfolio"], (list, tuple)):
            raise RequestValidationError.single(f"{field_path}.portfolio", "expected a list of strategy names")
        data["portfolio"] = tuple(data["portfolio"])
    try:
        return SynthesisOptions(**data)
    except (ReproError, TypeError, ValueError) as exc:
        raise RequestValidationError.single(field_path, str(exc)) from exc


def _solver_options_from_dict(payload: Mapping, field_path: str = "solver_options") -> SolverOptions:
    if not isinstance(payload, Mapping):
        raise RequestValidationError.single(field_path, "expected an object of solver options")
    known = {f.name for f in dataclasses.fields(SolverOptions)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise RequestValidationError.single(
            field_path, f"unknown solver option fields {unknown}; known fields: {', '.join(sorted(known))}"
        )
    try:
        return SolverOptions(**payload)
    except (TypeError, ValueError) as exc:
        raise RequestValidationError.single(field_path, str(exc)) from exc


# ---------------------------------------------------------------------------
# The request
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesisRequest:
    """One synthesis request against the :class:`~repro.api.engine.Engine`.

    Attributes
    ----------
    program:
        Program source text (a parsed
        :class:`~repro.lang.ast_nodes.Program` is accepted and pretty-printed
        back to canonical source, which re-parses to the same program).
    mode:
        ``"weak"``, ``"strong"``, ``"rec-weak"`` or ``"rec-strong"`` — the
        four algorithm entry points of the paper.  The recursive variants run
        the same pipeline (recursion is detected automatically) and exist for
        fidelity with the paper's algorithm names.
    precondition:
        ``None``, a :class:`~repro.spec.preconditions.Precondition`, or the
        nested textual spec ``{function: {label_index: assertion}}``.
    objective:
        The Step-4 objective (weak modes only; strong modes enumerate a
        representative set and take no objective).
    options:
        The Step 1-3 / strategy knobs
        (:class:`~repro.invariants.synthesis.SynthesisOptions`).
    solver_options:
        Per-request Step-4 solver knobs; ``None`` inherits the engine default.
    deadline:
        Per-request wall-clock budget in seconds, counted from admission.
        It tightens (never loosens) ``solver_options.time_limit`` in the
        solve's key, and the engine fixes one
        :class:`~repro.solvers.problem.Deadline` from it that queue time,
        the reduction, the solve, the lift and repair all spend.
    request_id:
        Free-form caller identifier echoed on the response.
    reduce_only:
        Run Steps 1-3 only (structural dry-run; the response carries the
        reduction statistics but no invariant).
    """

    program: str
    mode: str = "weak"
    precondition: Mapping[str, Mapping[int, str]] | Precondition | None = None
    objective: Objective | None = None
    options: SynthesisOptions = field(default_factory=SynthesisOptions)
    solver_options: SolverOptions | None = None
    deadline: float | None = None
    request_id: str | None = None
    reduce_only: bool = False

    def __post_init__(self) -> None:
        errors: list[dict[str, str]] = []

        program = self.program
        if isinstance(program, Program):
            program = pretty_print(program)
        if not isinstance(program, str) or not program.strip():
            errors.append({"field": "program", "reason": "expected non-empty program source or a Program AST"})
        object.__setattr__(self, "program", program)

        if self.mode not in MODES:
            errors.append(
                {"field": "mode", "reason": f"unknown mode {self.mode!r}; known modes: {', '.join(MODES)}"}
            )

        object.__setattr__(self, "precondition", _validate_precondition(self.precondition, errors))

        if self.objective is not None and not isinstance(self.objective, Objective):
            errors.append({"field": "objective", "reason": "expected an Objective or null"})
        if self.objective is not None and self.mode in STRONG_MODES:
            errors.append(
                {"field": "objective", "reason": f"mode {self.mode!r} enumerates representatives and takes no objective"}
            )
        if (
            isinstance(self.options, SynthesisOptions)
            and self.options.verify != "none"
            and self.mode in STRONG_MODES
        ):
            errors.append(
                {
                    "field": "options.verify",
                    "reason": f"verification applies to weak modes only; mode {self.mode!r} enumerates representatives",
                }
            )

        if not isinstance(self.options, SynthesisOptions):
            errors.append({"field": "options", "reason": "expected SynthesisOptions"})
        if self.solver_options is not None and not isinstance(self.solver_options, SolverOptions):
            errors.append({"field": "solver_options", "reason": "expected SolverOptions or null"})

        if self.deadline is not None:
            if (
                not isinstance(self.deadline, (int, float))
                or isinstance(self.deadline, bool)
                or not math.isfinite(self.deadline)
                or self.deadline <= 0
            ):
                errors.append({"field": "deadline", "reason": "expected a positive finite number of seconds or null"})
        if self.request_id is not None and not isinstance(self.request_id, str):
            errors.append({"field": "request_id", "reason": "expected a string or null"})
        if not isinstance(self.reduce_only, bool):
            errors.append({"field": "reduce_only", "reason": "expected a boolean"})
        if (
            isinstance(self.reduce_only, bool)
            and self.reduce_only
            and isinstance(self.options, SynthesisOptions)
            and self.options.is_auto_degree
        ):
            errors.append(
                {
                    "field": "options.degree",
                    "reason": 'degree="auto" escalates through Step-4 solves; reduce_only requires a fixed degree',
                }
            )

        if errors:
            raise RequestValidationError(errors)

    # -- engine plumbing ---------------------------------------------------------

    def job(self) -> SynthesisJob:
        """The pipeline job this request reduces through (shares the task cache)."""
        return SynthesisJob(
            name=self.request_id or "request",
            source=self.program,
            precondition=self.precondition,
            objective=None if self.mode in STRONG_MODES else self.objective,
            options=self.options,
        )

    # -- JSON round-trip ---------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-ready form of this request (inverse of :meth:`from_dict`)."""
        return {
            "mode": self.mode,
            "program": self.program,
            "precondition": precondition_to_spec(self.precondition),
            "objective": objective_to_dict(self.objective) if self.objective is not None else None,
            "options": _options_to_dict(self.options),
            "solver_options": dataclasses.asdict(self.solver_options) if self.solver_options else None,
            "deadline": self.deadline,
            "request_id": self.request_id,
            "reduce_only": self.reduce_only,
        }

    def to_json(self, indent: int | None = None) -> str:
        """This request as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(payload: Mapping) -> "SynthesisRequest":
        """Build a request from its JSON form, validating every field.

        Raises a structured
        :class:`~repro.api.errors.RequestValidationError` (never a bare
        ``KeyError``/``TypeError``) on malformed input.
        """
        if not isinstance(payload, Mapping):
            raise RequestValidationError.single("$", "expected a JSON object")
        known = {
            "mode",
            "program",
            "precondition",
            "objective",
            "options",
            "solver_options",
            "deadline",
            "request_id",
            "reduce_only",
        }
        errors: list[dict[str, str]] = []
        unknown = sorted(set(payload) - known)
        if unknown:
            errors.append({"field": "$", "reason": f"unknown request fields {unknown}"})

        objective = None
        if payload.get("objective") is not None:
            try:
                objective = objective_from_dict(payload["objective"])
            except RequestValidationError as exc:
                errors.extend(exc.errors)

        options = SynthesisOptions()
        if payload.get("options") is not None:
            try:
                options = _options_from_dict(payload["options"])
            except RequestValidationError as exc:
                errors.extend(exc.errors)

        solver_options = None
        if payload.get("solver_options") is not None:
            try:
                solver_options = _solver_options_from_dict(payload["solver_options"])
            except RequestValidationError as exc:
                errors.extend(exc.errors)

        if errors:
            raise RequestValidationError(errors)

        return SynthesisRequest(
            program=payload.get("program", ""),
            mode=payload.get("mode", "weak"),
            precondition=payload.get("precondition"),
            objective=objective,
            options=options,
            solver_options=solver_options,
            deadline=payload.get("deadline"),
            request_id=payload.get("request_id"),
            reduce_only=payload.get("reduce_only", False),
        )

    @staticmethod
    def from_json(text: str) -> "SynthesisRequest":
        """Parse and validate a JSON request document."""
        try:
            payload = json.loads(text)
        except (TypeError, json.JSONDecodeError) as exc:
            raise RequestValidationError.single("$", f"not valid JSON: {exc}") from exc
        return SynthesisRequest.from_dict(payload)
