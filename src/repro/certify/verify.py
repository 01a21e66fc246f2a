"""Verification orchestration: the ``verify=`` knob's engine-side entry point.

:func:`verify_solution` takes a feasible Step-4 result and runs the requested
verification tier:

* ``"sample"`` — the absorbed dynamic checker (:mod:`repro.certify.sampling`):
  simulation over pre-condition-derived arguments plus constraint-pair
  sampling, seeded from ``SynthesisOptions.verify_seed``;
* ``"exact"`` — the exact lift (:mod:`repro.certify.lift`): rationalize,
  complete witnesses, and validate the resulting
  :class:`~repro.certify.certificate.Certificate` with
  :func:`~repro.certify.certificate.check_certificate` bound to the task.

A rejected solution enters the counterexample-guided
:func:`~repro.certify.repair.repair_solution` loop (bounded by
``max_repair_rounds`` and the remaining request deadline); the outcome —
verified or not, certificate, repair trail — is summarised in a JSON-ready
:class:`VerificationOutcome` that the engine attaches to the response.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from repro.certify.certificate import Certificate, check_certificate
from repro.certify.lift import LiftResult, lift_solution
from repro.certify.repair import RepairOutcome, repair_solution
from repro.certify.sampling import CheckReport, check_invariant
from repro.invariants.synthesis import _instantiate_invariant
from repro.solvers.base import SolverOptions, SolverResult
from repro.solvers.problem import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reduction.options import SynthesisOptions
    from repro.reduction.task import SynthesisTask

@dataclass
class VerificationOutcome:
    """Everything one verification (plus repair) pass produced."""

    mode: str
    verified: bool
    certificate: Certificate | None = None
    exact_assignment: dict[str, Fraction] | None = None
    solve_result: SolverResult | None = None  # replaced by repair when it re-solved
    repaired: bool = False
    repair_rounds: int = 0
    seconds: float = 0.0
    reason: str | None = None
    lift_denominator: int | None = None
    report: CheckReport | None = None
    details: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON-ready summary carried on ``SynthesisResponse.verification``."""
        payload = {
            "mode": self.mode,
            "verified": self.verified,
            "repaired": self.repaired,
            "repair_rounds": self.repair_rounds,
            "seconds": self.seconds,
            "reason": self.reason,
            "lift_denominator": self.lift_denominator,
        }
        if self.report is not None:
            payload["sample_report"] = self.report.summary()
        if self.details:
            payload["details"] = dict(self.details)
        return payload


def verify_solution(
    task: "SynthesisTask",
    solve_result: SolverResult,
    options: "SynthesisOptions",
    solver_options: SolverOptions | None = None,
    deadline: Deadline | None = None,
) -> VerificationOutcome:
    """Run the requested verification tier, repairing on rejection.

    Only meaningful for feasible weak-mode results; the caller guards on
    ``solve_result.feasible``.  Every lift and repair round runs on what
    remains of ``deadline`` (``None``: no limit).  The returned outcome's
    ``solve_result`` is non-``None`` exactly when a repair round replaced
    the original solution.
    """
    start = time.perf_counter()
    deadline = deadline if deadline is not None else Deadline.never()
    mode = options.verify
    outcome = VerificationOutcome(mode=mode, verified=False)
    assignment = dict(solve_result.assignment or {})

    if mode == "sample":

        def validate_sample(candidate: Mapping[str, float]) -> tuple[bool, object]:
            invariant = _instantiate_invariant(task, candidate, clean=False)
            report = check_invariant(
                task.cfg,
                task.precondition,
                invariant,
                rng_seed=options.verify_seed,
            )
            return report.passed, report

        verified, report = validate_sample(assignment)
        outcome.report = report  # type: ignore[assignment]
        outcome.verified = verified
        if not verified:
            repair = _repair(task, assignment, validate_sample, options, solver_options, deadline)
            outcome.repair_rounds = repair.rounds_used
            if repair.ok:
                outcome.verified = True
                outcome.repaired = True
                outcome.report = repair.payload  # type: ignore[assignment]
                outcome.solve_result = repair.solve_result
            else:
                outcome.reason = f"sampling check failed: {report.summary()}"
    elif mode == "exact":
        lifts: list[LiftResult] = []  # every lift this request ran, repair's included

        def validate_exact(candidate: Mapping[str, float]) -> tuple[bool, object]:
            # The lift honours whatever remains of the request deadline (its
            # own default budget caps unlimited requests); an exhausted
            # deadline degrades to a near-immediate unverified outcome.
            remaining = deadline.remaining()
            budget = 120.0 if remaining is None else max(0.05, remaining)
            lift = lift_solution(task, candidate, time_budget=budget)
            lifts.append(lift)
            if not lift.ok or lift.certificate is None:
                return False, lift
            check = check_certificate(lift.certificate, task=task)
            if not check.ok:  # the lift itself mis-assembled; treat as unverified
                lift.ok = False
                lift.reason = f"checker rejected the lifted certificate: {check.summary()}"
                return False, lift
            return True, lift

        verified, lift = validate_exact(assignment)
        outcome.verified = verified
        if verified:
            _absorb_lift(outcome, lift)  # type: ignore[arg-type]
        else:
            outcome.reason = lift.reason  # type: ignore[union-attr]
            outcome.details["exact_violations"] = float(len(lift.violations))  # type: ignore[union-attr]
            repair = _repair(task, assignment, validate_exact, options, solver_options, deadline)
            outcome.repair_rounds = repair.rounds_used
            if repair.ok:
                outcome.verified = True
                outcome.repaired = True
                outcome.reason = None
                outcome.solve_result = repair.solve_result
                _absorb_lift(outcome, repair.payload)  # type: ignore[arg-type]
        outcome.details["lift_attempts"] = float(sum(lift.attempts for lift in lifts))
        outcome.details["lift_seconds"] = sum(lift.seconds for lift in lifts)
    outcome.seconds = time.perf_counter() - start
    return outcome


def _absorb_lift(outcome: VerificationOutcome, lift: LiftResult) -> None:
    outcome.certificate = lift.certificate
    outcome.exact_assignment = lift.exact_assignment
    outcome.lift_denominator = lift.denominator


def _repair(
    task: "SynthesisTask",
    assignment: Mapping[str, float],
    validate,
    options: "SynthesisOptions",
    solver_options: SolverOptions | None,
    deadline: Deadline,
) -> RepairOutcome:
    if options.max_repair_rounds <= 0:
        return RepairOutcome(ok=False)
    # Repair is an escalation mechanism: it always re-runs the portfolio
    # (the request's own `portfolio` line-up when given), because the pinned
    # strategy already produced the rejected solution.
    return repair_solution(
        task,
        assignment,
        validate,
        max_rounds=options.max_repair_rounds,
        solver_options=solver_options,
        strategy="portfolio",
        portfolio=options.portfolio,
        deadline=deadline,
        rng_seed=options.verify_seed,
    )
