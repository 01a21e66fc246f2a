"""The sampling verification tier: the independent invariant checker.

A synthesized invariant should never be trusted just because the solver said
so.  This module re-validates a concrete invariant two ways:

* **Simulation** — execute valid runs of the program and check the invariant
  at every visited stack element (Lemma 2.1 / 2.2 say an inductive invariant
  can never be falsified this way).  When no argument sets are supplied they
  are derived automatically from the entry pre-condition's box
  (:func:`derive_argument_sets`) instead of silently skipping simulation.
* **Constraint-pair sampling** — rebuild the Step-2 constraint pairs with the
  *concrete* invariant substituted for the template and falsify the resulting
  implications on random valuations.

Both can only refute.  Proof is the exact tier's job: it lifts the solver's
multipliers to a rational Putinar/Handelman certificate and checks it by
polynomial identity.

All randomness flows from one explicit ``rng_seed`` through private
:class:`random.Random` instances, so verification runs are reproducible.
The simulation's size is fixed by module constants: the argument sets
derived when the caller passes none, their box, and the interpreter's step
limit per run.
This is the ``verify="sample"`` tier of the certificate subsystem; the exact
tier lives in :mod:`repro.certify.lift` / :mod:`repro.certify.certificate`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.cfg.graph import ProgramCFG
from repro.cfg.labels import Label
from repro.invariants.generation import generate_constraint_pairs
from repro.invariants.result import Invariant
from repro.polynomial.polynomial import Polynomial
from repro.semantics.interpreter import ExecutionLimits, Interpreter
from repro.semantics.scheduler import RandomScheduler
from repro.spec.assertions import ConjunctiveAssertion
from repro.spec.preconditions import Precondition

#: Derived simulation arguments lie in ``[-_ARGUMENT_BOUND, _ARGUMENT_BOUND]``.
_ARGUMENT_BOUND = 10
#: Argument sets :func:`check_invariant` derives when the caller passes none.
_SIMULATION_RUNS = 8
#: The interpreter's step limit per simulated run.
_SIMULATION_STEPS = 5000


@dataclass(frozen=True)
class _ConcreteEntry:
    """Adapter presenting a concrete assertion with the template-entry interface."""

    assertion: ConjunctiveAssertion

    def polynomials(self) -> list[Polynomial]:
        return [atom.polynomial for atom in self.assertion]


class _InvariantAsTemplates:
    """Adapter so that :func:`generate_constraint_pairs` can run on a concrete invariant."""

    def __init__(self, invariant: Invariant):
        self._invariant = invariant

    def at(self, label: Label) -> _ConcreteEntry:
        return _ConcreteEntry(self._invariant.at(label))

    def post_entry_for(self, function: str) -> _ConcreteEntry:
        return _ConcreteEntry(self._invariant.postcondition(function))

    def has_postconditions(self) -> bool:
        return bool(self._invariant.postconditions)


@dataclass
class Violation:
    """One witnessed violation: where, and the valuation that falsifies it."""

    kind: str
    location: str
    valuation: Mapping[str, float]

    def __str__(self) -> str:
        values = ", ".join(f"{k}={v:g}" for k, v in sorted(self.valuation.items()))
        return f"{self.kind} violated at {self.location} with {{{values}}}"


@dataclass
class CheckReport:
    """Aggregated outcome of all enabled checks."""

    simulation_runs: int = 0
    simulation_elements_checked: int = 0
    pair_samples: int = 0
    pairs_checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether no check produced a violation."""
        return not self.violations

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: {self.simulation_runs} runs "
            f"({self.simulation_elements_checked} states), "
            f"{self.pairs_checked} constraint pairs x {self.pair_samples} samples, "
            f"{len(self.violations)} violations"
        )


# ---------------------------------------------------------------------------
# Deriving simulation arguments from the pre-condition box
# ---------------------------------------------------------------------------


def _interval_from_atoms(
    assertion: ConjunctiveAssertion, parameter: str, bound: int
) -> tuple[Fraction, Fraction]:
    """The interval the entry assertion's *univariate linear* atoms admit.

    Atoms mentioning other variables (or non-linear in ``parameter``) are
    ignored — runs whose arguments violate them are invalid and skipped by the
    simulation anyway.  The result is clipped to ``[-bound, bound]``.
    """
    low = Fraction(-bound)
    high = Fraction(bound)
    for atom in assertion:
        polynomial = atom.polynomial
        if polynomial.variables() != frozenset({parameter}):
            continue
        if polynomial.degree_in(parameter) != 1:
            continue
        slope = polynomial.coefficient(_monomial_of(parameter))
        offset = polynomial.constant_term()
        if not slope:
            continue
        threshold = -offset / slope  # slope * x + offset >= 0
        if slope > 0:
            low = max(low, threshold)
        else:
            high = min(high, threshold)
    if low > high:
        return Fraction(0), Fraction(0)
    return low, high


def _monomial_of(name: str):
    from repro.polynomial.monomial import Monomial

    return Monomial.of(name)


def derive_argument_sets(
    cfg: ProgramCFG,
    precondition: Precondition,
    runs: int = 8,
    rng_seed: int = 0,
) -> list[dict[str, Fraction]]:
    """Simulation arguments derived from the entry pre-condition's box.

    For every parameter of the entry function, the interval admitted by the
    univariate linear atoms of the entry assertion (clipped to
    ``[-_ARGUMENT_BOUND, _ARGUMENT_BOUND]``) supplies both endpoints and
    ``rng_seed``-seeded integer samples, so :func:`check_invariant` can
    simulate meaningfully even when the caller passes no explicit argument
    sets.
    """
    main_cfg = cfg.main
    parameters = list(main_cfg.parameters)
    if not parameters:
        return [{}]
    rng = random.Random(rng_seed)
    assertion = precondition.at(main_cfg.entry)
    intervals = {
        name: _interval_from_atoms(assertion, name, _ARGUMENT_BOUND) for name in parameters
    }
    argument_sets: list[dict[str, Fraction]] = []
    seen: set[tuple] = set()

    def add(valuation: dict[str, Fraction]) -> None:
        key = tuple(sorted((name, value) for name, value in valuation.items()))
        if key not in seen:
            seen.add(key)
            argument_sets.append(valuation)

    # Box corners first (the extremes catch monotone violations cheapest) ...
    add({name: intervals[name][0] for name in parameters})
    add({name: intervals[name][1] for name in parameters})
    # ... then seeded integer samples from the interior.
    attempts = 0
    while len(argument_sets) < runs and attempts < 8 * runs:
        attempts += 1
        valuation = {}
        for name in parameters:
            low, high = intervals[name]
            low_int, high_int = math.ceil(low), math.floor(high)
            if low_int > high_int:
                valuation[name] = low
            else:
                valuation[name] = Fraction(rng.randint(low_int, high_int))
        add(valuation)
    return argument_sets


# ---------------------------------------------------------------------------
# The two checks
# ---------------------------------------------------------------------------


def _simulate(
    cfg: ProgramCFG,
    precondition: Precondition,
    invariant: Invariant,
    argument_sets: Sequence[Mapping[str, Fraction | int | float]],
    report: CheckReport,
    seed: int,
) -> None:
    interpreter = Interpreter(
        cfg,
        scheduler=RandomScheduler(seed=seed),
        limits=ExecutionLimits(max_steps=_SIMULATION_STEPS),
    )
    for arguments in argument_sets:
        result = interpreter.run(arguments)
        report.simulation_runs += 1
        valid = True
        for configuration in result.trace:
            if not configuration:
                continue
            element = configuration.top()
            float_valuation = {name: float(value) for name, value in element.valuation.items()}
            if not precondition.holds_at(element.label, float_valuation):
                valid = False
            if not valid:
                break
            report.simulation_elements_checked += 1
            if not invariant.at(element.label).holds(float_valuation):
                report.violations.append(
                    Violation(kind="invariant", location=str(element.label), valuation=float_valuation)
                )
        if result.completed and invariant.postconditions:
            main_cfg = cfg.main
            final_elements = [c.top() for c in result.trace if len(c) == 1]
            if final_elements:
                last = final_elements[-1]
                float_valuation = {name: float(value) for name, value in last.valuation.items()}
                post = invariant.postcondition(main_cfg.name)
                if last.label.is_endpoint and not post.holds(float_valuation):
                    report.violations.append(
                        Violation(kind="postcondition", location=main_cfg.name, valuation=float_valuation)
                    )


def _sample_pairs(
    cfg: ProgramCFG,
    precondition: Precondition,
    invariant: Invariant,
    report: CheckReport,
    samples: int,
    value_range: float,
    seed: int,
) -> None:
    adapter = _InvariantAsTemplates(invariant)
    pairs = generate_constraint_pairs(cfg, precondition, adapter)  # type: ignore[arg-type]
    rng = random.Random(seed)
    report.pairs_checked = len(pairs)
    report.pair_samples = samples
    for pair in pairs:
        names = pair.relevant_program_variables()
        for _ in range(samples):
            valuation = {name: rng.uniform(-value_range, value_range) for name in names}
            if rng.random() < 0.5:
                valuation = {name: float(round(value)) for name, value in valuation.items()}
            if not pair.holds_numerically(valuation):
                report.violations.append(
                    Violation(kind="constraint-pair", location=pair.name, valuation=valuation)
                )
                break


def check_invariant(
    cfg: ProgramCFG,
    precondition: Precondition,
    invariant: Invariant,
    argument_sets: Sequence[Mapping[str, Fraction | int | float]] = (),
    pair_samples: int = 50,
    sample_range: float = 25.0,
    rng_seed: int = 0,
) -> CheckReport:
    """Run every enabled validation of ``invariant`` and return a report.

    Parameters
    ----------
    argument_sets:
        Concrete argument valuations for the entry function; each produces one
        simulated run.  Arguments violating the entry pre-condition simply
        yield invalid runs that are skipped, so callers can pass broad grids.
        When empty, ``_SIMULATION_RUNS`` argument sets are derived from the
        entry pre-condition's box (:func:`derive_argument_sets`) — simulation
        is never skipped.  Each run stops after ``_SIMULATION_STEPS`` steps.
    pair_samples, sample_range:
        How many random valuations to throw at each concrete constraint pair,
        and from what box.  For the exact certificate check see
        :func:`repro.certify.check_certificate`.
    rng_seed:
        Seed of *all* randomness in this run (scheduler choices, derived
        arguments, pair-sample valuations).  Equal seeds reproduce reports
        exactly.
    """
    report = CheckReport()
    runs: Sequence[Mapping[str, Fraction | int | float]] = argument_sets
    if not runs:
        runs = derive_argument_sets(cfg, precondition, runs=_SIMULATION_RUNS, rng_seed=rng_seed)
    _simulate(cfg, precondition, invariant, runs, report, rng_seed)
    if pair_samples > 0:
        _sample_pairs(
            cfg, precondition, invariant, report, pair_samples, sample_range, rng_seed + 1
        )
    return report
