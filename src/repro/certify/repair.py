"""Counterexample-guided repair of unverifiable solutions.

When verification rejects a Step-4 solution — the exact lift finds no
rational certificate, or the sampling tier witnesses a violation — the
:func:`repair_solution` loop drives a CEGIS-style refinement instead of
silently accepting the solver's word:

1. **Harvest** violating valuations: exact residuals of the quadratic system
   at the snapped point, and concrete program states from
   :mod:`repro.semantics` trace falsification of the candidate invariant
   (a fixed budget of runs, steps and cuts: the module's constants).
2. **Cut**: every reachable state ``v`` that falsifies the candidate yields
   the *sound* linear cut ``sum_j s_j * m_j(v) >= 0`` over the template
   unknowns — by Lemma 2.1 any inductive invariant must hold at ``v``, so the
   cut prunes the bad region without excluding any real solution.
3. **Re-solve**: the portfolio re-solves the cut system under the remaining
   deadline with a decorrelated seed and an escalated restart budget, warm
   biased away from the rejected point.

Rounds are bounded by ``SynthesisOptions.max_repair_rounds``; each round
re-runs the caller's validation (exact lift or sampling check) and the loop
stops at the first verified solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Mapping

from repro.certify.sampling import derive_argument_sets
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.synthesis import _instantiate_invariant
from repro.polynomial.polynomial import Polynomial
from repro.semantics.interpreter import ExecutionLimits, Interpreter
from repro.semantics.scheduler import RandomScheduler
from repro.solvers.base import SolverOptions, SolverResult
from repro.solvers.portfolio import make_solver
from repro.solvers.problem import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.reduction.task import SynthesisTask

#: Large prime stride decorrelating per-round solver seeds.
_SEED_STRIDE = 7919

#: Cap on the cuts injected per repair round.
_MAX_CUTS = 24
#: Trace exploration per harvest: simulated runs (argument sets derived from
#: the pre-condition box), the interpreter's step limit per run, and the
#: non-violating states per label that may yield a normalization cut.
_TRACE_RUNS = 8
_TRACE_STEPS = 2000
_STATES_PER_LABEL = 3


@dataclass(frozen=True)
class RepairRound:
    """What one repair round did."""

    round: int
    cuts_added: int
    solver_status: str
    feasible: bool
    validated: bool
    seconds: float


@dataclass
class RepairOutcome:
    """Final outcome of :func:`repair_solution`."""

    ok: bool
    solve_result: SolverResult | None = None
    payload: object | None = None  # whatever the validator returned for the accepted solution
    rounds: list[RepairRound] = field(default_factory=list)

    @property
    def rounds_used(self) -> int:
        return len(self.rounds)


#: Candidate template values below this magnitude at a reachable state are
#: treated as degenerate (a near-zero template whose positivity the solver
#: only sustained inside its float tolerance).
_DEGENERATE_THRESHOLD = 0.5


def harvest_trace_cuts(
    task: "SynthesisTask",
    assignment: Mapping[str, float],
    rng_seed: int = 0,
) -> list[tuple[str, Polynomial]]:
    """Template cuts from trace exploration of the candidate invariant.

    Simulates ``_TRACE_RUNS`` runs of at most ``_TRACE_STEPS`` steps each and
    returns at most ``_MAX_CUTS`` cuts.

    Two kinds of ``>= 0`` cuts over the template unknowns come back as
    ``(origin, polynomial)`` pairs, both obtained by substituting a reachable
    program state ``v`` into a label's template conjunct
    ``sum_j s_j * m_j(v)``:

    * **violation cuts** — the candidate fails at ``v``: requiring the value
      non-negative is sound for *any* inductive invariant (Lemma 2.1) and
      cuts off the rejected candidate;
    * **normalization cuts** — the candidate's value at ``v`` is close to
      zero (the degenerate near-zero templates whose strict positivity lives
      entirely inside the solver tolerance): requiring ``value - 1 >= 0``
      excludes them while keeping a positively-scaled copy of every genuine
      strict invariant feasible (templates scale freely per label).
    """
    invariant = _instantiate_invariant(task, assignment, clean=False)
    interpreter = Interpreter(
        task.cfg,
        scheduler=RandomScheduler(seed=rng_seed),
        limits=ExecutionLimits(max_steps=_TRACE_STEPS),
    )
    cuts: list[tuple[str, Polynomial]] = []
    seen: set[Polynomial] = set()
    per_label: dict[object, int] = {}
    argument_sets = derive_argument_sets(
        task.cfg, task.precondition, runs=_TRACE_RUNS, rng_seed=rng_seed
    )

    def add(origin: str, cut: Polynomial) -> bool:
        if cut.is_zero() or cut.is_constant() or cut in seen:
            return False
        seen.add(cut)
        cuts.append((origin, cut))
        return len(cuts) >= _MAX_CUTS

    for arguments in argument_sets:
        result = interpreter.run(arguments)
        for configuration in result.trace:
            if not configuration:
                continue
            element = configuration.top()
            float_valuation = {name: float(value) for name, value in element.valuation.items()}
            if not task.precondition.holds_at(element.label, float_valuation):
                break
            entry = task.templates.entries.get(element.label)
            if entry is None:
                continue
            violated = not invariant.at(element.label).holds(float_valuation)
            if not violated and per_label.get(element.label, 0) >= _STATES_PER_LABEL:
                continue
            exact_valuation = {
                name: Polynomial.constant(Fraction(value))
                for name, value in element.valuation.items()
            }
            for conjunct in range(entry.conjuncts):
                symbolic = entry.conjunct_polynomial(conjunct)
                valuation = {
                    name: float_valuation.get(name, float(assignment.get(name, 0.0)))
                    for name in symbolic.variables()
                }
                value = symbolic.evaluate_float(valuation)
                cut = symbolic.substitute(exact_valuation)
                if violated:
                    if add(f"violation@{element.label}", cut):
                        return cuts
                elif abs(value) < _DEGENERATE_THRESHOLD and task.options.with_witness:
                    # Normalization is only sound against *strict* invariants
                    # (which scale above any finite bound at reachable
                    # states); the non-strict Remark-6 translation admits
                    # genuinely tight invariants a >=1 cut would exclude.
                    per_label[element.label] = per_label.get(element.label, 0) + 1
                    if add(f"normalize@{element.label}", cut - Polynomial.one()):
                        return cuts
    return cuts


def _cut_system(task: "SynthesisTask", cuts: list[tuple[str, Polynomial]]) -> QuadraticSystem:
    """The task's system plus the harvested cuts (provenance preserved).

    The cuts go to a copy, so the task's (cached) system is never mutated.
    """
    system = task.system.copy()
    for index, (origin, cut) in enumerate(cuts):
        system.add_nonnegative(cut, origin=f"repair:{origin}[{index}]")
    return system


def _escalated_options(
    base: SolverOptions | None, round_index: int, remaining: float | None
) -> SolverOptions:
    """Per-round escalation: decorrelated seed, bigger budget, tighter numerics.

    Tolerance tightens and the strict margin grows with each round: rejected
    solutions frequently owe their float feasibility to witnesses hiding
    inside the solve tolerance (``eps ~ tolerance``), and re-solving with
    ``tolerance << strict_margin`` forces genuine slack the exact lift can
    keep.
    """
    options = (base if base is not None else SolverOptions()).within(remaining)
    return replace(
        options,
        seed=options.seed + _SEED_STRIDE * round_index,
        restarts=max(options.restarts * (round_index + 1), round_index + 2),
        max_iterations=max(options.max_iterations, 200 * (round_index + 1)),
        tolerance=max(options.tolerance / 10**round_index, 1e-9),
        strict_margin=min(options.strict_margin * 10**round_index, 1e-2),
    )


def repair_solution(
    task: "SynthesisTask",
    assignment: Mapping[str, float],
    validate: Callable[[Mapping[str, float]], tuple[bool, object]],
    max_rounds: int = 2,
    solver_options: SolverOptions | None = None,
    strategy: str = "portfolio",
    portfolio: tuple[str, ...] = (),
    deadline: Deadline | None = None,
    rng_seed: int = 0,
) -> RepairOutcome:
    """Drive the harvest-cut-re-solve loop until a solution validates.

    ``validate`` maps a numeric assignment to ``(ok, payload)`` — the exact
    tier passes a lift closure, the sampling tier a check closure — and the
    loop returns the first payload that validates, together with the repaired
    :class:`SolverResult`.  Rounds are bounded by ``max_rounds`` and by
    ``deadline``: a round starts only while more than 0.05 s of it remains,
    and its re-solve runs on what remains.
    """
    outcome = RepairOutcome(ok=False)
    deadline = deadline if deadline is not None else Deadline.never()
    current = dict(assignment)
    for round_index in range(1, max_rounds + 1):
        round_start = time.perf_counter()
        remaining = deadline.remaining()
        if remaining is not None and remaining <= 0.05:
            break
        # Round 1 re-solves the untouched system under tightened numerics —
        # the most common rejection cause is float slack hiding inside the
        # solve tolerance, and counterexample cuts only make that solve
        # harder.  Later rounds inject the harvested cuts.
        cuts = (
            harvest_trace_cuts(task, current, rng_seed=rng_seed + round_index)
            if round_index > 1
            else []
        )
        system = _cut_system(task, cuts)
        options = _escalated_options(solver_options, round_index, remaining)
        solver = make_solver(strategy, options=options, portfolio=portfolio)
        result = solver.solve(system)
        validated = False
        payload: object | None = None
        if result.feasible and result.assignment is not None:
            current = dict(result.assignment)
            validated, payload = validate(current)
        outcome.rounds.append(
            RepairRound(
                round=round_index,
                cuts_added=len(cuts),
                solver_status=result.status,
                feasible=result.feasible,
                validated=validated,
                seconds=time.perf_counter() - round_start,
            )
        )
        if validated:
            outcome.ok = True
            outcome.solve_result = result
            outcome.payload = payload
            return outcome
    return outcome
