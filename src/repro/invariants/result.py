"""Result objects of the synthesis algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.cfg.graph import ProgramCFG
from repro.cfg.labels import Label
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.template import TemplateSet
from repro.spec.assertions import ConjunctiveAssertion


@dataclass(frozen=True)
class Invariant:
    """A concrete (numeric) inductive invariant, possibly with post-conditions.

    ``assertions`` maps every label to the conjunction synthesized there;
    ``postconditions`` maps every function name to its synthesized
    post-condition (empty for non-recursive programs).
    """

    assertions: Mapping[Label, ConjunctiveAssertion]
    postconditions: Mapping[str, ConjunctiveAssertion] = field(default_factory=dict)

    def at(self, label: Label) -> ConjunctiveAssertion:
        """The invariant assertion at ``label`` (``true`` when absent)."""
        return self.assertions.get(label, ConjunctiveAssertion.true())

    def at_index(self, function: str, index: int) -> ConjunctiveAssertion:
        """The invariant assertion at a (function, label index) pair."""
        for label, assertion in self.assertions.items():
            if label.function == function and label.index == index:
                return assertion
        return ConjunctiveAssertion.true()

    def postcondition(self, function: str) -> ConjunctiveAssertion:
        """The synthesized post-condition of ``function`` (``true`` when absent)."""
        return self.postconditions.get(function, ConjunctiveAssertion.true())

    def labels(self) -> list[Label]:
        """All labels carrying an assertion, ordered by function and index."""
        return sorted(self.assertions, key=lambda label: (label.function, label.index))

    def __iter__(self) -> Iterator[tuple[Label, ConjunctiveAssertion]]:
        for label in self.labels():
            yield label, self.assertions[label]

    def pretty(self) -> str:
        """A multi-line rendering, one label per line."""
        lines = [f"{label}: {assertion}" for label, assertion in self]
        for function, assertion in sorted(self.postconditions.items()):
            lines.append(f"post({function}): {assertion}")
        return "\n".join(lines)


@dataclass
class SynthesisResult:
    """Everything produced by one run of a synthesis algorithm.

    Attributes
    ----------
    invariant:
        The best invariant found (``None`` when the solver failed).
    invariants:
        For strong synthesis, the representative set of invariants found; for
        weak synthesis a list with at most one element.
    assignment:
        The numeric values of all unknowns in the solution.
    system:
        The quadratic system of Step 3 (its ``size`` is the paper's ``|S|``).
    templates:
        The Step-1 templates (useful for inspecting coefficient names).
    cfg:
        The program CFG the synthesis ran on.
    statistics:
        Timings and counts recorded by the pipeline.
    solver_status:
        Free-form status string reported by the Step-4 solver.
    strategy:
        The Step-4 strategy that produced the result (the winning strategy of
        a portfolio, or the solver's own name).
    """

    invariant: Invariant | None
    invariants: list[Invariant]
    assignment: Mapping[str, float] | None
    system: QuadraticSystem
    templates: TemplateSet
    cfg: ProgramCFG
    statistics: dict[str, float] = field(default_factory=dict)
    solver_status: str = ""
    strategy: str | None = None

    @property
    def success(self) -> bool:
        """Whether at least one invariant was synthesized."""
        return self.invariant is not None

    @property
    def system_size(self) -> int:
        """The paper's ``|S|`` column: constraints in the quadratic system."""
        return self.system.size

    def summary(self) -> str:
        """A short human-readable summary of the run."""
        counts = self.system.counts()
        lines = [
            f"status: {self.solver_status or ('ok' if self.success else 'no solution')}",
            f"quadratic system: {counts['constraints']} constraints over {counts['variables']} unknowns",
            f"template coefficients: {counts['template_variables']}",
        ]
        for key, value in sorted(self.statistics.items()):
            lines.append(f"{key}: {value:.3f}" if isinstance(value, float) else f"{key}: {value}")
        return "\n".join(lines)
