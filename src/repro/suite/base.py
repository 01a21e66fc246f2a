"""Benchmark descriptors shared by the whole suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.cfg.builder import build_cfg
from repro.cfg.graph import ProgramCFG
from repro.errors import SpecificationError
from repro.invariants.synthesis import SynthesisOptions
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.polynomial.parse import parse_polynomial
from repro.polynomial.polynomial import Polynomial
from repro.spec.objectives import (
    FeasibilityObjective,
    Objective,
    TargetInvariantObjective,
    TargetPostconditionObjective,
)


@dataclass(frozen=True)
class PaperReference:
    """The numbers the paper reports for a benchmark.

    ``python -m repro.bench`` prints them beside the measured ones.
    """

    conjuncts: int
    degree: int
    variables: int
    system_size: int
    runtime_seconds: float


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: a program, its pre-condition and its target invariant.

    Attributes
    ----------
    name, category, description:
        Identification; ``category`` is ``"nonrecursive"``, ``"recursive"`` or
        ``"reinforcement"``.
    source:
        Program text in the paper's guarded polynomial language.
    precondition:
        Textual pre-condition spec: ``{function: {label_index: assertion}}``.
    target_function, target_label, target:
        The label at which the paper's desired invariant should hold, and the
        polynomial ``g`` of the desired assertion ``g > 0`` (``None`` when the
        benchmark is solved for feasibility only).
    degree, conjuncts, upsilon:
        Template parameters (the paper's d, n and the multiplier degree).
    paper:
        The values reported in Table 2 / Table 3, when available.
    notes:
        Deviations from the original source (e.g. equality guards rewritten as
        conjunctions of inequalities, ``mod``/``floor`` replaced by
        non-determinism).
    """

    name: str
    category: str
    description: str
    source: str
    precondition: Mapping[str, Mapping[int, str]] = field(default_factory=dict)
    target_function: str | None = None
    target_label: int | None = None
    target: str | None = None
    target_kind: str = "label"
    degree: int = 2
    conjuncts: int = 1
    upsilon: int = 2
    paper: PaperReference | None = None
    notes: str = ""

    # -- derived artefacts -----------------------------------------------------------

    def program(self) -> Program:
        """Parse the benchmark's source text."""
        return parse_program(self.source)

    def cfg(self) -> ProgramCFG:
        """The benchmark's control-flow graph."""
        return build_cfg(self.program())

    def target_polynomial(self) -> Polynomial | None:
        """The desired invariant polynomial, when the benchmark has one."""
        if self.target is None:
            return None
        return parse_polynomial(self.target)

    def objective(self) -> Objective:
        """The Weak-synthesis objective: match the target invariant when given."""
        polynomial = self.target_polynomial()
        if polynomial is None:
            return FeasibilityObjective()
        if self.target_function is None:
            raise SpecificationError(
                f"benchmark {self.name!r} has a target polynomial but no target function"
            )
        if self.target_kind == "postcondition":
            return TargetPostconditionObjective(function=self.target_function, target=polynomial)
        if self.target_label is None:
            raise SpecificationError(
                f"benchmark {self.name!r} has a label target but no target label index"
            )
        return TargetInvariantObjective(
            function=self.target_function,
            label_index=self.target_label,
            target=polynomial,
        )

    def options(self, **overrides) -> SynthesisOptions:
        """The synthesis options matching the paper's table row (overridable)."""
        parameters = {
            "degree": self.degree,
            "conjuncts": self.conjuncts,
            "upsilon": self.upsilon,
        }
        parameters.update(overrides)
        return SynthesisOptions(**parameters)

    def variable_count(self) -> int:
        """The paper's ``|V|`` column: number of program variables."""
        return self.cfg().variable_count()
