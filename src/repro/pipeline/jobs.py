"""Job descriptors: the Step 1-3 reduction key and Step-4 solve key of one request."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.invariants.synthesis import SynthesisOptions
from repro.reduction.plan import freeze_precondition, objective_fingerprint
from repro.spec.objectives import Objective
from repro.spec.preconditions import Precondition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.suite.base import Benchmark


@dataclass(frozen=True)
class SynthesisJob:
    """One batched synthesis request: a program plus its specification.

    All fields are picklable, so jobs can cross process boundaries.  The
    program is carried as source text (not a parsed AST) because parsing is a
    negligible fraction of the reduction and text keys make the task cache
    trivially correct.
    """

    name: str
    source: str
    precondition: Mapping[str, Mapping[int, str]] | Precondition | None = None
    objective: Objective | None = None
    options: SynthesisOptions = field(default_factory=SynthesisOptions)

    def reduction_key(self) -> tuple:
        """Hashable key identifying this job's Step 1-3 reduction.

        Jobs with equal keys produce identical
        :class:`~repro.invariants.synthesis.SynthesisTask` objects, so the
        task cache translates the first and reuses it for the rest.
        Solver-side option knobs (``strategy``/``portfolio``) are excluded:
        jobs differing only in their Step-4 back-end still share one
        reduction.
        """
        return (
            self.source,
            freeze_precondition(self.precondition),
            self.options.reduction_fingerprint(),
            objective_fingerprint(self.objective),
        )

    def solve_key(self) -> tuple:
        """Hashable key identifying this job's Step-4 solve.

        Extends :meth:`reduction_key` with the solver strategy, so the
        engine deduplicates solves only between jobs that would run the
        same back-end on the same system.
        """
        return (*self.reduction_key(), self.options.strategy, self.options.portfolio)


def job_from_benchmark(benchmark: "Benchmark", quick: bool = False, **option_overrides) -> SynthesisJob:
    """Build a :class:`SynthesisJob` from a suite :class:`~repro.suite.base.Benchmark`.

    ``quick`` applies the CI preset (multiplier degree Upsilon = 1), matching
    the historical behaviour of the benchmark runner; further keyword
    arguments override individual synthesis options.
    """
    if quick:
        option_overrides.setdefault("upsilon", 1)
    return SynthesisJob(
        name=benchmark.name,
        source=benchmark.source,
        precondition=benchmark.precondition,
        objective=benchmark.objective(),
        options=benchmark.options(**option_overrides),
    )
