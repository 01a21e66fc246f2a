"""The staged reduction compiler: Steps 1-3 as a fingerprinted stage plan.

:func:`compile_plan` lowers one synthesis request (program, pre-condition,
objective, options) into a :class:`ReductionPlan` — an IR whose five stages
(frontend, preconditions, templates, pairs, translation) each carry a
content-based fingerprint.  :meth:`ReductionPlan.execute` then runs the
stages, individually timed, through an optional
:class:`~repro.reduction.cache.StageCache`, so two plans sharing any stage
prefix (same program at a different degree; same constraint pairs at a
different Upsilon) recompute only the stages that actually differ.

A task assembled from cached stages is identical to one built cold: the
property tests in ``tests/property/test_reduction_equivalence.py`` compare
their row digests, and ``tests/integration/test_golden_reduction.py``
freezes the pairs and rows themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Union

from repro.errors import SynthesisError
from repro.invariants.constraints import ConstraintPair
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.template import TemplateSet
from repro.lang.ast_nodes import Program
from repro.lang.pretty import pretty_print
from repro.polynomial.polynomial import Polynomial
from repro.reduction.cache import StageCache
from repro.reduction.options import SynthesisOptions
from repro.reduction.stages import (
    Frontend,
    run_frontend,
    run_pairs,
    run_preconditions,
    run_templates,
    run_translation,
)
from repro.reduction.task import STAGE_NAMES, SynthesisTask
from repro.spec.objectives import FeasibilityObjective, Objective
from repro.spec.preconditions import Precondition

ProgramLike = Union[str, Program]
PreconditionLike = Union[None, Precondition, Mapping[str, Mapping[int, str]]]


@dataclass(frozen=True)
class StageExecution:
    """How one stage of a plan execution was satisfied."""

    name: str
    seconds: float
    from_cache: bool


@dataclass(frozen=True)
class ReductionReport:
    """Per-stage timings and cache outcomes of one :meth:`ReductionPlan.execute`."""

    stages: tuple[StageExecution, ...]
    task_from_cache: bool = False
    extra_timings: tuple[tuple[str, float], ...] = ()

    @property
    def cached_stages(self) -> int:
        return sum(1 for stage in self.stages if stage.from_cache)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def timings(self) -> dict[str, float]:
        """The report flattened into response-timing keys.

        A whole-task hit carries no stage entries; it reports every stage as
        cached (which it is, transitively, through the assembled task).
        ``extra_timings`` carries the translation sub-phase split
        (``stage_translation_compile/fanout/assemble_seconds``) when the
        translation stage actually ran.
        """
        flat = {f"stage_{stage.name}_seconds": stage.seconds for stage in self.stages}
        flat.update(self.extra_timings)
        flat["stages_from_cache"] = float(
            len(STAGE_NAMES) if self.task_from_cache else self.cached_stages
        )
        return flat


def freeze_precondition(value: PreconditionLike) -> object:
    """A hashable, canonical view of a (possibly nested) precondition spec.

    :class:`~repro.spec.preconditions.Precondition` objects are compared by
    identity: two plans share precondition-dependent stages only when they
    share the same precondition instance (the caches pin those instances so
    a recycled ``id()`` can never alias).
    """
    if value is None:
        return None
    if isinstance(value, Precondition):
        return ("precondition-object", id(value))
    if isinstance(value, Mapping):
        return tuple(sorted((key, freeze_precondition(inner)) for key, inner in value.items()))
    return value


def objective_fingerprint(objective: Objective | None) -> object:
    """A hashable identity for an objective (``None`` for feasibility-only)."""
    if objective is None:
        return None
    return (type(objective).__qualname__, repr(objective))


@dataclass(frozen=True)
class ReductionPlan:
    """A compiled Step 1-3 reduction: inputs plus one fingerprint per stage.

    The fingerprints are the sharing contract: two plans with equal
    ``translation_key`` produce identical constraint systems, two plans with
    equal ``pairs_key`` identical constraint pairs, and so on up the prefix.
    ``task_key`` additionally folds in the objective (which is attached
    during assembly, after the cached translation) and is the whole-task
    dedup key used by :class:`repro.pipeline.cache.TaskCache`.
    """

    source: str
    precondition: PreconditionLike
    objective: Objective | None
    options: SynthesisOptions
    frontend_key: tuple
    precondition_key: tuple
    template_key: tuple
    pairs_key: tuple
    translation_key: tuple
    task_key: tuple
    program: Program | None = field(default=None, compare=False, repr=False)

    # -- execution ---------------------------------------------------------------

    def execute(self, cache: StageCache | None = None) -> tuple[SynthesisTask, ReductionReport]:
        """Run the plan, reusing every stage ``cache`` already holds.

        Returns the assembled task together with a :class:`ReductionReport`
        recording, per stage, the build time (zero on a cache hit) and
        whether it came from the cache.
        """
        executions: list[StageExecution] = []

        def stage(name: str, key: tuple, builder):
            if cache is None:
                start = time.perf_counter()
                value = builder()
                elapsed = time.perf_counter() - start
                hit = False
            else:
                value, hit, elapsed = cache.get_or_build(name, key, builder, pin=self.precondition)
            executions.append(StageExecution(name=name, seconds=elapsed, from_cache=hit))
            return value

        frontend: Frontend = stage(
            "frontend", self.frontend_key, lambda: run_frontend(self.source, self.program)
        )
        pre: Precondition = stage(
            "preconditions",
            self.precondition_key,
            lambda: run_preconditions(frontend, self.precondition, self.options),
        )
        templates: TemplateSet = stage(
            "templates", self.template_key, lambda: run_templates(frontend, self.options)
        )
        pairs: list[ConstraintPair] = stage(
            "pairs", self.pairs_key, lambda: run_pairs(frontend, pre, templates)
        )
        translated: QuadraticSystem = stage(
            "translation",
            self.translation_key,
            lambda: run_translation(pairs, self.options),
        )

        start = time.perf_counter()
        system = self._attach_objective(translated, templates)
        assembly_seconds = time.perf_counter() - start

        # Surface the translation kernel's compile/fanout/assemble split when
        # the stage actually ran (a cached stage reports only the hit).
        extra_timings: tuple[tuple[str, float], ...] = ()
        profile = getattr(translated, "translation_profile", None)
        if profile is not None and not executions[-1].from_cache:
            extra_timings = (
                ("stage_translation_compile_seconds", profile.compile_seconds),
                ("stage_translation_fanout_seconds", profile.fanout_seconds),
                ("stage_translation_assemble_seconds", profile.assemble_seconds),
            )

        report = ReductionReport(stages=tuple(executions), extra_timings=extra_timings)
        by_name = {stage.name: stage.seconds for stage in executions}
        statistics = {
            "time_frontend": by_name["frontend"],
            "time_preconditions": by_name["preconditions"],
            "time_templates": by_name["templates"],
            "time_constraint_pairs": by_name["pairs"],
            "time_translation": by_name["translation"] + assembly_seconds,
            "constraint_pairs": float(len(pairs)),
            "system_size": float(system.size),
            "stages_from_cache": float(report.cached_stages),
        }
        for key, value in extra_timings:
            statistics[key.replace("stage_translation_", "time_translation_")] = value
        task = SynthesisTask(
            program=frontend.program,
            cfg=frontend.cfg,
            precondition=pre,
            templates=templates,
            pairs=pairs,
            system=system,
            options=self.options,
            objective=self.objective if self.objective is not None else FeasibilityObjective(),
            statistics=statistics,
        )
        return task, report

    def _attach_objective(self, translated: QuadraticSystem, templates: TemplateSet) -> QuadraticSystem:
        """Attach this plan's objective to the (objective-free) cached translation.

        A zero objective reuses the cached system object as-is; a non-trivial
        one gets its own :class:`QuadraticSystem` sharing the translated row
        arrays (:meth:`QuadraticSystem.copy`), so an objective sweep never
        re-translates and never mutates the cached translation.
        """
        objective = self.objective if self.objective is not None else FeasibilityObjective()
        polynomial: Polynomial = objective.polynomial(templates)
        if polynomial.is_zero():
            return translated
        return translated.copy(objective=polynomial)


def compile_plan(
    program: ProgramLike,
    precondition: PreconditionLike = None,
    objective: Objective | None = None,
    options: SynthesisOptions | None = None,
) -> ReductionPlan:
    """Lower one synthesis request into its staged :class:`ReductionPlan`.

    The program may be source text or a parsed AST; ASTs are fingerprinted by
    their canonical pretty-printed source (which re-parses to the same
    program) and carried along so the frontend stage never re-parses them.
    Requests with ``degree="auto"`` cannot be compiled directly — the engine
    escalates them into a ladder of fixed-degree plans first.
    """
    options = options if options is not None else SynthesisOptions()
    if options.is_auto_degree:
        raise SynthesisError(
            'degree="auto" requires adaptive escalation; compile one plan per concrete degree '
            "(the Engine does this automatically)"
        )
    parsed: Program | None = None
    if isinstance(program, Program):
        parsed = program
        source = pretty_print(program)
    else:
        source = program

    frozen_pre = freeze_precondition(precondition)
    pre_knobs = (
        options.add_entry_assumptions,
        options.bounded,
        options.bound if options.bounded else None,
    )
    frontend_key = (source,)
    precondition_key = (source, frozen_pre, *pre_knobs)
    template_key = (source, options.degree, options.conjuncts)
    pairs_key = (*precondition_key, options.degree, options.conjuncts)
    if options.translation == "putinar":
        translation_knobs = ("putinar", options.upsilon, options.with_witness, options.encode_sos)
    else:
        # Handelman ignores Upsilon and the SOS encoding: leaving them out of
        # the fingerprint lets requests differing only in those share the stage.
        translation_knobs = ("handelman", options.with_witness)
    translation_key = (*pairs_key, *translation_knobs)
    task_key = (*translation_key, objective_fingerprint(objective))
    return ReductionPlan(
        source=source,
        precondition=precondition,
        objective=objective,
        options=options,
        frontend_key=frontend_key,
        precondition_key=precondition_key,
        template_key=template_key,
        pairs_key=pairs_key,
        translation_key=translation_key,
        task_key=task_key,
        program=parsed,
    )
