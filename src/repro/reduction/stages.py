"""The individual stages of the Step 1-3 reduction.

Each function here is one stage of the staged reduction compiler
(:mod:`repro.reduction.plan`): a pure mapping from the previous stages'
artifacts (plus the relevant slice of :class:`SynthesisOptions`) to a new
artifact.  The stage boundaries are exactly the sharing boundaries of the
pipeline: two requests that agree on a stage's inputs share its output
through the :class:`~repro.reduction.cache.StageCache`.

========================  =======================================================
stage                     depends on
========================  =======================================================
``frontend``              program source
``preconditions``         frontend + precondition spec + entry/bounded knobs
``templates``             frontend + (degree, conjuncts)
``pairs``                 preconditions + templates
``translation``           pairs + (translation, upsilon, witness, SOS) — *not*
                          the objective, which is attached during assembly
========================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.builder import build_cfg
from repro.cfg.graph import ProgramCFG
from repro.invariants.constraints import ConstraintPair
from repro.invariants.generation import generate_constraint_pairs
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.quadratic_system import QuadraticSystem
from repro.invariants.template import TemplateSet
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.reduction.options import SynthesisOptions
from repro.reduction.task import STAGE_NAMES
from repro.spec.bounded import apply_bounded_reals_model
from repro.spec.preconditions import Precondition, augment_entry_preconditions

__all__ = [
    "Frontend",
    "STAGE_NAMES",
    "run_frontend",
    "run_pairs",
    "run_preconditions",
    "run_templates",
    "run_translation",
]


@dataclass(frozen=True)
class Frontend:
    """The Step-0 artifact: the parsed program and its control-flow graph."""

    program: Program
    cfg: ProgramCFG


def run_frontend(source: str, program: Program | None = None) -> Frontend:
    """Parse the program (unless a pre-parsed AST is supplied) and build its CFG."""
    parsed = program if program is not None else parse_program(source)
    return Frontend(program=parsed, cfg=build_cfg(parsed))


def run_preconditions(frontend: Frontend, precondition, options: SynthesisOptions) -> Precondition:
    """Coerce, augment and (optionally) bound the pre-condition."""
    if precondition is None:
        pre = Precondition.trivial()
    elif isinstance(precondition, Precondition):
        pre = precondition.copy()
    else:
        pre = Precondition.from_spec(frontend.cfg, precondition)
    if options.add_entry_assumptions:
        pre = augment_entry_preconditions(frontend.cfg, pre)
    if options.bounded:
        pre = apply_bounded_reals_model(frontend.cfg, pre, bound=options.bound)
    return pre


def run_templates(frontend: Frontend, options: SynthesisOptions) -> TemplateSet:
    """Step 1: build the invariant (and post-condition) templates."""
    return TemplateSet.build(frontend.cfg, degree=options.degree, conjuncts=options.conjuncts)


def run_pairs(
    frontend: Frontend, precondition: Precondition, templates: TemplateSet
) -> list[ConstraintPair]:
    """Step 2: generate the initiation/consecution constraint pairs."""
    return generate_constraint_pairs(frontend.cfg, precondition, templates)


def run_translation(pairs: list[ConstraintPair], options: SynthesisOptions) -> QuadraticSystem:
    """Step 3: the Positivstellensatz translation, objective-free.

    The objective is deliberately *not* part of this stage: it only sets the
    system's objective polynomial, so requests differing in their objective
    alone share the (expensive) constraint translation and attach their own
    objective during plan assembly.

    The translation runs the vectorised flat-array kernel
    (:mod:`repro.invariants.translation`).
    """
    if options.translation == "putinar":
        return putinar_translate(
            pairs,
            upsilon=options.upsilon,
            with_witness=options.with_witness,
            encode_sos=options.encode_sos,
        )
    return handelman_translate(pairs, with_witness=options.with_witness)
