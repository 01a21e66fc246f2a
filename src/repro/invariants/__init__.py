"""The paper's contribution: polynomial invariant generation.

Pipeline (Sections 3 and 4 of the paper):

1. :mod:`repro.invariants.template` — templates for invariants and
   post-conditions with unknown coefficients (*s-variables*),
2. :mod:`repro.invariants.generation` — constraint pairs encoding initiation,
   consecution and post-condition consecution,
3. :mod:`repro.invariants.putinar` (or :mod:`repro.invariants.handelman`) —
   translation of constraint pairs into a system of quadratic equalities and
   inequalities over the unknowns,
4. :mod:`repro.invariants.synthesis` — the four top-level algorithms
   ``StrongInvSynth``, ``WeakInvSynth``, ``RecStrongInvSynth`` and
   ``RecWeakInvSynth`` wired to the Step-4 solvers of :mod:`repro.solvers`.

:mod:`repro.certify` independently re-validates any synthesized invariant,
both by exact certificate and by simulation.
"""

from repro.invariants.constraints import ConstraintPair
from repro.invariants.generation import generate_constraint_pairs
from repro.invariants.handelman import handelman_translate
from repro.invariants.putinar import putinar_translate
from repro.invariants.quadratic_system import ConstraintKind, QuadraticConstraint, QuadraticSystem
from repro.invariants.result import Invariant, SynthesisResult
from repro.invariants.synthesis import (
    SynthesisOptions,
    SynthesisTask,
    build_task,
    rec_strong_inv_synth,
    rec_weak_inv_synth,
    strong_inv_synth,
    weak_inv_synth,
)
from repro.invariants.template import TemplateEntry, TemplateSet

# Imported last: repro.certify.sampling's imports re-enter this package's
# submodules.
from repro.certify.sampling import CheckReport, check_invariant

__all__ = [
    "CheckReport",
    "ConstraintKind",
    "ConstraintPair",
    "Invariant",
    "QuadraticConstraint",
    "QuadraticSystem",
    "SynthesisOptions",
    "SynthesisResult",
    "SynthesisTask",
    "TemplateEntry",
    "TemplateSet",
    "build_task",
    "check_invariant",
    "generate_constraint_pairs",
    "handelman_translate",
    "putinar_translate",
    "rec_strong_inv_synth",
    "rec_weak_inv_synth",
    "strong_inv_synth",
    "weak_inv_synth",
]
