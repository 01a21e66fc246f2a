"""Control-flow graphs with the paper's label taxonomy (Section 2.2).

The CFG of a program has one vertex per statement label plus one endpoint
label per function.  Labels are partitioned into assignment labels (``La``),
branching labels (``Lb``), call labels (``Lc``), non-deterministic labels
(``Ld``) and endpoint labels (``Le``); transitions carry the update function,
guard, call descriptor or the ``*`` marker accordingly.
"""

from repro.cfg.builder import build_cfg
from repro.cfg.dnf import AtomicInequality, DisjunctiveNormalForm, to_dnf
from repro.cfg.graph import FunctionCFG, ProgramCFG
from repro.cfg.labels import Label, LabelKind
from repro.cfg.transition import Transition, TransitionKind

__all__ = [
    "AtomicInequality",
    "DisjunctiveNormalForm",
    "FunctionCFG",
    "Label",
    "LabelKind",
    "ProgramCFG",
    "Transition",
    "TransitionKind",
    "build_cfg",
    "to_dnf",
]
