"""Program and per-function control-flow graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.cfg.labels import Label, LabelKind
from repro.cfg.transition import Transition
from repro.errors import SemanticsError
from repro.lang.ast_nodes import Program, Statement


@dataclass(frozen=True)
class FunctionCFG:
    """The control-flow graph of a single function.

    Attributes
    ----------
    name, parameters:
        The function header.
    variables:
        The paper's set ``V^f``: every variable occurring in the function,
        plus the return variable ``ret_f`` and one frozen copy ``v_init`` per
        parameter ``v``.
    return_variable, frozen_parameters:
        The distinguished new variables of Section 2.2.
    entry, exit:
        The labels ``l^f_in`` and ``l^f_out``.
    labels:
        All labels of the function in index order (the endpoint last).
    transitions:
        All CFG edges with their payloads.
    statements:
        The statement each non-endpoint label refers to (for diagnostics).
    """

    name: str
    parameters: tuple[str, ...]
    variables: tuple[str, ...]
    return_variable: str
    frozen_parameters: Mapping[str, str]
    entry: Label
    exit: Label
    labels: tuple[Label, ...]
    transitions: tuple[Transition, ...]
    statements: Mapping[Label, Statement] = field(default_factory=dict)

    def outgoing(self, label: Label) -> list[Transition]:
        """All transitions whose source is ``label``."""
        return [transition for transition in self.transitions if transition.source == label]

    def incoming(self, label: Label) -> list[Transition]:
        """All transitions whose target is ``label``."""
        return [transition for transition in self.transitions if transition.target == label]

    def label_by_index(self, index: int) -> Label:
        """Look up a label by its 1-based index."""
        for label in self.labels:
            if label.index == index:
                return label
        raise KeyError(f"function {self.name!r} has no label with index {index}")

    def labels_of_kind(self, kind: LabelKind) -> list[Label]:
        """All labels of a given class."""
        return [label for label in self.labels if label.kind is kind]

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)


@dataclass(frozen=True)
class ProgramCFG:
    """The control-flow graph of a whole program: one :class:`FunctionCFG` per function."""

    program: Program
    functions: Mapping[str, FunctionCFG]

    def __iter__(self) -> Iterator[FunctionCFG]:
        return iter(self.functions.values())

    def function(self, name: str) -> FunctionCFG:
        """The CFG of the function called ``name``."""
        try:
            return self.functions[name]
        except KeyError as exc:
            raise SemanticsError(f"program has no function named {name!r}") from exc

    @property
    def main(self) -> FunctionCFG:
        """The CFG of the entry-point function."""
        return self.function(self.program.main)

    def all_labels(self) -> list[Label]:
        """Every label of every function, in (function, index) order."""
        result: list[Label] = []
        for name in self.program.function_names():
            result.extend(self.functions[name].labels)
        return result

    def all_transitions(self) -> list[Transition]:
        """Every transition of every function."""
        result: list[Transition] = []
        for name in self.program.function_names():
            result.extend(self.functions[name].transitions)
        return result

    def label_count(self) -> int:
        """Total number of labels in the program."""
        return len(self.all_labels())

    def variable_count(self) -> int:
        """Number of *program* variables (the paper's ``|V|`` column).

        Frozen parameter copies and return variables are bookkeeping variables
        introduced by the analysis; the paper's tables count the program's own
        variables, so we exclude them here.
        """
        names: set[str] = set()
        for cfg in self.functions.values():
            synthetic = {cfg.return_variable, *cfg.frozen_parameters.values()}
            names.update(set(cfg.variables) - synthetic)
        return len(names)
