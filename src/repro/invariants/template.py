"""Step 1 / Step 1.a: invariant and post-condition templates.

A template at a label is a conjunction of ``n`` polynomial inequalities of
degree at most ``d`` whose coefficients are fresh unknowns (the paper's
*s-variables*).  For recursive programs, each function additionally gets a
post-condition template over its return variable and frozen parameters.

Unknown-variable names are prefixed with ``"$"`` which the program lexer can
never produce, so clashes with program variables are impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from repro.cfg.graph import FunctionCFG, ProgramCFG
from repro.cfg.labels import Label
from repro.errors import SynthesisError
from repro.polynomial.monomial import Monomial
from repro.polynomial.ordering import monomials_up_to_degree
from repro.polynomial.polynomial import Polynomial, _to_fraction
from repro.spec.assertions import ConjunctiveAssertion, assertion_from_polynomials

UNKNOWN_PREFIX = "$"


def _coefficient_name(kind: str, owner: str, conjunct: int, index: int) -> str:
    return f"{UNKNOWN_PREFIX}{kind}_{owner}_{conjunct}_{index}"


def _conjunct_polynomials(
    owner: str, monomials: Sequence[Monomial], conjuncts: int
) -> tuple[Polynomial, ...]:
    """``sum_j s_j * m_j`` per conjunct: one term per template monomial, in their order."""
    one = Fraction(1)
    polynomials = []
    for conjunct in range(conjuncts):
        terms: dict[Monomial, Fraction] = {}
        for index, monomial in enumerate(monomials):
            unknown = Monomial._from_tuple(((_coefficient_name("s", owner, conjunct, index), 1),))
            terms[monomial * unknown] = one
        polynomials.append(Polynomial._from_validated(terms))
    return tuple(polynomials)


def _instantiate(
    owner: str, monomials: Sequence[Monomial], conjunct: int, assignment: Mapping[str, float | int]
) -> Polynomial:
    """One conjunct with each s-variable's value read from ``assignment`` (0 when absent)."""
    terms: dict[Monomial, Fraction] = {}
    for index, monomial in enumerate(monomials):
        value = _to_fraction(assignment.get(_coefficient_name("s", owner, conjunct, index), 0))
        if value:
            terms[monomial] = value
    return Polynomial._from_validated(terms)


@dataclass(frozen=True)
class TemplateEntry:
    """The invariant template ``eta(l)`` at one label, or a post-condition template.

    With ``label=None`` the entry is the post-condition template ``mu(f)`` of
    ``function`` (Step 1.a): its s-variables are owned by ``post_<function>``
    instead of ``<function>_<label index>``, and it has no ``label_index``.
    """

    function: str
    label: Label | None
    conjuncts: int
    degree: int
    variables: tuple[str, ...]
    monomials: tuple[Monomial, ...]

    @property
    def label_index(self) -> int:
        return self.label.index

    @property
    def _owner(self) -> str:
        if self.label is None:
            return f"post_{self.function}"
        return f"{self.function}_{self.label.index}"

    def coefficient_name(self, conjunct: int, monomial: Monomial) -> str:
        """The s-variable holding the coefficient of ``monomial`` in conjunct ``conjunct``."""
        try:
            index = self.monomials.index(monomial)
        except ValueError as exc:
            where = (
                f"post-condition template of {self.function}"
                if self.label is None
                else f"degree-{self.degree} template at {self.label}"
            )
            raise SynthesisError(f"monomial {monomial} is not part of the {where}") from exc
        return _coefficient_name("s", self._owner, conjunct, index)

    def coefficient_names(self) -> list[str]:
        """All s-variables of this entry, conjunct-major."""
        names = []
        for conjunct in range(self.conjuncts):
            names.extend(
                _coefficient_name("s", self._owner, conjunct, index)
                for index in range(len(self.monomials))
            )
        return names

    @cached_property
    def _polynomials(self) -> tuple[Polynomial, ...]:
        return _conjunct_polynomials(self._owner, self.monomials, self.conjuncts)

    def _check_conjunct(self, conjunct: int) -> None:
        if not 0 <= conjunct < self.conjuncts:
            where = (
                f"post-condition template of {self.function}"
                if self.label is None
                else f"template at {self.label}"
            )
            raise SynthesisError(f"conjunct {conjunct} out of range for {where}")

    def conjunct_polynomial(self, conjunct: int) -> Polynomial:
        """The symbolic polynomial ``sum_j s_j * m_j`` of one conjunct (built once per entry)."""
        self._check_conjunct(conjunct)
        return self._polynomials[conjunct]

    def polynomials(self) -> list[Polynomial]:
        """The symbolic polynomials of all conjuncts, as a fresh list."""
        return list(self._polynomials)

    def instantiate(self, conjunct: int, assignment: Mapping[str, float | int]) -> Polynomial:
        """Plug numeric values for the s-variables of one conjunct."""
        self._check_conjunct(conjunct)
        return _instantiate(self._owner, self.monomials, conjunct, assignment)

    def instantiate_assertion(self, assignment: Mapping[str, float | int]) -> ConjunctiveAssertion:
        """The concrete (numeric) assertion this template stands for."""
        return assertion_from_polynomials(
            [self.instantiate(conjunct, assignment) for conjunct in range(self.conjuncts)],
            strict=True,
        )


@dataclass(frozen=True)
class TemplateSet:
    """All templates of a synthesis task: one entry per label, one post entry per function."""

    entries: Mapping[Label, TemplateEntry]
    post_entries: Mapping[str, TemplateEntry]
    degree: int
    conjuncts: int

    @staticmethod
    def build(
        cfg: ProgramCFG,
        degree: int,
        conjuncts: int = 1,
        with_postconditions: bool | None = None,
    ) -> "TemplateSet":
        """Create templates for every label (and post-conditions when recursive).

        ``with_postconditions`` defaults to "the program is recursive"; pass
        ``True`` to force post-condition templates for non-recursive programs
        (useful when a caller wants a summary of the single function).
        """
        if degree < 1:
            raise SynthesisError(f"template degree must be at least 1, got {degree}")
        if conjuncts < 1:
            raise SynthesisError(f"template must have at least one conjunct, got {conjuncts}")
        if with_postconditions is None:
            with_postconditions = cfg.program.is_recursive()

        entries: dict[Label, TemplateEntry] = {}
        post_entries: dict[str, TemplateEntry] = {}
        for function_cfg in cfg:
            label_monomials = tuple(monomials_up_to_degree(function_cfg.variables, degree))
            for label in function_cfg.labels:
                entries[label] = TemplateEntry(
                    function=function_cfg.name,
                    label=label,
                    conjuncts=conjuncts,
                    degree=degree,
                    variables=tuple(function_cfg.variables),
                    monomials=label_monomials,
                )
            if with_postconditions:
                post_entries[function_cfg.name] = _build_post_entry(function_cfg, degree, conjuncts)
        return TemplateSet(entries=entries, post_entries=post_entries, degree=degree, conjuncts=conjuncts)

    # -- lookups -----------------------------------------------------------------

    def at(self, label: Label) -> TemplateEntry:
        """The template entry at a label."""
        try:
            return self.entries[label]
        except KeyError as exc:
            raise SynthesisError(f"no template entry at label {label}") from exc

    def entry_for(self, function: str, label_index: int) -> TemplateEntry:
        """Look up a template entry by function name and 1-based label index."""
        for label, entry in self.entries.items():
            if label.function == function and label.index == label_index:
                return entry
        raise SynthesisError(f"no template entry at {function}:{label_index}")

    def post_entry_for(self, function: str) -> TemplateEntry:
        """The post-condition template of a function."""
        try:
            return self.post_entries[function]
        except KeyError as exc:
            raise SynthesisError(f"no post-condition template for function {function!r}") from exc

    def has_postconditions(self) -> bool:
        return bool(self.post_entries)

    def __iter__(self) -> Iterator[TemplateEntry]:
        return iter(self.entries.values())

    def coefficient_names(self) -> list[str]:
        """Every s-variable introduced by the whole template set."""
        names: list[str] = []
        for entry in self.entries.values():
            names.extend(entry.coefficient_names())
        for post_entry in self.post_entries.values():
            names.extend(post_entry.coefficient_names())
        return names

    def coefficient_count(self) -> int:
        """Total number of s-variables."""
        return len(self.coefficient_names())


def _build_post_entry(function_cfg: FunctionCFG, degree: int, conjuncts: int) -> TemplateEntry:
    vocabulary: Sequence[str] = sorted(
        {function_cfg.return_variable, *function_cfg.frozen_parameters.values()}
    )
    monomials = tuple(monomials_up_to_degree(vocabulary, degree))
    return TemplateEntry(
        function=function_cfg.name,
        label=None,
        conjuncts=conjuncts,
        degree=degree,
        variables=tuple(vocabulary),
        monomials=monomials,
    )
