"""The system of quadratic constraints produced by Step 3.

Every constraint is a polynomial over *unknowns only* (s-, t-, l- and
eps-variables) of total degree at most 2, together with a relation:
equality, non-strict or strict inequality with zero.  The system is the
common input format of every Step-4 solver, and its size is the paper's
``|S|`` column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

from repro.errors import SynthesisError
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.polynomial import Polynomial


class ConstraintKind(str, Enum):
    """Relation between the constraint polynomial and zero."""

    EQUALITY = "eq"          # p == 0
    NONNEGATIVE = "ge"       # p >= 0
    POSITIVE = "gt"          # p > 0


class VariableRole(str, Enum):
    """Where an unknown comes from (used for reporting and warm starts)."""

    TEMPLATE = "s"       # template coefficients
    MULTIPLIER = "t"     # coefficients of the h_i multiplier polynomials
    CHOLESKY = "l"       # entries of the lower-triangular Cholesky factors
    WITNESS = "eps"      # positivity witnesses
    OTHER = "other"


def classify_unknown(name: str) -> VariableRole:
    """Classify an unknown by its name prefix (``$s_``, ``$t_``, ``$l_``, ``$eps_``)."""
    if not name.startswith(UNKNOWN_PREFIX):
        return VariableRole.OTHER
    body = name[len(UNKNOWN_PREFIX):]
    if body.startswith("s_"):
        return VariableRole.TEMPLATE
    if body.startswith("t_"):
        return VariableRole.MULTIPLIER
    if body.startswith("l_"):
        return VariableRole.CHOLESKY
    if body.startswith("eps_"):
        return VariableRole.WITNESS
    return VariableRole.OTHER


@dataclass(frozen=True)
class QuadraticConstraint:
    """A single constraint ``polynomial (kind) 0``."""

    polynomial: Polynomial
    kind: ConstraintKind
    origin: str = ""

    def __post_init__(self) -> None:
        if self.polynomial.degree() > 2:
            raise SynthesisError(
                f"constraint from {self.origin!r} has degree {self.polynomial.degree()} > 2; "
                "Step 3 must only produce quadratic constraints"
            )

    @staticmethod
    def _trusted(
        polynomial: Polynomial, kind: ConstraintKind, origin: str = ""
    ) -> "QuadraticConstraint":
        """Construct without the degree check.

        The vectorised translation kernel guarantees degree <= 2 structurally
        (every emitted term is a product of at most two unknowns), and a
        deep-degree system materialises hundreds of thousands of constraints,
        so skipping the per-constraint ``degree()`` walk matters.
        """
        constraint = object.__new__(QuadraticConstraint)
        object.__setattr__(constraint, "polynomial", polynomial)
        object.__setattr__(constraint, "kind", kind)
        object.__setattr__(constraint, "origin", origin)
        return constraint

    def violation(self, assignment: Mapping[str, float]) -> float:
        """How badly the constraint is violated at a numeric assignment (0 when satisfied)."""
        value = self.polynomial.evaluate_float(assignment)
        if self.kind is ConstraintKind.EQUALITY:
            return abs(value)
        if self.kind is ConstraintKind.NONNEGATIVE:
            return max(0.0, -value)
        return max(0.0, -value + 1e-12)

    def satisfied(self, assignment: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        """Whether the constraint holds at the assignment up to ``tolerance``."""
        value = self.polynomial.evaluate_float(assignment)
        if self.kind is ConstraintKind.EQUALITY:
            return abs(value) <= tolerance
        if self.kind is ConstraintKind.NONNEGATIVE:
            return value >= -tolerance
        return value > -tolerance

    def __str__(self) -> str:
        relation = {"eq": "=", "ge": ">=", "gt": ">"}[self.kind.value]
        return f"{self.polynomial} {relation} 0"


@dataclass(frozen=True)
class PairProvenance:
    """Where one constraint pair's translated block came from (Step-3 provenance).

    Recorded by the Putinar/Handelman translators, one entry per constraint
    pair in pair-index order.  ``index`` keys the unknown namespace (every
    generated t-/l-/eps-variable of the pair carries the ``c{index}`` tag),
    ``target`` carries the template↔pair origin recorded by Step 2
    (``"label:<function>:<index>"`` / ``"post:<function>"``), and the scheme
    knobs pin down exactly which witness shape the block encodes.  The
    certificate subsystem (:mod:`repro.certify`) reconstructs the witness
    polynomials of a numeric solution from this record alone.
    """

    index: int
    name: str
    target: str
    scheme: str
    assumption_count: int
    variables: tuple[str, ...]
    upsilon: int | None = None
    max_factors: int | None = None
    with_witness: bool = True

    @property
    def tag(self) -> str:
        """The unknown-namespace tag of this pair (``c{index}``)."""
        return f"c{self.index}"


@dataclass
class QuadraticSystem:
    """An ordered collection of quadratic constraints over the unknowns.

    ``provenance`` carries one :class:`PairProvenance` per translated
    constraint pair (in pair-index order) when the system was produced by a
    Step-3 translator; systems assembled by hand leave it empty.
    """

    constraints: list[QuadraticConstraint] = field(default_factory=list)
    objective: Polynomial = field(default_factory=Polynomial.zero)
    provenance: list[PairProvenance] = field(default_factory=list)

    # -- mutation tracking -----------------------------------------------------------
    #
    # ``version`` increments on every mutation made through this class's API
    # (constraint additions, field assignment).  The memoised numeric
    # compilation (repro.solvers.problem.compile_problem) keys on it, so a
    # reassigned objective or an appended constraint can never serve a stale
    # compilation.

    def __setattr__(self, name: str, value) -> None:
        if name in ("constraints", "objective"):
            self._bump_version()
        object.__setattr__(self, name, value)

    def _bump_version(self) -> None:
        self.__dict__["_version"] = self.__dict__.get("_version", 0) + 1

    @property
    def version(self) -> int:
        """Monotonic mutation counter (cache key of the numeric compilation)."""
        return self.__dict__.get("_version", 0)

    # -- construction ----------------------------------------------------------------

    def add(self, constraint: QuadraticConstraint) -> None:
        self.constraints.append(constraint)
        self._bump_version()

    def add_equality(self, polynomial: Polynomial, origin: str = "") -> None:
        """Add ``polynomial == 0`` (skipping constraints that are identically zero)."""
        if polynomial.is_zero():
            return
        if polynomial.is_constant():
            if polynomial.constant_value() != 0:
                raise SynthesisError(f"inconsistent constant equality from {origin!r}: {polynomial} = 0")
            return
        self.add(QuadraticConstraint(polynomial=polynomial, kind=ConstraintKind.EQUALITY, origin=origin))

    def add_nonnegative(self, polynomial: Polynomial, origin: str = "") -> None:
        """Add ``polynomial >= 0``."""
        self.add(QuadraticConstraint(polynomial=polynomial, kind=ConstraintKind.NONNEGATIVE, origin=origin))

    def add_positive(self, polynomial: Polynomial, origin: str = "") -> None:
        """Add ``polynomial > 0``."""
        self.add(QuadraticConstraint(polynomial=polynomial, kind=ConstraintKind.POSITIVE, origin=origin))

    def merge(self, other: "QuadraticSystem") -> None:
        """Append all constraints (and pair provenance) of ``other`` to this system."""
        self.constraints.extend(other.constraints)
        self.provenance.extend(other.provenance)
        self._bump_version()

    # -- queries ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self) -> Iterator[QuadraticConstraint]:
        return iter(self.constraints)

    @property
    def size(self) -> int:
        """The paper's ``|S|``: number of quadratic (in)equalities in the system."""
        return len(self.constraints)

    def variables(self) -> list[str]:
        """All unknowns, sorted (template variables first, then by name)."""
        names: set[str] = set()
        for constraint in self.constraints:
            names.update(constraint.polynomial.variables())
        names.update(self.objective.variables())
        return sorted(names, key=lambda name: (classify_unknown(name).value, name))

    def variables_by_role(self) -> dict[VariableRole, list[str]]:
        """Unknowns grouped by their role."""
        grouped: dict[VariableRole, list[str]] = {role: [] for role in VariableRole}
        for name in self.variables():
            grouped[classify_unknown(name)].append(name)
        return grouped

    def counts(self) -> dict[str, int]:
        """Summary counts used by the benchmark tables."""
        kinds = {kind: 0 for kind in ConstraintKind}
        for constraint in self.constraints:
            kinds[constraint.kind] += 1
        roles = {role: len(names) for role, names in self.variables_by_role().items()}
        return {
            "constraints": len(self.constraints),
            "equalities": kinds[ConstraintKind.EQUALITY],
            "inequalities": kinds[ConstraintKind.NONNEGATIVE] + kinds[ConstraintKind.POSITIVE],
            "variables": sum(roles.values()),
            "template_variables": roles[VariableRole.TEMPLATE],
            "multiplier_variables": roles[VariableRole.MULTIPLIER],
            "cholesky_variables": roles[VariableRole.CHOLESKY],
            "witness_variables": roles[VariableRole.WITNESS],
        }

    # -- evaluation ---------------------------------------------------------------------

    def max_violation(self, assignment: Mapping[str, float]) -> float:
        """The worst constraint violation at an assignment (0 when feasible)."""
        return max((c.violation(assignment) for c in self.constraints), default=0.0)

    def satisfied(self, assignment: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        """Whether every constraint holds at the assignment up to ``tolerance``."""
        return all(constraint.satisfied(assignment, tolerance) for constraint in self.constraints)

    def violated_constraints(
        self, assignment: Mapping[str, float], tolerance: float = 1e-6
    ) -> list[QuadraticConstraint]:
        """The constraints violated at an assignment (for diagnostics)."""
        return [c for c in self.constraints if not c.satisfied(assignment, tolerance)]

    # -- pickling ---------------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The memoised CompiledProblem cache (repro.solvers.problem) holds large
        # numpy arrays and is cheap to rebuild; never ship it across processes.
        state = self.__dict__.copy()
        state.pop("_compiled_problems", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
