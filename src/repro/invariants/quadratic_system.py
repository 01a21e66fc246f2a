"""The system of quadratic constraints produced by Step 3.

Every constraint is a polynomial over *unknowns only* (s-, t-, l- and
eps-variables) of total degree at most 2, together with a relation:
equality, non-strict or strict inequality with zero.  The system is the
common input format of every Step-4 solver, and its size is the paper's
``|S|`` column.

A system stores its rows in one form, :class:`RowArrays`: integer arrays of
terms over one table of unknown names and one pool of exact ``Fraction``
coefficients.  The Step-3 kernels of :mod:`repro.invariants.translation` emit
these arrays directly; a constraint added by hand (repair cuts, tests) is
lowered into them as it is added.  Step 4 compiles every system from the
arrays (:func:`repro.solvers.problem.compile_problem`) and the exact
certificate check evaluates them (:func:`repro.certify.lift.exact_violations`).
The symbolic :attr:`QuadraticSystem.constraints` is a view, built on first
access for printing and for the tests that compare the compiled arrays with a
per-polynomial lowering; nothing on the solve path reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import PolynomialError, SynthesisError
from repro.invariants.template import UNKNOWN_PREFIX
from repro.polynomial.monomial import Monomial
from repro.polynomial.polynomial import Polynomial


class ConstraintKind(str, Enum):
    """Relation between the constraint polynomial and zero."""

    EQUALITY = "eq"          # p == 0
    NONNEGATIVE = "ge"       # p >= 0
    POSITIVE = "gt"          # p > 0


#: The relation behind each code of :attr:`RowArrays.kinds`.
KINDS: tuple[ConstraintKind, ...] = (
    ConstraintKind.EQUALITY,
    ConstraintKind.NONNEGATIVE,
    ConstraintKind.POSITIVE,
)
KIND_CODES: dict[ConstraintKind, int] = {kind: code for code, kind in enumerate(KINDS)}


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


def column_order(names: Sequence[str], *id_arrays: np.ndarray) -> list[int]:
    """The ids the arrays mention (``-1`` ignored), sorted by ``(role, name)``.

    This is the column order of every compiled system: witnesses, Cholesky
    entries, other unknowns, template coefficients, then multipliers, each
    group sorted by name.
    """
    used = np.zeros(len(names) + 1, dtype=bool)
    for ids in id_arrays:
        used[ids] = True  # id -1 marks the spare last slot
    ids = np.flatnonzero(used[:-1]).tolist()
    ids.sort(key=names.__getitem__)
    ids.sort(key=lambda i: classify_unknown(names[i]).value)
    return ids


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
        """Construct without the degree check (rows read back from :class:`RowArrays`)."""
        constraint = object.__new__(QuadraticConstraint)
        object.__setattr__(constraint, "polynomial", polynomial)
        object.__setattr__(constraint, "kind", kind)
        object.__setattr__(constraint, "origin", origin)
        return constraint

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


# ---------------------------------------------------------------------------
# The stored form: exact row arrays
# ---------------------------------------------------------------------------


def _no_ids() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class RowArrays:
    """The rows of a :class:`QuadraticSystem` as exact arrays: its one stored form.

    Term ``k`` adds ``pool[term_coeff[k]] * x[term_a[k]] * x[term_b[k]]`` to
    row ``term_row[k]``, where ``term_a == -1`` marks the constant term and
    ``term_b == -1`` a linear one; unknown ids index ``names``.  Terms are
    stored row by row, each row's in the order its polynomial lists them,
    and ``kinds[r]`` indexes :data:`KINDS`.  ``origin_parts`` label the rows
    in order: each part is a sequence of origin strings, and a kernel's part
    builds its strings only when read.  Instances are never mutated, so
    systems share them.
    """

    names: tuple[str, ...] = ()
    pool: tuple[Fraction, ...] = ()
    kinds: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    origin_parts: tuple[Sequence[str], ...] = ()
    term_row: np.ndarray = field(default_factory=_no_ids)
    term_a: np.ndarray = field(default_factory=_no_ids)
    term_b: np.ndarray = field(default_factory=_no_ids)
    term_coeff: np.ndarray = field(default_factory=_no_ids)

    @property
    def row_count(self) -> int:
        return int(self.kinds.size)

    @cached_property
    def pool_floats(self) -> np.ndarray:
        """``float`` of every pooled coefficient."""
        return np.array([float(value) for value in self.pool], dtype=np.float64)

    @cached_property
    def name_index(self) -> dict[str, int]:
        """Name -> id over the name table."""
        return {name: index for index, name in enumerate(self.names)}

    def origin(self, row: int) -> str:
        """The origin label of one row (builds only that row's label)."""
        for part in self.origin_parts:
            if row < len(part):
                return part[row]
            row -= len(part)
        raise IndexError("row index out of range")

    def origins(self) -> list[str]:
        return [origin for part in self.origin_parts for origin in part]

    def constraints(self) -> tuple[QuadraticConstraint, ...]:
        """The rows as symbolic constraints (the :attr:`QuadraticSystem.constraints` view)."""
        one = Monomial.one()
        monomials = [Monomial._from_tuple(((name, 1),)) for name in self.names]
        starts = np.searchsorted(self.term_row, np.arange(self.row_count + 1)).tolist()
        term_a = self.term_a.tolist()
        term_b = self.term_b.tolist()
        term_coeff = self.term_coeff.tolist()
        constraints = []
        for row, (code, origin) in enumerate(zip(self.kinds.tolist(), self.origins())):
            terms: dict[Monomial, Fraction] = {}
            for position in range(starts[row], starts[row + 1]):
                a = term_a[position]
                b = term_b[position]
                monomial = one if a < 0 else monomials[a] if b < 0 else monomials[a] * monomials[b]
                total = terms.get(monomial, 0) + self.pool[term_coeff[position]]
                if total:
                    terms[monomial] = total
                else:
                    terms.pop(monomial, None)
            constraints.append(
                QuadraticConstraint._trusted(
                    Polynomial._from_validated(terms), KINDS[code], origin
                )
            )
        return tuple(constraints)


def lower_terms(
    polynomial: Polynomial, name_id: Callable[[str], int]
) -> tuple[list[int], list[int], list[Fraction]]:
    """A degree-<=2 polynomial as ``(a, b, coefficient)`` terms in its own term order.

    ``name_id`` maps an unknown to its id; a square ``x^2`` is ``a == b``, a
    product lists its unknowns in name order, and ``-1`` pads the constant and
    linear terms.
    """
    term_a: list[int] = []
    term_b: list[int] = []
    coefficients: list[Fraction] = []
    for monomial, coefficient in polynomial.items():
        items = monomial.items
        degree = monomial.degree()
        if degree == 0:
            a = b = -1
        elif degree == 1:
            a, b = name_id(items[0][0]), -1
        elif degree == 2:
            a = name_id(items[0][0])
            b = a if len(items) == 1 else name_id(items[1][0])
        else:
            raise PolynomialError(f"polynomial of degree {degree} is not quadratic")
        term_a.append(a)
        term_b.append(b)
        coefficients.append(coefficient)
    return term_a, term_b, coefficients


class RowBuilder:
    """Appends rows to a :class:`RowArrays` over one growing name table and pool.

    The Step-3 kernels append whole blocks of array rows (:meth:`add_rows`);
    a constraint added by hand is lowered term by term (:meth:`add_polynomial`).
    :meth:`freeze` returns the rows so far as a new :class:`RowArrays` and
    leaves the base untouched.
    """

    def __init__(self, base: RowArrays | None = None):
        base = base if base is not None else RowArrays()
        self.names = list(base.names)
        self._name_ids = dict(base.name_index)
        self.pool = list(base.pool)
        self._pool_ids = {value: index for index, value in enumerate(self.pool)}
        self._start(base)

    def _start(self, base: RowArrays) -> None:
        self.base = base
        self.row_count = base.row_count
        self._blocks: list[tuple] = []
        self._origin_parts: list[Sequence[str]] = list(base.origin_parts)
        self._kinds: list[int] = []
        self._origins: list[str] = []
        self._rows: list[int] = []
        self._a: list[int] = []
        self._b: list[int] = []
        self._coeff: list[int] = []

    # -- the tables ----------------------------------------------------------------

    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def name_ids(self, names: Iterable[str]) -> np.ndarray:
        return np.array([self.name_id(name) for name in names], dtype=np.int64)

    def pool_id(self, value: Fraction) -> int:
        index = self._pool_ids.get(value)
        if index is None:
            index = self._pool_ids[value] = len(self.pool)
            self.pool.append(value)
        return index

    def pool_ids(self, values: Iterable[Fraction]) -> np.ndarray:
        return np.array([self.pool_id(value) for value in values], dtype=np.int64)

    # -- rows ------------------------------------------------------------------------

    def add_polynomial(self, polynomial: Polynomial, kind: ConstraintKind, origin: str) -> None:
        """One row ``polynomial (kind) 0``, lowered in the polynomial's term order."""
        term_a, term_b, coefficients = lower_terms(polynomial, self.name_id)
        self._rows.extend([self.row_count] * len(term_a))
        self._a.extend(term_a)
        self._b.extend(term_b)
        self._coeff.extend(self.pool_id(value) for value in coefficients)
        self._kinds.append(KIND_CODES[kind])
        self._origins.append(origin)
        self.row_count += 1

    def add_rows(
        self,
        kind: ConstraintKind,
        origins: Sequence[str],
        rows: np.ndarray,
        term_a: np.ndarray,
        term_b: np.ndarray,
        term_coeff: np.ndarray,
    ) -> None:
        """``len(origins)`` rows of one kind; ``rows`` numbers each term's row from 0, in order."""
        self._flush_polynomials()
        count = len(origins)
        kinds = np.full(count, KIND_CODES[kind], dtype=np.int8)
        self._blocks.append((kinds, rows + self.row_count, term_a, term_b, term_coeff))
        self._origin_parts.append(origins)
        self.row_count += count

    def _flush_polynomials(self) -> None:
        if not self._kinds:
            return
        self._blocks.append(
            (
                np.array(self._kinds, dtype=np.int8),
                np.array(self._rows, dtype=np.int64),
                np.array(self._a, dtype=np.int64),
                np.array(self._b, dtype=np.int64),
                np.array(self._coeff, dtype=np.int64),
            )
        )
        self._origin_parts.append(tuple(self._origins))
        self._kinds, self._origins, self._rows, self._a, self._b, self._coeff = [], [], [], [], [], []

    @property
    def pending(self) -> bool:
        return self.row_count != self.base.row_count

    def freeze(self) -> RowArrays:
        """The base rows plus every row added since, as a new :class:`RowArrays`."""
        self._flush_polynomials()
        base = self.base
        blocks = [(base.kinds, base.term_row, base.term_a, base.term_b, base.term_coeff), *self._blocks]
        kinds, term_row, term_a, term_b, term_coeff = (
            np.concatenate(column) for column in zip(*blocks)
        )
        rows = RowArrays(
            names=tuple(self.names),
            pool=tuple(self.pool),
            kinds=kinds,
            origin_parts=tuple(part for part in self._origin_parts if len(part)),
            term_row=term_row,
            term_a=term_a,
            term_b=term_b,
            term_coeff=term_coeff,
        )
        self._start(rows)
        return rows


# ---------------------------------------------------------------------------
# The system
# ---------------------------------------------------------------------------


class QuadraticSystem:
    """An ordered collection of quadratic constraints over the unknowns.

    ``provenance`` carries one :class:`PairProvenance` per translated
    constraint pair (in pair-index order) when the system was produced by a
    Step-3 translator; systems assembled by hand leave it empty.  The rows
    live in :attr:`rows`; :meth:`copy` shares them with a new system, which
    appends its own rows to a copy.
    """

    def __init__(
        self,
        constraints: Iterable[QuadraticConstraint] = (),
        objective: Polynomial | None = None,
        provenance: Iterable[PairProvenance] = (),
        *,
        rows: RowArrays | None = None,
    ):
        self._rows = rows if rows is not None else RowArrays()
        self._builder: RowBuilder | None = None
        self._view: tuple[QuadraticConstraint, ...] | None = None
        self._version = 0
        self._objective = objective if objective is not None else Polynomial.zero()
        self.provenance: list[PairProvenance] = list(provenance)
        for constraint in constraints:
            self.add(constraint)

    # -- mutation tracking -----------------------------------------------------------
    #
    # ``version`` increments on every mutation (added rows, objective
    # assignment).  The memoised numeric compilation
    # (repro.solvers.problem.compile_problem) keys on it, so a reassigned
    # objective or an appended constraint can never serve a stale compilation.

    def _bump_version(self) -> None:
        self._version += 1
        self._view = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter (cache key of the numeric compilation)."""
        return self._version

    @property
    def objective(self) -> Polynomial:
        return self._objective

    @objective.setter
    def objective(self, value: Polynomial) -> None:
        self._objective = value
        self._bump_version()

    # -- construction ----------------------------------------------------------------

    def add(self, constraint: QuadraticConstraint) -> None:
        if self._builder is None:
            self._builder = RowBuilder(self._rows)
        self._builder.add_polynomial(constraint.polynomial, constraint.kind, constraint.origin)
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

    def copy(self, objective: Polynomial | None = None) -> "QuadraticSystem":
        """A system over the same rows, with ``objective`` (default: this one's).

        The rows are shared, not copied: rows added to either system go to
        that system's own new :class:`RowArrays`.
        """
        return QuadraticSystem(
            objective=self.objective if objective is None else objective,
            provenance=self.provenance,
            rows=self.rows,
        )

    # -- queries ----------------------------------------------------------------------

    @property
    def rows(self) -> RowArrays:
        """The stored rows, including every row added so far."""
        if self._builder is not None and self._builder.pending:
            self._rows = self._builder.freeze()
        return self._rows

    @property
    def constraints(self) -> tuple[QuadraticConstraint, ...]:
        """The rows as symbolic constraints: a view, built on first access and cached."""
        if self._view is None:
            self._view = self.rows.constraints()
        return self._view

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[QuadraticConstraint]:
        return iter(self.constraints)

    @property
    def size(self) -> int:
        """The paper's ``|S|``: number of quadratic (in)equalities in the system."""
        if self._builder is not None:
            return self._builder.row_count
        return self._rows.row_count

    def objective_terms(self) -> tuple[list[str], np.ndarray, np.ndarray, list[Fraction]]:
        """The objective as ``(names, a, b, coefficients)`` terms (see :func:`lower_terms`).

        ``names`` is the row name table followed by any unknown only the
        objective mentions; the term ids index it.
        """
        rows = self.rows
        names = list(rows.names)
        index = rows.name_index
        extra: dict[str, int] = {}

        def name_id(name: str) -> int:
            found = index.get(name, extra.get(name))
            if found is None:
                found = extra[name] = len(names)
                names.append(name)
            return found

        term_a, term_b, coefficients = lower_terms(self.objective, name_id)
        return (
            names,
            np.array(term_a, dtype=np.int64),
            np.array(term_b, dtype=np.int64),
            coefficients,
        )

    def variables(self) -> list[str]:
        """Every unknown of the rows and the objective, by role then name: eps, l, s, t."""
        names, objective_a, objective_b, _ = self.objective_terms()
        rows = self.rows
        order = column_order(names, rows.term_a, rows.term_b, objective_a, objective_b)
        return [names[index] for index in order]

    def variables_by_role(self) -> dict[VariableRole, list[str]]:
        """Unknowns grouped by their role."""
        grouped: dict[VariableRole, list[str]] = {role: [] for role in VariableRole}
        for name in self.variables():
            grouped[classify_unknown(name)].append(name)
        return grouped

    def counts(self) -> dict[str, int]:
        """Summary counts used by the benchmark tables."""
        kinds = np.bincount(self.rows.kinds, minlength=len(KINDS))
        roles = {role: len(names) for role, names in self.variables_by_role().items()}
        return {
            "constraints": self.size,
            "equalities": int(kinds[KIND_CODES[ConstraintKind.EQUALITY]]),
            "inequalities": int(
                kinds[KIND_CODES[ConstraintKind.NONNEGATIVE]]
                + kinds[KIND_CODES[ConstraintKind.POSITIVE]]
            ),
            "variables": sum(roles.values()),
            "template_variables": roles[VariableRole.TEMPLATE],
            "multiplier_variables": roles[VariableRole.MULTIPLIER],
            "cholesky_variables": roles[VariableRole.CHOLESKY],
            "witness_variables": roles[VariableRole.WITNESS],
        }

    # -- pickling ---------------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # The memoised CompiledProblem cache (repro.solvers.problem), the
        # constraint view and the row builder are cheap to rebuild; never ship
        # them across processes.
        self.rows  # fold pending rows into the stored arrays first
        state = self.__dict__.copy()
        for transient in ("_compiled_problems", "_view", "_builder"):
            state.pop(transient, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._view = None
        self._builder = None
