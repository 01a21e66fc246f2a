"""The compiled Step-4 problem IR shared by every numeric solver.

Step 3 hands every solver the same :class:`~repro.invariants.quadratic_system.
QuadraticSystem`, stored as exact row arrays
(:class:`~repro.invariants.quadratic_system.RowArrays`).
:class:`CompiledProblem` lowers those arrays **once** per system — through
:func:`compile_problem`, which memoises on the system — and every solver
consumes the compiled form:

* float triplets read straight from the row arrays (:func:`_lower`): the
  unknowns in ``(role, name)`` column order, every coefficient ``float`` of
  its pooled ``Fraction``;
* an exact presolve: unknowns that an equality forces to zero are fixed and
  the rows they empty are dropped, so the descent runs over the free
  unknowns only (:meth:`CompiledProblem.presolved`);
* flat residual / constraint-value / penalty closures built from the
  triplets (no ``Fraction`` arithmetic in any inner loop);
* strict-inequality rewriting (``p > 0`` becomes ``p >= strict_margin``) and
  the equality/inequality masks derived from it;
* the canonical variable ordering plus role masks (template, witness,
  Cholesky-diagonal unknowns) used for block splits and initial points;
* the lowered objective and its gradient.

The module also defines the solve-time control plane: :class:`Deadline` (a
wall-clock budget the batched engines check once per batched iteration, not
just between restarts) and :class:`SolveControl` (that deadline, the
feasibility tolerance and the best-known-point exchange the solver
portfolio shares across its strategies).
"""

from __future__ import annotations

import time
from typing import Mapping

import numpy as np
from scipy import sparse

from repro.invariants.quadratic_system import (
    KINDS,
    ConstraintKind,
    QuadraticSystem,
    VariableRole,
    classify_unknown,
    column_order,
)
from repro.solvers.base import DEFAULT_STRICT_MARGIN, DEFAULT_TOLERANCE, SolverResult
from repro.polynomial.compiled import QuadraticTriplets


class Deadline:
    """A wall-clock budget, cheap enough to check on every batched iteration.

    ``Deadline.after(None)`` never expires, so solvers can check
    unconditionally without branching on whether a limit was configured.
    The engine fixes one per request at admission; every layer after it
    reads what is left through :meth:`remaining`.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float | None = None):
        self._expires_at = expires_at

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        """A deadline ``seconds`` from now (``None`` means no limit)."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    def expired(self) -> bool:
        return self._expires_at is not None and time.monotonic() >= self._expires_at

    def remaining(self) -> float | None:
        """Seconds left, never negative (``None`` when there is no limit)."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())


def improves(
    best_violation: float,
    best_objective: float,
    violation: float,
    objective: float,
    tolerance: float,
) -> bool:
    """The shared "is this point better" ordering of every Step-4 solver.

    Feasible points beat infeasible ones; among feasible points a lower
    objective wins; among infeasible points a lower violation wins.
    """
    if violation <= tolerance:
        return best_violation > tolerance or objective < best_objective
    return best_violation > tolerance and violation < best_violation


class SolveControl:
    """Deadline, tolerance and warm-start state of one Step-4 solve.

    A single solver uses it to enforce its deadline inside iteration loops; a
    :class:`~repro.solvers.portfolio.PortfolioSolver` hands one instance to
    each strategy it walks, which shares the deadline and the warm-start
    exchange (every strategy can seed a restart from the portfolio's
    best-known point).  One solve runs in one thread, so the state needs no
    lock.
    """

    def __init__(self, deadline: Deadline | None = None, tolerance: float | None = None):
        self.deadline = deadline if deadline is not None else Deadline.never()
        self.tolerance = DEFAULT_TOLERANCE if tolerance is None else tolerance
        self._best_point: np.ndarray | None = None
        self._best_violation = np.inf
        self._best_objective = np.inf

    def should_stop(self) -> bool:
        """Whether the deadline has passed."""
        return self.deadline.expired()

    # -- best-known-point exchange -----------------------------------------------

    def report(self, point: np.ndarray, violation: float, objective: float) -> None:
        """Record a candidate for the warm-start exchange."""
        if improves(self._best_violation, self._best_objective, violation, objective, self.tolerance):
            self._best_point = np.array(point, dtype=float, copy=True)
            self._best_violation = violation
            self._best_objective = objective

    def warm_start(self) -> np.ndarray | None:
        """A copy of the best-known point so far (``None`` before any report)."""
        if self._best_point is None:
            return None
        return self._best_point.copy()

    @property
    def best_violation(self) -> float:
        return self._best_violation


class _QuadraticTerms:
    """Flat triplet representation of all bilinear terms, tagged by constraint row.

    Besides the per-point evaluation used by the scalar kernels, the class
    lazily builds three aggregation matrices that turn per-term contribution
    arrays into per-row (or per-variable) sums with one sparse ``dot`` — the
    building blocks of the batched kernels, where a ``(k, n_terms)``
    contribution matrix covers all ``k`` batch members at once:

    * ``row_agg @ C.T`` sums term contributions into constraint rows;
    * ``left_agg @ C.T`` / ``right_agg @ C.T`` scatter weighted term
      contributions onto the left/right variable of each bilinear term (the
      two halves of the product rule).

    The term coefficients are baked into the aggregation values, so the
    contribution matrices carry only the point-dependent factors.
    """

    __slots__ = ("rows", "left", "right", "coefficients", "_row_agg", "_left_agg", "_right_agg")

    def __init__(self, rows: np.ndarray, left: np.ndarray, right: np.ndarray, coefficients: np.ndarray):
        self.rows = rows
        self.left = left
        self.right = right
        self.coefficients = coefficients
        self._row_agg: sparse.csr_matrix | None = None
        self._left_agg: sparse.csr_matrix | None = None
        self._right_agg: sparse.csr_matrix | None = None

    def values(self, point: np.ndarray, row_count: int) -> np.ndarray:
        if self.rows.size == 0:
            return np.zeros(row_count)
        contributions = self.coefficients * point[self.left] * point[self.right]
        return np.bincount(self.rows, weights=contributions, minlength=row_count)

    def add_weighted_gradient(
        self, point: np.ndarray, weights: np.ndarray, gradient: np.ndarray
    ) -> None:
        if self.rows.size == 0:
            return
        scale = weights[self.rows] * self.coefficients
        np.add.at(gradient, self.left, scale * point[self.right])
        np.add.at(gradient, self.right, scale * point[self.left])

    # -- batched aggregation -----------------------------------------------------

    def row_aggregator(self, row_count: int) -> sparse.csr_matrix:
        if self._row_agg is None:
            term_ids = np.arange(self.rows.size)
            self._row_agg = sparse.csr_matrix(
                (self.coefficients, (self.rows, term_ids)), shape=(row_count, self.rows.size)
            )
        return self._row_agg

    def side_aggregators(self, dimension: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        if self._left_agg is None:
            term_ids = np.arange(self.rows.size)
            self._left_agg = sparse.csr_matrix(
                (self.coefficients, (self.left, term_ids)), shape=(dimension, self.rows.size)
            )
            self._right_agg = sparse.csr_matrix(
                (self.coefficients, (self.right, term_ids)), shape=(dimension, self.rows.size)
            )
        return self._left_agg, self._right_agg

    def values_batch(self, points: np.ndarray, row_count: int) -> np.ndarray:
        """Constraint-row sums of the bilinear terms for every batch member."""
        if self.rows.size == 0:
            return np.zeros((points.shape[0], row_count))
        contributions = points[:, self.left] * points[:, self.right]
        return self.row_aggregator(row_count).dot(contributions.T).T

    def weighted_gradient_batch(
        self, points: np.ndarray, weights: np.ndarray, dimension: int
    ) -> np.ndarray:
        """Per-member gradient contribution of ``sum_r weights[r] * quad_r(x)``."""
        if self.rows.size == 0:
            return np.zeros((points.shape[0], dimension))
        left_agg, right_agg = self.side_aggregators(dimension)
        row_weights = weights[:, self.rows]
        gradient = np.ascontiguousarray(left_agg.dot((row_weights * points[:, self.right]).T).T)
        gradient += right_agg.dot((row_weights * points[:, self.left]).T).T
        return gradient


def _triplets(
    term_row: np.ndarray,
    term_a: np.ndarray,
    term_b: np.ndarray,
    values: np.ndarray,
    row_count: int,
    column_of: np.ndarray,
    name_rank: np.ndarray,
) -> QuadraticTriplets:
    """Split exact row terms (see :class:`RowArrays`) into float triplets over the columns.

    A bilinear term lists its two columns in name order, as the monomial
    ``x*y`` of the term does.
    """
    constant = term_a < 0
    linear = ~constant & (term_b < 0)
    quadratic = term_b >= 0
    constants = np.zeros(row_count)
    np.add.at(constants, term_row[constant], values[constant])
    left = term_a[quadratic]
    right = term_b[quadratic]
    swap = name_rank[left] > name_rank[right]
    left, right = np.where(swap, right, left), np.where(swap, left, right)
    return QuadraticTriplets(
        row_count=row_count,
        constants=constants,
        linear_rows=term_row[linear],
        linear_cols=column_of[term_a[linear]],
        linear_values=values[linear],
        quad_rows=term_row[quadratic],
        quad_left=column_of[left],
        quad_right=column_of[right],
        quad_values=values[quadratic],
    )


def _lower(
    system: QuadraticSystem,
) -> tuple[list[str], QuadraticTriplets, np.ndarray, QuadraticTriplets]:
    """The system's unknowns, constraint triplets, constraint kinds and objective triplets.

    Read from the system's exact row arrays: the unknowns in
    :func:`column_order`, every coefficient as ``float`` of its pooled
    ``Fraction``.
    """
    rows = system.rows
    names, objective_a, objective_b, objective_coefficients = system.objective_terms()
    order = column_order(names, rows.term_a, rows.term_b, objective_a, objective_b)
    column_of = np.full(len(names), -1, dtype=np.int64)
    column_of[order] = np.arange(len(order), dtype=np.int64)
    name_rank = np.zeros(len(names), dtype=np.int64)
    name_rank[sorted(order, key=names.__getitem__)] = np.arange(len(order), dtype=np.int64)
    constraints = _triplets(
        rows.term_row,
        rows.term_a,
        rows.term_b,
        rows.pool_floats[rows.term_coeff],
        rows.row_count,
        column_of,
        name_rank,
    )
    objective = _triplets(
        np.zeros(objective_a.size, dtype=np.int64),
        objective_a,
        objective_b,
        np.array([float(value) for value in objective_coefficients], dtype=np.float64),
        1,
        column_of,
        name_rank,
    )
    kinds = np.array([kind.value for kind in KINDS], dtype="<U2")[rows.kinds]
    return [names[index] for index in order], constraints, kinds, objective


def _rows_of(
    triplets: QuadraticTriplets, dimension: int
) -> tuple[np.ndarray, sparse.csr_matrix, _QuadraticTerms]:
    linear = sparse.csr_matrix(
        (triplets.linear_values, (triplets.linear_rows, triplets.linear_cols)),
        shape=(triplets.row_count, dimension),
    )
    quadratic = _QuadraticTerms(
        rows=triplets.quad_rows,
        left=triplets.quad_left,
        right=triplets.quad_right,
        coefficients=triplets.quad_values,
    )
    return triplets.constants, linear, quadratic


def _restrict(triplets: QuadraticTriplets, rows: np.ndarray, columns: np.ndarray) -> QuadraticTriplets:
    """The terms of the kept ``rows`` over the kept ``columns`` (both boolean masks), renumbered.

    A term on a dropped column is left out, which is exact when every
    dropped column is fixed at 0.
    """
    row_of = np.cumsum(rows) - 1
    column_of = np.cumsum(columns) - 1
    linear = rows[triplets.linear_rows] & columns[triplets.linear_cols]
    quadratic = (
        rows[triplets.quad_rows] & columns[triplets.quad_left] & columns[triplets.quad_right]
    )
    return QuadraticTriplets(
        row_count=int(rows.sum()),
        constants=triplets.constants[rows],
        linear_rows=row_of[triplets.linear_rows[linear]],
        linear_cols=column_of[triplets.linear_cols[linear]],
        linear_values=triplets.linear_values[linear],
        quad_rows=row_of[triplets.quad_rows[quadratic]],
        quad_left=column_of[triplets.quad_left[quadratic]],
        quad_right=column_of[triplets.quad_right[quadratic]],
        quad_values=triplets.quad_values[quadratic],
    )


def _propagate_zeros(
    triplets: QuadraticTriplets, kinds: np.ndarray, dimension: int, strict_margin: float
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Unit propagation of the equalities that force an unknown to zero.

    An equality row whose only live term is ``a*x`` or ``a*x^2`` (``a != 0``)
    and whose constant is 0 fixes ``x = 0`` in every exact solution; every
    term with a fixed factor is then dead, which can leave further rows with
    one live term.  Rounds run on the triplet arrays (per-row ``bincount``
    of live terms) until no row fixes a new unknown.  Rows left with no live
    term are constants: one whose residual is identically zero is dropped,
    and one that breaks its kind (``c = 0`` with ``c != 0``, ``c >= 0`` with
    ``c < 0``, ``c > 0`` with ``c <= 0``) proves the system infeasible.

    Returns ``(free, kept, infeasible)``: boolean masks of the unknowns left
    free and of the rows kept.
    """
    rows = triplets.row_count
    constants = triplets.constants
    equality = kinds == ConstraintKind.EQUALITY.value
    nonneg = kinds == ConstraintKind.NONNEGATIVE.value
    positive = kinds == ConstraintKind.POSITIVE.value
    fixed = np.zeros(dimension, dtype=bool)
    homogeneous = equality & (constants == 0.0)
    square = triplets.quad_left == triplets.quad_right
    linear_live = np.ones(triplets.linear_rows.size, dtype=bool)
    quad_live = np.ones(triplets.quad_rows.size, dtype=bool)
    while True:
        live_terms = np.bincount(
            triplets.linear_rows[linear_live], minlength=rows
        ) + np.bincount(triplets.quad_rows[quad_live], minlength=rows)
        unit = homogeneous & (live_terms == 1)
        forced = np.concatenate(
            [
                triplets.linear_cols[linear_live & unit[triplets.linear_rows]],
                triplets.quad_left[quad_live & square & unit[triplets.quad_rows]],
            ]
        )
        if forced.size == 0:
            break
        fixed[forced] = True
        linear_live &= ~fixed[triplets.linear_cols]
        quad_live &= ~(fixed[triplets.quad_left] | fixed[triplets.quad_right])

    empty = live_terms == 0
    # Dropped: the row's residual (strict rows against the margin) is 0 at every point.
    satisfied = homogeneous | (nonneg & (constants >= 0.0)) | (positive & (constants >= strict_margin))
    broken = (equality & (constants != 0.0)) | (nonneg & (constants < 0.0)) | (positive & (constants <= 0.0))
    return ~fixed, ~(empty & satisfied), bool((empty & broken).any())


class CompiledProblem:
    """A :class:`QuadraticSystem` lowered once into solver-ready numeric form.

    ``CompiledProblem(system)`` is the faithful lowering: one coordinate per
    unknown and one row per constraint.  The solvers receive the presolved
    form of :meth:`presolved` instead, through :func:`compile_problem`
    (memoised), so that the strategies a portfolio walks over the same
    system share one IR.

    ``variables`` are the solver's coordinates (the free unknowns) and
    ``system_variables`` every unknown of the system; :meth:`assignment`
    maps a point back onto all of them.  ``kept_rows`` lists the system
    constraints behind the rows, and ``infeasible`` records that the
    presolve proved the system has no solution.
    """

    def __init__(self, system: QuadraticSystem, strict_margin: float | None = None):
        variables, rows, kinds, objective = _lower(system)
        self._build(
            system, variables, rows, kinds, objective, strict_margin,
            free_columns=np.arange(len(variables)),
            kept_rows=np.arange(rows.row_count),
            infeasible=False,
        )

    @classmethod
    def presolved(
        cls, system: QuadraticSystem, strict_margin: float | None = None
    ) -> "CompiledProblem":
        """The problem over the unknowns the presolve leaves free and the rows it keeps.

        Every fixed unknown is 0 in every exact solution of ``system``
        (:func:`_propagate_zeros`), so no solution is lost: the presolved
        residuals at a point equal the faithful residuals at that point
        with the fixed unknowns set to 0, and a dropped row's residual is 0
        there.
        """
        margin = DEFAULT_STRICT_MARGIN if strict_margin is None else strict_margin
        variables, rows, kinds, objective = _lower(system)
        free, kept, infeasible = _propagate_zeros(rows, kinds, len(variables), margin)
        problem = cls.__new__(cls)
        problem._build(
            system,
            variables,
            _restrict(rows, kept, free),
            kinds[kept],
            _restrict(objective, np.ones(1, dtype=bool), free),
            margin,
            free_columns=np.flatnonzero(free),
            kept_rows=np.flatnonzero(kept),
            infeasible=infeasible,
        )
        return problem

    def _build(
        self,
        system: QuadraticSystem,
        system_variables: list[str],
        rows: QuadraticTriplets,
        kinds: np.ndarray,
        objective: QuadraticTriplets,
        strict_margin: float | None,
        *,
        free_columns: np.ndarray,
        kept_rows: np.ndarray,
        infeasible: bool,
    ) -> None:
        self.system = system
        self.system_variables = system_variables
        self.free_columns = free_columns
        self.kept_rows = kept_rows
        self.infeasible = infeasible
        self.variables: list[str] = [system_variables[column] for column in free_columns]
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.variables)}
        self.dimension = len(self.variables)
        self.strict_margin = DEFAULT_STRICT_MARGIN if strict_margin is None else strict_margin

        self.constants, self.linear, self.quadratic = _rows_of(rows, self.dimension)
        self.equality_mask = kinds == ConstraintKind.EQUALITY.value
        self.nonneg_mask = kinds == ConstraintKind.NONNEGATIVE.value
        self.positive_mask = kinds == ConstraintKind.POSITIVE.value
        self.row_count = rows.row_count

        objective_constants, objective_linear, objective_quadratic = _rows_of(objective, self.dimension)
        self.objective_constant = float(objective_constants[0]) if objective_constants.size else 0.0
        self.objective_linear_dense = np.asarray(objective_linear.todense()).ravel().astype(float)
        self.objective_quadratic = objective_quadratic

        roles = [classify_unknown(name) for name in self.variables]
        self.template_mask = np.array([role is VariableRole.TEMPLATE for role in roles], dtype=bool)
        self.witness_mask = np.array([role is VariableRole.WITNESS for role in roles], dtype=bool)
        self.cholesky_diagonal_mask = np.array(
            [
                role is VariableRole.CHOLESKY and name.rsplit("_", 2)[-2] == name.rsplit("_", 2)[-1]
                for role, name in zip(roles, self.variables)
            ],
            dtype=bool,
        )

    def size_details(self) -> dict[str, float]:
        """The sizes a :class:`SolverResult` reports in its ``details``.

        ``dimension`` and ``constraints`` count the presolved problem the
        solver descends on (free unknowns, kept rows); ``fixed_unknowns``
        and ``dropped_rows`` count what the presolve removed from the
        system, so each pair sums to the system's own count.
        """
        return {
            "dimension": float(self.dimension),
            "constraints": float(self.row_count),
            "fixed_unknowns": float(len(self.system_variables) - self.dimension),
            "dropped_rows": float(self.system.size - self.row_count),
        }

    # -- values ------------------------------------------------------------------

    def constraint_values(self, point: np.ndarray) -> np.ndarray:
        """The value of every constraint polynomial at ``point``."""
        if self.row_count == 0:
            return np.zeros(0)
        values = self.constants + self.linear.dot(point)
        values = values + self.quadratic.values(point, self.row_count)
        return values

    def residuals(self, point: np.ndarray) -> np.ndarray:
        """Signed residuals: zero exactly when the corresponding constraint holds."""
        return self._residuals_of(self.constraint_values(point))

    def _residuals_of(self, values: np.ndarray) -> np.ndarray:
        residuals = np.zeros_like(values)
        residuals[self.equality_mask] = values[self.equality_mask]
        nonneg = self.nonneg_mask
        residuals[nonneg] = np.minimum(values[nonneg], 0.0)
        positive = self.positive_mask
        residuals[positive] = np.minimum(values[positive] - self.strict_margin, 0.0)
        return residuals

    def max_violation(self, point: np.ndarray) -> float:
        """The largest absolute residual (0 when feasible)."""
        residuals = self.residuals(point)
        return float(np.max(np.abs(residuals))) if residuals.size else 0.0

    def objective_value(self, point: np.ndarray) -> float:
        """Value of the objective polynomial at ``point``."""
        value = self.objective_constant + float(self.objective_linear_dense @ point)
        value += float(self.objective_quadratic.values(point, 1)[0])
        return value

    def objective_gradient(self, point: np.ndarray) -> np.ndarray:
        gradient = self.objective_linear_dense.copy()
        self.objective_quadratic.add_weighted_gradient(point, np.ones(1), gradient)
        return gradient

    # -- penalty function ---------------------------------------------------------

    def penalty(self, point: np.ndarray, rho: float, objective_weight: float = 1.0) -> float:
        """The exact quadratic-penalty merit function."""
        residuals = self.residuals(point)
        return objective_weight * self.objective_value(point) + rho * float(residuals @ residuals)

    def penalty_gradient(
        self, point: np.ndarray, rho: float, objective_weight: float = 1.0
    ) -> np.ndarray:
        """Analytic gradient of :meth:`penalty`."""
        residuals = self._residuals_of(self.constraint_values(point))
        weights = 2.0 * rho * residuals
        gradient = self.linear.T.dot(weights)
        gradient = np.asarray(gradient).ravel()
        self.quadratic.add_weighted_gradient(point, weights, gradient)
        gradient += objective_weight * self.objective_gradient(point)
        return gradient

    def residual_jacobian(self, point: np.ndarray) -> sparse.csr_matrix:
        """Sparse Jacobian of :meth:`residuals` (rows of inactive inequalities are empty).

        The width-1 case of :class:`BatchJacobian`'s fill, with the
        masked-out entries dropped from the returned matrix.
        """
        points = np.asarray(point, dtype=float)[None, :]
        pattern = self.jacobian_pattern()
        data = pattern.fill(points, self.active_rows_batch(points))[0]
        # A copy: eliminate_zeros compacts ``indices`` in place, and those are the pattern's.
        matrix = pattern.matrix(data).copy()
        matrix.eliminate_zeros()
        return matrix

    # -- batched kernels (one call per iteration covers every restart) -------------

    def _linear_transposed(self) -> sparse.csr_matrix:
        cached = getattr(self, "_linear_T", None)
        if cached is None:
            cached = self.linear.T.tocsr()
            self._linear_T = cached
        return cached

    def constraint_values_batch(self, points: np.ndarray) -> np.ndarray:
        """:meth:`constraint_values` over a ``(k, d)`` batch of points → ``(k, rows)``.

        Every batched kernel evaluates its members independently — row ``i``
        of the result is a pure function of row ``i`` of ``points`` — so a
        width-``k`` call is equivalent to ``k`` width-1 calls (the lockstep
        guarantee the batched solvers' determinism rests on).
        """
        points = np.asarray(points, dtype=float)
        if self.row_count == 0:
            return np.zeros((points.shape[0], 0))
        # ascontiguousarray: sparse dot yields an F-ordered transpose view, and
        # strided row reductions are not bit-identical to contiguous ones —
        # C-contiguous outputs keep the lockstep guarantee exact.
        values = np.ascontiguousarray(self.linear.dot(points.T).T)
        values += self.constants[None, :]
        values += self.quadratic.values_batch(points, self.row_count)
        return values

    def residuals_batch(self, points: np.ndarray) -> np.ndarray:
        """:meth:`residuals` over a batch → ``(k, rows)`` signed residuals."""
        return self._residuals_of_batch(self.constraint_values_batch(points))

    def _residuals_of_batch(self, values: np.ndarray) -> np.ndarray:
        residuals = np.zeros_like(values)
        residuals[:, self.equality_mask] = values[:, self.equality_mask]
        nonneg = self.nonneg_mask
        residuals[:, nonneg] = np.minimum(values[:, nonneg], 0.0)
        positive = self.positive_mask
        residuals[:, positive] = np.minimum(values[:, positive] - self.strict_margin, 0.0)
        return residuals

    def active_rows_batch(self, points: np.ndarray) -> np.ndarray:
        """``(k, rows)`` 0/1 mask of the rows whose residual depends on the point.

        An inequality's residual is flat zero while the inequality holds, so
        its Jacobian row is masked out; equality rows are always active.
        """
        values = self.constraint_values_batch(points)
        active = np.ones_like(values)
        nonneg = self.nonneg_mask
        active[:, nonneg] = (values[:, nonneg] < 0.0).astype(float)
        positive = self.positive_mask
        active[:, positive] = (values[:, positive] < self.strict_margin).astype(float)
        return active

    def max_violation_batch(self, points: np.ndarray) -> np.ndarray:
        """Per-member largest absolute residual → ``(k,)``."""
        residuals = self.residuals_batch(points)
        if residuals.shape[1] == 0:
            return np.zeros(residuals.shape[0])
        return np.max(np.abs(residuals), axis=1)

    def objective_value_batch(self, points: np.ndarray) -> np.ndarray:
        """Per-member objective value → ``(k,)``."""
        points = np.asarray(points, dtype=float)
        # einsum, not ``points @ vector``: BLAS gemv can round a row
        # differently with the batch's height, breaking the lockstep guarantee.
        values = self.objective_constant + np.einsum("kd,d->k", points, self.objective_linear_dense)
        values += self.objective_quadratic.values_batch(points, 1)[:, 0]
        return values

    def objective_gradient_batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        gradient = np.broadcast_to(self.objective_linear_dense, points.shape).copy()
        gradient += self.objective_quadratic.weighted_gradient_batch(
            points, np.ones((points.shape[0], 1)), self.dimension
        )
        return gradient

    def penalty_batch(self, points: np.ndarray, rho: float | np.ndarray) -> np.ndarray:
        """:meth:`penalty` (objective weight 1) over a batch → ``(k,)`` merit values.

        ``rho`` may be a scalar or a ``(k,)`` array — the batched penalty
        solver walks its members through the rho schedule independently.
        """
        residuals = self.residuals_batch(points)
        merit = np.asarray(rho, dtype=float) * np.einsum("km,km->k", residuals, residuals)
        return merit + self.objective_value_batch(points)

    def penalty_gradient_batch(self, points: np.ndarray, rho: float | np.ndarray) -> np.ndarray:
        """Analytic gradient of :meth:`penalty_batch` → ``(k, d)``."""
        points = np.asarray(points, dtype=float)
        residuals = self._residuals_of_batch(self.constraint_values_batch(points))
        rho = np.asarray(rho, dtype=float)
        weights = 2.0 * (rho[:, None] if rho.ndim else rho) * residuals
        gradient = np.ascontiguousarray(self._linear_transposed().dot(weights.T).T)
        gradient += self.quadratic.weighted_gradient_batch(points, weights, self.dimension)
        gradient += self.objective_gradient_batch(points)
        return gradient

    def jacobian_pattern(self) -> "JacobianPattern":
        """The residual Jacobian's fixed CSR sparsity, built on first use."""
        cached = getattr(self, "_jacobian_pattern", None)
        if cached is None:
            cached = JacobianPattern(self)
            self._jacobian_pattern = cached
        return cached

    def residual_jacobian_batch(
        self, points: np.ndarray, live: np.ndarray | None = None
    ) -> "BatchJacobian":
        """The per-member CSR Jacobians of :meth:`residuals_batch`.

        ``live`` restricts the assembly to the members still iterating; the
        other members' products are zero.
        """
        return BatchJacobian(self, np.asarray(points, dtype=float), live)

    # -- starting points ------------------------------------------------------------

    def initial_points(self, rng: np.random.Generator, scales: np.ndarray) -> np.ndarray:
        """All ``k`` restart starting points of a batched solve in one draw.

        ``scales[i]`` is member ``i``'s Gaussian spread; a zero scale yields
        the deterministic role-floor point (the draw is still consumed, so
        the batch is reproducible regardless of which rows are cold).  Rows
        with distinct non-zero scales are almost surely pairwise distinct —
        the no-duplicate-rows property the restart-jitter fix guarantees.
        """
        scales = np.asarray(scales, dtype=float)
        points = rng.standard_normal((scales.size, self.dimension)) * scales[:, None]
        return self.apply_role_floors_batch(points)

    def perturbed_batch(
        self, point: np.ndarray, rng: np.random.Generator, scales: np.ndarray
    ) -> np.ndarray:
        """A batch of warm-start restarts: per-member jitter around one point."""
        scales = np.asarray(scales, dtype=float)
        jittered = point[None, :] + rng.standard_normal((scales.size, self.dimension)) * scales[:, None]
        return self.apply_role_floors_batch(jittered)

    def apply_role_floors_batch(self, points: np.ndarray) -> np.ndarray:
        """Lift every row's witnesses and Cholesky diagonals off zero, in place.

        Witness unknowns start comfortably above the strict margin and the
        diagonal entries of the Cholesky factors start slightly positive,
        which keeps the first penalty evaluations away from degenerate
        stationary points.
        """
        points[:, self.witness_mask] = np.maximum(
            points[:, self.witness_mask], 10 * self.strict_margin
        )
        points[:, self.cholesky_diagonal_mask] = (
            np.abs(points[:, self.cholesky_diagonal_mask]) + 1e-3
        )
        return points

    # -- conversions -----------------------------------------------------------------

    def assignment(self, point: np.ndarray) -> dict[str, float]:
        """Name-to-value view of a solution vector over every unknown of the system.

        The unknowns the presolve fixed come back as exactly ``0.0``.
        """
        values = np.zeros(len(self.system_variables))
        values[self.free_columns] = point
        return {name: float(value) for name, value in zip(self.system_variables, values)}

    def vector(self, assignment: Mapping[str, float]) -> np.ndarray:
        """Vector view of a name-to-value assignment (missing names default to 0)."""
        return np.array([float(assignment.get(name, 0.0)) for name in self.variables])


class JacobianPattern:
    """The CSR sparsity of the residual Jacobian, shared by every point.

    Every Jacobian entry is a linear coefficient or one half of a bilinear
    term's product rule — ``d(c * x_l * x_r)/dx_l = c * x_r`` and
    ``d/dx_r = c * x_l`` — so each is ``coefficients[e] * x[factors[e]]``,
    where factor ``dimension`` reads a constant 1.0 (linear entries).
    ``slots`` maps each entry to its CSR position: a repeated ``(row, col)``
    (``x_i^2``, or a linear and a bilinear entry in one cell) sums into one
    slot.
    """

    __slots__ = ("shape", "nnz", "coefficients", "factors", "slots", "indices", "indptr")

    def __init__(self, problem: CompiledProblem):
        linear = problem.linear
        quadratic = problem.quadratic
        rows, dimension = problem.row_count, problem.dimension
        linear_rows = np.repeat(np.arange(rows, dtype=np.int64), np.diff(linear.indptr))
        entry_rows = np.concatenate([linear_rows, quadratic.rows, quadratic.rows]).astype(np.int64)
        entry_cols = np.concatenate([linear.indices, quadratic.left, quadratic.right])
        keys, slots = np.unique(entry_rows * dimension + entry_cols, return_inverse=True)
        self.shape = (rows, dimension)
        self.nnz = keys.size
        # The pattern lives as long as the compiled problem, so every index
        # array is int32 whenever the sizes allow it.
        index_dtype = np.int32 if max(self.nnz, rows, dimension) < 2**31 else np.int64
        self.coefficients = np.concatenate(
            [linear.data, quadratic.coefficients, quadratic.coefficients]
        )
        self.factors = np.concatenate(
            [np.full(linear.nnz, dimension), quadratic.right, quadratic.left]
        ).astype(index_dtype)
        self.slots = slots.astype(index_dtype)
        slot_rows, columns = np.divmod(keys, max(dimension, 1))
        self.indices = columns.astype(index_dtype)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(slot_rows, minlength=rows))]
        ).astype(index_dtype)

    def fill(self, points: np.ndarray, active: np.ndarray) -> np.ndarray:
        """CSR ``data`` of every point's Jacobian → ``(n, nnz)``, masked by ``active`` rows.

        One gather, one ``bincount`` and the row mask.  Member ``i``'s slots
        receive only member ``i``'s entries, in entry order, so each row of
        the result is bit-identical to filling that point alone.
        """
        count = points.shape[0]
        extended = np.concatenate([points, np.ones((count, 1))], axis=1)
        values = self.coefficients * extended[:, self.factors]
        bins = self.slots + self.nnz * np.arange(count, dtype=np.int64)[:, None]
        data = np.bincount(bins.reshape(-1), weights=values.reshape(-1), minlength=count * self.nnz)
        # astype: bincount of no entries at all comes back as int64.
        data = data.reshape(count, self.nnz).astype(float, copy=False)
        data *= np.repeat(active, np.diff(self.indptr), axis=1)
        return data

    def matrix(self, data: np.ndarray) -> sparse.csr_matrix:
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


class BatchJacobian:
    """The Jacobian of :meth:`CompiledProblem.residuals_batch` at ``k`` points.

    One CSR matrix per live member, on the problem's :class:`JacobianPattern`:
    the batched Levenberg–Marquardt solver fills them once per iteration and
    its CG products are plain per-member sparse products (``J_i.T`` is the
    zero-copy CSC view of ``J_i``, which sums each output in row order).
    Member ``i`` of an output touches only member ``i`` of the input, which
    preserves the lockstep guarantee of the batched kernels; the output rows
    of members that are not live are zero.
    """

    __slots__ = ("problem", "points", "members", "_matrices", "_transposes")

    def __init__(
        self, problem: CompiledProblem, points: np.ndarray, live: np.ndarray | None = None
    ):
        self.problem = problem
        self.points = points
        self.members = (
            np.arange(points.shape[0]) if live is None else np.flatnonzero(live)
        )
        member_points = points[self.members]
        pattern = problem.jacobian_pattern()
        data = pattern.fill(member_points, problem.active_rows_batch(member_points))
        self._matrices = [pattern.matrix(row) for row in data]
        self._transposes = [matrix.T for matrix in self._matrices]

    def matvec(self, vectors: np.ndarray) -> np.ndarray:
        """Per-member ``J_i @ v_i`` → ``(k, rows)``."""
        result = np.zeros((self.points.shape[0], self.problem.row_count))
        for member, matrix in zip(self.members, self._matrices):
            result[member] = matrix @ vectors[member]
        return result

    def rmatvec(self, weights: np.ndarray) -> np.ndarray:
        """Per-member ``J_i.T @ w_i`` → ``(k, dim)``."""
        result = np.zeros((self.points.shape[0], self.problem.dimension))
        for member, matrix in zip(self.members, self._transposes):
            result[member] = matrix @ weights[member]
        return result


def compile_problem(system: QuadraticSystem, strict_margin: float | None = None) -> CompiledProblem:
    """The memoised, presolved :class:`CompiledProblem` of ``system``.

    Every solver goes through here, so every solve runs on
    :meth:`CompiledProblem.presolved`: the unknowns an equality forces to 0
    are fixed, the rows that leaves identically satisfied are dropped, and
    a system the presolve proves infeasible is answered without a descent
    (:func:`presolve_verdict`).

    ``strict_margin`` defaults (via ``None``) to
    :data:`~repro.solvers.base.DEFAULT_STRICT_MARGIN`; solvers pass their own
    ``SolverOptions.strict_margin`` so a per-request margin reaches the
    residual rewrite of the compiled problem.

    The cache lives on the system object itself and is keyed by the strict
    margin plus the system's mutation counter (every API-level mutation —
    added constraints, objective assignment — bumps it), so stale entries can
    never be served to the solvers that share one compilation.  Rows can
    only be added through that API: ``system.constraints`` is a read-only
    view.
    """
    if strict_margin is None:
        strict_margin = DEFAULT_STRICT_MARGIN
    key = (float(strict_margin), system.version)
    cache: dict | None = getattr(system, "_compiled_problems", None)
    if cache is None:
        cache = {}
        try:
            system._compiled_problems = cache
        except AttributeError:  # pragma: no cover - systems with __slots__
            return CompiledProblem.presolved(system, strict_margin=strict_margin)
    problem = cache.get(key)
    if problem is None:
        problem = CompiledProblem.presolved(system, strict_margin=strict_margin)
        if len(cache) >= 4:  # systems are compiled under a handful of margins at most
            cache.clear()
        cache[key] = problem
    return problem


def presolve_verdict(problem: CompiledProblem) -> SolverResult | None:
    """The answer to a problem that needs no descent, or ``None``.

    A system the presolve proved infeasible is ``"infeasible"`` after 0
    iterations.  A problem with no free unknown left is ``"trivial"``; its
    assignment holds every unknown of the system, each fixed at 0.
    """
    details = problem.size_details()
    if problem.infeasible:
        return SolverResult(assignment=None, status="infeasible", details=details)
    if problem.dimension == 0:
        point = np.zeros(0)
        return SolverResult(
            assignment=problem.assignment(point),
            status="trivial",
            objective_value=problem.objective_value(point),
            max_violation=problem.max_violation(point),
            details=details,
        )
    return None
