"""Batched multi-start descent engines over the CompiledProblem batch kernels.

Every Step-4 solver used to walk its restarts in a Python loop, evaluating
one dimension-length point per kernel call.  The engines here iterate the
whole restart batch at once — one ``(k, d)`` array of iterates, one batched
kernel call per descent step — with per-member step sizes and survivor
masks: converged, diverged and line-search-stalled members *retire* from the
batch (their rows freeze) while the rest keep iterating.

The load-bearing property is **lockstep row independence**: every update of
member ``i`` uses only member ``i``'s row of the batched kernel outputs, and
the batched kernels themselves are row-independent.  A member's trajectory
is therefore bit-identical whether it iterates alone (``batch="rows"``) or
inside a width-``k`` batch (``batch="on"``) — which is what lets
:func:`winning_member` replay a sequential restart loop's
first-feasible-wins semantics over batch results and produce the same
winning assignment fingerprint.

Deadline checks (:meth:`SolveControl.should_stop`) happen once per
batched iteration, so a solve overshoots its deadline by at most
one batched iteration: one Jacobian fill and its CG solve, or one L-BFGS
step with its line search.

A caller chooses each descent's iteration budget, target, active members
and (for L-BFGS) penalty weights ``rho`` and variable block.  The stopping
tolerances, the Armijo backtracking budget and the CG budget and tolerance
are the module constants below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.solvers.base import SolverOptions, SolverResult
from repro.solvers.problem import CompiledProblem, SolveControl, improves

#: Per-member damping / step-size clamps shared by the engines.
_MIN_DAMPING = 1e-10
_MAX_DAMPING = 1e12
_MIN_STEP = 1e-14
_MAX_STEP = 1e8
#: Curvature pairs kept by the batched L-BFGS penalty descent.
_LBFGS_HISTORY = 8
#: CG steps per Levenberg–Marquardt iteration (CG also stops at ``_CG_RTOL``).
#: A constant, not a share of the dimension: a budget that shrinks with the
#: presolved dimension left restarts stalled short of the tolerance.
_CG_ITERATIONS = 100
#: CG stops a member once its residual norm falls below this share of the
#: right-hand side's.
_CG_RTOL = 1e-6
#: A Levenberg–Marquardt member retires when its largest gradient entry is at
#: or below this value (stationary).
_LM_GTOL = 1e-12
#: An L-BFGS member retires when its gradient norm is at or below ``_LBFGS_GTOL``
#: or a step lowers its merit by no more than ``_LBFGS_FTOL`` (relative).
_LBFGS_GTOL = 1e-10
_LBFGS_FTOL = 1e-12
#: Armijo step halvings per L-BFGS iteration before a member gives up.
_MAX_BACKTRACKS = 30


@dataclass
class KernelCounters:
    """Kernel-evaluation accounting of one batched solve.

    Counts are in *member evaluations* — a width-``k`` batched kernel call on
    ``k`` live members counts ``k``, so the numbers stay comparable across
    batch widths.  ``max_width`` is the most live members any
    one kernel call carried: the batch width actually iterated.
    """

    residual_evaluations: int = 0
    jacobian_evaluations: int = 0
    max_width: int = 0

    def count_residuals(self, members: int) -> None:
        self.residual_evaluations += int(members)
        self.max_width = max(self.max_width, int(members))

    def count_jacobians(self, members: int) -> None:
        self.jacobian_evaluations += int(members)
        self.max_width = max(self.max_width, int(members))


@dataclass
class BatchDescent:
    """What one batched descent produced: final iterates plus bookkeeping."""

    points: np.ndarray  #: (k, d) final iterates (retired rows frozen where they retired)
    iterations: int  #: total member-iterations performed (sum over live members)
    interrupted: bool  #: True when the control stopped the descent mid-flight


def start_batch(
    problem: CompiledProblem,
    control: SolveControl,
    rng: np.random.Generator,
    restarts: int,
    cold_scale: Callable[[int], float],
    warm_scale: Callable[[int], float] | None = None,
) -> np.ndarray:
    """The ``(k, d)`` starting points of one batched multi-start solve.

    All cold rows are drawn in one ``standard_normal`` call (so the batch is
    a deterministic function of the seed, independent of batch width); when
    the portfolio's warm-start exchange holds a best-known point and
    ``warm_scale`` is given, the odd rows are re-seeded as perturbations of
    it — an "exploit on odd attempts" policy, resolved once at batch
    construction.
    """
    scales = np.array([cold_scale(i) for i in range(restarts)], dtype=float)
    points = problem.initial_points(rng, scales)
    if warm_scale is not None and restarts > 1:
        warm = control.warm_start()
        if warm is not None:
            odd = np.arange(1, restarts, 2)
            points[odd] = problem.perturbed_batch(
                warm, rng, np.array([warm_scale(int(i)) for i in odd])
            )
    return points


def winning_member(
    violations: np.ndarray,
    objectives: np.ndarray,
    count: int,
    tolerance: float,
    trigger: Callable[[float, float], bool] | None = None,
) -> tuple[int | None, int]:
    """Replay the sequential restart loop's fold over batch results.

    Scans members in ascending index order with the shared :func:`improves`
    ordering, stopping as soon as the running best satisfies ``trigger`` —
    exactly where the one-restart-at-a-time loop (``batch="rows"``) breaks.
    Returns ``(best_index, members_consumed)``; members past the stop point
    are ignored, which is what makes the batched winner identical to the
    sequential one.
    """
    best: int | None = None
    best_violation = np.inf
    best_objective = np.inf
    used = 0
    for i in range(count):
        used = i + 1
        violation = float(violations[i])
        objective = float(objectives[i])
        if best is None or improves(best_violation, best_objective, violation, objective, tolerance):
            best, best_violation, best_objective = i, violation, objective
        if trigger is not None and trigger(best_violation, best_objective):
            break
    return best, used


def cancel_overtaken(live: np.ndarray, retired_trigger: np.ndarray) -> None:
    """Retire members the sequential loop would never have started.

    ``retired_trigger[i]`` marks a *retired* member whose result satisfies
    the win trigger.  Once every member below such an ``i`` has retired, the
    sequential loop would have stopped at ``i`` — so all higher members are
    masked out of the batch in place (their rows stay frozen at the current
    iterate and are ignored by the fold anyway).
    """
    retired = ~live
    for index in np.flatnonzero(retired_trigger & retired):
        if retired[:index].all():
            live[index + 1 :] = False
            return


def _batched_cg(
    matvec: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    active: np.ndarray,
    iterations: int,
) -> np.ndarray:
    """Per-member conjugate gradients on ``k`` independent SPD systems.

    ``matvec`` must be row-independent (block-diagonal across members);
    the CG scalars (``alpha``, ``beta``) are then per-member, so the batched
    recursion is exactly ``k`` decoupled CG runs.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = rhs.copy()
    rs = np.einsum("kd,kd->k", r, r)
    threshold = (_CG_RTOL * _CG_RTOL) * rs
    live = active & (rs > 0.0)
    for _ in range(iterations):
        if not live.any():
            break
        Ap = matvec(p)
        pAp = np.einsum("kd,kd->k", p, Ap)
        # Non-positive curvature (numerically indefinite member): stop that
        # member with whatever descent direction it accumulated so far.
        live &= pAp > 0.0
        alpha = np.where(live, rs / np.where(pAp > 0.0, pAp, 1.0), 0.0)
        x = np.where(live[:, None], x + alpha[:, None] * p, x)
        r = np.where(live[:, None], r - alpha[:, None] * Ap, r)
        rs_next = np.einsum("kd,kd->k", r, r)
        live &= rs_next > threshold
        beta = np.where(live, rs_next / np.where(rs > 0.0, rs, 1.0), 0.0)
        p = np.where(live[:, None], r + beta[:, None] * p, p)
        rs = np.where(live, rs_next, rs)
    return x


def batched_least_squares(
    problem: CompiledProblem,
    points: np.ndarray,
    *,
    control: SolveControl,
    counters: KernelCounters,
    max_iterations: int,
    target: float,
    active: np.ndarray | None = None,
    win_tolerance: float | None = None,
) -> BatchDescent:
    """Per-member Levenberg–Marquardt on the residuals (the feasibility sprint).

    Minimises ``||residuals(x_i)||^2`` for every live member with a damped
    Gauss-Newton step solved by :func:`_batched_cg` on the normal equations
    ``(J_i^T J_i + lambda_i I) dx_i = -J_i^T r_i``, through products with each
    live member's CSR Jacobian (filled once per iteration).  Members retire
    when their violation reaches ``target`` and the fast quadratic
    convergence near a zero-residual solution has run dry (so feasible
    members carry every float digit the exact-certificate snap can use),
    when their gradient vanishes
    (stationary — e.g. the origin of a bilinear system), or their damping
    explodes (no descent direction left).  A member's row only ever moves to
    a strictly lower cost, so the sprint never worsens feasibility.

    ``win_tolerance`` enables first-feasible-wins batch cancellation for
    pure-feasibility solves: when a member retires with violation at or
    below it and every lower member has retired too, the sequential loop
    would have stopped there — so the remaining members are cancelled (see
    :func:`cancel_overtaken`; the fold ignores them either way).
    """
    k = points.shape[0]
    x = points.copy()
    live = np.ones(k, dtype=bool) if active is None else active.copy()
    damping = np.full(k, 1e-3)

    r = problem.residuals_batch(x)
    counters.count_residuals(int(live.sum()))
    cost = np.einsum("km,km->k", r, r)
    violation = np.max(np.abs(r), axis=1) if r.shape[1] else np.zeros(k)
    live &= violation > target

    iterations = 0
    interrupted = False
    for _ in range(max_iterations):
        if not live.any():
            break
        if control.should_stop():
            interrupted = True
            break
        width = int(live.sum())
        iterations += width

        jacobian = problem.residual_jacobian_batch(x, live)
        counters.count_jacobians(width)
        gradient = jacobian.rmatvec(r)
        live &= np.max(np.abs(gradient), axis=1) > _LM_GTOL
        if not live.any():
            break

        lam = damping

        def normal_matvec(v: np.ndarray) -> np.ndarray:
            return jacobian.rmatvec(jacobian.matvec(v)) + lam[:, None] * v

        step = _batched_cg(normal_matvec, -gradient, live, _CG_ITERATIONS)
        trial = np.where(live[:, None], x + step, x)
        r_trial = problem.residuals_batch(trial)
        counters.count_residuals(int(live.sum()))
        cost_trial = np.einsum("km,km->k", r_trial, r_trial)
        improved = live & np.isfinite(cost_trial) & (cost_trial < cost)

        x = np.where(improved[:, None], trial, x)
        r = np.where(improved[:, None], r_trial, r)
        polishing = improved & (cost_trial <= 1e-4 * cost)
        cost = np.where(improved, cost_trial, cost)
        damping = np.where(
            improved,
            np.maximum(damping * 0.3, _MIN_DAMPING),
            np.where(live, damping * 4.0, damping),
        )
        live &= damping < _MAX_DAMPING
        violation = np.max(np.abs(r), axis=1) if r.shape[1] else violation
        # Members at ``target`` keep polishing while convergence is still
        # quadratic (each accepted step shaving >=4 orders of magnitude off
        # the cost): the exact-certificate snap feeds on those extra digits.
        # They retire the moment progress stalls.
        live &= (violation > target) | polishing
        if win_tolerance is not None:
            cancel_overtaken(live, violation <= win_tolerance)

    return BatchDescent(points=x, iterations=iterations, interrupted=interrupted)


def batched_penalty_descent(
    problem: CompiledProblem,
    points: np.ndarray,
    rho: np.ndarray | float,
    *,
    control: SolveControl,
    counters: KernelCounters,
    max_iterations: int,
    active: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> BatchDescent:
    """Per-member L-BFGS descent on the penalty merit function.

    Minimises ``objective(x_i) + rho_i * ||r(x_i)||^2``
    for every live member: limited-memory BFGS directions (the two-loop
    recursion vectorised over the batch — every inner product is a
    per-member ``einsum``) with a vectorised Armijo backtracking line search
    whose halvings are per member.  Members whose quasi-Newton direction
    loses descent fall back to steepest descent for that step; curvature
    pairs failing the positivity guard are masked out *per member* (their
    ``1/s.y`` weight is zero, making the pair a no-op in the recursion).
    ``rho`` may be a ``(k,)`` array — the penalty schedule advances members
    independently.  ``columns`` restricts the descent to a variable block
    (the alternating solver's sweeps): the gradient is masked to the block
    and every curvature pair then lives in the block's subspace, so the
    frozen coordinates never move.  Members retire on a vanished (block)
    gradient, a relative merit decrease below ``_LBFGS_FTOL``, or a line
    search that found no sufficient decrease in ``_MAX_BACKTRACKS`` halvings.
    """
    k, _ = points.shape
    x = points.copy()
    live = np.ones(k, dtype=bool) if active is None else active.copy()
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (k,))

    def merit(batch: np.ndarray, members: int) -> np.ndarray:
        counters.count_residuals(members)
        return problem.penalty_batch(batch, rho)

    def merit_gradient(batch: np.ndarray, members: int) -> np.ndarray:
        counters.count_jacobians(members)
        gradient = problem.penalty_gradient_batch(batch, rho)
        if columns is not None:
            gradient *= columns[None, :]
        return gradient

    f = merit(x, int(live.sum()))
    g = merit_gradient(x, int(live.sum()))
    gsq = np.einsum("kd,kd->k", g, g)
    # Initial inverse-Hessian scale: reproduces the old conservative first
    # step; updated per member from the latest valid curvature pair.
    gamma = 1.0 / (1.0 + np.sqrt(gsq))
    history: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    iterations = 0
    interrupted = False
    for _ in range(max_iterations):
        live &= np.isfinite(f) & (gsq > _LBFGS_GTOL * _LBFGS_GTOL)
        if not live.any():
            break
        if control.should_stop():
            interrupted = True
            break
        width = int(live.sum())
        iterations += width

        # Two-loop recursion, batched: alpha/beta are (k,) vectors.
        q = g.copy()
        alphas = []
        for s, y, weight in reversed(history):
            alpha = weight * np.einsum("kd,kd->k", s, q)
            q -= alpha[:, None] * y
            alphas.append(alpha)
        direction = -gamma[:, None] * q
        for (s, y, weight), alpha in zip(history, reversed(alphas)):
            beta = weight * np.einsum("kd,kd->k", y, direction)
            direction -= (alpha + beta)[:, None] * s
        slope = np.einsum("kd,kd->k", g, direction)
        # Members whose quasi-Newton direction is not a descent direction
        # restart from scaled steepest descent for this step.
        fallback = slope >= 0.0
        direction = np.where(fallback[:, None], -gamma[:, None] * g, direction)
        slope = np.where(fallback, -gamma * gsq, slope)

        # Vectorised Armijo backtracking: each member halves its own step
        # until sufficient decrease (or gives up and retires).
        t = np.ones(k)
        searching = live.copy()
        new_x = x.copy()
        new_f = f.copy()
        accepted = np.zeros(k, dtype=bool)
        for _ in range(_MAX_BACKTRACKS):
            if not searching.any():
                break
            candidate = np.where(searching[:, None], x + t[:, None] * direction, x)
            f_candidate = merit(candidate, int(searching.sum()))
            ok = searching & np.isfinite(f_candidate) & (f_candidate <= f + 1e-4 * t * slope)
            new_x = np.where(ok[:, None], candidate, new_x)
            new_f = np.where(ok, f_candidate, new_f)
            accepted |= ok
            searching &= ~ok
            t = np.where(searching, 0.5 * t, t)
        live &= accepted
        if not live.any():
            break

        new_g = merit_gradient(new_x, int(live.sum()))
        s = new_x - x
        y = new_g - g
        sy = np.einsum("kd,kd->k", s, y)
        yy = np.einsum("kd,kd->k", y, y)
        ss = np.einsum("kd,kd->k", s, s)
        # Per-member curvature guard: pairs without positive curvature get a
        # zero weight (a no-op in the recursion) and keep the old gamma.
        valid = live & (sy > 1e-10 * np.sqrt(ss * yy)) & (yy > 0.0)
        weight = np.where(valid, 1.0 / np.where(valid, sy, 1.0), 0.0)
        gamma = np.where(valid, sy / np.where(valid, yy, 1.0), gamma)
        gamma = np.clip(gamma, _MIN_STEP, _MAX_STEP)
        history.append((s, y, weight))
        if len(history) > _LBFGS_HISTORY:
            history.pop(0)

        decrease = f - new_f
        x, f, g = new_x, new_f, new_g
        gsq = np.einsum("kd,kd->k", g, g)
        live &= decrease > _LBFGS_FTOL * np.maximum(1.0, np.abs(f))

    return BatchDescent(points=x, iterations=iterations, interrupted=interrupted)


def run_multistart(
    problem: CompiledProblem,
    control: SolveControl,
    options: SolverOptions,
    label: str,
    *,
    cold_scale: Callable[[int], float],
    warm_scale: Callable[[int], float] | None,
    descend: Callable[[np.ndarray, KernelCounters], BatchDescent],
    trigger: Callable[[float, float], bool] | None,
) -> SolverResult:
    """The shared batch-mode driver of the multi-start solvers.

    Builds the restart batch once (same rng draws for both modes), runs
    ``descend`` over it — as one width-``k`` batch under ``batch="on"``, one
    member at a time under ``batch="rows"`` — and replays the sequential
    restart loop's winner selection with :func:`winning_member`.  Lockstep
    row independence of the engines makes the two modes produce identical
    member trajectories, hence identical winning assignments.
    ``details["interrupted"]`` is 1.0 when the deadline stopped the winning
    member's descent mid-flight; a feasible winner cut that way reports
    ``status="feasible-at-deadline"`` instead of ``"optimal"``.
    """
    rng = np.random.default_rng(options.seed)
    counters = KernelCounters()
    restarts = options.restarts
    points = start_batch(problem, control, rng, restarts, cold_scale, warm_scale)

    finals = points.copy()
    violations = np.full(restarts, np.inf)
    objectives = np.full(restarts, np.inf)
    iterations = 0
    computed = 0
    #: The first member whose descent the control stopped mid-flight.
    cut = restarts

    if options.batch == "rows":
        best_violation = np.inf
        best_objective = np.inf
        have_best = False
        for member in range(restarts):
            if control.should_stop():
                break
            outcome = descend(points[member : member + 1], counters)
            iterations += outcome.iterations
            finals[member] = outcome.points[0]
            violations[member] = problem.max_violation_batch(outcome.points)[0]
            objectives[member] = problem.objective_value_batch(outcome.points)[0]
            computed = member + 1
            if outcome.interrupted:
                cut = member
                break
            if not have_best or improves(
                best_violation, best_objective, violations[member], objectives[member],
                options.tolerance,
            ):
                best_violation, best_objective = violations[member], objectives[member]
                have_best = True
            if trigger is not None and trigger(best_violation, best_objective):
                break
    else:
        # Leader/pack split: the sequential loop stops after restart 0
        # whenever its result satisfies the win trigger, so when a trigger
        # exists the leader descends alone first and the pack batch only
        # launches when the leader's final result does not already win.
        # (The trigger is monotone along the winning_member fold — the
        # running best only improves — so checking it on the best of the
        # computed prefix is exactly the sequential stopping rule.)
        if trigger is not None and restarts > 1:
            waves = [slice(0, 1), slice(1, restarts)]
        else:
            waves = [slice(0, restarts)]
        for wave in waves:
            if control.should_stop():
                break
            outcome = descend(points[wave], counters)
            iterations += outcome.iterations
            finals[wave] = outcome.points
            violations[wave] = problem.max_violation_batch(outcome.points)
            objectives[wave] = problem.objective_value_batch(outcome.points)
            computed = wave.stop
            if outcome.interrupted:
                cut = wave.start
                break
            if trigger is not None:
                best, _ = winning_member(violations, objectives, computed, options.tolerance)
                if best is not None and trigger(float(violations[best]), float(objectives[best])):
                    break

    details = {"timed_out": float(control.should_stop()), **problem.size_details()}
    if computed == 0:
        return SolverResult(
            assignment=None,
            status="no-progress",
            iterations=iterations,
            details=details,
            strategy=label,
            residual_evaluations=counters.residual_evaluations,
            jacobian_evaluations=counters.jacobian_evaluations,
            batch_width=counters.max_width,
        )

    winner, used = winning_member(violations, objectives, computed, options.tolerance, trigger)
    # The members the fold consumed feed the warm-start exchange, in order.
    for member in range(used):
        control.report(finals[member], violations[member], objectives[member])

    violation = float(violations[winner])
    objective = float(objectives[winner])
    feasible = violation <= options.tolerance
    # The deadline left the winner wherever it stood.
    interrupted = winner >= cut
    details["interrupted"] = float(interrupted)
    if not feasible:
        status = "infeasible-best-effort"
    else:
        status = "feasible-at-deadline" if interrupted else "optimal"
    return SolverResult(
        assignment=problem.assignment(finals[winner]) if feasible else None,
        status=status,
        objective_value=objective,
        max_violation=violation,
        iterations=iterations,
        restarts_used=used,
        details=details,
        strategy=label,
        residual_evaluations=counters.residual_evaluations,
        jacobian_evaluations=counters.jacobian_evaluations,
        batch_width=counters.max_width,
    )
