"""Sub/supersolution search and the steady-state solve inside the bracket,
plus the continuation in the power-term coefficient used when B is only
nonnegative.

The solve is damped Newton with the bracket as the admissible set
(Deuflhard 2004; Kelley 1995, ch. 8): each Newton step is halved until the
iterate stays positive and between the sub- and the supersolution, from
whichever end it starts (Pao 1992, ch. 3, for the bracket argument)."""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import BracketError, CoercivityError, ConvergenceError
from .geometry import ScalarField
from .operator import FORCING, PaneitzOperator, _ladder, _on_grid, _prolong, backtrack
from .problems import (
    ABSORPTION,
    SOURCE,
    Bracket,
    ProblemSpec,
    SolverReport,
    floor_flag,
    reaction,
    reaction_derivative,
)

__all__ = [
    "find_sub_super",
    "verify_bracket",
    "monotone_solve",
    "epsilon_continuation",
]

# pointwise slack for order comparisons, relative to the field scale
ORDER_SLACK = 1e-12


def _sub_margin(prob, s, W):
    """min over x of f(x, s) - P s = f(x, s) - s W; >= 0 means subsolution."""
    return float((reaction(prob, np.full(W.shape, s)) - s * W).min())


def _super_margin(prob, s, W):
    """min over x of P s - f(x, s) = s W - f(x, s); >= 0 means supersolution."""
    return float((s * W - reaction(prob, np.full(W.shape, s))).min())


def _scale_search(ok, start: float, factor: float, tries: int) -> float | None:
    """First ``start * factor**k`` with ``k < tries`` at which ``ok`` holds.

    Returns None when every try fails.  Scales are formed by repeated
    multiplication, so a factor of 0.5 or 2 gives exact powers of two.
    """
    s = start
    for _ in range(tries):
        if ok(s):
            return s
        s *= factor
    return None


def find_sub_super(op: PaneitzOperator, prob: ProblemSpec) -> Bracket:
    """Two constants s1 <= s2 that sub- and supersolve the problem.

    A constant s has ``P s = s W``, with W the operator's potential, so no
    operator is applied.  The supersolution scale s2 is doubled from 1 (at
    most 200 times) until ``s2 W >= f(x, s2)`` holds everywhere.  In
    absorption mode the doubling terminates whenever B > 0 where the
    potential is nonpositive; a pure B = 0 problem with the potential
    dipping nonpositive has no constant supersolution and is reported as
    such.  In source mode with B > 0 somewhere, the margin ``min_x (s W -
    A s^-p - B s^q)`` is concave in s, so s2 is its maximizer, and no
    constant supersolution exists when the maximum is negative.  The
    subsolution scale s1 is then halved from ``min(1, s2)`` (at most 200
    times) until ``s1 W <= f(x, s1)`` holds everywhere (the singular term
    always wins for small scales).
    """
    W = op.W.values
    if prob.mode == SOURCE and prob.B.max() > 0.0:
        best = 2.0 ** minimize_scalar(lambda t: -_super_margin(prob, 2.0**t, W)).x
        s2 = best if _super_margin(prob, best, W) >= 0.0 else None
    else:
        s2 = _scale_search(lambda s: _super_margin(prob, s, W) >= 0.0, 1.0, 2.0, 201)
    if s2 is None:
        note = ""
        if prob.mode == ABSORPTION and prob.B.min() <= 0.0 and op.W.min() <= 0.0:
            note = " (B vanishes where the potential is nonpositive)"
        if prob.mode == SOURCE:
            note = " (source mode: constant supersolutions exist only below the fold)"
        raise BracketError(f"no supersolution scale found{note}")

    s1 = _scale_search(lambda s: _sub_margin(prob, s, W) >= 0.0, min(1.0, s2), 0.5, 201)
    if s1 is None:
        raise BracketError(
            f"no subsolution scale found down to {0.5**201}; "
            "singular coefficient may be degenerate"
        )
    return Bracket(s1, s2, op.grid)


def verify_bracket(op: PaneitzOperator, prob: ProblemSpec, bracket: Bracket,
                   slack: float = 0.0) -> tuple[bool, bool]:
    """Pointwise check of the defining inequalities, with optional slack."""
    W = op.W.values
    sub_ok = _sub_margin(prob, bracket.s1, W) >= -slack
    super_ok = _super_margin(prob, bracket.s2, W) >= -slack
    return bool(sub_ok), bool(super_ok)


def _monotone_iterate(op, prob, start_vals, lower_vals, upper_vals,
                      direction, tol_step, tol_residual, maxiter, resid0=None):
    """Damped Newton steps between explicit order bounds (Deuflhard, *Newton
    Methods for Nonlinear Problems*, 2004; Kelley, SIAM 1995, ch. 8).

    Each step solves ``(P + diag d) s = f(u) - P u`` by conjugate gradients,
    ``d = max(-f'(u), 0)`` (the clip acts only in source mode), and is halved
    by :func:`~paneitzlab.operator.backtrack` until the iterate is positive
    and between the bounds up to the order slack; a refused solve, or no
    admissible halving, raises ConvergenceError naming the step.

    The steps are inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J.
    Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17,
    1996): CG stops at relative residual ``max(1e-12, min(FORCING,
    (r / r0)^2))``, with ``r`` the sup residual of the step's right side
    and ``r0`` the one at ``start_vals``, or ``resid0`` when given.
    Squared, because an exact step from an iterate with error e overshoots
    by O(e^2) and an eta-accurate one adds O(eta e); with eta ~ (r / r0)^2
    ~ e^2 that addition is O(e^3), below the overshoot, so the steps keep
    the ordering exact Newton has.
    The stopping rule measures ``r`` afresh, so it is unchanged.  Returns
    ``(u, residual, steps, monotone_ok)``: ``monotone_ok`` says whether
    every step moved in ``direction`` (+1 up from a subsolution, -1 down
    from a supersolution).  Error messages name the grid.
    """
    on_grid = _on_grid(op.grid)
    scale = max(float(np.abs(upper_vals).max()), 1.0)
    slack = ORDER_SLACK * scale

    def admissible(cand, s):
        inside = (float(cand.min()) > 0.0
                  and float((cand - lower_vals).min()) >= -slack
                  and float((upper_vals - cand).min()) >= -slack)
        return inside or None

    # one application of P per step: the accepted iterate's f(u) - P u is
    # both the stop test's residual and the next Newton right side
    u = start_vals
    F = reaction(prob, u) - op.apply_values(u)
    resid = float(np.abs(F).max())
    if resid0 is None:
        resid0 = resid
    step = np.inf
    monotone_ok = True
    for it in range(1, maxiter + 1):
        d = np.maximum(-reaction_derivative(prob, u), 0.0)
        # F = 0 (a start at the solution) solves exactly at any tolerance
        tol = max(1e-12, min(FORCING, (resid / resid0) ** 2)) if resid0 else 1e-12
        # passed on unnamed: no step array outlives backtrack into the next solve
        try:
            found = backtrack(u, op.solve_shifted(d, F, tol=tol), admissible)
        except (CoercivityError, ConvergenceError) as exc:
            raise ConvergenceError(
                f"Newton step {it} {on_grid}: the linear solve failed ({exc})",
                residual=resid,
            ) from exc
        if found is None:
            raise ConvergenceError(
                f"Newton step {it} {on_grid}: no halving stays positive and "
                "inside the order bounds", residual=resid,
            )
        unew = found[0]
        rise = float((unew - u if direction > 0 else u - unew).min())
        monotone_ok = monotone_ok and rise >= -slack
        step = float(np.abs(unew - u).max())
        u = unew
        F = reaction(prob, u) - op.apply_values(u)
        resid = float(np.abs(F).max())
        if step <= tol_step and resid <= max(tol_residual, op.roundoff_floor(u)):
            return u, resid, it, monotone_ok
    raise ConvergenceError(
        f"monotone iteration stalled after {maxiter} steps {on_grid} "
        f"(step {step:.3e}, residual {resid:.3e})",
        residual=resid,
    )


def _nested_solve(op, prob, bracket, direction, tol_step, tol_residual, maxiter):
    """:func:`_monotone_iterate` inside ``bracket`` from the end that
    ``direction`` names (+1 the subsolution, -1 the supersolution), started
    from the half grid's solution while the grid nests
    (:func:`~paneitzlab.operator._ladder`).

    The coarsest grid starts from the end of its own bracket
    (:func:`find_sub_super` of the injected problem; it exists whenever
    ``bracket`` does, since its margins are minima over a subset of the
    points).  Each finer grid starts from the coarser solution, prolonged and
    clipped into its bracket (``bracket`` on the caller's grid), and
    measures its forcing term from the residual at that bracket's end, so its
    first step is solved as tightly as from the end itself.  A failure on any
    grid raises at once and names the grid.  Returns ``(u, residual, steps,
    monotone_ok, levels)``: the caller's grid's residual and step count,
    whether every step on the coarsest grid moved in ``direction``, and the
    number of grids.
    """
    ladder = _ladder(op)
    u = None
    for lop in reversed(ladder):
        lprob = prob.injected(lop.grid)
        lbracket = bracket if lop is op else find_sub_super(lop, lprob)
        lower, upper = lbracket.lower.values, lbracket.upper.values
        end = lower if direction > 0 else upper
        if u is None:
            u, resid, steps, monotone_ok = _monotone_iterate(
                lop, lprob, end, lower, upper, direction, tol_step, tol_residual, maxiter)
        else:
            # a constant s has P s = s W
            resid0 = float(np.abs(reaction(lprob, end) - end * lop.W.values).max())
            u, resid, steps, _ = _monotone_iterate(
                lop, lprob, np.clip(_prolong(u), lower, upper), lower, upper, direction,
                tol_step, tol_residual, maxiter, resid0)
    return u, resid, steps, monotone_ok, len(ladder)


def monotone_solve(op: PaneitzOperator, prob: ProblemSpec, bracket: Bracket,
                   start: str = "sub", tol_step: float = 1e-10,
                   tol_residual: float = 1e-8, maxiter: int = 100) -> SolverReport:
    """Damped Newton solve inside a sub/supersolution bracket.

    Starts from the subsolution (``start='sub'``) or the supersolution
    (``start='super'``), on a grid that nests from the half grid's solution
    instead (:func:`_nested_solve`).  Each step is an inexact Newton-CG step
    with the pointwise shift ``d = max(-f'(u), 0)``, its CG stopped at the
    forcing term ``max(1e-12, min(FORCING, (r / r0)^2))`` of the residual
    ``r`` (``r0`` at the bracket end), halved until the iterate is positive
    and inside the bracket (:func:`_monotone_iterate`; ConvergenceError on a
    refused solve, no admissible halving or ``maxiter`` steps).  Stops once
    the sup-norm step is below ``tol_step`` and the residual below the
    larger of ``tol_residual`` and the round-off floor of ``P u``, which is
    then ``extras["residual_floor"]``.

    Soundness: in absorption mode ``f' < 0``, so when ``P`` is positive
    definite (lambda_1 > 0), ``u -> P u - f(u)`` is strictly monotone and the
    positive solution inside the bracket is unique; the returned field is
    then the limit of the monotone iteration, from either end.  When
    lambda_1 <= 0 the claim is only a solution inside the bracket.

    ``iterations`` counts the steps on the caller's grid, ``extras.levels``
    the grids, and ``monotone_ok`` says whether every step on the coarsest
    grid, which starts from its bracket end, moved away from it (Newton may
    overshoot by O(error^2)).  An invalid bracket (:func:`verify_bracket`)
    raises BracketError.
    """
    prob.validate_exponents(op.params)
    scale = max(prob.A.max(), abs(op.params.beta), 1.0)
    sub_ok, super_ok = verify_bracket(op, prob, bracket, slack=1e-10 * scale)
    if not (sub_ok and super_ok):
        raise BracketError(f"bracket invalid (sub_ok={sub_ok}, super_ok={super_ok})")
    if start not in ("sub", "super"):
        raise ValueError("start must be 'sub' or 'super'")
    u, resid, its, monotone_ok, levels = _nested_solve(
        op, prob, bracket, +1 if start == "sub" else -1, tol_step, tol_residual, maxiter)
    return SolverReport(
        u=ScalarField(op.grid, u),
        residual=resid,
        iterations=its,
        converged=True,
        method=f"monotone-{start}",
        monotone_ok=monotone_ok,
        bracket=bracket,
        extras={**floor_flag(op, u, resid, tol_residual), "levels": levels},
    )


def epsilon_continuation(op: PaneitzOperator, prob: ProblemSpec,
                         eps_schedule, tol_step: float = 1e-10,
                         tol_residual: float = 1e-8,
                         maxiter: int = 100) -> SolverReport:
    """Continuation B -> B + eps for absorption problems with B >= 0.

    The first schedule entry is solved as :func:`monotone_solve` solves from
    the subsolution, on a grid that nests from the half grid's solution.
    Each later entry takes the same steps on the caller's grid, starting
    from the previous solution, with its forcing term measured from the
    residual there; since shrinking eps raises the right side, the
    previous solution is a subsolution of the next problem and the solutions
    are pointwise nondecreasing along the schedule.  The schedule must be
    nonincreasing and nonnegative; a trailing 0 entry finishes with an exact
    solve of the target problem whenever it admits a bracket.

    The report's solution is the last entry's; its ``monotone_ok`` holds when
    every step of every entry moved upward (for the first entry, every step
    on its coarsest grid).  Each trace entry carries its step count on the
    caller's grid, ``newton_steps``, and the extras record the first entry's
    ``levels``, the sup-norm Cauchy differences, the cross-entry
    monotonicity flag, and the uniform lower bound observed.  A collapsing
    lower bound is reported as a non-converged result with diagnostics
    rather than raised.
    """
    if prob.mode != ABSORPTION:
        raise ValueError("continuation applies to the absorption mode")
    if prob.B.min() < 0.0:
        raise ValueError("continuation requires B >= 0 pointwise")
    schedule = [float(e) for e in eps_schedule]
    if not schedule:
        raise ValueError("empty schedule")
    if any(e < 0 for e in schedule):
        raise ValueError("schedule entries must be nonnegative")
    if any(b > a + 1e-15 for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be nonincreasing")

    prev: np.ndarray | None = None
    trace = []
    diffs = []
    eps_monotone_ok = True
    steps_monotone_ok = True
    lower_bound = np.inf
    for eps in schedule:
        prob_eps = prob.with_B(prob.B + eps)
        bracket = find_sub_super(op, prob_eps)
        if prev is None:
            u, resid, its, entry_monotone_ok, levels = _nested_solve(
                op, prob_eps, bracket, +1, tol_step, tol_residual, maxiter)
        else:
            # warm start: the previous solution subsolves the new problem
            u, resid, its, entry_monotone_ok = _monotone_iterate(
                op, prob_eps, prev, np.minimum(prev, bracket.lower.values),
                np.maximum(prev, bracket.upper.values), +1,
                tol_step, tol_residual, maxiter,
            )
        steps_monotone_ok = steps_monotone_ok and entry_monotone_ok
        if prev is not None:
            diffs.append(float(np.abs(u - prev).max()))
            if float((u - prev).min()) < -ORDER_SLACK * max(u.max(), 1.0):
                eps_monotone_ok = False
        lower_bound = min(lower_bound, float(u.min()))
        trace.append({"eps": eps, "min_u": float(u.min()), "residual": resid,
                      "newton_steps": its, **floor_flag(op, u, resid, tol_residual)})
        prev = u

    cauchy_ok = all(b <= a * 1.5 + 1e-14 for a, b in zip(diffs, diffs[1:]))
    scale = max(prob.A.max(), 1.0)
    degenerate = lower_bound <= 1e-10 * scale
    report = SolverReport(
        u=ScalarField(op.grid, u), residual=resid, iterations=its,
        converged=not degenerate, method="epsilon-continuation",
        monotone_ok=steps_monotone_ok, bracket=bracket, eps_trace=trace,
        extras={
            "cauchy_diffs": diffs,
            "cauchy_ok": bool(cauchy_ok),
            "eps_monotone_ok": bool(eps_monotone_ok),
            "uniform_lower_bound": float(lower_bound),
            "levels": levels,
        },
    )
    if degenerate:
        report.extras["degenerate_lower_bound"] = True
    return report
