"""Semi-implicit gradient flow toward steady states of the singular equation.

The linear part is treated implicitly and the reaction explicitly:

    (P + 1/tau) u_{m+1} = u_m / tau + f(x, u_m)

Positivity of each step is monitored; a step that loses positivity is
rejected and retried with half the step size.  Each step's linear solve is
inexact: it only has to cut the residual of ``P u = f(u)`` by
:data:`~paneitzlab.operator.FORCING` (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982), since the flow's own stopping test measures that
residual afresh.  The monotone solve's Newton steps share the constant, as
the cap of a forcing term that shrinks with the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .geometry import ScalarField
from .operator import FORCING, PaneitzOperator
from .problems import (
    ProblemSpec,
    SolverReport,
    energy,
    floor_flag,
    reaction,
)

__all__ = ["FlowSample", "parabolic_flow"]


@dataclass(frozen=True)
class FlowSample:
    time: float
    residual: float
    min_u: float
    max_u: float
    energy: float


def parabolic_flow(op: PaneitzOperator, prob: ProblemSpec, u0: ScalarField,
                   tau: float, tmax: float, tol_residual: float = 1e-8,
                   max_halvings: int = 20, sample_every: int = 10):
    """March the semi-implicit flow until the elliptic residual is at most
    ``tol_residual`` or the round-off floor of ``P u``, whichever is larger.

    Returns ``(report, samples)``.  Reaching ``tmax`` without a steady state
    is reported (``converged=False``), not raised; losing positivity after
    ``max_halvings`` step halvings is an error.  A stop the floor decided
    records it in ``extras["residual_floor"]``.

    Each step solves ``(P + 1/tau) v = u/tau + f(u)`` by conjugate gradients
    started from ``v = u`` with the ``P u`` the stopping test has just
    computed, so the first CG residual is ``f(u) - P u``, the residual ``r``
    of the elliptic equation.  CG stops at ``max(1e-12 |rhs|, FORCING r)`` in
    the sup norm, not at 1e-12: an exact step is wasted on a state the flow
    moves on from, while the stopping rule is unchanged, because the
    residual is measured afresh at every accepted state.
    """
    if tau <= 0 or tmax <= 0:
        raise ValueError("tau and tmax must be positive")
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    if u0.min() <= 0.0:
        raise ValueError("initial state must be positive")
    prob.validate_exponents(op.params)

    grid = op.grid
    u = u0.values.copy()
    t = 0.0
    halvings = 0
    samples: list[FlowSample] = []
    steps = 0

    def settle(vals, tnow, sample):
        """``(f(vals), P vals, residual, converged)`` at the state ``vals``.

        ``P vals`` is applied once; it also gives the energy of the sample
        taken here when ``sample`` holds or the flow stops at this state.
        """
        fvals, pvals = reaction(prob, vals), op.apply_values(vals)
        resid = float(np.abs(pvals - fvals).max())
        done = resid <= max(tol_residual, op.roundoff_floor(vals))
        if sample or done or tnow >= tmax:
            samples.append(FlowSample(
                time=tnow,
                residual=resid,
                min_u=float(vals.min()),
                max_u=float(vals.max()),
                energy=energy(op, prob, 0.0, ScalarField(grid, vals), pvalues=pvals),
            ))
        return fvals, pvals, resid, done

    fu, pu, resid, converged = settle(u, t, True)
    while t < tmax and not converged:
        # the right side u/tau + f(u) is formed in f(u)'s array; a rejected
        # step recomputes f(u)
        fu += u / tau
        tol = max(1e-12, FORCING * resid / float(np.abs(fu).max()))
        unew = op.solve_shifted(1.0 / tau, fu, tol=tol, x0=u, px0=pu)
        if float(unew.min()) <= 0.0:
            halvings += 1
            if halvings > max_halvings:
                raise SolverError(
                    f"positivity lost and step halved {max_halvings} times"
                )
            tau *= 0.5
            fu = reaction(prob, u)
            continue
        u = unew
        t += tau
        steps += 1
        fu, pu, resid, converged = settle(u, t, steps % sample_every == 0)

    report = SolverReport(
        u=ScalarField(grid, u),
        residual=resid,
        iterations=steps,
        converged=bool(converged),
        method="parabolic-flow",
        extras={"final_time": t, "tau": tau, "halvings": halvings,
                **floor_flag(op, u, resid, tol_residual)},
    )
    return report, samples
