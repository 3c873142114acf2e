"""Semi-implicit gradient flow toward steady states of the singular equation.

The linear part is treated implicitly and the reaction explicitly:

    (P + 1/tau) u_{m+1} = u_m / tau + f(x, u_m)

Positivity of each step is monitored; a step that loses positivity is
rejected and retried with half the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SolverError
from .geometry import ScalarField
from .operator import PaneitzOperator
from .problems import (
    ProblemSpec,
    SolverReport,
    energy,
    floor_flag,
    reaction,
    residual_sup,
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

    def record(vals, tnow):
        samples.append(FlowSample(
            time=tnow,
            residual=residual_sup(op, prob, vals),
            min_u=float(vals.min()),
            max_u=float(vals.max()),
            energy=energy(op, prob, 0.0, ScalarField(grid, vals)),
        ))

    record(u, t)
    resid = samples[0].residual
    converged = resid <= max(tol_residual, op.roundoff_floor(u))
    while t < tmax and not converged:
        rhs = u / tau + reaction(prob, u)
        unew = op.solve_shifted(1.0 / tau, rhs, x0=u)
        if float(unew.min()) <= 0.0:
            halvings += 1
            if halvings > max_halvings:
                raise SolverError(
                    f"positivity lost and step halved {max_halvings} times"
                )
            tau *= 0.5
            continue
        u = unew
        t += tau
        steps += 1
        if steps % sample_every == 0:
            record(u, t)
        resid = residual_sup(op, prob, u)
        converged = resid <= max(tol_residual, op.roundoff_floor(u))
    if samples[-1].time != t:
        record(u, t)

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
