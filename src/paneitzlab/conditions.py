"""Computable existence and non-existence certificates, and the threshold
coupling bracket with its empirical bisection.

Every certificate is a pure evaluation: the report carries both sides of the
inequality, the margin (oriented so that positive means the certificate
holds), and every ingredient value that entered it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq

from .errors import CertificateError, SolverError
from .geometry import ScalarField, lebesgue_norm
from .mountain_pass import mountain_pass_solve
from .operator import PaneitzOperator
from .problems import ABSORPTION, SOURCE, ProblemSpec, power_norm_order
from .spectral_analysis import EigenPair, energy_norm, principal_eigenpair, sobolev_constant

__all__ = [
    "ConditionReport",
    "LambdaStarResult",
    "tangent_slope_root",
    "ineq_denominator",
    "check_existence_ineq",
    "check_existence_cond",
    "check_nonexistence",
    "lambda_star_bracket",
    "lambda_star_bisect",
]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one certificate evaluation.

    ``margin = rhs - lhs`` after orienting the inequality so that a positive
    margin means the certificate holds.  ``conclusive`` is False when the
    certificate does not apply to the data (e.g. a vanishing coefficient
    makes an ingredient integral meaningless); then ``satisfied`` is False
    and the note explains why.
    """

    name: str
    satisfied: bool
    lhs: float
    rhs: float
    margin: float
    ingredients: dict = dc_field(default_factory=dict)
    conclusive: bool = True
    note: str = ""


@dataclass
class LambdaStarResult:
    """Threshold-coupling bracket for P u = 1/u^p + lambda u^q.

    ``lower`` is the largest coupling certified feasible by the existence
    condition with the constant trial function; ``upper`` the smallest
    coupling certified infeasible by the derived non-existence threshold.
    ``empirical`` (from bisection runs) carries the solver-observed
    threshold; the bisection never probes a coupling above ``upper``, where
    no solution exists.  ``probes`` logs each solver probe as ``lam``,
    ``feasible`` and, for an infeasible one, a ``reason``: the solver's
    exception class and message.
    """

    lower: float
    upper: float
    tolerance: float
    empirical: float | None = None
    printed_lower: float | None = None
    printed_upper: float | None = None
    ingredients: dict = dc_field(default_factory=dict)
    probes: list = dc_field(default_factory=list)
    anomaly: str = ""


# -- tangency threshold -------------------------------------------------------


def tangent_slope_root(a: float, b: float, p: float, q: float) -> tuple[float, float]:
    """Slope of the tangent through the origin to t -> a/t^p + b t^q.

    Closed form: t0 = (a(p+1) / (b(q-1)))^(1/(p+q)) and
    lambda_c = a/t0^(p+1) + b t0^(q-1).  A line lambda*t crosses the graph
    iff lambda >= lambda_c (two crossings for strict inequality).  The closed
    form is cross-verified against a bracketed root of f(t)/t - f'(t).
    """
    if not (a > 0 and b > 0):
        raise ValueError("coefficients must be positive")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if q <= 1:
        raise ValueError(f"no tangency for q <= 1 (got q={q}); the power part is sublinear")
    t0 = (a * (p + 1.0) / (b * (q - 1.0))) ** (1.0 / (p + q))
    lam_c = a / t0 ** (p + 1.0) + b * t0 ** (q - 1.0)
    g = lambda t: (a / t**p + b * t**q) / t - (-p * a / t ** (p + 1) + q * b * t ** (q - 1))
    t_num = brentq(g, t0 * 1e-3, t0 * 1e3, xtol=1e-300, rtol=1e-14)
    if abs(t_num - t0) > 1e-9 * t0:
        raise ArithmeticError(
            f"tangency cross-check failed: closed form {t0}, numeric {t_num}"
        )
    return float(t0), float(lam_c)


def ineq_denominator(p: float, q: float) -> float:
    """((q-1)/(p+1))^((p+1)/(p+q)) + ((p+1)/(q-1))^((q-1)/(p+q)).

    Algebraically equal to the unit-coefficient tangency slope
    ``tangent_slope_root(1, 1, p, q)[1]``, and to the minimum over X > 0 of
    ``[X^((q-1)/q) + K^((p+q)/q) X^(-(p+1)/q)] / K^((q-1)/q)``, attained at
    ``X* = ((p+1)/(q-1))^(q/(p+q)) * K`` (the non-existence certificate).
    """
    r = (q - 1.0) / (p + 1.0)
    return r ** ((p + 1.0) / (p + q)) + (1.0 / r) ** ((q - 1.0) / (p + q))


# -- existence certificates -----------------------------------------------------


def check_existence_ineq(op: PaneitzOperator, prob: ProblemSpec,
                         eig: EigenPair | None = None) -> ConditionReport:
    """Eigenvalue-vs-tangency existence certificate for the absorption sign.

    Compares max over the grid of
    ``A^((q-1)/(p+q)) * Bneg^((p+1)/(p+q)) * phi1^E`` (Bneg the negative part
    of B, phi1 max-normalized, E the exponent combination written out in the
    ingredients, which is identically zero) against ``lambda1 / D`` where D
    is :func:`ineq_denominator`.  Satisfied means a scaled first eigenfunction
    supersolves the problem, so the monotone scheme applies.
    """
    if prob.mode != ABSORPTION:
        raise CertificateError("the eigenvalue certificate addresses the absorption sign")
    if eig is None:
        eig = principal_eigenpair(op)
    phi = eig.phi1.values
    mx = float(np.abs(phi).max())
    phi = phi / mx
    if phi.min() <= 0.0:
        raise CertificateError("first eigenfunction is not positive; certificate void")
    p, q = prob.p, prob.q
    bneg = np.maximum(-prob.B.values, 0.0)
    expo_phi = q * (p + 1.0) / (p + q) - p * (q - 1.0) / (p + q) - 1.0
    lhs_field = (
        prob.A.values ** ((q - 1.0) / (p + q))
        * bneg ** ((p + 1.0) / (p + q))
        * phi**expo_phi
    )
    lhs = float(lhs_field.max())
    denom = ineq_denominator(p, q)
    rhs = eig.lambda1 / denom
    margin = rhs - lhs
    return ConditionReport(
        name="existence-eigenvalue-tangency",
        satisfied=bool(lhs <= rhs),
        lhs=lhs,
        rhs=rhs,
        margin=float(margin),
        ingredients={
            "lambda1": eig.lambda1,
            "denominator": denom,
            "phi1_exponent": expo_phi,
            "phi1_normalization": "max=1",
            "max_Bneg": float(bneg.max()),
        },
    )


def check_existence_cond(op: PaneitzOperator, prob: ProblemSpec,
                         phi: ScalarField | None = None,
                         S_psi: float | None = None) -> ConditionReport:
    """Energy-norm existence certificate for the source sign.

    lhs = ||phi||^(p-1) * ||B||_{L^s}^((p+1)/(q-1)) * int A / phi^(p-1)
    with s = 2#/(2#-q-1), against
    C = S^{-(q+1)(p+2q+1)/(2(q-1))} * (q-1)(p-1)/2.

    The left side is invariant under rescaling phi, so the constant trial
    function (the default) can be passed unnormalized.  Requires
    q < 2#-1 strictly; the borderline exponent degenerates the B-norm.
    """
    if prob.mode != SOURCE:
        raise CertificateError("the energy certificate addresses the source sign")
    s = power_norm_order(op.params, prob.q, strict=False)
    if math.isinf(s):
        warnings.warn(
            "borderline exponent q = 2#-1: using the sup norm of B",
            RuntimeWarning,
            stacklevel=2,
        )
    if phi is None:
        phi = ScalarField.constant(op.grid, 1.0)
    if phi.min() <= 0.0:
        raise CertificateError("trial function must be positive")
    if S_psi is None:
        S_psi = sobolev_constant(op)
    if S_psi <= 0.0:
        raise CertificateError(
            f"embedding constant {S_psi} is not positive; operator not coercive"
        )
    p, q = prob.p, prob.q
    nphi = energy_norm(op, phi)
    normB = lebesgue_norm(op.grid, prob.B.values, s)
    intA = op.grid.integrate(prob.A.values / phi.values ** (p - 1.0))
    lhs = nphi ** (p - 1.0) * normB ** ((p + 1.0) / (q - 1.0)) * intA
    C = S_psi ** (-(q + 1.0) * (p + 2.0 * q + 1.0) / (2.0 * (q - 1.0))) * (
        (q - 1.0) * (p - 1.0) / 2.0
    )
    return ConditionReport(
        name="existence-energy",
        satisfied=bool(lhs < C),
        lhs=float(lhs),
        rhs=float(C),
        margin=float(C - lhs),
        ingredients={
            "S_psi": S_psi,
            "norm_order_s": s,
            "norm_B": normB,
            "norm_phi": nphi,
            "int_A_over_phi": intA,
            "grid": f"{op.grid.sizes}x{op.grid.lengths}",
        },
    )


# -- non-existence --------------------------------------------------------------


def check_nonexistence(op: PaneitzOperator, prob: ProblemSpec) -> ConditionReport:
    """Integral-identity non-existence certificate (source sign).

    Integrating the equation kills the differential part, leaving
    ``int W u = int A/u^p + int B u^q`` with W the full zeroth-order
    potential.  Dual Hoelder bounds force, for any positive solution,

        X^((q-1)/q) + K^((p+q)/q) X^(-(p+1)/q) <= (int (W+)^{q/(q-1)} B^{-1/(q-1)})^((q-1)/q)

    at X = int B u^q, with K = int A^(q/(p+q)) B^(p/(p+q)).  The certificate
    fires when even the minimum over X > 0 of the left side (attained at
    X* = ((p+1)/(q-1))^(q/(p+q)) K, value K^((q-1)/q) times
    :func:`ineq_denominator`) exceeds the right side.  The literal
    published expression is evaluated alongside for transparency; only the
    derived minimum is load-bearing.
    """
    if prob.mode != SOURCE:
        raise CertificateError(
            "the integral-identity certificate addresses the source sign; "
            "set the problem mode accordingly"
        )
    p, q = prob.p, prob.q
    grid = op.grid
    if prob.B.min() <= 0.0:
        return ConditionReport(
            name="nonexistence-integral",
            satisfied=False,
            lhs=float("nan"),
            rhs=float("nan"),
            margin=float("nan"),
            conclusive=False,
            note="no conclusion: B vanishes somewhere, the dual weight B^(-1/(q-1)) degenerates",
        )
    A, B = prob.A.values, prob.B.values
    K = grid.integrate(A ** (q / (p + q)) * B ** (p / (p + q)))
    wplus = np.maximum(op.W.values, 0.0)
    rhs_W = grid.integrate(wplus ** (q / (q - 1.0)) * B ** (-1.0 / (q - 1.0))) ** (
        (q - 1.0) / q
    )
    mconst = ineq_denominator(p, q)
    derived = K ** ((q - 1.0) / q) * mconst
    xstar = ((p + 1.0) / (q - 1.0)) ** (q / (p + q)) * K

    # literal published left side, with the bare curvature-potential weight
    qpsi_plus = np.maximum(op.params.Qconst - op.V.values, 0.0)
    rhs_printed = grid.integrate(
        qpsi_plus ** (q / (q - 1.0)) * B ** (-1.0 / (q - 1.0))
    ) ** ((q - 1.0) / q)
    ratio = (q - 1.0) / (p + 1.0)
    denom2 = p + q - 2.0
    printed = K ** ((p + q) * (q - 3.0) / (q * denom2)) * (
        ratio ** ((1.0 - q) / denom2) * K ** ((p + q) * 2.0 / (q * denom2))
        + ratio ** ((p + 1.0) / denom2)
    )

    return ConditionReport(
        name="nonexistence-integral",
        satisfied=bool(derived > rhs_W),
        lhs=float(rhs_W),
        rhs=float(derived),
        margin=float(derived - rhs_W),
        ingredients={
            "K": float(K),
            "X_star": float(xstar),
            "min_constant": mconst,
            "rhs_potential_weighted": float(rhs_W),
            "rhs_bare_curvature": float(rhs_printed),
            "printed_formula_value": float(printed),
            "printed_vs_derived": float(printed - derived),
        },
    )


# -- threshold coupling ----------------------------------------------------------


def _constant_problem(op: PaneitzOperator, lam: float, p: float,
                      q: float) -> ProblemSpec:
    grid = op.grid
    return ProblemSpec(
        A=ScalarField.constant(grid, 1.0),
        B=ScalarField.constant(grid, lam),
        p=p,
        q=q,
        mode=SOURCE,
    )


def lambda_star_bracket(op: PaneitzOperator, p: float, q: float,
                        S_psi: float | None = None) -> LambdaStarResult:
    """Certified bracket [lower, upper] for the threshold coupling.

    Both ends come from the implemented certificates, exploiting that for
    B = lambda (constant) the certificate sides are exact monomials in
    lambda:

    * existence side scales as lambda^((p+1)/(q-1)), so
      lower = (C / lhs(1))^((q-1)/(p+1));
    * non-existence sides scale as lambda^(p(q-1)/(q(p+q))) and
      lambda^(-1/q), giving upper = (rhs(1)/derived_min(1))^((p+q)/(p+1)).

    The published closed-form bounds are evaluated literally and reported
    alongside; they are not load-bearing.  When ``lower > upper`` the two
    certificates contradict each other, and ``anomaly`` says that the
    existence certificate over-certifies there.
    """
    if S_psi is None:
        S_psi = sobolev_constant(op)
    s = power_norm_order(op.params, q, strict=True)
    prob1 = _constant_problem(op, 1.0, p, q)
    scale = max(abs(op.params.beta), 1.0)
    coercive = S_psi > 1e-12 * scale
    if coercive:
        cond1 = check_existence_cond(op, prob1, S_psi=S_psi)
        C = cond1.rhs
        lower = (C / cond1.lhs) ** ((q - 1.0) / (p + 1.0))
        cond_lhs1 = cond1.lhs
    else:
        # degenerate embedding: nothing is certified feasible
        lower, C, cond_lhs1 = 0.0, float("nan"), float("nan")

    non1 = check_nonexistence(op, prob1)
    if not non1.conclusive:
        raise CertificateError("non-existence certificate inapplicable at lambda = 1")
    derived1 = non1.rhs
    rhs1 = non1.lhs
    upper = 0.0 if rhs1 == 0.0 else (rhs1 / derived1) ** ((p + q) / (p + 1.0))

    # literal published bounds (typo-laden exponents evaluated as printed,
    # reading the doubled p as p^2); recorded for comparison only
    grid = op.grid
    vol = grid.volume
    qpsi = op.params.Qconst - op.V.values
    int_qpsi = grid.integrate(qpsi)
    bn = op.params.b_n
    two_sharp = op.params.two_sharp
    printed_lower = None
    if int_qpsi > 0 and coercive:
        printed_lower = (
            vol ** (-(two_sharp - q - 1.0) / two_sharp)
            * C
            * (bn * int_qpsi) ** (-(p - 1.0))
        ) ** ((q - 1.0) / (p + 1.0))
    norm_qpsi = lebesgue_norm(grid, qpsi, q / (q - 1.0))
    printed_upper = (
        vol ** (-(p + q) * (q - 1.0) / (p * q + q - 2.0))
        * ((q - 1.0) / (p + 1.0)) ** (q * (q - 1.0) / (p**2 + q - 2.0))
        * norm_qpsi ** (q * (p + q - 2.0) / (p * q + q - 2.0))
    )

    anomaly = ""
    if lower > upper:
        anomaly = (f"certified lower end {lower} exceeds the certified upper end "
                   f"{upper}: the existence certificate over-certifies here")
    return LambdaStarResult(
        lower=float(lower),
        upper=float(upper),
        tolerance=0.0,
        printed_lower=printed_lower,
        printed_upper=float(printed_upper),
        ingredients={
            "S_psi": S_psi,
            "norm_order_s": s,
            "coercive": coercive,
            "cond_lhs_at_1": cond_lhs1,
            "cond_constant": C,
            "nonexistence_derived_at_1": derived1,
            "nonexistence_rhs_at_1": rhs1,
            "K_at_1": non1.ingredients.get("K"),
            "volume": vol,
        },
        anomaly=anomaly,
    )


def lambda_star_bisect(op: PaneitzOperator, p: float, q: float, tol: float,
                       solver_budget: int = 60,
                       S_psi: float | None = None,
                       mp_kwargs: dict | None = None) -> LambdaStarResult:
    """Empirical threshold by bisection on solver feasibility inside [0, upper].

    Feasibility at a coupling means the solver (monotone at 0, minimax
    above) returns: it raises unless its field is converged and positive,
    and an infeasible probe records that exception as its ``reason``.
    Couplings above ``upper`` are never probed, because none can be
    feasible: integrating the equation leaves ``int W u`` on the left (the
    spectral part has zero mean), and the non-existence certificate rules
    that identity out for every coupling above ``upper``.  After the base
    probe at 0 the search probes ``upper``; if it is feasible the empirical
    value is ``upper``, otherwise [0, upper] is bisected down to ``tol`` or
    until ``solver_budget`` probes are spent.  With ``upper == 0`` no
    minimax probe runs.  The dichotomy is assumed (feasible couplings form
    an interval down from 0).  The certified lower end does not start the
    search, since the energy certificate can over-certify; an empirical
    value outside [lower, upper] is flagged as an anomaly, appended to the
    bracket's own after ``"; "``.  Probes evaluate
    no certificate, since the interesting couplings lie beyond the
    certified-existence region, so no probe raises CertificateError.  Only a
    SolverError marks a probe infeasible: a CoercivityError (``S_psi <= 0``,
    the operator is not coercive) aborts the whole search.
    """
    if S_psi is None:
        S_psi = sobolev_constant(op)
    result = lambda_star_bracket(op, p, q, S_psi=S_psi)
    result.tolerance = float(tol)
    mp_kwargs = dict(mp_kwargs or {})
    mp_kwargs.setdefault("S_psi", S_psi)

    budget = [int(solver_budget)]

    def probe(lam: float) -> bool:
        budget[0] -= 1
        try:
            # at lam = 0 the solver runs the monotone scheme of the absorption sign
            mountain_pass_solve(op, _constant_problem(op, lam, p, q), **mp_kwargs)
        except SolverError as exc:
            result.probes.append({"lam": lam, "feasible": False,
                                  "reason": f"{type(exc).__name__}: {exc}"})
            return False
        result.probes.append({"lam": lam, "feasible": True})
        return True

    def flag(text: str) -> None:
        result.anomaly = f"{result.anomaly}; {text}" if result.anomaly else text

    if not probe(0.0):
        flag("coupling 0 infeasible; dichotomy violated at the base point")
        return result
    lo, hi = 0.0, result.upper
    if hi > 0.0 and probe(hi):
        lo = hi
    while hi - lo > tol and budget[0] > 0:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    result.empirical = lo
    result.ingredients["interval"] = [lo, hi]
    result.ingredients["budget_left"] = budget[0]
    slack = 1e-9 * max(1.0, result.upper)
    if not (result.lower - slack <= result.empirical <= result.upper + slack):
        flag(f"empirical {result.empirical} escaped the certified bracket "
             f"[{result.lower}, {result.upper}]")
    return result
