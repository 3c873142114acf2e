"""Principal eigenpair, discrete Sobolev constant, sign of the conformal
invariant, energy norm, and a proof of inverse positivity by comparison
with a constant-coefficient kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoercivityError, ConvergenceError
from .geometry import ScalarField, lebesgue_norm
from .operator import PaneitzOperator, _ladder, _on_grid, _prolong, backtrack, newton

__all__ = [
    "EigenPair",
    "PositivityReport",
    "principal_eigenpair",
    "rayleigh_quotient",
    "sobolev_constant",
    "invariant_sign",
    "energy_norm",
    "positivity_check",
]

# relative tolerance (against the beta scale) below which the first
# eigenvalue is declared zero; discrete spectra never hit 0 exactly
ZERO_EIGENVALUE_RTOL = 1e-9

# iterations after which a descent on the quotient gives up
DESCENT_CAP = 10000


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue and max-normalized eigenfunction.

    ``positive`` records whether the eigenfunction came out strictly positive
    (it should, for a coercive operator with positive inverse); a violation is
    reported here rather than silently fixed.  ``iterations`` counts the
    descent's iterations on the caller's grid (:func:`principal_eigenpair`).
    """

    lambda1: float
    phi1: ScalarField
    residual: float
    iterations: int
    positive: bool


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    lambda1: float
    kernel_floor: float
    reason: str


def rayleigh_quotient(op: PaneitzOperator, u: ScalarField) -> float:
    """<u, P u> / <u, u> with quadrature weights."""
    denom = op.grid.inner(u.values, u.values)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient of the zero field")
    return op.form(u) / denom


def _scale(op: PaneitzOperator) -> float:
    """Operator scale the iteration residuals are measured against."""
    return max(abs(op.params.beta), float(np.abs(op.W.values).max()), 1.0)


def _gradient(grid, v: np.ndarray, pv: np.ndarray,
              e: float) -> tuple[float, np.ndarray]:
    """Quotient ``Q = <v, P v>`` of an ``L^e``-normalized ``v`` and the
    Euler-Lagrange residual ``P v - Q |v|^(e-2) v``, half the gradient of
    the quotient there, given ``pv = P v``."""
    Q = grid.inner(v, pv)
    return Q, pv - Q * np.abs(v) ** (e - 2.0) * v


def _newton_finish(op: PaneitzOperator, Q: float, v: np.ndarray,
                   pv: np.ndarray, e: float,
                   target: float) -> tuple[float, np.ndarray] | None:
    """Newton's method on ``P w = |w|^(e-2) w`` from ``w = Q^(1/(e-2)) v``.

    The rescaling turns the normalized Euler-Lagrange equation of the
    descent's iterate ``v`` (with ``pv = P v`` and the positive quotient
    ``Q``) into an unnormalized one.  The Jacobian ``P - (e-1)|w|^(e-2)`` is
    indefinite (Morse index 1 at a ground state), so the steps are taken by
    :func:`~paneitzlab.operator.newton` with its matrix-free MINRES solve.
    Returns ``(Q, v)`` with ``v = w / ||w||_e`` once ``v`` meets the
    descent's stopping test, or None when a solve fails, the line search
    stagnates or 20 steps pass.
    """
    grid = op.grid
    found = []  # (Q, v) of the latest stopping test

    def done(w, pw, resid):
        norm = lebesgue_norm(grid, w, e)
        v = w / norm
        Q, g = _gradient(grid, v, pw / norm, e)
        found[:] = [Q, v]
        return float(np.abs(g).max()) <= max(target, op.roundoff_floor(v))

    c = Q ** (1.0 / (e - 2.0))
    stop = newton(op, lambda w: np.abs(w) ** (e - 2.0) * w,
                  lambda w: (e - 1.0) * np.abs(w) ** (e - 2.0),
                  c * v, c * pv, done, 20)[3]
    return tuple(found) if stop == "done" else None


def _descent(op: PaneitzOperator, start: np.ndarray, e: float,
             tol: float) -> tuple[float, np.ndarray, int]:
    """Minimum of ``J(v) = <v, P v> / ||v||_e^2`` by preconditioned nonlinear
    conjugate gradients from the grid values ``start`` (Antoine, Levitt &
    Tang, J. Comput. Phys. 343, 2017); returns ``(Q, v, iterations)`` with
    ``||v||_e = 1``.

    Polak-Ribiere+ directions ``d`` of ``z = (sigma + c)^{-1} g``
    (:meth:`PaneitzOperator.preconditioner`, shifted by ``-Q`` while
    ``Q < 0``), whose image ``P z = g - c z + W z`` takes no transform;
    ``P v`` and ``P d`` follow by recurrence, with ``P v`` applied afresh
    every 20 iterations, so an iteration costs one transform pair.  The
    step goes to the root of ``J'`` on the line: the Rayleigh-Ritz step on
    ``span{v, d}`` for ``e = 2`` (Knyazev, SIAM J. Sci. Comput. 23, 2001),
    refined by secant steps for ``e > 2``, and halved while ``J`` rises.
    Stops when ``||g||_inf`` of a freshly applied ``P v`` is within ``tol``
    times the operator scale or :meth:`PaneitzOperator.roundoff_floor`,
    whichever is larger; raises ConvergenceError naming the grid after
    ``DESCENT_CAP`` iterations.  For ``e > 2`` it tries
    :func:`_newton_finish` once at ``1e-4`` times the scale and keeps its
    result unless that raises ``Q``.
    """
    grid, W, scale = op.grid, op.W.values, _scale(op)
    precondition, c = op.preconditioner(0.0)
    handover = e > 2.0  # the Newton finish is still to be tried
    v = start / lebesgue_norm(grid, start, e)
    pv, fresh = op.apply_values(v), True
    d = None
    its = 0
    while True:
        Q, g = _gradient(grid, v, pv, e)
        resid = float(np.abs(g).max())
        floor = max(tol * scale, op.roundoff_floor(v))
        if resid <= (max(1e-4 * scale, floor) if handover else floor):
            if not fresh:
                pv, fresh = op.apply_values(v), True
                continue
            if resid <= floor:
                return Q, v, its
            handover = False
            finish = _newton_finish(op, Q, v, pv, e, tol * scale)
            if finish is not None and finish[0] <= Q:
                return finish[0], finish[1], its
        if its == DESCENT_CAP:
            raise ConvergenceError(
                f"descent stalled at residual {resid / scale:.3e} {_on_grid(grid)}",
                residual=resid / scale)
        if Q < 0.0:
            precondition, c = op.preconditioner(-Q)
        z = precondition(g)
        pz, gz = g - c * z + W * z, grid.inner(g, z)
        if d is not None:
            beta = max(0.0, (gz - grid.inner(g_old, z)) / gz_old)
            d, pd = beta * d - z, beta * pd - pz
        if d is None or grid.inner(g, d) >= 0.0:  # restart downhill
            d, pd = -z, -pz
        g_old, gz_old = g, gz
        # J(v + t d) = N(t) / ||v + t d||_e^2 with N(t) = Q + 2 b t + dpd t^2;
        # J' has the sign of the quadratic A t^2 + B t + C when the norm is
        # expanded to second order (exact for e = 2), and C = <g, d> < 0
        ve = np.abs(v) ** (e - 2.0)
        b, dpd, C = grid.inner(v, pd), grid.inner(d, pd), grid.inner(g, d)
        n = grid.inner(ve * v, d)
        m = (2.0 - e) * n * n + (e - 1.0) * grid.inner(ve * d, d)
        A, B = dpd * n - b * m, dpd - Q * m
        t = -2.0 * C / (B + np.sqrt(max(B * B - 4.0 * A * C, 0.0)))
        if not (t > 0.0 and np.isfinite(t)):
            t = 1.0
        t_old, h_old = 0.0, C
        for _ in range(8 if e > 2.0 else 0):
            # secant steps on h(t) = J'(t) ||u||_e^2 / 2 at u = v + t d
            u = v + t * d
            ue = np.abs(u) ** (e - 2.0) * u
            h = b + dpd * t - (Q + (2.0 * b + dpd * t) * t) * grid.inner(ue, d) / grid.inner(ue, u)
            step = h * (t - t_old) / (h - h_old) if h != h_old else 0.0
            if not 0.0 < t - step < np.inf:
                break
            t, t_old, h_old = t - step, t, h
            if abs(step) <= 1e-12 * t:
                break

        def lower(cand, s):
            norm = lebesgue_norm(grid, cand, e)
            rise = (Q + (2.0 * b + dpd * s * t) * s * t) / norm**2 - Q
            return (norm, s) if rise <= 1e-14 * abs(Q) else None

        found = backtrack(v, t * d, lower)
        its += 1
        if found is None:
            d = None
            continue
        v, (norm, s) = found
        v = v / norm
        fresh = its % 20 == 0
        pv = op.apply_values(v) if fresh else (pv + s * t * pd) / norm


def principal_eigenpair(op: PaneitzOperator, tol: float = 1e-10) -> EigenPair:
    """Smallest eigenvalue of the operator: the minimum of the Rayleigh
    quotient by :func:`_descent` with ``e = 2``, whose stop test bounds
    ``||P v - lambda v||_inf`` by ``tol`` times the operator scale or the
    round-off floor.

    The descent starts from the constant field, except on a grid that nests
    (:func:`~paneitzlab.operator._ladder`): there the eigenvector of the
    operator on the half grid, with ``V`` taken by injection, is found the
    same way and its Fourier zero-padding is the start.
    """
    v = None
    for lop in reversed(_ladder(op)):
        lam, v, its = _descent(lop, np.ones(lop.grid.shape) if v is None else _prolong(v),
                               2.0, tol)
    # normalize to max = 1 with a positive peak
    v = v / v.flat[np.argmax(np.abs(v))]
    return EigenPair(
        lambda1=lam,
        phi1=ScalarField(op.grid, v),
        residual=float(np.abs(op.apply_values(v) - lam * v).max()),
        iterations=its,
        positive=bool(v.min() > 0.0),
    )


def invariant_sign(op: PaneitzOperator, eig: EigenPair | None = None) -> int:
    """Sign of the conformal invariant, read off the first eigenvalue.

    Returns -1, 0 or +1, with zero declared when |lambda1| is below
    ``ZERO_EIGENVALUE_RTOL`` relative to the beta scale.
    """
    if eig is None:
        eig = principal_eigenpair(op)
    scale = max(abs(op.params.beta), 1.0)
    if abs(eig.lambda1) <= ZERO_EIGENVALUE_RTOL * scale:
        return 0
    return 1 if eig.lambda1 > 0 else -1


def energy_norm(op: PaneitzOperator, u: ScalarField) -> float:
    """sqrt(<u, P u>).  Raises if the quadratic form is negative."""
    q = op.form(u)
    scale = max(abs(op.params.beta), 1.0) * op.grid.inner(u.values, u.values)
    if q < -1e-12 * max(scale, 1.0):
        raise CoercivityError(f"quadratic form is negative ({q:.3e}); norm undefined")
    return float(np.sqrt(max(q, 0.0)))


# -- Sobolev constant ---------------------------------------------------------


def critical_quotient(op: PaneitzOperator, u: ScalarField,
                      exponent: float | None = None) -> float:
    """<u, P u> / (integral |u|^e)^(2/e), e defaulting to the critical 2n/(n-4)."""
    e = op.params.two_sharp if exponent is None else exponent
    denom = lebesgue_norm(op.grid, u.values, e) ** 2
    if denom == 0.0:
        raise ValueError("quotient of the zero field")
    return op.form(u) / denom


def sobolev_constant(op: PaneitzOperator, exponent: float | None = None) -> float:
    """Best discrete constant S with ||u||_{L^e}^2 * S <= <u, P u>.

    Estimated by :func:`_descent` on the quotient ``<u, P u> / ||u||_e^2``
    from two starts, the principal eigenfunction and a bump at the most
    favorable point of the potential (which keeps the estimate equivariant
    under grid translations of W), or at the box center when W is constant;
    the smaller quotient wins.  For ``e > 2`` each run is finished by
    Newton's method once it is close.  An attained quotient, hence an upper
    estimate of the infimum.  With ``e = 2`` it is the first eigenvalue.

    When the operator is not positive definite (:func:`invariant_sign` not
    +1) the quotient of the principal eigenfunction is returned: zero or
    negative.  The value is grid-dependent and is only meaningful together
    with its grid's sizes and lengths.
    """
    grid = op.grid
    e = op.params.two_sharp if exponent is None else exponent
    eig = principal_eigenpair(op)
    if invariant_sign(op, eig) <= 0:
        return critical_quotient(op, eig.phi1, e)
    W = op.W.values
    # a constant potential has no favorable point: take the box center
    k = (np.unravel_index(int(np.argmin(W)), grid.shape) if np.ptp(W) > 0.0
         else tuple(m // 2 for m in grid.shape))
    width = min(grid.lengths) / 8.0
    r2 = 0.0
    for x, L in zip(grid.meshgrid(), grid.lengths):
        dx = np.abs(x - x[k])
        r2 = r2 + np.minimum(dx, L - dx) ** 2
    starts = (eig.phi1.values, np.exp(-r2 / (2.0 * width**2)))
    return float(min(_descent(op, s, e, 1e-10)[0] for s in starts))


# -- inverse positivity --------------------------------------------------------


def positivity_check(op: PaneitzOperator,
                     eig: EigenPair | None = None) -> PositivityReport:
    """Proof, without a linear solve, that ``P^{-1} >= 0`` entrywise.

    ``P = P0 - D`` with ``P0 = sigma + max W`` and ``D = diag(max W - W)``.
    When the kernel ``G0`` of ``P0`` is positive (one inverse FFT,
    :meth:`PaneitzOperator.comparison_floor`) and ``P`` is positive
    definite (:func:`invariant_sign` of ``eig``, computed when not given),
    ``rho(G0 D) < 1`` and ``P^{-1} = sum_k (G0 D)^k G0 >= G0`` (Varga,
    *Matrix Iterative Analysis*, ch. 3).  Reports ``kernel_floor``, the
    ratio ``min G0 / max G0``; ``reason`` is empty when the check passed,
    else "not positive definite" or "inconclusive: ...".
    """
    if eig is None:
        eig = principal_eigenpair(op)
    ok, floor = op.comparison_floor()
    if invariant_sign(op, eig) != 1:
        reason = "not positive definite"
    elif not ok:
        reason = f"inconclusive: kernel dips to {floor:.3e} of its maximum"
    else:
        reason = ""
    return PositivityReport(passed=not reason, lambda1=eig.lambda1,
                            kernel_floor=floor, reason=reason)
