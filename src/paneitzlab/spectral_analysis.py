"""Principal eigenpair, discrete Sobolev constant, sign of the conformal
invariant, energy norm, and a proof of inverse positivity by comparison
with a constant-coefficient kernel."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import CoercivityError, ConvergenceError
from .geometry import ScalarField, lebesgue_norm
from .operator import PaneitzOperator, _ladder, _on_grid, _prolong, newton

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


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue and max-normalized eigenfunction.

    ``positive`` records whether the eigenfunction came out strictly positive
    (it should, for a coercive operator with positive inverse); a violation is
    reported here rather than silently fixed.
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


def _inverse_iteration(op: PaneitzOperator, start: np.ndarray, e: float,
                       tol: float = 1e-10) -> tuple[float, np.ndarray, int]:
    """Nonlinear inverse power method for the quotient <u, P u> / ||u||_e^2.

    Solves ``P v = |u|^(e-2) u``, normalizes ``v`` in ``L^e`` and takes the
    quotient ``Q = <v, P v>``; for a positive definite ``P`` the quotient
    does not increase from one iterate to the next for any ``e >= 2``
    (Biezuner, Ercole & Martins, J. Funct. Anal. 257, 2009).  Stops when the
    Euler-Lagrange residual ``||P v - Q |v|^(e-2) v||_inf`` drops below
    ``tol`` times the operator scale or the operator's round-off floor,
    whichever is larger, and raises ``ConvergenceError`` after 20000
    iterations; returns ``(Q, v, iterations)``.

    The iteration converges only linearly, so for ``e > 2`` it tries
    :func:`_newton_finish` at iterations 10, 20, 40, ... and returns its
    result when it passes the same stopping test with a quotient no larger
    than the current one; otherwise it carries on from where it stopped.
    Either way the value is an attained quotient; the Newton value agrees
    with the inverse iteration's own limit to round-off but is not ordered
    against it, and can sit an ulp or two above it.
    """
    grid = op.grid
    scale = _scale(op)
    target = tol * scale
    v = start / lebesgue_norm(grid, start, e)
    resid = np.inf
    attempt = 10 if e > 2.0 else None
    for it in range(1, 20001):
        u = op.solve_shifted(0.0, np.abs(v) ** (e - 2.0) * v, tol=1e-14)
        v = u / lebesgue_norm(grid, u, e)
        pv = op.apply_values(v)
        Q, resid = _euler_lagrange(grid, v, pv, e)
        if resid <= max(target, op.roundoff_floor(v)):
            return Q, v, it
        if it == attempt:
            attempt *= 2
            finish = _newton_finish(op, Q, v, pv, e, target)
            if finish is not None and finish[0] <= Q:
                return finish[0], finish[1], it
    resid /= scale
    raise ConvergenceError(
        f"inverse iteration stalled at residual {resid:.3e}", residual=resid
    )


def _euler_lagrange(grid, v: np.ndarray, pv: np.ndarray,
                    e: float) -> tuple[float, float]:
    """Quotient ``Q = <v, P v>`` of an ``L^e``-normalized ``v`` and the
    residual ``||P v - Q |v|^(e-2) v||_inf``, given ``pv = P v``."""
    Q = grid.inner(v, pv)
    return Q, float(np.abs(pv - Q * np.abs(v) ** (e - 2.0) * v).max())


def _newton_finish(op: PaneitzOperator, Q: float, v: np.ndarray,
                   pv: np.ndarray, e: float,
                   target: float) -> tuple[float, np.ndarray] | None:
    """Newton's method on ``P w = |w|^(e-2) w`` from ``w = Q^(1/(e-2)) v``.

    The rescaling turns the normalized Euler-Lagrange equation of the
    inverse iteration's iterate ``v`` (with ``pv = P v`` and the positive
    quotient ``Q``) into an unnormalized one.  The Jacobian
    ``P - (e-1)|w|^(e-2)`` is indefinite (Morse index 1 at a ground state),
    so the steps are taken by :func:`~paneitzlab.operator.newton` with its
    matrix-free MINRES solve.  Returns ``(Q, v)`` with ``v = w / ||w||_e``
    once ``v`` meets the inverse iteration's stopping test, or None when a
    solve fails, the line search stagnates or 20 steps pass.
    """
    grid = op.grid
    found = []  # (Q, v) of the latest stopping test

    def done(w, pw, resid):
        norm = lebesgue_norm(grid, w, e)
        v = w / norm
        Q, r = _euler_lagrange(grid, v, pw / norm, e)
        found[:] = [Q, v]
        return r <= max(target, op.roundoff_floor(v))

    c = Q ** (1.0 / (e - 2.0))
    stop = newton(op, lambda w: np.abs(w) ** (e - 2.0) * w,
                  lambda w: (e - 1.0) * np.abs(w) ** (e - 2.0),
                  c * v, c * pv, done, 20)[3]
    return tuple(found) if stop == "done" else None


def _lobpcg(op: PaneitzOperator, start: np.ndarray,
            tol: float) -> tuple[float, np.ndarray, int]:
    """The smallest eigenpair of ``op`` by LOBPCG from the grid values
    ``start``, then its finish steps, as :func:`principal_eigenpair` states;
    returns ``(lambda, v, iterations)`` with ``v`` grid values of unit
    ``L^2`` norm."""
    grid, n, scale = op.grid, op.grid.npoints, _scale(op)
    pinv = op.preconditioner(max(0.0, -op.W.min()) + 0.05 * scale)
    P = spla.LinearOperator((n, n), dtype=float, matvec=lambda x: op.apply_values(
        x.reshape(grid.shape)).ravel())
    M = spla.LinearOperator((n, n), dtype=float,
                            matvec=lambda r: pinv(r.reshape(grid.shape)).ravel())
    if n < 5:
        v, it = np.linalg.eigh(P @ np.eye(n))[1][:, 0], 0
    else:
        tol_l2 = max(np.sqrt(grid.cell_weight) * tol * scale,
                     4.0 * op.roundoff_floor(np.ones(1)))
        _, X, hist = spla.lobpcg(P, start.reshape(n, 1), M=M, tol=tol_l2,
                                 maxiter=1000, largest=False,
                                 retResidualNormsHistory=True)
        v, it = X[:, 0], len(hist) - 2
    for step in range(6):
        v = v / lebesgue_norm(grid, v, 2.0)
        pv = P @ v
        lam, resid = _euler_lagrange(grid, v, pv, 2.0)
        if resid <= max(tol * scale, op.roundoff_floor(v)):
            break
        v = v - M @ (pv - lam * v)
    else:
        raise ConvergenceError(
            f"LOBPCG stalled at residual {resid / scale:.3e} {_on_grid(grid)}",
            residual=resid / scale)
    return float(lam), v.reshape(grid.shape), it + step


def principal_eigenpair(op: PaneitzOperator, tol: float = 1e-10) -> EigenPair:
    """Smallest eigenvalue of the operator by LOBPCG (Knyazev, SIAM J. Sci.
    Comput. 23, 2001).

    Preconditioned by :meth:`PaneitzOperator.preconditioner` shifted by
    ``max(0, -min W) + margin`` to stay positive.  LOBPCG's Euclidean
    residual is the ``L^2`` residual of the ``L^2``-normalized vector; it is
    asked for ``sqrt(cell weight) * tol * scale`` or four round-off floors
    of a unit vector, whichever is larger.  Up to five preconditioned
    inverse steps ``v - M (P v - lambda v)`` then damp its high-mode
    round-off until ``||P v - lambda v||_inf`` is within ``tol`` times the
    operator scale or :meth:`PaneitzOperator.roundoff_floor`, whichever is
    larger, else ``ConvergenceError`` naming the grid.  Under 5 grid points,
    where ``lobpcg`` turns dense, ``eigh`` solves it directly.

    LOBPCG starts from the constant field, except on a grid that nests
    (:func:`~paneitzlab.operator._ladder`): there the eigenvector of the
    operator on the half grid, with ``V`` taken by injection, is found the
    same way and its Fourier zero-padding is the start.  ``iterations``
    counts the LOBPCG iterations and finish steps on the caller's grid.
    """
    v = None
    for lop in reversed(_ladder(op)):
        lam, v, its = _lobpcg(lop, np.ones(lop.grid.shape) if v is None else _prolong(v), tol)
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

    Estimated by the unshifted nonlinear inverse iteration
    (:func:`_inverse_iteration`) from two starts, the principal
    eigenfunction and a bump at the most favorable point of the potential
    (which keeps the estimate equivariant under grid translations of W), or
    at the box center when W is constant; the smaller quotient wins.  For
    ``e > 2`` each run is finished by Newton's method once it is close.  An
    attained quotient, hence an upper estimate of the infimum.  With
    ``e = 2`` it is the first eigenvalue.

    When the operator is not positive definite (:func:`invariant_sign` not
    +1) there is nothing for the unshifted iteration to invert, and the
    quotient of the principal eigenfunction is returned: zero or negative.
    The value is grid-dependent and is only meaningful together with its
    grid's sizes and lengths.
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
    return float(min(_inverse_iteration(op, s, e)[0] for s in starts))


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
