"""Discrete fourth-order operator: constant-coefficient spectral symbol plus a
multiplication potential.

The operator acts as ``ifft(sigma(t) * fft(u)) + W * u`` with symbol
``sigma(t) = t^2 + alpha * t`` and potential ``W(x) = b_n * (Qconst - V(x))``
where ``V = |grad psi|^2`` (or any user-supplied nonnegative potential).  With
``psi = 0`` the potential is the constant ``beta = b_n * Qconst``, which makes
the whole operator diagonal in frequency space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    CoercivityError,
    ConvergenceError,
    GridMismatchError,
    PaneitzLabError,
)
from .geometry import GeometryParams, ScalarField, SpectralGrid, gradient_squared

__all__ = ["PaneitzOperator", "backtrack", "build_operator", "newton"]

# forcing term of inexact outer iterations (Dembo, Eisenstat & Steihaug, SIAM
# J. Numer. Anal. 19, 1982): the largest factor by which a step's conjugate
# gradients must cut the residual they start from, shared by the flow and the
# monotone solve
FORCING = 1e-2


class PaneitzOperator:
    """Immutable handle for the discretized operator; it holds no mutable
    state, so threads may share it.

    Parameters
    ----------
    params : GeometryParams
        Analytic coefficients (alpha, beta, b_n, Qconst, ...).
    grid : SpectralGrid
        Periodic lattice the operator acts on.
    V : ScalarField, optional
        Nonnegative potential entering as ``W = b_n * (Qconst - V)``.
        Defaults to zero, i.e. ``W = beta`` everywhere.
    """

    # dense assembly is refused above this many grid points
    MAX_DENSE = 4096

    def __init__(self, params: GeometryParams, grid: SpectralGrid,
                 V: ScalarField | None = None):
        self.params = params
        self.grid = grid
        if V is None:
            V = ScalarField.constant(grid, 0.0)
        elif V.grid != grid:
            raise GridMismatchError("potential lives on a different grid")
        self.V = V
        self.W = ScalarField(grid, params.b_n * (params.Qconst - V.values))
        t = grid.laplacian_eigenvalues
        self.sigma = t * (t + params.alpha)
        self._sigma_half = grid.half(self.sigma)

    # -- basic algebra ------------------------------------------------------

    def _check_grid(self, u: ScalarField) -> None:
        if u.grid != self.grid:
            raise GridMismatchError("field lives on a different grid")

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        out = self.grid.irfft(self._sigma_half * self.grid.rfft(values))
        out += self.W.values * values
        return out

    def apply(self, u: ScalarField) -> ScalarField:
        """P u, exact in the symbol part for band-limited fields."""
        self._check_grid(u)
        return ScalarField(self.grid, self.apply_values(u.values))

    def form(self, u: ScalarField) -> float:
        """Quadratic form <u, P u> with quadrature weights."""
        self._check_grid(u)
        return self.grid.inner(u.values, self.apply_values(u.values))

    def comparison_floor(self) -> tuple[bool, float]:
        """``(ok, min G0 / max G0)`` for the kernel ``G0`` of the comparison
        operator ``sigma + max W``, one inverse FFT.

        ``ok`` when the ratio clears the FFT round-off ``4 eps log2 N``; with
        ``P`` positive definite, ``P^{-1} >= G0 >= 0`` then (see
        :func:`~paneitzlab.spectral_analysis.positivity_check`).  The ratio
        is ``-inf`` when ``max W <= 0``: there is no such operator.
        """
        c = float(self.W.max())
        if c <= 0.0:
            return False, float("-inf")
        G0 = self.grid.irfft(1.0 / (self._sigma_half + c))
        floor = float(G0.min() / G0.max())
        roundoff = 4.0 * np.finfo(float).eps * np.log2(self.grid.npoints)
        return bool(floor > roundoff), floor

    def roundoff_floor(self, values: np.ndarray) -> float:
        """Sup-norm round-off of ``P v``: ``eps * (max sigma + max |W|) * max |v|``.

        A residual of ``P v`` minus anything is not resolved below this, so
        iterations stop at the larger of their tolerance and this floor.
        """
        return float(
            np.finfo(float).eps
            * (self.sigma.max() + np.abs(self.W.values).max())
            * np.abs(values).max()
        )

    # -- linear solves --------------------------------------------------------

    def preconditioner(self, lam):
        """``(apply, c)``: ``apply`` inverts the constant-coefficient part
        ``sigma + c`` on grid values, ``c = mean(W) + mean(lam)`` or a small
        positive stand-in when that is not positive.  ``lam`` is a scalar
        shift or a pointwise one; ``apply`` is exact for a constant potential
        and a constant shift."""
        c = float(np.mean(self.W.values)) + float(np.mean(lam))
        if c <= 0.0:
            scale = abs(self.params.beta) + abs(self.W.values).max() + float(np.abs(lam).max())
            c = max(1e-8 * max(scale, 1.0), 1e-12)
        # numpy divides a complex array by a real one as a product with the
        # reciprocal, so multiplying by it keeps the quotient's bits
        inv = 1.0 / (self._sigma_half + c)
        return (lambda r: self.grid.irfft(self.grid.rfft(r) * inv)), c

    def solve_shifted(self, lam, rhs: np.ndarray, tol: float = 1e-12,
                      x0: np.ndarray | None = None,
                      px0: np.ndarray | None = None) -> np.ndarray:
        """Solve (P + lam) u = rhs by preconditioned conjugate gradients.

        ``lam`` is a scalar shift or a pointwise one (an array on the grid,
        acting as ``diag lam``).  Takes and returns grid values, like
        :meth:`apply_values`; ``x0`` is an optional starting guess and
        ``px0`` an optional ``P x0`` the caller already holds, which spares
        the transform pair of the first residual (the same bits as applying
        ``P`` here; ``px0`` without ``x0`` raises ValueError).  The
        preconditioner inverts the constant-coefficient part
        ``sigma(t) + c`` with ``c = mean(W) + mean(lam)`` in frequency space,
        which is exact when the potential and the shift are constant.  As
        ``sigma (sigma + c)^{-1} = I - c (sigma + c)^{-1}``, the symbol part of
        ``P z`` for a preconditioned residual ``z`` is ``r - c z``, so
        ``sigma p`` is carried by the recurrence of ``p`` (Eisenstat, SIAM J.
        Sci. Stat. Comput. 2, 1981) and an iteration costs one transform pair,
        the preconditioner's.  Stops at
        relative sup-norm residual ``tol``; raises ConvergenceError past
        10000 iterations and CoercivityError at any nonpositive curvature.
        That curvature test is the only definiteness check: ``P + lam`` may be
        positive definite where the potential or the shift is negative, and
        such a system solves.  A right side off the grid's shape raises
        GridMismatchError, a non-finite one ValueError.
        """
        if rhs.shape != self.grid.shape:
            raise GridMismatchError(
                f"right side has shape {rhs.shape}, grid has {self.grid.shape}"
            )
        if px0 is not None and x0 is None:
            raise ValueError("px0 is P x0 and needs x0")
        bnorm = float(np.abs(rhs).max())
        if not np.isfinite(bnorm):
            raise ValueError("right side must be finite")
        if bnorm == 0.0:
            return np.zeros(self.grid.shape)
        pinv, c = self.preconditioner(lam)
        diag = self.W.values + lam
        if x0 is None:
            x, r = np.zeros_like(rhs), rhs.copy()
        else:
            x = x0.copy()
            r = rhs - (self.apply_values(x) if px0 is None else px0) - lam * x
        z = pinv(r)
        p = z.copy()
        sp = r - c * z  # sigma p
        # updated in place, so an iteration allocates only the preconditioner's output
        Ap, tmp = np.empty_like(p), np.empty_like(p)
        rz = float(np.vdot(r, z))
        for _ in range(10000):
            last = float(max(r.max(), -r.min())) / bnorm
            if last <= tol:
                return x
            np.multiply(diag, p, out=Ap)
            Ap += sp
            pAp = float(np.vdot(p, Ap))
            if pAp <= 0.0 or rz <= 0.0:
                raise CoercivityError(
                    "conjugate gradients met a nonpositive curvature direction "
                    f"at relative residual {last:.3e}; operator indefinite "
                    "under shift"
                )
            a = rz / pAp
            x += np.multiply(a, p, out=tmp)
            r -= np.multiply(a, Ap, out=tmp)
            z = pinv(r)
            rz_new = float(np.vdot(r, z))
            beta = rz_new / rz
            p *= beta
            p += z
            sp *= beta
            sp += np.subtract(r, np.multiply(c, z, out=tmp), out=tmp)
            rz = rz_new
        raise ConvergenceError(
            f"linear solve stalled at relative residual {last:.3e}", residual=last
        )

    def solve_linearized(self, fp: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(P - diag fp) x = rhs`` by preconditioned MINRES, matrix-free.

        The Jacobian of ``P u = f(u)`` at ``u`` with ``fp = f'(u)``; it may be
        indefinite, so MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12,
        1975) with the positive preconditioner :meth:`preconditioner`
        ``(0.0)`` is used instead of conjugate gradients.  The recurrences
        and stop tests are scipy's ``minres``: it stops once
        ``||r|| / (||A|| ||x||)`` or ``||A r|| / (||A|| ||r||)`` is at most
        1e-10 (or the condition estimate reaches ``0.1 / eps``).  MINRES
        multiplies only by Lanczos vectors ``v = M r / beta`` with ``M`` the
        preconditioner ``(sigma + c)^{-1}``, and ``sigma M r = r - c M r``, so
        ``(P - diag fp) v = r / beta + (W - fp - c) v`` needs no transform
        and an iteration costs one transform pair, the preconditioner's, as
        in :meth:`solve_shifted`.  Raises ConvergenceError when it has not
        stopped within ``4 * npoints`` iterations.
        """
        pinv, c = self.preconditioner(0.0)
        d = self.W.values - fp - c
        eps = float(np.finfo(float).eps)
        x = np.zeros(self.grid.shape)
        r1 = np.asarray(rhs, dtype=float)
        y = pinv(r1)
        beta1 = float(np.vdot(r1, y))
        if beta1 == 0.0:
            return x
        beta1 = math.sqrt(beta1)
        r2, beta, oldb = r1, beta1, 0.0
        dbar = epsln = tnorm2 = gmax = 0.0
        gmin = math.inf
        phibar, cs, sn = beta1, -1.0, 0.0
        w, w2 = np.zeros_like(x), np.zeros_like(x)
        for itn in range(1, 4 * self.grid.npoints + 1):
            s = 1.0 / beta
            v = s * y
            y = s * r2 + d * v  # (P - diag fp) v
            if itn >= 2:
                y -= (beta / oldb) * r1
            alfa = float(np.vdot(v, y))
            y -= (alfa / beta) * r2
            r1, r2 = r2, y
            y = pinv(r2)
            oldb, beta = beta, math.sqrt(float(np.vdot(r2, y)))
            tnorm2 += alfa**2 + oldb**2 + beta**2
            # plane rotations of the Lanczos tridiagonal's QR factorization
            oldeps = epsln
            delta = cs * dbar + sn * alfa
            gbar = sn * dbar - cs * alfa
            epsln = sn * beta
            dbar = -cs * beta
            root = math.hypot(gbar, dbar)
            gamma = max(math.hypot(gbar, beta), eps)
            cs, sn = gbar / gamma, beta / gamma
            phi, phibar = cs * phibar, sn * phibar
            w1, w2 = w2, w
            w = (v - oldeps * w1 - delta * w2) / gamma
            x += phi * w
            gmax, gmin = max(gmax, gamma), min(gmin, gamma)
            anorm = math.sqrt(tnorm2)
            ynorm = math.sqrt(float(np.vdot(x, x)))
            # scipy's stops: a first Lanczos step that spans the solution, a
            # small residual or least-squares residual, a huge condition
            # estimate, or x so large that the right side is at its round-off
            if (itn == 1 and beta / beta1 <= 10.0 * eps) \
                    or phibar <= 1e-10 * anorm * ynorm or root <= 1e-10 * anorm \
                    or gmax >= 0.1 / eps * gmin or anorm * ynorm * eps >= beta1:
                return x
        raise ConvergenceError(f"MINRES reached {4 * self.grid.npoints} iterations")

    # -- geometric transform --------------------------------------------------

    def conformal_Q(self, u: ScalarField) -> ScalarField:
        """Curvature-potential of the conformally transformed metric.

        Normalized so the identity factor returns ``Qconst``:
        ``(2/(n-4)) * u^{-(n+4)/(n-4)} * P u``.  Requires u > 0 and a zero
        scalar-field potential (pure geometric transform).
        """
        self._check_grid(u)
        if u.min() <= 0.0:
            raise ValueError("conformal factor must be positive everywhere")
        if float(np.abs(self.V.values).max()) != 0.0:
            raise ValueError("conformal transform requires a zero potential")
        n = self.params.n
        expo = (n + 4.0) / (n - 4.0)
        pu = self.apply_values(u.values)
        out = (2.0 / (n - 4.0)) * u.values ** (-expo) * pu
        return ScalarField(self.grid, out)

    # -- dense assembly (oracles, Newton on small grids) ----------------------

    def dense_matrix(self) -> np.ndarray:
        """Assemble the operator as a dense symmetric matrix (small grids only).

        ``P`` is applied to one stack of unit fields per index of the first
        axis, and the rows are symmetrized in place, so assembly peaks at
        about two matrices (the rows and a copy of their transpose).  Each
        call assembles afresh and returns a matrix its caller owns.
        """
        npts = self.grid.npoints
        if npts > self.MAX_DENSE:
            raise PaneitzLabError(
                f"dense assembly refused for {npts} grid points (cap {self.MAX_DENSE})"
            )
        block = npts // self.grid.shape[0]
        rows = np.empty((npts, npts))
        # P applied to a stack of unit fields at a time; a stacked FFT gives
        # the bits of one field's
        for j in range(0, npts, block):
            units = np.eye(block, npts, k=j).reshape((block,) + self.grid.shape)
            rows[j:j + block] = self.apply_values(units).reshape(block, npts)
        # the bits of 0.5 * (rows.T + rows); a C-ordered copy of the
        # transpose spares numpy's buffered overlap copy
        rows += rows.T.copy()
        rows *= 0.5
        return rows


def build_operator(params: GeometryParams, grid: SpectralGrid,
                   psi: ScalarField | None = None,
                   potential: ScalarField | None = None) -> PaneitzOperator:
    """Construct the operator from a scalar field psi or a direct potential V.

    Exactly one of ``psi`` / ``potential`` may be given; with neither the
    potential is zero and the operator is the pure constant-coefficient one.
    """
    if psi is not None and potential is not None:
        raise ValueError("give either psi or potential, not both")
    if psi is not None:
        V = gradient_squared(psi)
    else:
        V = potential
    return PaneitzOperator(params, grid, V)


# a grid with at least this many points and every axis at least this long is
# solved on the half grid first, and the answer started from there (nested
# iteration, the top of full multigrid: Briggs, Henson & McCormick, *A
# Multigrid Tutorial*, 2nd ed., SIAM 2000, ch. 3).  Newton's step count
# barely depends on the mesh (Allgower, Böhmer, Potra & Rheinboldt, SIAM J.
# Numer. Anal. 23, 1986), so the finer grid then takes few steps.
NEST_POINTS = 1024
NEST_AXIS = 32


def _nests(grid: SpectralGrid) -> bool:
    return grid.npoints >= NEST_POINTS and min(grid.sizes) >= NEST_AXIS


def _inject(values: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Grid values at the points of the coarser ``grid``, whose sizes divide
    theirs (injection)."""
    return values[tuple(slice(None, None, n // m) for n, m in zip(values.shape, grid.sizes))]


def _ladder(op: PaneitzOperator) -> list[PaneitzOperator]:
    """``op``, then the operator on each half grid while the grid nests,
    coarsest last; each half grid takes ``V`` by injection."""
    ladder = [op]
    while _nests(ladder[-1].grid):
        fine = ladder[-1].grid
        half = SpectralGrid(tuple(m // 2 for m in fine.sizes), fine.lengths)
        V = ScalarField(half, _inject(op.V.values, half))
        ladder.append(PaneitzOperator(op.params, half, V))
    return ladder


def _prolong(values: np.ndarray) -> np.ndarray:
    """Grid values on the grid twice as fine along each axis, by zero-padding
    their Fourier coefficients.

    Each Nyquist coefficient is split evenly between +N/2 and -N/2, so the
    interpolant is real and takes the given values at the coarse points.
    """
    hat = np.fft.fftn(values)
    for ax in range(hat.ndim):
        h = hat.shape[ax] // 2
        low, nyquist, high = np.split(hat, [h, h + 1], axis=ax)
        gap = list(hat.shape)
        gap[ax] = 2 * h - 1
        hat = np.concatenate([low, 0.5 * nyquist, np.zeros(gap), 0.5 * nyquist, high],
                             axis=ax)
    return np.fft.ifftn(hat).real * 2**hat.ndim


def _on_grid(grid: SpectralGrid) -> str:
    """``on the 16x16 grid``, for the messages of solves that may run on a
    half grid."""
    return f"on the {'x'.join(map(str, grid.sizes))} grid"


def backtrack(x: np.ndarray, step: np.ndarray, accept):
    """Backtracking line search by halving.

    Tries ``x + s * step`` for ``s = 1, 1/2, ...`` (50 tries) and returns
    ``(cand, accept(cand, s))`` for the first candidate that ``accept`` does
    not refuse by returning None; returns None when every try is refused.
    """
    s = 1.0
    for _ in range(50):
        cand = x + s * step
        data = accept(cand, s)
        if data is not None:
            return cand, data
        s *= 0.5
    return None


def newton(op: PaneitzOperator, f, fprime, u: np.ndarray, pu: np.ndarray,
           done, maxiter: int, solve=None, admissible=None):
    """Newton's method on ``P u = f(u)`` from ``u`` with ``pu = P u``.

    Each step solves ``(P - diag f'(u)) s = f(u) - P u`` by
    ``solve(fprime(u), rhs)`` (default :meth:`PaneitzOperator.solve_linearized`)
    and is backtracked (:func:`backtrack`) until the sup residual passes the
    sufficient-decrease test ``r < resid * (1 - 1e-4 s)`` (Knoll & Keyes,
    J. Comput. Phys. 193, 2004); candidates for which ``admissible`` is
    false are refused.  ``P`` is applied afresh to the first admissible
    candidate ``u + s0 step`` only; as ``P`` is linear, a later try takes
    ``P u + s (P c0 - P u) / s0``, and a candidate accepted below ``s0``
    gets one fresh ``P`` and residual.  So a step applies ``P`` at most
    twice, and every ``pu`` and residual that ``done`` sees or that is
    returned is freshly applied.  ``done(u, pu, residual)`` is tested
    before every step.  Returns ``(u, residual, steps, stop)`` with ``stop``
    one of ``"done"``, ``"solve-failed"`` (ConvergenceError or LinAlgError
    from ``solve``), ``"stagnated"`` (the line search found no decrease) or
    ``"cap"`` (``maxiter`` steps taken).
    """
    solve = op.solve_linearized if solve is None else solve

    def decreases(cand, s):
        nonlocal pstep
        if admissible is not None and not admissible(cand):
            return None
        fresh = pstep is None
        if fresh:
            pc = op.apply_values(cand)
            pstep = (pc - pu) / s
        else:
            pc = pu + s * pstep
        fc = f(cand)
        Fc = pc - fc
        r = float(np.abs(Fc).max())
        if not r < resid * (1.0 - 1e-4 * s) + 1e-300:
            return None
        if not fresh:
            pc = op.apply_values(cand)
            Fc = pc - fc
            r = float(np.abs(Fc).max())
        return pc, Fc, r

    F = pu - f(u)
    resid = float(np.abs(F).max())
    steps = 0
    while not done(u, pu, resid):
        if steps == maxiter:
            return u, resid, steps, "cap"
        try:
            step = solve(fprime(u), -F)
        except (ConvergenceError, np.linalg.LinAlgError):
            return u, resid, steps, "solve-failed"
        pstep = None  # (P c0 - P u) / s0 once the first admissible try is applied
        found = backtrack(u, step, decreases)
        if found is None:
            return u, resid, steps, "stagnated"
        u, (pu, F, resid) = found
        steps += 1
    return u, resid, steps, "done"
