"""Independent oracles used by the test suite.

Everything here is deliberately built from primitives only (plain bisection,
explicit DFT matrices, dense inverses, centered finite differences,
golden-section search, dense random search) so it shares no code path with
the package routines it checks.
"""

import numpy as np


def bisect_root(fn, lo, hi, iters=200):
    """Plain bisection for a sign change of fn on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def scan_roots(fn, lo, hi, n=200000, log=True):
    """All roots of fn located by a dense sign-change scan plus bisection."""
    if log:
        xs = np.exp(np.linspace(np.log(lo), np.log(hi), n))
    else:
        xs = np.linspace(lo, hi, n)
    vals = np.array([fn(x) for x in xs])
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            roots.append(bisect_root(fn, xs[i], xs[i + 1]))
    return roots


def golden_min(fn, lo, hi, iters=200):
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def golden_max(fn, lo, hi, iters=200):
    x, v = golden_min(lambda t: -fn(t), lo, hi, iters)
    return x, -v


def dense_operator_matrix_1d(alpha, n_points, length, w_values):
    """Dense symmetric matrix of the operator on a 1-D grid.

    Built from the explicit DFT matrix F[j,k] = exp(-2*pi*i*j*k/N), the
    diagonal symbol t^2 + alpha t with t = (2*pi*m/L)^2, and the potential on
    the diagonal; no FFT shared with the package.
    """
    N = n_points
    j = np.arange(N)
    F = np.exp(-2j * np.pi * np.outer(j, j) / N)
    Finv = np.conj(F) / N
    m = np.where(j <= N // 2, j, j - N)
    t = (2.0 * np.pi * m / length) ** 2
    sigma = t**2 + alpha * t
    P = (Finv @ np.diag(sigma) @ F).real + np.diag(np.asarray(w_values).ravel())
    return 0.5 * (P + P.T)


def dense_inverse(alpha, sizes, lengths, w_values):
    """Dense inverse of the operator on a periodic lattice of any dimension.

    The negative Laplacian is the Kronecker sum of the 1-D matrices
    ``Finv diag(t) F`` built from explicit DFT matrices, in row-major point
    order; the operator is ``L^2 + alpha L + diag(W)``, inverted by
    ``np.linalg.inv``.  No FFT is shared with the package.
    """
    lap = np.zeros((1, 1))
    for N, length in zip(sizes, lengths):
        j = np.arange(N)
        F = np.exp(-2j * np.pi * np.outer(j, j) / N)
        m = np.where(j <= N // 2, j, j - N)
        t = (2.0 * np.pi * m / length) ** 2
        lap1 = (np.conj(F) / N @ np.diag(t) @ F).real
        lap = np.kron(lap, np.eye(N)) + np.kron(np.eye(len(lap)), lap1)
    P = lap @ lap + alpha * lap + np.diag(np.asarray(w_values, dtype=float).ravel())
    return np.linalg.inv(0.5 * (P + P.T))


def fd_gradient_squared_1d(values, length, order=4):
    """|u'|^2 by 4th-order centered differences on a periodic 1-D grid."""
    n = len(values)
    h = length / n
    up1, um1 = np.roll(values, -1), np.roll(values, 1)
    up2, um2 = np.roll(values, -2), np.roll(values, 2)
    d = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
    return d * d


def scalar_source_roots(W, a, lam, p, q, u_max=1e3, n=4096):
    """Positive roots of W*u = a/u^p + lam*u^q by sign scan with a tangency
    refinement.

    The gap function g(u) = W*u - a/u^p - lam*u^q is strictly concave-like
    (its derivative is strictly decreasing), so roots exist iff its maximum
    is nonnegative; near-tangency double roots missed by the scan are caught
    by golden-section maximization around the scan argmax.
    """
    g = lambda u: W * u - a * u ** (-p) - lam * u**q
    us = np.exp(np.linspace(np.log(1e-6), np.log(u_max), n))
    vals = g(us)
    roots = []
    for i in range(n - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            roots.append(bisect_root(g, us[i], us[i + 1]))
    if not roots:
        i = int(np.argmax(vals))
        lo = us[max(i - 1, 0)]
        hi = us[min(i + 1, n - 1)]
        u_peak, g_peak = golden_max(g, lo, hi)
        if g_peak >= 0.0:
            roots.append(u_peak)
    return roots


def scalar_absorption_root(W, a, b, p, q, lo, hi):
    """Unique positive root of W*u = a/u^p - b*u^q on [lo, hi] by bisection."""
    g = lambda u: W * u - a * u ** (-p) + b * u**q
    return bisect_root(g, lo, hi)


def dense_monotone_limit(P, A, B, p, q, u, M, tol=1e-12, maxiter=100000):
    """Limit of the upward shifted fixed point for P u = A/u^p - B u^q.

    ``P`` is a dense matrix and ``u`` a subsolution below the supersolution
    scale ``M``.  Each step solves ``(P + L) u_new = f(u) + L u`` by
    ``np.linalg.solve``, with the slope bound
    ``L = p max A / (min u)^(p+1) + q max B M^(q-1)``, until the sup-norm
    step is at most ``tol``.
    """
    eye = np.eye(len(u))
    for _ in range(maxiter):
        L = p * A.max() / u.min() ** (p + 1.0) + q * B.max() * M ** (q - 1.0)
        unew = np.linalg.solve(P + L * eye, A / u**p - B * u**q + L * u)
        step = np.abs(unew - u).max()
        u = unew
        if step <= tol:
            return u
    raise RuntimeError(f"dense monotone iteration stalled at step {step:.3e}")


def sequential_halving(E, u, pu, g, pg, su, bar, steps=50):
    """Backtracking one candidate at a time: halve ``su`` until
    ``E(u - su g, pu - su pg) < bar``, at most ``steps`` tries.

    Returns ``(k, candidate, image, energy)`` for the first accepted try
    ``k``, or None when every try is refused.
    """
    for k in range(steps):
        cand, pcand = u - su * g, pu - su * pg
        ec = E(cand, pcand)
        if ec < bar:
            return k, cand, pcand, ec
        su *= 0.5
    return None
