"""Minimax solver for the source-sign problem.

The regularized action has two low points separated by an energy rim: one
near zero (once the singular term is smoothed by eps) and one far out along
any ray (the power term wins).  A discretized path between them is deformed
by descending its highest node; the surviving max localizes a critical point,
which Newton then sharpens on the exact (unregularized) equation.  Fine grids
do both on the half grid first and finish with Newton alone.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.linalg

from .errors import (
    CoercivityError,
    ConvergenceError,
    MountainPassGeometryError,
    SolverError,
)
from .geometry import ScalarField, lebesgue_norm
from .monotone import (
    ORDER_SLACK,
    _monotone_iterate,
    _scale_search,
    _sub_margin,
    find_sub_super,
    monotone_solve,
)
from .operator import (
    PaneitzOperator,
    _inject,
    _ladder,
    _on_grid,
    _prolong,
    backtrack,
    newton,
)
from .problems import (
    ABSORPTION,
    SOURCE,
    ProblemSpec,
    SolverReport,
    _energy_values,
    _integrals,
    energy,
    floor_flag,
    power_norm_order,
    reaction,
    reaction_derivative,
    residual_sup,
    smoothed_reaction,
)
from .spectral_analysis import energy_norm, sobolev_constant

__all__ = ["mountain_pass_solve", "second_solution_attempt"]

PATH_NODES = 32
REPARAM_EVERY = 10


def _path_max(op, prob, eps, nodes, pnodes):
    """Highest energy along the polyline trace, sampling segment interiors.

    Node-only maxima can cut the corner of a stiff ridge once descent has
    pulled the nodes down both slopes; interior samples recover the crossing
    (exactly so on a one-parameter family, where every path must pass
    through every intermediate field).  Samples and their images are
    interpolated from ``nodes`` and ``pnodes = P nodes``, 8 per segment plus
    the last node, and evaluated as one stack.
    """
    ws = (np.arange(8) / 8).reshape((1, -1) + (1,) * op.grid.d)

    def samples(x):
        inner = (1.0 - ws) * x[:-1, None] + ws * x[1:, None]
        return np.concatenate([inner.reshape((-1,) + x.shape[1:]), x[-1:]])

    v = samples(nodes)
    vals = _energy_values(op, prob, eps, v, samples(pnodes))
    k = int(np.argmax(vals))
    return float(vals[k]), v[k].copy()


def _reparametrize(op, nodes, pnodes):
    """Resample the polyline at uniform energy-norm arc length.

    Segment lengths come from the carried images ``pnodes = P nodes``;
    returns the resampled nodes with freshly applied images.
    """
    grid = op.grid
    sq = _integrals(grid, np.diff(nodes, axis=0) * np.diff(pnodes, axis=0))
    segs = np.maximum(np.sqrt(np.maximum(sq, 0.0)), 1e-300)
    cum = np.concatenate([[0.0], np.cumsum(segs)])
    targets = np.linspace(0.0, cum[-1], len(nodes))[1:-1]
    j = np.minimum(np.searchsorted(cum[1:], targets), len(segs) - 1)
    w = ((targets - cum[j]) / (cum[j + 1] - cum[j])).reshape((-1,) + (1,) * grid.d)
    out = nodes.copy()
    out[1:-1] = (1.0 - w) * nodes[j] + w * nodes[j + 1]
    return out, op.apply_values(out)


def _dense_solver(P):
    """``solve(fp, rhs)`` for ``(P - diag fp) x = rhs`` by LU on a buffer of its own.

    Each call copies ``P`` into the solver's one working matrix ``J``,
    subtracts ``fp`` on its diagonal and factors ``J`` in place
    (``getrf``; Anderson et al., *LAPACK Users' Guide*, 3rd ed., SIAM 1999),
    so a solve holds no matrix beyond ``P`` and ``J``.  ``P`` is only read,
    so solvers built on one ``P`` leave it unchanged.
    ``J`` is symmetric, so its transpose, a Fortran-ordered view of the same
    buffer, is ``J`` itself and is factored without a copy.  An exactly
    singular ``J`` raises LinAlgError; a reciprocal condition number below
    machine epsilon warns ``scipy.linalg.LinAlgWarning`` (a RuntimeWarning).
    The solution has the shape of ``rhs``.
    """
    J = np.empty_like(P)
    diag = J.reshape(-1)[::len(J) + 1]

    def solve(fp, rhs):
        np.copyto(J, P)
        np.subtract(diag, fp.ravel(), out=diag)
        return scipy.linalg.solve(J.T, rhs.ravel(), assume_a="gen", overwrite_a=True,
                                  check_finite=False).reshape(rhs.shape)

    return solve


def _auto_eps0(op, prob, rim):
    """Regularization making the smoothed singular term at zero half the rim."""
    intA = op.grid.integrate(prob.A.values)
    floor_target = 0.5 * rim
    return (intA / ((prob.p - 1.0) * floor_target)) ** (2.0 / (prob.p - 1.0))


def _polish(op, prob, u, tol_residual, power_bound, solve):
    """Newton on the exact equation from ``u`` with the linear solve ``solve``
    (None: MINRES); returns the field, its residual and its ``eps_trace``
    entry, which names the grid ``sizes``.  ``power_bound`` (None unless the
    exponents are Lichnerowicz) maps the field's energy norm to the entry's
    ``power_term_sobolev_bound``."""
    grid = op.grid
    p, q = prob.p, prob.q
    on_grid = _on_grid(grid)
    uscale = max(float(np.abs(u).max()), 1.0)
    target = min(tol_residual, max(1e-3 * tol_residual, 1e-9 * uscale))
    u, resid, newton_its, stop = newton(
        op, partial(reaction, prob), partial(reaction_derivative, prob),
        u, op.apply_values(u),
        lambda v, pv, r: r <= max(target, op.roundoff_floor(v)), 80,
        solve=solve, admissible=lambda c: float(c.min()) > 0.0,
    )
    if stop != "done":
        why = {"solve-failed": "linearized solve failed",
               "stagnated": "polish stagnated",
               "cap": "polish reached 80 steps"}[stop]
        raise ConvergenceError(f"{why} at residual {resid:.3e} {on_grid}", residual=resid)
    umin = float(u.min())
    uscale = max(float(np.abs(u).max()), 1.0)
    if umin <= 1e-10 * uscale:
        raise SolverError(f"lower bound collapsed (min u = {umin:.3e}) {on_grid}",
                          residual=resid)
    entry = {"eps": 0.0, "residual": resid, "min_u": umin,
             "newton_iterations": newton_its, **floor_flag(op, u, resid, target),
             "singular_integral": grid.integrate(
                 prob.A.values * (u**2) ** (-(p + 1.0) / 2.0))}
    try:
        green = op.solve_shifted(0.0, prob.B.values * u**q)
    except CoercivityError:
        pass
    else:
        entry["green_lower_bound"] = float(green.min())
        entry["green_ok"] = bool(float((u - green).min()) >= -1e-6 * uscale)
    if power_bound is not None:
        entry["power_term_sobolev_bound"] = power_bound(energy_norm(op, ScalarField(grid, u)))
    entry["sizes"] = list(grid.sizes)
    return u, resid, entry


def _sweep(op, prob, phi_hat, eps0, r0, rim, n_nodes, max_sweeps):
    """Endpoints below the rim on the ray through ``phi_hat``, the path
    between them deformed by descent, and its maximum.

    A sweep descends along ``z = (sigma + c)^{-1} g``, the preconditioner
    ``(sigma + c)^{-1}``, ``c = mean W``, applied to the L^2 gradient ``g``.
    As ``sigma z = g - c z``, its image ``P z = g - c z + W z`` takes no
    transform, so a sweep costs the preconditioner's one transform pair
    and applies no ``P``.  Returns the maximizing field, the pass level
    ``c_eps``, ``t0``, ``t2``, the sweep count and ``path_stop``.
    """
    grid = op.grid

    def E(vals, pvals=None):
        return _energy_values(op, prob, eps0, vals, pvals)

    # endpoints below the rim on the ray through phi
    def below_rim(t):
        return E(t * phi_hat) < rim

    t0 = _scale_search(below_rim, 0.5 * r0, 0.5, 60)
    if t0 is None:
        raise MountainPassGeometryError(
            "no inner endpoint below the rim; smoothed singular floor "
            f"{E(0.0 * phi_hat):.3e} vs rim {rim:.3e}"
        )
    t2 = _scale_search(below_rim, 2.0 * r0, 2.0, 60)
    if t2 is None:
        raise MountainPassGeometryError("ray energy never sank below the rim")

    # path deformation: descend the highest interior node, with the step
    # capped by half the local node spacing (uncapped descent runs away down
    # the unbounded tail for stiff exponents and shreds the path).  The path
    # is one stack carrying its image pnodes = P nodes: a sweep moves images
    # by the same linear combinations as nodes and applies no P, and every
    # reparametrization applies P afresh.
    ws = np.linspace(0.0, 1.0, n_nodes).reshape((-1,) + (1,) * grid.d)
    nodes = ((1.0 - ws) * t0 + ws * t2) * phi_hat
    pnodes = op.apply_values(nodes)
    energies = E(nodes, pnodes)
    precondition, c = op._preconditioner(0.0)
    sweeps = 0
    stall = 0
    last_max = np.inf
    path_stop = "cap"
    for sweep in range(1, max_sweeps + 1):
        sweeps = sweep
        i = 1 + int(np.argmax(energies[1:-1]))
        u, pu = nodes[i], pnodes[i]
        g = pu - smoothed_reaction(prob, u, eps0)
        gnorm = float(np.sqrt(grid.inner(g, g)))
        if gnorm <= 1e-12 * max(abs(energies[i]), 1.0):
            path_stop = "flat-gradient"
            break
        # descend along the energy-norm gradient z = (sigma + c)^{-1} g, whose
        # image needs no transform: sigma z = g - c z
        z = precondition(g)
        pz = g - c * z + op.W.values * z
        d_prev = u - nodes[i - 1]
        d_next = nodes[i + 1] - u
        spacing = min(
            np.sqrt(grid.inner(d_prev, d_prev)),
            np.sqrt(grid.inner(d_next, d_next)),
        )
        su = min(1.0, 0.5 * spacing / float(np.sqrt(grid.inner(z, z))))
        bar = energies[i] - 1e-16 * max(abs(energies[i]), 1.0)
        pstep = -su * pz

        def below_bar(cand, s):
            pcand = pu + s * pstep
            ec = E(cand, pcand)
            return (pcand, ec) if ec < bar else None

        found = backtrack(u, -su * z, below_bar)
        if found is None:
            path_stop = "no-descent"
            break
        nodes[i], (pnodes[i], energies[i]) = found
        if sweep % REPARAM_EVERY:
            continue
        # descent lowers the node maximum within a period and reparametrizing
        # restores it, so the maximum is compared from period to period
        nodes, pnodes = _reparametrize(op, nodes, pnodes)
        energies = E(nodes, pnodes)
        cur = float(energies.max())
        if abs(last_max - cur) <= 1e-10 * max(abs(cur), 1.0):
            stall += 1
            if stall >= 3:
                path_stop = "stall"
                break
        else:
            stall = 0
        last_max = cur

    c_eps, u = _path_max(op, prob, eps0, nodes, pnodes)
    return u, c_eps, t0, t2, sweeps, path_stop


def mountain_pass_solve(op: PaneitzOperator, prob: ProblemSpec,
                        phi: ScalarField | None = None,
                        eps0: float | None = None,
                        S_psi: float | None = None,
                        n_nodes: int = PATH_NODES,
                        tol_residual: float = 1e-6,
                        max_sweeps: int = 600) -> SolverReport:
    """Minimax search for the source-sign problem, then Newton sharpening.

    The trial direction ``phi`` (default: constant) is normalized to unit
    energy norm.  The rim radius is
    ``r0 = ||B||_{L^s}^{-1/(q-1)} S^{-(q+1)/(2(q-1))}`` and the rim value is
    the measured-constant lower bound
    ``r0^2/2 - ||B||_{L^s} S^{-(q+1)/2} r0^{q+1}/(q+1)`` for the smooth part
    of the action on the sphere of radius r0: every path between the
    endpoints crosses that sphere, so the reported pass level provably sits
    above the rim value.  Endpoints t0 < r0 < t2 are located by scanning the
    ray for energies below the rim (they exist since the regularized energy
    at zero is finite and the ray energy eventually sinks to -inf).

    Each sweep moves the highest interior node by backtracked descent along
    the energy-norm gradient ``z = (sigma + mean W)^{-1} g`` of the L^2
    gradient ``g`` (the preconditioner of CG and MINRES; its constant is
    positive whenever ``P`` is coercive, as ``lambda1 <= mean W``), whose
    image ``P z`` follows from ``g`` and ``z`` without a transform.  The step
    is capped by half the node spacing over ``||z||`` and halved until the
    node's energy falls, at most 50 tries, by the line search Newton uses
    (:func:`~paneitzlab.operator.backtrack`).  Unlike an L^2 step, which the
    fourth-order operator bounds by about ``2 / max sigma``, the full step is
    accepted on the grids measured.  Every ``REPARAM_EVERY``
    sweeps the path is resampled and its node maximum compared with the one
    after the previous resampling; ``path_stop`` reads ``stall`` once three
    periods in a row agree to 1e-10 relative, ``cap`` at ``max_sweeps``, or
    ``flat-gradient`` / ``no-descent``.

    One Newton solve of the exact equation ``P u = A u^-p + B u^q``
    (:func:`~paneitzlab.problems.reaction`, the formula of
    :func:`~paneitzlab.problems.residual_sup`) then polishes the path
    maximum, taking only steps that keep the field positive.  Like every
    loop on ``P u = f(u)`` it stops once, at the larger of its target
    ``min(tol_residual, max(1e-3 tol_residual, 1e-9 max(|u|, 1)))`` and the
    round-off floor of ``P u`` (then flagged ``residual_floor``), else
    ConvergenceError; the report's residual is Newton's own.  eps0
    regularizes only the path, whose inner endpoint needs a finite energy at
    zero.  The polish's ``eps_trace`` entry records the singular integral
    and whether the field dominates the inverse image of its own power term
    (inverse positivity keeps it from collapsing at the bottom).  A
    vanishing minimum aborts.

    Grids with at least ``NEST_POINTS`` points and every axis at least
    ``NEST_AXIS`` long (:mod:`~paneitzlab.operator`) solve on the half grid
    first (nested iteration, the top of full multigrid: Briggs, Henson &
    McCormick, *A Multigrid Tutorial*, 2nd ed., SIAM 2000, ch. 3).  The
    solve halves the grid while it nests, each half grid taking ``V``,
    ``A``, ``B`` and the trial direction by injection and the caller's
    ``S_psi``, rim, ``r0`` and
    ``eps0``; only the coarsest grid sweeps the path, checks its endpoints
    against the rim and sets the pass level, endpoint energies, ``t0``,
    ``t2``, ``path_sweeps`` and ``path_stop``.  Each finer grid zero-pads
    the Fourier coefficients of the coarser polished field and runs one
    Newton polish from it; as Newton's step count barely depends on the mesh
    (Allgower, Böhmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986),
    that polish takes few steps.  A failure on any grid raises at once.
    ``eps_trace`` holds one entry per grid, coarsest first, each naming its
    grid ``sizes``; ``extras.levels`` counts them (1 on a grid too small to
    nest), and ``iterations`` is the sweeps plus the Newton steps of every
    polish.  Newton's linear solve is dense only on the grid that swept,
    and only up to ``MAX_DENSE`` points: a dense step copies the freshly
    assembled ``P`` into the solve's one working matrix and factors it in
    place (:func:`_dense_solver`), so the polish holds two matrices, and an
    ill-conditioned Jacobian warns ``LinAlgWarning``.  Every other polish
    runs on matrix-free MINRES.

    The solver evaluates no existence certificate: the paper's energy-norm
    condition is sufficient for this geometry, which is checked directly (a
    positive rim, endpoints below it, then convergence and positivity).
    Callers that want the condition evaluate
    :func:`paneitzlab.conditions.check_existence_cond`.  A nonpositive
    ``S_psi`` (no coercive embedding) raises CoercivityError.
    ``eps0=None`` picks the regularization so the smoothed singular term at
    zero sits at half the rim value; a given ``eps0`` must be positive, as
    must ``tol_residual``, with ``n_nodes >= 3`` and ``max_sweeps >= 0``
    (ValueError).
    """
    if prob.mode != SOURCE:
        raise ValueError("minimax solver addresses the source mode")
    if eps0 is not None and not eps0 > 0.0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if not tol_residual > 0.0:
        raise ValueError(f"tol_residual must be positive, got {tol_residual}")
    if n_nodes < 3:
        raise ValueError(f"n_nodes must be at least 3, got {n_nodes}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    prob.validate_exponents(op.params)
    grid = op.grid
    p, q = prob.p, prob.q

    # degenerate power coefficient: the two sign modes coincide
    if float(np.abs(prob.B.values).max()) == 0.0:
        probA = ProblemSpec(prob.A, prob.B, p, q, mode=ABSORPTION)
        rep = monotone_solve(op, probA, find_sub_super(op, probA))
        rep.method = "mountain-pass-degenerate-absorption"
        return rep

    if phi is None:
        phi = ScalarField.constant(grid, 1.0)
    if phi.min() <= 0.0:
        raise ValueError("trial direction must be positive")
    nphi = energy_norm(op, phi)
    if nphi == 0.0:
        raise ValueError("trial direction has zero energy norm")
    phi_hat = phi.values / nphi

    if S_psi is None:
        S_psi = sobolev_constant(op)
    if S_psi <= 0.0:
        raise CoercivityError(
            f"embedding constant {S_psi} is not positive; operator not coercive"
        )

    s = power_norm_order(op.params, q, strict=False)
    normB = lebesgue_norm(grid, prob.B.values, s)
    r0 = normB ** (-1.0 / (q - 1.0)) * S_psi ** (-(q + 1.0) / (2.0 * (q - 1.0)))
    rim = 0.5 * r0**2 - normB * S_psi ** (-(q + 1.0) / 2.0) * r0 ** (q + 1.0) / (q + 1.0)
    if not (rim > 0.0):
        raise MountainPassGeometryError(
            f"rim value {rim:.3e} is not positive; no certified energy barrier"
        )
    if eps0 is None:
        eps0 = _auto_eps0(op, prob, rim)
    eps0 = float(eps0)
    power_bound = None
    if abs((p - 1.0) - (q + 1.0)) <= 1e-12:
        def power_bound(nu):
            return float(normB * (nu / np.sqrt(S_psi)) ** (q + 1.0))

    # the caller's grid, then each half grid while it nests, coarsest last
    ladder = [(lop, prob.injected(lop.grid), _inject(phi_hat, lop.grid))
              for lop in _ladder(op)]
    cop, cprob, cphi = ladder[-1]
    u, c_eps, t0, t2, sweeps, path_stop = _sweep(cop, cprob, cphi, eps0, r0, rim, n_nodes,
                                                 max_sweeps)
    trace = []
    for k, (lop, lprob, _) in enumerate(reversed(ladder)):
        solve = None
        if k == 0 and lop.grid.npoints <= lop.MAX_DENSE:
            solve = _dense_solver(lop.dense_matrix())
        u, resid, entry = _polish(lop, lprob, _prolong(u) if k else u, tol_residual,
                                  power_bound, solve)
        trace.append(entry)
    e_ends = tuple(float(_energy_values(cop, cprob, eps0, t * cphi)) for t in (t0, t2))
    energy_at_r0 = energy(op, prob, 0.0, ScalarField(grid, r0 * phi_hat))

    final = ScalarField(grid, u)
    return SolverReport(
        u=final,
        residual=resid,
        iterations=sweeps + sum(e["newton_iterations"] for e in trace),
        converged=True,
        method="mountain-pass",
        pass_level=c_eps,
        rim_value=float(rim),
        energy_at_endpoints=e_ends,
        energy_at_r0=energy_at_r0,
        energy_at_solution=energy(op, prob, 0.0, final),
        eps_trace=trace,
        extras={
            "eps0": eps0,
            "r0": float(r0),
            "t0": float(t0),
            "t2": float(t2),
            "S_psi": float(S_psi),
            "norm_B": float(normB),
            "path_sweeps": sweeps,
            "path_stop": path_stop,
            "pass_level_in_bracket": bool(rim < c_eps < energy_at_r0),
            "lichnerowicz_exponents": power_bound is not None,
            **floor_flag(op, u, resid, tol_residual),
            "levels": len(ladder),
        },
    )


def second_solution_attempt(op: PaneitzOperator, prob: ProblemSpec,
                            u_B: ScalarField, eps_pert: float,
                            **mp_kwargs) -> SolverReport | None:
    """Bracket the coefficient between B - eps and B + eps and iterate.

    Solutions of the perturbed problems sub/supersolve the original one, so a
    damped Newton solve between them (as in
    :func:`~paneitzlab.monotone.monotone_solve`, whose ``iterations`` and
    ``monotone_ok`` the report carries) lands on another solution.  Whether
    the limit differs from ``u_B`` by more than 1e-4 in sup norm is recorded
    as a distinctness flag (no topological multiplicity argument is
    attempted).
    Saddle-type solutions need not be ordered in the coefficient; a violated
    ordering is reported in the extras and the iteration falls back to
    descending from the supersolution alone.  The iteration stops at residual
    1e-6 or the round-off floor of ``P u``, whichever is larger; None is
    returned when it cannot be set up or fails.
    """
    if prob.mode != SOURCE:
        raise ValueError("second-solution bracketing addresses the source mode")
    grid = op.grid
    if eps_pert < 0.0:
        raise ValueError("perturbation must be nonnegative")
    if eps_pert == 0.0:
        return SolverReport(
            u=u_B,
            residual=residual_sup(op, prob, u_B.values),
            iterations=0,
            converged=True,
            method="second-solution",
            extras={"distinct": False, "ordering_ok": True,
                    "note": "degenerate perturbation: bracket collapses"},
        )
    if prob.B.min() - eps_pert < 0.0:
        raise ValueError("perturbation exceeds min(B); lower problem leaves source mode")

    try:
        lo_rep = mountain_pass_solve(op, prob.with_B(prob.B - eps_pert), **mp_kwargs)
        hi_rep = mountain_pass_solve(op, prob.with_B(prob.B + eps_pert), **mp_kwargs)
    except SolverError:
        # near the fold the upper perturbed problem has no solution and no
        # second solution can be distinguished
        return None
    u_lo, u_hi = lo_rep.u.values, hi_rep.u.values
    scale = max(float(np.abs(u_hi).max()), 1.0)
    ordering_ok = bool(float((u_hi - u_lo).min()) >= -ORDER_SLACK * scale)

    if ordering_ok:
        start, lower, direction = u_lo, u_lo, +1
    else:
        # u_hi still supersolves; descend from it above a small constant
        # subsolution
        s1 = _scale_search(
            lambda s: _sub_margin(prob, s, op.W.values) >= 0.0 and float(u_hi.min()) >= s,
            1.0, 0.5, 200,
        )
        if s1 is None:
            return None
        start, lower, direction = u_hi, np.full(grid.shape, s1), -1
    try:
        u, resid, its, monotone_ok = _monotone_iterate(
            op, prob, start, lower, u_hi, direction, 1e-10, 1e-6, 100,
        )
    except SolverError:
        return None
    field = ScalarField(grid, u)
    distinct = bool(float(np.abs(u - u_B.values).max()) > 1e-4)
    return SolverReport(
        u=field,
        residual=resid,
        iterations=its,
        converged=True,
        method="second-solution",
        monotone_ok=monotone_ok,
        extras={
            "distinct": distinct,
            "ordering_ok": ordering_ok,
            "perturbation": eps_pert,
            "gap_to_first": float(np.abs(u - u_B.values).max()),
            **floor_flag(op, u, resid, 1e-6),
        },
    )
