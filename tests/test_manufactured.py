"""Code verification by a manufactured solution: choose u*, set the singular
coefficient so that u* solves the problem, and measure the true error of the
monotone solve and of the minimax Newton polish (Roache, J. Fluids Eng. 124,
2002).

With psi = 0, R = 20, p = 3 and q = 2, the field
u* = 1 + 0.3 cos x + 0.05 sum_{i >= 2} sin x_i cos x is a trigonometric
polynomial, so P u* is exact to round-off.  It solves the absorption problem
P u = A/u^3 - B u^2 with A = u*^3 (P u* + B u*^2) and B = 2, and the source
problem P u = A/u^3 + B u^2 with A = u*^3 (P u* - B u*^2) and B = 0.05; both
coefficients are checked positive.  The minimax solve of the source problem
returns a second, upper solution rather than u*.
"""

import numpy as np
import pytest

import paneitzlab as pl
from paneitzlab import mountain_pass
from paneitzlab.operator import newton
from paneitzlab.problems import reaction, reaction_derivative, residual_sup

TWO_PI = 2.0 * np.pi
P_EXP, Q_EXP, B_CONST = 3.0, 2.0, 2.0
# Newton converges in 7-11 steps on these grids, and in 1-2 on the grid of a
# nested solve, which starts from the half grid's solution; the cap only
# keeps a slowly converging solve from running long
MAXITER = 50
MAX_STEPS = 12


def manufactured(ref_params, sizes, b=B_CONST, mode="absorption"):
    grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
    op = pl.build_operator(ref_params, grid)
    x, *rest = grid.meshgrid()
    ustar = 1.0 + 0.3 * np.cos(x) + 0.05 * sum(np.sin(y) for y in rest) * np.cos(x)
    sign = 1.0 if mode == "absorption" else -1.0
    A = ustar**P_EXP * (op.apply_values(ustar) + sign * b * ustar**Q_EXP)
    assert A.min() > 0.0
    prob = pl.ProblemSpec(pl.ScalarField(grid, A),
                          pl.ScalarField.constant(grid, b), P_EXP, Q_EXP, mode=mode)
    return op, prob, ustar


def relative_error(u, ustar):
    return float(np.abs(u - ustar).max() / np.abs(ustar).max())


@pytest.mark.parametrize("sizes", [(64,), (1024,), (32, 32), (64, 64), (16, 16, 16),
                                   (64, 64, 64)],
                         ids=["64", "1024", "32^2", "64^2", "16^3", "64^3"])
@pytest.mark.parametrize("start", ["sub", "super"])
def test_monotone_solve_recovers_the_solution(ref_params, sizes, start):
    op, prob, ustar = manufactured(ref_params, sizes)
    rep = pl.monotone_solve(op, prob, pl.find_sub_super(op, prob), start=start,
                            maxiter=MAXITER)
    assert rep.iterations <= MAX_STEPS
    assert relative_error(rep.u.values, ustar) <= 1e-14
    if sizes == (64, 64, 64):
        # 16^3, then 32^3 and 64^3 from the coarser solution: a plain 64^3
        # solve takes 7-11 steps and about 1 s
        assert rep.extras["levels"] == 3 and rep.iterations <= 2
    if sizes == (1024,):
        # the round-off floor of P u (about 2e-5 here) stops the solve at a
        # residual far above tol_residual = 1e-8 while the field is exact to
        # round-off: the floor bounds what the residual can show, not the error
        assert rep.residual > 1e-8
        assert rep.extras["residual_floor"] == op.roundoff_floor(rep.u.values)


def test_continuation_recovers_the_solution(ref_params):
    op, prob, ustar = manufactured(ref_params, (16, 16, 16))
    rep = pl.epsilon_continuation(op, prob, [1.0, 0.1, 0.0], maxiter=MAXITER)
    assert rep.converged
    assert all(e["newton_steps"] <= MAX_STEPS for e in rep.eps_trace)
    assert relative_error(rep.u.values, ustar) <= 1e-14


@pytest.mark.parametrize("sizes", [(64,), (32, 32)], ids=["64", "32^2"])
def test_minimax_returns_the_upper_solution(ref_params, sizes):
    # the minimax solve does not return u*: Newton takes its path maximum to
    # a second solution, above u* everywhere (max u 131.25 on both grids),
    # whose energy (1.18e5 on 64, 7.44e5 on 32^2) far exceeds u*'s (44.6 and
    # 280.9)
    op, prob, ustar = manufactured(ref_params, sizes, b=0.05, mode="source")
    rep = pl.mountain_pass_solve(op, prob, S_psi=pl.sobolev_constant(op))
    assert residual_sup(op, prob, rep.u.values) <= 1e-6
    assert rep.u.min() > ustar.max()
    e_star = pl.energy(op, prob, 0.0, pl.ScalarField(op.grid, ustar))
    assert rep.energy_at_solution > 100.0 * e_star


class _Polish(Exception):
    """Raised by the stand-in for ``newton`` once it holds the polish's
    reaction, its derivative and the linear solve."""


def polish_solve(op, prob, monkeypatch):
    """``(f, fprime, solve)``: the reaction, its derivative and the linear
    solve that ``mountain_pass_solve`` hands its Newton polish on the
    caller's grid.  The polishes of coarser levels run unchanged."""
    held = []
    newton_ = mountain_pass.newton

    def hold(level_op, f, fprime, *args, solve=None, **kwargs):
        if level_op.grid != op.grid:
            return newton_(level_op, f, fprime, *args, solve=solve, **kwargs)
        held.append((f, fprime, solve))
        raise _Polish

    with monkeypatch.context() as m:
        m.setattr(mountain_pass, "newton", hold)
        with pytest.raises(_Polish):
            pl.mountain_pass_solve(op, prob, S_psi=pl.sobolev_constant(op), max_sweeps=0)
    return held[0]


@pytest.mark.parametrize("sizes", [(64,), (1024,), (32, 32)], ids=["64", "1024", "32^2"])
def test_minimax_polish_recovers_the_solution(ref_params, sizes, monkeypatch):
    op, prob, ustar = manufactured(ref_params, sizes, b=0.05, mode="source")
    f, fprime, solve = polish_solve(op, prob, monkeypatch)
    # 1-D 64 sweeps its own path and polishes by the dense solve; 1024 and
    # 32^2 start from the half grid and polish on MINRES
    assert (solve is not None) == (sizes == (64,))
    # the polish solves the problem's own equation, whose reaction
    # A u^-p + B u^q makes u* a solution
    assert np.array_equal(f(ustar), reaction(prob, ustar))
    assert np.array_equal(fprime(ustar), reaction_derivative(prob, ustar))
    exact = prob.A.values * ustar**-P_EXP + prob.B.values * ustar**Q_EXP
    assert np.abs(f(ustar) - exact).max() <= 1e-14 * np.abs(exact).max()
    x = op.grid.meshgrid()[0]
    u0 = ustar * (1.0 + 1e-3 * np.cos(2.0 * x))
    u, _, steps, stop = newton(
        op, f, fprime, u0, op.apply_values(u0),
        lambda v, pv, r: relative_error(v, ustar) <= 1e-11, 4, solve=solve)
    assert stop == "done"
    assert steps <= 4
