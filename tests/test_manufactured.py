"""Code verification by a manufactured solution: choose u*, set the singular
coefficient so that u* solves the absorption problem, and measure the true
error of the monotone solve (Roache, J. Fluids Eng. 124, 2002).

With psi = 0, R = 20, p = 3, q = 2 and B = 2, the field
u* = 1 + 0.3 cos x + 0.05 sum_{i >= 2} sin x_i cos x is a trigonometric
polynomial, so P u* is exact to round-off and u* solves P u = A/u^3 - B u^2
with A = u*^3 (P u* + B u*^2), which is positive.
"""

import numpy as np
import pytest

import paneitzlab as pl

TWO_PI = 2.0 * np.pi
P_EXP, Q_EXP, B_CONST = 3.0, 2.0, 2.0
# Newton converges in 7-11 steps on these grids; the cap only keeps a
# slowly converging solve from running long
MAXITER = 50
MAX_STEPS = 12


def manufactured(ref_params, sizes):
    grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
    op = pl.build_operator(ref_params, grid)
    x, *rest = grid.meshgrid()
    ustar = 1.0 + 0.3 * np.cos(x) + 0.05 * sum(np.sin(y) for y in rest) * np.cos(x)
    A = ustar**P_EXP * (op.apply_values(ustar) + B_CONST * ustar**Q_EXP)
    assert A.min() > 0.0
    prob = pl.ProblemSpec(pl.ScalarField(grid, A),
                          pl.ScalarField.constant(grid, B_CONST), P_EXP, Q_EXP)
    return op, prob, ustar


def relative_error(u, ustar):
    return float(np.abs(u - ustar).max() / np.abs(ustar).max())


@pytest.mark.parametrize("sizes", [(32, 32), (16, 16, 16)], ids=["32^2", "16^3"])
@pytest.mark.parametrize("start", ["sub", "super"])
def test_monotone_solve_recovers_the_solution(ref_params, sizes, start):
    op, prob, ustar = manufactured(ref_params, sizes)
    rep = pl.monotone_solve(op, prob, pl.find_sub_super(op, prob), start=start,
                            maxiter=MAXITER)
    assert rep.iterations <= MAX_STEPS
    assert relative_error(rep.u.values, ustar) <= 1e-14


def test_continuation_recovers_the_solution(ref_params):
    op, prob, ustar = manufactured(ref_params, (16, 16, 16))
    rep = pl.epsilon_continuation(op, prob, [1.0, 0.1, 0.0], maxiter=MAXITER)
    assert rep.converged
    assert all(e["newton_steps"] <= MAX_STEPS for e in rep.eps_trace)
    assert relative_error(rep.u.values, ustar) <= 1e-14
