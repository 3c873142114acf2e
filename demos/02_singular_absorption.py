#!/usr/bin/env python3
"""Solving P u = A/u^p - B u^q inside a sub/supersolution bracket.

The singular term blows up at small scales and the power term dominates at
large ones, so scaled constants give a subsolution and a supersolution.  The
solve takes Newton steps, each halved until the iterate stays positive and
inside the bracket; from the subsolution full steps climb to the solution in
a few steps.  From the supersolution the first full step overshoots the
bracket and is halved.  Both reach the same solution, which is unique for
this sign of the nonlinearity.

Run:  python demos/02_singular_absorption.py
"""

import numpy as np

import paneitzlab as pl

params = pl.derive_coefficients(5, 20)
grid = pl.SpectralGrid((64,), (2 * np.pi,))
op = pl.build_operator(params, grid)

prob = pl.ProblemSpec(
    A=pl.ScalarField.constant(grid, 1.0),
    B=pl.ScalarField.constant(grid, 1.0),
    p=3.0,
    q=2.0,
    mode="absorption",
)

bracket = pl.find_sub_super(op, prob)
print(f"bracket scales: s1 = {bracket.s1}, s2 = {bracket.s2}")
print(f"bracket valid: {pl.verify_bracket(op, prob, bracket)}")

up = pl.monotone_solve(op, prob, bracket, start="sub")
down = pl.monotone_solve(op, prob, bracket, start="super")
print(f"\nupward solve:   u = {up.u.max():.12f} in {up.iterations} Newton steps, "
      f"residual {up.residual:.2e}")
print(f"downward solve: u = {down.u.max():.12f} in {down.iterations} Newton steps, "
      f"residual {down.residual:.2e}")
print(f"uniqueness gap: {np.abs(up.u.values - down.u.values).max():.2e}")
print("(for constant data this is the root of beta*u = 1/u^3 - u^2)")

# comparison: a larger damping coefficient gives a smaller solution
prob2 = prob.with_B(prob.B + 1.0)
rep2 = pl.monotone_solve(op, prob2, pl.find_sub_super(op, prob2))
print(f"\nsolution with B = 2: {rep2.u.max():.8f} <= {up.u.max():.8f}")

# variable coefficients work the same way
x = grid.meshgrid()[0]
prob_var = pl.ProblemSpec(
    A=pl.ScalarField(grid, 1.0 + 0.4 * np.sin(x)),
    B=pl.ScalarField(grid, 0.5 * (1.0 + np.cos(2 * x))),
    p=2.5,
    q=1.8,
    mode="absorption",
)
rep_var = pl.monotone_solve(op, prob_var, pl.find_sub_super(op, prob_var))
print(f"\nvariable data: u in [{rep_var.u.min():.6f}, {rep_var.u.max():.6f}], "
      f"residual {rep_var.residual:.2e}")

# when B is only nonnegative, continue from B + eps down to B
prob0 = prob.with_B(pl.ScalarField.constant(grid, 0.0))
cont = pl.epsilon_continuation(op, prob0, [1.0, 0.1, 0.01, 1e-3, 0.0])
print(f"\ncontinuation to B = 0: u = {cont.u.max():.10f} "
      f"(closed form beta^(-1/4) = {params.beta ** -0.25:.10f})")
print(f"solutions nondecreasing along the schedule: {cont.extras['eps_monotone_ok']}")
print(f"uniform lower bound along the way: {cont.extras['uniform_lower_bound']:.4f}")
