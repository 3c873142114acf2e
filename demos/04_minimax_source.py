#!/usr/bin/env python3
"""The source-sign problem P u = A/u^p + B u^q via the regularized minimax
search.

With the power term feeding growth there is no constant supersolution; the
solver instead smooths the singular term, locates two low-energy points
separated by an energy rim, deforms a discrete path between them to find the
pass, and polishes the path maximum by Newton on the exact equation.  The
reported pass level is certified to sit above the rim (every path crosses
the sphere where the smooth part of the action is bounded below).

Run:  python demos/04_minimax_source.py
"""

import numpy as np

import paneitzlab as pl

# curvature chosen so the discrete embedding constant sits near one, which
# keeps the certified geometry wide open at a desk-scale coupling
params = pl.derive_coefficients(5, 3.8)
grid = pl.SpectralGrid((64,), (2 * np.pi,))
op = pl.build_operator(params, grid)

S = pl.sobolev_constant(op)
print(f"discrete embedding constant S = {S:.6f} on {grid.sizes}")

prob = pl.ProblemSpec(
    A=pl.ScalarField.constant(grid, 1.0),
    B=pl.ScalarField.constant(grid, 0.05),
    p=1.5,
    q=2.0,
    mode="source",
)

cond = pl.check_existence_cond(op, prob, S_psi=S)
print(f"existence condition: lhs = {cond.lhs:.6f} < C = {cond.rhs:.6f} "
      f"-> satisfied = {cond.satisfied}")

rep = pl.mountain_pass_solve(op, prob, S_psi=S)
print(f"\nsolution: u = {rep.u.max():.10f} (constant data, constant field), "
      f"residual {rep.residual:.2e}")
print(f"pass level bracket: rim {rep.rim_value:.4f} < c_eps "
      f"{rep.pass_level:.4f} < E(r0 phi) {rep.energy_at_r0:.4f}")
print(f"endpoint energies {rep.energy_at_endpoints} (both below the rim)")
(polish,) = rep.eps_trace
print(f"path regularized by eps0 = {rep.extras['eps0']:.2f}; Newton polish at "
      f"eps = {polish['eps']:g}: {polish['newton_iterations']} steps to residual "
      f"{polish['residual']:.3e}, min u {polish['min_u']:.4f}, singular integral "
      f"{polish['singular_integral']:.4g}")

# the scalar picture: two positive roots of beta*u = 1/u^1.5 + 0.05 u^2;
# the minimax search lands on the larger (the pass), the monotone bracket
# between perturbed solutions lands on the smaller
second = pl.second_solution_attempt(op, prob, rep.u, 0.002, S_psi=S)
print(f"\nsecond solution attempt: distinct = {second.extras['distinct']}, "
      f"u = {second.u.max():.10f} (gap {second.extras['gap_to_first']:.4f})")
print(f"coefficient ordering held: {second.extras['ordering_ok']} "
      "(saddle branches are anti-ordered in the coupling; the attempt then "
      "descends from the supersolution alone)")
