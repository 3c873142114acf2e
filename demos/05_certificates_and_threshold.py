#!/usr/bin/env python3
"""Existence and non-existence certificates, and the threshold coupling.

For P u = 1/u^p + lambda u^q there is a threshold lambda* separating
existence from non-existence.  The certificates give a computable bracket
around it, and bisection on solver feasibility locates it empirically.

Run:  python demos/05_certificates_and_threshold.py   (about a minute)
"""

import numpy as np

import paneitzlab as pl

params = pl.derive_coefficients(5, 20)
grid = pl.SpectralGrid((64,), (2 * np.pi,))
op = pl.build_operator(params, grid)

# the tangency picture behind both certificates: a line lambda*t meets
# a/t^p + b*t^q iff its slope clears the tangent through the origin
t0, lam_c = pl.tangent_slope_root(1.0, 1.0, 3.0, 2.0)
print(f"unit tangency: touch point t0 = {t0:.6f}, critical slope {lam_c:.6f}")
print(f"certificate denominator D(3,2) = {pl.ineq_denominator(3.0, 2.0):.6f} "
      "(the same number)")

# absorption sign with a negative part: the eigenvalue certificate
eig = pl.principal_eigenpair(op)
prob_neg = pl.ProblemSpec(
    A=pl.ScalarField.constant(grid, 1.0),
    B=pl.ScalarField.constant(grid, -1.0),
    p=3.0, q=2.0, mode="absorption",
)
rep = pl.check_existence_ineq(op, prob_neg, eig)
print(f"\neigenvalue certificate (B = -1): lhs {rep.lhs:.4f} <= "
      f"lambda1/D = {rep.rhs:.4f}, margin {rep.margin:.4f}")

# non-existence by the integral identity, with the published formula logged
for lam in (1.0, 8.0):
    prob = pl.ProblemSpec(
        A=pl.ScalarField.constant(grid, 1.0),
        B=pl.ScalarField.constant(grid, lam),
        p=3.0, q=2.0, mode="source",
    )
    non = pl.check_nonexistence(op, prob)
    print(f"non-existence at lambda = {lam}: satisfied = {non.satisfied} "
          f"(margin {non.margin:.3f}, printed-vs-derived "
          f"{non.ingredients['printed_vs_derived']:.3f})")

# the certified bracket and the empirical threshold
S = pl.sobolev_constant(op)
bracket = pl.lambda_star_bracket(op, 3.0, 2.0, S_psi=S)
print(f"\ncertified bracket: [{bracket.lower:.3g}, {bracket.upper:.6f}]")
print(f"published closed-form bounds (verbatim, not load-bearing): "
      f"[{bracket.printed_lower:.3g}, {bracket.printed_upper:.6f}]")

result = pl.lambda_star_bisect(op, 3.0, 2.0, tol=1e-3, S_psi=S)
print(f"empirical threshold: {result.empirical:.6f} in "
      f"[{result.lower:.3g}, {result.upper:.6f}] "
      f"after {len(result.probes)} solver probes")
print("probe log (coupling, feasible):")
for pr in result.probes:
    print(f"  {pr['lam']:10.6f}  {pr['feasible']}")
scalar = (params.beta / lam_c) ** ((3.0 + 2.0) / (3.0 + 1.0))
print(f"\nscalar tangency prediction for constant data: {scalar:.6f}")
