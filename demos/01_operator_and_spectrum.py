#!/usr/bin/env python3
"""Tour of the operator layer: Einstein-form coefficients, the periodic grid,
spectral application, the principal eigenpair, and the conformal transform.

Run:  python demos/01_operator_and_spectrum.py
"""

import numpy as np

import paneitzlab as pl

# dimension five with the unit-sphere curvature convention R = n(n-1)
params = pl.derive_coefficients(5, 20)
print("analytic coefficients (n=5, R=20)")
print(f"  alpha = {params.alpha},  beta = {params.beta},  Q = {params.Qconst}")
print(f"  critical exponent 2n/(n-4) = {params.two_sharp}")
r1, r2 = params.factor_roots()
print(f"  symbol factors as (t + {r1})(t + {r2}): a product of two"
      " second-order coercive operators")

# a 1-D periodic box standing in for the closed manifold
grid = pl.SpectralGrid((64,), (2 * np.pi,))
op = pl.build_operator(params, grid)
print(f"\ngrid: {grid.sizes} points, volume {grid.volume:.6f}")

one = pl.ScalarField.constant(grid, 1.0)
print(f"P(1) = {op.apply(one).values[0]:.6f}  (the constant beta)")

x = grid.meshgrid()[0]
cos_mode = pl.ScalarField(grid, np.cos(x))
out = op.apply(cos_mode)
print(f"P(cos x) / cos x = {out.values[0] / np.cos(x[0]):.6f}"
      f"  (sigma(1) + beta = 1 + {params.alpha} + {params.beta})")

# the principal eigenpair; for a zero scalar field it is the constant mode
eig = pl.principal_eigenpair(op)
print(f"\nlambda_1 = {eig.lambda1:.10f}, eigenfunction spread "
      f"{eig.phi1.max() - eig.phi1.min():.2e}, positive = {eig.positive}")
print(f"invariant sign = {pl.invariant_sign(op, eig)}")

# a scalar-field potential |grad psi|^2 shifts the spectrum down
psi = pl.ScalarField(grid, 0.8 * np.sin(x))
op_psi = pl.build_operator(params, grid, psi=psi)
eig_psi = pl.principal_eigenpair(op_psi)
print(f"with psi = 0.8 sin x: lambda_1 = {eig_psi.lambda1:.6f} "
      f"(potential range {op_psi.W.min():.4f}..{op_psi.W.max():.4f})")

# conformal transform normalization: the identity factor returns Q itself
q1 = op.conformal_Q(one)
c = 1.5
qc = op.conformal_Q(pl.ScalarField.constant(grid, c))
print(f"\nconformal curvature of the identity factor: {q1.values[0]:.6f}")
print(f"of the constant factor {c}: {qc.values[0]:.6f} "
      f"(= Q * c^(-8/(n-4)) = {params.Qconst * c ** -8.0:.6f})")

# inverse positivity, proved: the inverse dominates the positive kernel of
# sigma + max W entrywise, whose smallest entry is kernel_floor of its largest
rep = pl.positivity_check(op, eig)
print(f"\ninverse positivity: passed = {rep.passed}, "
      f"kernel floor {rep.kernel_floor:.3e}")
