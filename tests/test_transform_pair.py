"""Property tests of the grid's real-FFT pair and the operator built on it.

Each property is checked against the complex-FFT formula it replaces, on
grids of dimension 1 to 3 whose axes include the size-1 and size-2 cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paneitzlab as pl

PARAMS = pl.derive_coefficients(5, 20)
SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def grids(draw):
    d = draw(st.integers(1, 3))
    sizes = tuple(draw(st.sampled_from((1, 2, 4, 8, 16))) for _ in range(d))
    lengths = tuple(
        draw(st.floats(0.5, 10.0, allow_nan=False, allow_infinity=False))
        for _ in range(d)
    )
    return pl.SpectralGrid(sizes, lengths)


seeds = st.integers(0, 2**32 - 1)


def psi_operator(grid, rng):
    psi = pl.ScalarField(grid, rng.standard_normal(grid.shape))
    return pl.build_operator(PARAMS, grid, psi=psi)


def operator_bound(op):
    """Upper bound on the operator's sup norm: max |sigma| + max |W|."""
    return np.abs(op.sigma).max() + np.abs(op.W.values).max()


@SETTINGS
@given(grids(), seeds)
def test_apply_matches_complex_formula(grid, seed):
    rng = np.random.default_rng(seed)
    op = psi_operator(grid, rng)
    u = rng.standard_normal(grid.shape)
    ref = np.fft.ifftn(op.sigma * np.fft.fftn(u)).real + op.W.values * u
    tol = 1e-12 * np.abs(op.sigma).max() * np.abs(u).max()
    assert np.abs(op.apply_values(u) - ref).max() <= tol


@SETTINGS
@given(grids(), seeds)
def test_operator_is_symmetric(grid, seed):
    rng = np.random.default_rng(seed)
    op = psi_operator(grid, rng)
    u, v = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    a = grid.inner(op.apply_values(u), v)
    b = grid.inner(u, op.apply_values(v))
    norms = np.sqrt(grid.inner(u, u) * grid.inner(v, v))
    assert abs(a - b) <= 1e-12 * operator_bound(op) * norms


@SETTINGS
@given(grids())
def test_constant_maps_to_beta_without_psi(grid):
    op = pl.build_operator(PARAMS, grid)
    out = op.apply_values(np.ones(grid.shape))
    np.testing.assert_allclose(out, PARAMS.beta, rtol=1e-12,
                               atol=1e-12 * np.abs(op.sigma).max())


@SETTINGS
@given(grids(), seeds)
def test_whole_cell_shifts_commute_with_apply(grid, seed):
    rng = np.random.default_rng(seed)
    V = rng.random(grid.shape)
    u = rng.standard_normal(grid.shape)
    shift = tuple(int(rng.integers(0, m)) for m in grid.sizes)
    axes = tuple(range(grid.d))
    op = pl.build_operator(PARAMS, grid, potential=pl.ScalarField(grid, V))
    moved = pl.build_operator(
        PARAMS, grid, potential=pl.ScalarField(grid, np.roll(V, shift, axes))
    )
    lhs = moved.apply_values(np.roll(u, shift, axes))
    rhs = np.roll(op.apply_values(u), shift, axes)
    assert np.abs(lhs - rhs).max() <= 1e-12 * operator_bound(op) * np.abs(u).max()


@SETTINGS
@given(grids(), seeds)
def test_gradient_squared_matches_complex_formula(grid, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(grid.shape)
    hat = np.fft.fftn(psi)
    ref = sum(np.fft.ifftn(m * hat).real ** 2 for m in grid.derivative_multipliers)
    out = pl.gradient_squared(pl.ScalarField(grid, psi)).values
    tol = 1e-12 * max(grid.laplacian_eigenvalues.max(), 1.0) * np.abs(psi).max() ** 2
    assert np.abs(out - np.maximum(ref, 0.0)).max() <= tol


@SETTINGS
@given(grids(), seeds, st.floats(0.0, 10.0))
def test_preconditioner_inverts_constant_potential_operator(grid, seed, lam):
    rng = np.random.default_rng(seed)
    op = pl.build_operator(PARAMS, grid)
    u = rng.standard_normal(grid.shape)
    back = op.preconditioner(lam)[0](op.apply_values(u) + lam * u)
    # round-off of the forward application, divided by the smallest symbol
    cond = (np.abs(op.sigma).max() + PARAMS.beta + lam) / (PARAMS.beta + lam)
    assert np.abs(back - u).max() <= 1e-13 * cond * np.abs(u).max()


@pytest.mark.skipif(
    int(np.__version__.split(".")[0]) < 2,
    reason="numpy < 2 has its own FFT kernels, not the pocketfft C++ ones scipy has",
)
@SETTINGS
@given(grids(), seeds, st.booleans())
def test_transform_pair_has_numpys_bits(grid, seed, stacked):
    # above 1-D the pair is scipy's, called with numpy's axis order
    rng = np.random.default_rng(seed)
    axes = tuple(range(-grid.d, 0))
    u = rng.standard_normal(((3,) if stacked else ()) + grid.shape)
    hat = grid.rfft(u)
    assert np.array_equal(hat, np.fft.rfftn(u, axes=axes))
    hat *= 1.0 + 0.5j
    assert np.array_equal(grid.irfft(hat),
                          np.fft.irfftn(hat, s=grid.shape, axes=axes))
