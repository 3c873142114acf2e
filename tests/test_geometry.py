import numpy as np
import pytest

import paneitzlab as pl
from paneitzlab.geometry import lebesgue_norm, load_field_csv

from _oracles import fd_gradient_squared_1d

TWO_PI = 2.0 * np.pi


class TestCoefficients:
    def test_reference_values_n5(self):
        gp = pl.derive_coefficients(5, 20)
        assert gp.alpha == pytest.approx(5.5, rel=1e-12)
        assert gp.beta == pytest.approx(6.5625, rel=1e-12)
        assert gp.Qconst == pytest.approx(13.125, rel=1e-12)
        assert gp.two_sharp == pytest.approx(10.0, rel=1e-12)
        r1, r2 = gp.factor_roots()
        assert r1 == pytest.approx(1.75, rel=1e-12)
        assert r2 == pytest.approx(3.75, rel=1e-12)

    def test_reference_values_n6(self):
        gp = pl.derive_coefficients(6, 30)
        assert gp.alpha == pytest.approx(10.0, rel=1e-12)
        assert gp.beta == pytest.approx(24.0, rel=1e-12)
        assert gp.Qconst == pytest.approx(24.0, rel=1e-12)
        assert gp.two_sharp == pytest.approx(6.0, rel=1e-12)
        assert gp.factor_roots() == (pytest.approx(4.0), pytest.approx(6.0))

    def test_zero_curvature(self):
        gp = pl.derive_coefficients(5, 0)
        assert gp.alpha == 0.0 and gp.beta == 0.0 and gp.Qconst == 0.0

    @pytest.mark.parametrize("n", range(5, 11))
    def test_einstein_identity_and_discriminant(self, n):
        for R in (1.0, float(n * (n - 1))):
            gp = pl.derive_coefficients(n, R)
            assert gp.beta == pytest.approx(gp.b_n * gp.Qconst, rel=1e-12)
            assert gp.alpha**2 - 4.0 * gp.beta >= 0.0
            r1, r2 = gp.factor_roots()
            assert r1 > 0 and r2 > 0
            assert gp.two_sharp > 2.0

    @pytest.mark.parametrize("n", range(5, 11))
    def test_unit_sphere_factorization(self, n):
        gp = pl.derive_coefficients(n, n * (n - 1))
        r1, r2 = sorted(gp.factor_roots())
        assert r1 == pytest.approx((n / 2 + 1) * (n / 2 - 2), rel=1e-12)
        assert r2 == pytest.approx((n / 2) * (n / 2 - 1), rel=1e-12)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            pl.derive_coefficients(4, 20)
        with pytest.raises(ValueError):
            pl.derive_coefficients(5.5, 20)


class TestGrid:
    def test_quadrature_total_weight(self):
        grid = pl.SpectralGrid((16, 32), (1.5, TWO_PI))
        total = grid.cell_weight * grid.npoints
        assert total == pytest.approx(grid.volume, rel=1e-12)

    def test_laplacian_eigenvalues(self):
        grid = pl.SpectralGrid((8, 8), (TWO_PI, 1.0))
        t = grid.laplacian_eigenvalues
        assert t.min() >= 0.0
        assert t.flat[0] == 0.0
        assert np.count_nonzero(t == 0.0) == 1

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            pl.SpectralGrid((8, 8, 8, 8), (1, 1, 1, 1))
        with pytest.raises(ValueError):
            pl.SpectralGrid((12,), (1.0,))  # not a power of two
        with pytest.raises(ValueError):
            pl.SpectralGrid((8,), (-1.0,))


class TestScalarField:
    def test_shape_and_finiteness(self):
        grid = pl.SpectralGrid((8,), (1.0,))
        with pytest.raises(ValueError):
            pl.ScalarField(grid, np.ones(9))
        with pytest.raises(ValueError):
            pl.ScalarField(grid, np.full(8, np.nan))

    def test_arithmetic(self):
        grid = pl.SpectralGrid((8,), (1.0,))
        u = pl.ScalarField.constant(grid, 2.0)
        v = (u + 1.0) * 3.0 - u / 2.0
        assert v.values == pytest.approx(np.full(8, 8.0))
        assert (u**2).values == pytest.approx(np.full(8, 4.0))

    def test_grid_mismatch(self):
        a = pl.ScalarField.constant(pl.SpectralGrid((8,), (1.0,)), 1.0)
        b = pl.ScalarField.constant(pl.SpectralGrid((16,), (1.0,)), 1.0)
        with pytest.raises(pl.GridMismatchError):
            _ = a + b


class TestGradientSquared:
    def test_constant_field(self):
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        out = pl.gradient_squared(pl.ScalarField.constant(grid, 3.7))
        assert np.abs(out.values).max() == 0.0

    def test_single_mode(self):
        L = 4.0
        grid = pl.SpectralGrid((64,), (L,))
        x = grid.meshgrid()[0]
        psi = pl.ScalarField(grid, np.sin(2 * np.pi * x / L))
        out = pl.gradient_squared(psi)
        expected = (2 * np.pi / L) ** 2 * np.cos(2 * np.pi * x / L) ** 2
        assert np.abs(out.values - expected).max() < 1e-12

    def test_against_finite_differences(self):
        L = TWO_PI
        grid = pl.SpectralGrid((64,), (L,))
        x = grid.meshgrid()[0]
        psi_vals = np.sin(2 * np.pi * x / L) + np.sin(4 * np.pi * x / L)
        out = pl.gradient_squared(pl.ScalarField(grid, psi_vals))
        fd = fd_gradient_squared_1d(psi_vals, L)
        h = L / 64
        assert np.abs(out.values - fd).max() < 50.0 * h**2

    def test_homogeneity(self):
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(32)
        base = pl.gradient_squared(pl.ScalarField(grid, psi)).values
        scaled = pl.gradient_squared(pl.ScalarField(grid, 2.5 * psi)).values
        assert scaled == pytest.approx(2.5**2 * base, rel=1e-12)

    def test_2d_mode(self):
        grid = pl.SpectralGrid((32, 32), (TWO_PI, TWO_PI))
        X, Y = grid.meshgrid()
        psi = pl.ScalarField(grid, np.sin(X) * np.cos(Y))
        out = pl.gradient_squared(psi).values
        expected = (np.cos(X) * np.cos(Y)) ** 2 + (np.sin(X) * np.sin(Y)) ** 2
        assert np.abs(out - expected).max() < 1e-12


class TestLebesgueNorm:
    @pytest.mark.parametrize("s", [50.5, 80.0, 200.0])
    def test_log_space_matches_direct_sum(self, s):
        # above s = 50 the norm is summed in log space; where the direct
        # quadrature sum is finite the two agree
        grid = pl.SpectralGrid((64,), (TWO_PI,))
        v = 1.5 + np.sin(grid.meshgrid()[0])
        direct = float(grid.integrate(np.abs(v) ** s) ** (1.0 / s))
        assert np.isfinite(direct)
        assert lebesgue_norm(grid, v, s) == pytest.approx(direct, rel=1e-13)

    def test_log_space_survives_where_direct_overflows(self):
        grid = pl.SpectralGrid((64,), (TWO_PI,))
        v = np.full(grid.shape, 1e3)
        with np.errstate(over="ignore"):
            assert not np.isfinite(grid.integrate(v**400.0))
        expected = 1e3 * grid.volume ** (1.0 / 400.0)
        assert lebesgue_norm(grid, v, 400.0) == pytest.approx(expected, rel=1e-13)


class TestFieldIO:
    def test_binary_roundtrip(self, tmp_path):
        grid = pl.SpectralGrid((16, 8), (1.0, 2.0))
        rng = np.random.default_rng(3)
        f = pl.ScalarField(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "field.f64"
        pl.save_field(f, path)
        g = pl.load_field(path)
        assert g.grid == grid
        assert np.array_equal(g.values, f.values)

    def test_grid_mismatch_on_load(self, tmp_path):
        grid = pl.SpectralGrid((16,), (1.0,))
        f = pl.ScalarField.constant(grid, 1.0)
        path = tmp_path / "f.f64"
        pl.save_field(f, path)
        with pytest.raises(pl.GridMismatchError):
            pl.load_field(path, grid=pl.SpectralGrid((32,), (1.0,)))

    @pytest.mark.parametrize("sizes", [(8,), (4, 8), (4, 2, 8)])
    def test_csv_bytes_match_csv_writer(self, tmp_path, sizes):
        import csv

        grid = pl.SpectralGrid(sizes, (1.0,) * len(sizes))
        values = np.random.default_rng(len(sizes)).standard_normal(sizes)
        values.flat[:4] = [-0.0, 1e-300, 1e16, 0.0]
        f = pl.ScalarField(grid, values)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"i{a}" for a in range(len(sizes))] + ["value"])
            for idx in np.ndindex(*sizes):
                writer.writerow(list(idx) + [repr(float(values[idx]))])
        out = pl.field_to_csv(f, tmp_path / "field.csv")
        assert out == tmp_path / "field.csv"
        assert out.read_bytes() == ref.read_bytes()
        assert b"\r\n" in out.read_bytes()

    def test_csv_roundtrip(self, tmp_path):
        grid = pl.SpectralGrid((8,), (1.0,))
        f = pl.ScalarField(grid, np.arange(8.0) / 7.0)
        path = tmp_path / "field.csv"
        pl.field_to_csv(f, path)
        g = load_field_csv(path, grid)
        assert np.array_equal(g.values, f.values)
