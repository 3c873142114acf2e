import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import paneitzlab as pl
from paneitzlab.operator import backtrack, newton

from _oracles import dense_operator_matrix_1d

TWO_PI = 2.0 * np.pi


def random_field(grid, rng):
    return pl.ScalarField(grid, rng.standard_normal(grid.shape))


class TestApply:
    def test_constant_field(self, ref_op):
        u = pl.ScalarField.constant(ref_op.grid, 1.0)
        out = ref_op.apply(u)
        assert np.abs(out.values - 6.5625).max() < 1e-12

    @pytest.mark.parametrize("R", [20.0, 3.8, -5.0])
    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (8, 4, 4)])
    def test_constant_one_maps_to_the_potential(self, sizes, R):
        # P 1 = W to the last bit, so constant brackets need no application
        grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        rng = np.random.default_rng(len(sizes))
        psi = pl.ScalarField(grid, 0.3 * rng.standard_normal(sizes))
        op = pl.build_operator(pl.derive_coefficients(5, R), grid, psi=psi)
        assert op.W.max() > op.W.min()
        assert np.array_equal(op.apply_values(np.ones(sizes)), op.W.values)

    def test_single_cosine_mode(self, ref_op):
        x = ref_op.grid.meshgrid()[0]
        u = pl.ScalarField(ref_op.grid, np.cos(x))
        out = ref_op.apply(u)
        # sigma(1) + beta = 1 + 5.5 + 6.5625
        assert np.abs(out.values - 13.0625 * np.cos(x)).max() < 1e-9

    def test_constant_potential_shift(self, ref_params, ref_grid):
        v = 0.7
        op0 = pl.build_operator(ref_params, ref_grid)
        opv = pl.build_operator(
            ref_params, ref_grid, potential=pl.ScalarField.constant(ref_grid, v)
        )
        rng = np.random.default_rng(1)
        u = random_field(ref_grid, rng)
        lhs = opv.apply(u).values
        rhs = op0.apply(u).values - ref_params.b_n * v * u.values
        assert np.abs(lhs - rhs).max() < 1e-11 * np.abs(rhs).max()

    def test_linearity(self, ref_op):
        rng = np.random.default_rng(2)
        u, v = random_field(ref_op.grid, rng), random_field(ref_op.grid, rng)
        a, b = 1.37, -2.21
        lhs = ref_op.apply(a * u + b * v).values
        rhs = a * ref_op.apply(u).values + b * ref_op.apply(v).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() < 1e-12 * scale

    def test_self_adjoint(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(ref_grid, 1.0 + np.cos(x) ** 2)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u, v = random_field(ref_grid, rng), random_field(ref_grid, rng)
            a = ref_grid.inner(op.apply(u).values, v.values)
            b = ref_grid.inner(u.values, op.apply(v).values)
            assert abs(a - b) < 1e-10 * max(abs(a), abs(b), 1.0)

    def test_grid_mismatch(self, ref_op):
        other = pl.ScalarField.constant(pl.SpectralGrid((32,), (TWO_PI,)), 1.0)
        with pytest.raises(pl.GridMismatchError):
            ref_op.apply(other)

    def test_energy_identity(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(ref_grid, 0.5 * (1.0 + np.sin(x)))
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rng = np.random.default_rng(4)
        u = random_field(ref_grid, rng)
        lhs = op.form(u)
        uhat = np.fft.fftn(u.values)
        spectral_weight = ref_grid.cell_weight / ref_grid.npoints
        rhs = float(np.sum(op.sigma * np.abs(uhat) ** 2) * spectral_weight)
        rhs += ref_grid.integrate(op.W.values * u.values**2)
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_matches_dense_dft_assembly(self, ref_params):
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        x = grid.meshgrid()[0]
        V = pl.ScalarField(grid, 0.3 * (1.0 + np.cos(x)))
        op = pl.build_operator(ref_params, grid, potential=V)
        M = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI, op.W.values)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(32)
        lhs = op.apply_values(u)
        rhs = M @ u
        assert np.abs(lhs - rhs).max() < 1e-9 * np.abs(rhs).max()

    def test_dense_matrix_is_assembled_afresh_for_its_caller(self, ref_params):
        # the operator keeps no matrix: each call returns equal bits in an
        # array of its own, which the caller may overwrite
        op = pl.build_operator(ref_params, pl.SpectralGrid((64,), (TWO_PI,)))
        first, second = op.dense_matrix(), op.dense_matrix()
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        assert np.array_equal(first, second)
        first[:] = 0.0
        assert np.array_equal(op.dense_matrix(), second)

    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (8, 4, 4)])
    def test_dense_matrix_matches_per_column_assembly(self, ref_params, sizes):
        # P is applied to stacks of unit fields, one stack per index of the
        # first axis; the matrix must be the per-column one, bit for bit
        grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        rng = np.random.default_rng(len(sizes))
        op = pl.build_operator(ref_params, grid, potential=pl.ScalarField(
            grid, 0.3 * rng.random(sizes)))
        orig = op.apply_values
        applies = []
        op.apply_values = lambda v: applies.append(v.shape) or orig(v)
        dense = op.dense_matrix()
        assert len(applies) == sizes[0]

        npts = grid.npoints
        eye = np.eye(npts).reshape((npts,) + sizes)
        cols = np.empty((npts, npts))
        for j in range(npts):
            cols[:, j] = orig(eye[j]).ravel()
        assert np.array_equal(dense, 0.5 * (cols + cols.T))


class TestTwoDimensional:
    def test_apply_and_solve(self, ref_params):
        grid = pl.SpectralGrid((16, 16), (TWO_PI, TWO_PI))
        X, Y = grid.meshgrid()
        V = pl.ScalarField(grid, 0.5 * (1.0 + np.sin(X) * np.cos(Y)))
        op = pl.build_operator(ref_params, grid, potential=V)
        rng = np.random.default_rng(9)
        u = pl.ScalarField(grid, rng.standard_normal(grid.shape))
        v = pl.ScalarField(grid, rng.standard_normal(grid.shape))
        a = grid.inner(op.apply(u).values, v.values)
        b = grid.inner(u.values, op.apply(v).values)
        assert abs(a - b) < 1e-10 * max(abs(a), abs(b))
        rhs = pl.ScalarField(grid, rng.standard_normal(grid.shape))
        sol = op.solve_shifted(0.7, rhs.values)
        resid = op.apply_values(sol) + 0.7 * sol - rhs.values
        assert np.abs(resid).max() <= 1e-10 * np.abs(rhs.values).max()

    def test_constant_solution_matches_1d(self, ref_params):
        # the scalar fixed point does not care about the lattice dimension
        grid = pl.SpectralGrid((16, 16), (TWO_PI, TWO_PI))
        op = pl.build_operator(ref_params, grid)
        prob = pl.ProblemSpec(
            A=pl.ScalarField.constant(grid, 1.0),
            B=pl.ScalarField.constant(grid, 1.0),
            p=3.0, q=2.0, mode="absorption",
        )
        rep = pl.monotone_solve(op, prob, pl.find_sub_super(op, prob))
        assert np.abs(rep.u.values - 0.6110358366588059).max() < 1e-8


class TestSolveShifted:
    def test_single_mode_inverse(self, ref_op):
        x = ref_op.grid.meshgrid()[0]
        lam = 0.3
        target = np.cos(2 * x)
        t = 4.0
        factor = t * t + 5.5 * t + 6.5625 + lam
        rhs = pl.ScalarField(ref_op.grid, factor * target)
        u = ref_op.solve_shifted(lam, rhs.values)
        assert np.abs(u - target).max() < 1e-10

    def test_constant_rhs(self, ref_op):
        lam = 2.0
        rhs = pl.ScalarField.constant(ref_op.grid, 3.0)
        u = ref_op.solve_shifted(lam, rhs.values)
        assert np.abs(u - 3.0 / (6.5625 + lam)).max() < 1e-11

    def test_variable_potential_residual(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(ref_grid, 2.0 + np.sin(3 * x))
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rng = np.random.default_rng(6)
        rhs = pl.ScalarField(ref_grid, rng.standard_normal(64))
        u = op.solve_shifted(0.5, rhs.values)
        resid = op.apply_values(u) + 0.5 * u - rhs.values
        assert np.abs(resid).max() <= 1e-10 * np.abs(rhs.values).max()

    def test_roundtrip_band_limited(self, ref_op):
        rng = np.random.default_rng(7)
        hat = np.zeros(64, dtype=complex)
        hat[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        hat[1:6] = hat[1:6]
        vals = np.fft.ifft(hat + np.conj(np.roll(hat[::-1], 1))).real
        u = pl.ScalarField(ref_op.grid, vals)
        lam = 1.0
        rhs = pl.ScalarField(ref_op.grid, ref_op.apply(u).values + lam * u.values)
        back = ref_op.solve_shifted(lam, rhs.values)
        assert np.abs(back - u.values).max() < 1e-10 * max(np.abs(u.values).max(), 1.0)

    def test_pointwise_shift_matches_dense(self, ref_params, ref_grid):
        # a Newton step's shift d = -f'(u) varies over the grid
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(ref_grid, 2.0 + np.sin(3 * x))
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rng = np.random.default_rng(8)
        d = 5.0 + 40.0 * rng.random(64)
        rhs = rng.standard_normal(64)
        u = op.solve_shifted(d, rhs)
        P = dense_operator_matrix_1d(ref_params.alpha, 64, TWO_PI, op.W.values)
        ref = np.linalg.solve(P + np.diag(d), rhs)
        assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_pointwise_shift_dipping_to_minus_beta_solves(self, ref_params, ref_op):
        # W + d is 0 at one point and 106.5625 elsewhere: P + diag d is
        # positive definite through its symbol, and the solve goes through
        d = np.full(ref_op.grid.shape, 100.0)
        d[7] = -ref_op.params.beta
        rhs = np.ones(ref_op.grid.shape)
        u = ref_op.solve_shifted(d, rhs)
        P = dense_operator_matrix_1d(ref_params.alpha, 64, TWO_PI, ref_op.W.values)
        ref = np.linalg.solve(P + np.diag(d), rhs)
        assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.floats(0.01, 10.0),
           dmax=st.floats(0.01, 20.0))
    def test_sign_changing_potential_solves_when_definite(self, ref_params, seed,
                                                          depth, dmax):
        # W of the three lowest modes with min W = -depth, d positive: the
        # solve must match the dense one whenever P + diag d is definite.  Of
        # 2000 systems drawn with depth and dmax uniform over these ranges,
        # 1430 are definite, and 1351 of those fail the sufficient test
        # min sigma + min W + min d > 0 (min sigma = 0, the constant mode)
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        x = grid.meshgrid()[0]
        rng = np.random.default_rng(seed)
        k = np.arange(1, 4)[:, None]
        W = (rng.standard_normal((3, 1)) * np.cos(k * x)
             + rng.standard_normal((3, 1)) * np.sin(k * x)).sum(axis=0)
        W -= depth + W.min()
        d = dmax * rng.random(32)
        rhs = rng.standard_normal(32)
        V = pl.ScalarField(grid, ref_params.Qconst - W / ref_params.b_n)
        op = pl.build_operator(ref_params, grid, potential=V)
        M = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI, op.W.values) + np.diag(d)
        eig = np.linalg.eigvalsh(M)
        assume(eig[0] > 1e-6 * eig[-1])
        ref = np.linalg.solve(M, rhs)
        u = op.solve_shifted(d, rhs)
        assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["potential", "shift"])
    def test_indefinite_system_raises(self, ref_params, ref_grid, ref_op, case):
        # the constant mode has eigenvalue W = -15 (lam 0), or beta + lam = -1:
        # conjugate gradients meet negative curvature on the first step
        if case == "potential":
            V = pl.ScalarField.constant(ref_grid, ref_params.Qconst + 30.0)
            op, lam = pl.build_operator(ref_params, ref_grid, potential=V), 0.0
        else:
            op, lam = ref_op, -ref_op.params.beta - 1.0
        with pytest.raises(pl.CoercivityError, match="nonpositive curvature"):
            op.solve_shifted(lam, np.ones(ref_grid.shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_refused_before_any_application(self, ref_op,
                                                          monkeypatch, bad):
        applied = []
        monkeypatch.setattr(ref_op, "apply_values", applied.append)
        rhs = np.ones(ref_op.grid.shape)
        rhs[5] = bad
        with pytest.raises(ValueError, match="finite"):
            ref_op.solve_shifted(0.5, rhs, x0=np.ones(ref_op.grid.shape))
        assert applied == []

    @pytest.mark.parametrize("shape", [(32,), (8, 8)])
    def test_wrong_shape_rhs(self, ref_op, shape):
        with pytest.raises(pl.GridMismatchError):
            ref_op.solve_shifted(0.5, np.ones(shape))

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_one_transform_pair_per_iteration(self, ref_params, monkeypatch,
                                              with_x0):
        # sigma p comes from the preconditioner's output, so an iteration
        # transforms once each way: 2 per iteration, 2 for the first
        # preconditioned residual and 2 more for the residual of x0
        grid = pl.SpectralGrid((64,), (TWO_PI,))
        x = grid.meshgrid()[0]
        op = pl.build_operator(ref_params, grid,
                               potential=pl.ScalarField(grid, 2.0 + np.sin(3 * x)))
        calls = {"rfft": 0, "irfft": 0}
        for name in calls:
            def counted(*args, _name=name, _fft=getattr(grid, name)):
                calls[_name] += 1
                return _fft(*args)
            monkeypatch.setitem(grid.__dict__, name, counted)
        preconditioned = []
        preconditioner = op._preconditioner

        def counted_preconditioner(lam):
            pinv, c = preconditioner(lam)
            return (lambda r: preconditioned.append(r) or pinv(r)), c

        monkeypatch.setattr(op, "_preconditioner", counted_preconditioner)
        rhs = np.random.default_rng(6).standard_normal(64)
        op.solve_shifted(0.5, rhs, x0=np.ones(64) if with_x0 else None)
        iterations = len(preconditioned) - 1
        assert iterations > 5
        setup = 2 + (2 if with_x0 else 0)
        assert calls["rfft"] + calls["irfft"] == 2 * iterations + setup
        assert calls["rfft"] == calls["irfft"]

    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (8, 4, 16)])
    @pytest.mark.parametrize("pointwise", [False, True])
    def test_preconditioner_divides_bitwise(self, ref_params, sizes, pointwise):
        # multiplying by the reciprocal of sigma + c gives the quotient's bits
        grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        rng = np.random.default_rng(4)
        op = pl.build_operator(ref_params, grid, psi=random_field(grid, rng))
        lam = 5.0 + rng.random(grid.shape) if pointwise else 0.7
        r = rng.standard_normal(grid.shape)
        pre = op._sigma_half + op._preconditioner_constant(lam)
        ref = grid.irfft(grid.rfft(r) / pre)
        assert np.array_equal(op.preconditioner(lam)(r), ref)

    @pytest.mark.parametrize("sizes", [(64,), (8, 8, 8)])
    def test_given_px0_keeps_the_bits(self, ref_params, sizes):
        grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        rng = np.random.default_rng(5)
        op = pl.build_operator(ref_params, grid, psi=random_field(grid, rng))
        rhs, x0 = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        lam = 20.0 - op.W.min()
        plain = op.solve_shifted(lam, rhs, x0=x0)
        given = op.solve_shifted(lam, rhs, x0=x0, px0=op.apply_values(x0))
        assert np.array_equal(given, plain)

    def test_px0_needs_x0(self, ref_op):
        ones = np.ones(ref_op.grid.shape)
        with pytest.raises(ValueError, match="needs x0"):
            ref_op.solve_shifted(1.0, ones, px0=ones)

    @pytest.fixture(scope="class")
    def strong_op_3d(self, ref_params):
        # max |grad psi|^2 = 40.5 > Qconst = 13.125: W changes sign
        grid = pl.SpectralGrid((16, 16, 16), (TWO_PI,) * 3)
        x, y, z = grid.meshgrid()
        psi = 3.0 * (np.sin(x) + np.sin(y) * np.cos(z) + 0.5 * np.cos(x + z))
        op = pl.build_operator(ref_params, grid, psi=pl.ScalarField(grid, psi))
        assert op.W.min() < 0.0 < op.W.max()
        return op

    @pytest.mark.parametrize("case", ["scalar-x0", "pointwise", "tol-1e-14"])
    def test_recurrence_does_not_drift(self, strong_op_3d, case):
        # the recurrence for sigma p must not carry x away from the true
        # residual: measured with P applied afresh, the relative sup residual
        # stays within 10 tol, or 10 times P's round-off floor where that
        # lies above tol (about 4e-13 of the right side on this grid)
        op = strong_op_3d
        x, y, z = op.grid.meshgrid()
        rng = np.random.default_rng(11)
        rhs = np.sin(x) * np.cos(2 * y) + 0.3 * np.cos(z) \
            + 0.1 * rng.standard_normal(op.grid.shape)
        kwargs = {}
        if case == "scalar-x0":
            # a flow step: shift 1/tau, started from the previous iterate
            lam = 40.0
            kwargs["x0"] = rhs / (op.params.beta + lam)
        elif case == "pointwise":
            # a Newton step's d = -f'(u)
            lam = 1.0 - op.W.min() + 30.0 * (1.0 + np.sin(x) * np.sin(y))
        else:
            # the inverse iteration's solve: P is definite, W changes sign
            lam = 0.0
            kwargs["tol"] = 1e-14
        tol = kwargs.get("tol", 1e-12)
        u = op.solve_shifted(lam, rhs, **kwargs)
        bnorm = np.abs(rhs).max()
        resid = np.abs(rhs - op.apply_values(u) - lam * u).max() / bnorm
        assert resid <= 10.0 * max(tol, op.roundoff_floor(u) / bnorm)


class TestSolveLinearized:
    def test_indefinite_solve_matches_dense(self, ref_params):
        # P - diag fp has two negative eigenvalues: an indefinite system
        # conjugate gradients cannot take
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        x = grid.meshgrid()[0]
        op = pl.build_operator(ref_params, grid,
                               potential=pl.ScalarField(grid, 1.0 + np.cos(x)))
        fp = 12.0 + 3.0 * np.sin(2 * x)
        J = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI, op.W.values)
        J -= np.diag(fp)
        assert np.sum(np.linalg.eigvalsh(J) < 0.0) == 2
        rhs = np.random.default_rng(3).standard_normal(32)
        xs = op.solve_linearized(fp, rhs)
        assert xs.shape == grid.shape
        ref = np.linalg.solve(J, rhs)
        assert np.abs(xs - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_matches_scipy_minres_at_one_transform_pair_per_iteration(
            self, mp_params, monkeypatch):
        # a 32^2 Jacobian of Morse index 1, as at a mountain pass: scipy's
        # minres applies P and the preconditioner in every iteration, this
        # solve the preconditioner alone, plus one pair for the first
        # preconditioned residual
        import scipy.sparse.linalg as spla

        grid = pl.SpectralGrid((32, 32), (TWO_PI, TWO_PI))
        x, y = grid.meshgrid()
        op = pl.build_operator(mp_params, grid,
                               psi=pl.ScalarField(grid, 0.2 * np.sin(x) * np.cos(y)))
        fp = 0.6 + 2.0 * np.sin(x) * np.sin(2.0 * y)
        J = op.dense_matrix()
        J -= np.diag(fp.ravel())
        assert np.sum(np.linalg.eigvalsh(J) < 0.0) == 1
        rhs = np.random.default_rng(3).standard_normal(grid.shape)
        n, pinv = grid.npoints, op.preconditioner(0.0)
        A = spla.LinearOperator((n, n), dtype=float, matvec=lambda v: (
            op.apply_values(v.reshape(grid.shape)) - fp * v.reshape(grid.shape)).ravel())
        M = spla.LinearOperator((n, n), dtype=float,
                                matvec=lambda r: pinv(r.reshape(grid.shape)).ravel())
        iterations = []
        ref, info = spla.minres(A, rhs.ravel(), rtol=1e-10, maxiter=4 * n, M=M,
                                callback=lambda xk: iterations.append(1))
        assert info == 0 and len(iterations) > 5

        pairs = {"rfft": 0, "irfft": 0}

        def counted(name):
            transform = getattr(grid, name)

            def call(a):
                pairs[name] += 1
                return transform(a)
            return call

        for name in pairs:
            monkeypatch.setitem(vars(grid), name, counted(name))
        xs = op.solve_linearized(fp, rhs)
        assert xs.shape == grid.shape
        assert np.abs(xs.ravel() - ref).max() <= 1e-10 * np.abs(ref).max()
        assert pairs == {"rfft": len(iterations) + 1, "irfft": len(iterations) + 1}

    def test_zero_right_side_takes_no_iteration(self, ref_op):
        x = ref_op.solve_linearized(np.ones(ref_op.grid.shape), np.zeros(ref_op.grid.shape))
        assert np.array_equal(x, np.zeros(ref_op.grid.shape))

    def test_roundoff_floor_scales_with_operator_and_field(self, ref_op):
        v = np.cos(ref_op.grid.meshgrid()[0])
        norm = ref_op.sigma.max() + np.abs(ref_op.W.values).max()
        floor = ref_op.roundoff_floor(v)
        assert floor == pytest.approx(np.finfo(float).eps * norm, rel=1e-12)
        assert ref_op.roundoff_floor(-3.0 * v) == pytest.approx(3.0 * floor, rel=1e-15)


class TestBacktrack:
    """``backtrack(x, step, accept)`` tries ``x + s step`` for ``s = 1, 1/2,
    ...`` and returns the first candidate with what ``accept(cand, s)``
    returned for it; here ``accept`` takes a candidate whose sup norm falls
    below 2."""

    @staticmethod
    def below_two(c, s):
        r = float(np.abs(c).max())
        return (r, -c) if r < 2.0 else None

    def test_full_step_when_it_decreases(self):
        x, step = np.array([1.0, -2.0]), np.array([-0.5, 1.5])
        seen = []

        def accept(c, s):
            seen.append(s)
            return self.below_two(c, s)

        cand, (r, data) = backtrack(x, step, accept)
        assert seen == [1.0]
        assert np.array_equal(cand, x + step)
        assert np.array_equal(data, -cand)
        assert r == 0.5

    def test_halves_past_overshoot_and_inadmissible(self):
        # s = 1 overshoots to -3, s = 1/2 is refused as inadmissible and
        # s = 1/4 lands on 0.75
        seen = []

        def accept(c, s):
            seen.append((float(c[0]), s))
            return None if len(seen) == 2 else self.below_two(c, s)

        cand, (r, _) = backtrack(np.array([2.0]), np.array([-5.0]), accept)
        assert seen == [(-3.0, 1.0), (-0.5, 0.5), (0.75, 0.25)]
        assert cand[0] == 0.75 and r == 0.75

    def test_stagnation_returns_none(self):
        steps = []

        def accept(c, s):
            steps.append(s)
            return None

        assert backtrack(np.zeros(3), np.ones(3), accept) is None
        assert steps == [2.0 ** -k for k in range(50)]


class TestNewton:
    """One case per stop reason of the Newton kernel, on ``P u = u^-3`` over
    the 32-point psi = 0 operator: its solution is the constant
    ``beta^(-1/4)``, since ``P`` maps constants to ``beta`` times themselves."""

    @staticmethod
    def f(u):
        return u ** -3.0

    @staticmethod
    def fprime(u):
        return -3.0 * u ** -4.0

    @pytest.fixture
    def op(self, ref_params):
        return pl.build_operator(ref_params, pl.SpectralGrid((32,), (TWO_PI,)))

    def run(self, op, maxiter=20, **kw):
        u = np.ones(op.grid.shape)
        return newton(op, self.f, self.fprime, u, op.apply_values(u),
                      lambda v, pv, r: r <= 1e-12, maxiter, **kw)

    def test_done(self, op, ref_params):
        u, resid, steps, stop = self.run(op)
        assert stop == "done"
        assert 1 <= steps <= 8
        assert resid <= 1e-12
        assert np.abs(u - ref_params.beta ** -0.25).max() <= 1e-13

    def test_solve_failed(self, op):
        def solve(fp, rhs):
            raise pl.ConvergenceError("no solve")

        u, resid, steps, stop = self.run(op, solve=solve)
        assert (stop, steps) == ("solve-failed", 0)
        assert np.array_equal(u, np.ones(op.grid.shape))
        assert resid == pytest.approx(op.params.beta - 1.0, rel=1e-12)

    def test_stagnated(self, op):
        u, resid, steps, stop = self.run(op, admissible=lambda c: False)
        assert (stop, steps) == ("stagnated", 0)
        assert np.array_equal(u, np.ones(op.grid.shape))

    def test_no_decrease_stagnates(self, op):
        # the step points uphill: every halving raises the residual, so the
        # sufficient-decrease test refuses all of them
        u, resid, steps, stop = self.run(op, solve=lambda fp, rhs: -rhs)
        assert (stop, steps) == ("stagnated", 0)
        assert np.array_equal(u, np.ones(op.grid.shape))
        assert resid == pytest.approx(op.params.beta - 1.0, rel=1e-12)

    def test_cap(self, op):
        u, resid, steps, stop = self.run(op, maxiter=0)
        assert (stop, steps) == ("cap", 0)
        assert np.array_equal(u, np.ones(op.grid.shape))
        assert resid == pytest.approx(op.params.beta - 1.0, rel=1e-12)


class TestConformalQ:
    def test_identity_factor(self, ref_op, ref_params):
        u = pl.ScalarField.constant(ref_op.grid, 1.0)
        out = ref_op.conformal_Q(u)
        assert np.abs(out.values - ref_params.Qconst).max() < 1e-10

    def test_constant_factor(self, ref_op, ref_params):
        c = 1.7
        n = ref_params.n
        out = ref_op.conformal_Q(pl.ScalarField.constant(ref_op.grid, c))
        expected = c ** (-8.0 / (n - 4.0)) * ref_params.Qconst
        assert np.abs(out.values - expected).max() < 1e-10 * abs(expected)

    def test_perturbed_factor_against_dense(self, ref_params):
        grid = pl.SpectralGrid((32,), (TWO_PI,))
        op = pl.build_operator(ref_params, grid)
        x = grid.meshgrid()[0]
        u = 1.0 + 0.1 * np.cos(x)
        out = op.conformal_Q(pl.ScalarField(grid, u))
        M = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI,
                                     np.full(32, ref_params.beta))
        n = ref_params.n
        expected = (2.0 / (n - 4.0)) * u ** (-(n + 4.0) / (n - 4.0)) * (M @ u)
        assert np.all(np.isfinite(out.values))
        assert np.abs(out.values - expected).max() < 1e-9 * np.abs(expected).max()

    def test_requires_positive_factor(self, ref_op):
        bad = pl.ScalarField.constant(ref_op.grid, -1.0)
        with pytest.raises(ValueError):
            ref_op.conformal_Q(bad)
