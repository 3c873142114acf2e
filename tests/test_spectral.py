import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import paneitzlab as pl
from paneitzlab import operator as operator_module
from paneitzlab.spectral_analysis import _scale, critical_quotient

from _oracles import dense_inverse, dense_operator_matrix_1d
from conftest import sin_psi_operator

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def bump_op(ref_params):
    grid = pl.SpectralGrid((32,), (TWO_PI,))
    x = grid.meshgrid()[0]
    V = pl.ScalarField(grid, 0.5 * (1.0 + np.cos(x)))
    return pl.build_operator(ref_params, grid, potential=V)


class TestEigenpair:
    def test_constant_potential(self, ref_op):
        eig = pl.principal_eigenpair(ref_op)
        assert eig.lambda1 == pytest.approx(6.5625, abs=1e-10)
        assert np.abs(eig.phi1.values - 1.0).max() < 1e-8
        assert eig.positive

    def test_dense_oracle_variable_potential(self, ref_params, bump_op):
        M = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI, bump_op.W.values)
        evals, evecs = eigh(M)
        eig = pl.principal_eigenpair(bump_op, tol=1e-12)
        assert eig.lambda1 == pytest.approx(evals[0], abs=1e-8)
        vec = evecs[:, 0]
        vec = vec / vec[np.argmax(np.abs(vec))]
        assert np.abs(eig.phi1.values - vec).max() < 1e-8

    def test_rayleigh_self_consistency(self, bump_op):
        eig = pl.principal_eigenpair(bump_op, tol=1e-12)
        rq = pl.rayleigh_quotient(bump_op, eig.phi1)
        assert rq == pytest.approx(eig.lambda1, abs=1e-10 * max(1.0, abs(eig.lambda1)))

    def test_residual_contract(self, bump_op):
        eig = pl.principal_eigenpair(bump_op)
        lhs = bump_op.apply(eig.phi1).values - eig.lambda1 * eig.phi1.values
        assert np.abs(lhs).max() <= eig.residual + 1e-15

    def test_variational_lower_bound(self, bump_op):
        eig = pl.principal_eigenpair(bump_op)
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = pl.ScalarField(bump_op.grid, rng.standard_normal(32))
            assert eig.lambda1 <= pl.rayleigh_quotient(bump_op, u) + 1e-9


class TestInvariantSign:
    def test_positive(self, ref_op):
        assert pl.invariant_sign(ref_op) == 1

    def test_negative(self, ref_params, ref_grid):
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst + 1.0)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        eig = pl.principal_eigenpair(op)
        assert eig.lambda1 == pytest.approx(-ref_params.b_n, abs=1e-8)
        assert pl.invariant_sign(op, eig) == -1

    def test_zero(self, ref_params, ref_grid):
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        assert pl.invariant_sign(op) == 0

    def test_agrees_with_l2_quotient_descent(self, ref_params, ref_grid):
        # descent restricted to the L2 sphere minimizes the Rayleigh quotient,
        # so its sign must match the eigenvalue-based invariant
        for shift in (0.0, ref_params.Qconst + 1.0):
            V = pl.ScalarField.constant(ref_grid, shift)
            op = pl.build_operator(ref_params, ref_grid, potential=V)
            minimum = pl.sobolev_constant(op, exponent=2.0)
            minimum /= op.grid.volume ** 0.0  # quotient already L2-normalized
            sign_descent = 0 if abs(minimum) < 1e-9 else (1 if minimum > 0 else -1)
            assert sign_descent == pl.invariant_sign(op)


class TestEnergyNorm:
    def test_constant(self, ref_op):
        V = ref_op.grid.volume
        u = pl.ScalarField.constant(ref_op.grid, 1.0)
        assert pl.energy_norm(ref_op, u) == pytest.approx(np.sqrt(6.5625 * V), rel=1e-12)

    def test_cosine_mode(self, ref_op):
        x = ref_op.grid.meshgrid()[0]
        u = pl.ScalarField(ref_op.grid, np.cos(x))
        V = ref_op.grid.volume
        assert pl.energy_norm(ref_op, u) == pytest.approx(
            np.sqrt(13.0625 * V / 2.0), rel=1e-12
        )

    def test_homogeneity(self, ref_op):
        rng = np.random.default_rng(1)
        u = pl.ScalarField(ref_op.grid, rng.standard_normal(64))
        n1 = pl.energy_norm(ref_op, u)
        n2 = pl.energy_norm(ref_op, -3.2 * u)
        assert n2 == pytest.approx(3.2 * n1, rel=1e-12)

    def test_indefinite_rejected(self, ref_params, ref_grid):
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst + 40.0)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        u = pl.ScalarField.constant(ref_grid, 1.0)
        with pytest.raises(pl.CoercivityError):
            pl.energy_norm(op, u)


class TestSobolevConstant:
    def test_constant_upper_bound(self, ref_op, ref_sobolev, ref_params):
        V = ref_op.grid.volume
        bound = 6.5625 * V / V ** (2.0 / ref_params.two_sharp)
        assert ref_sobolev <= bound + 1e-12

    def test_quotient_scale_invariance(self, ref_op):
        rng = np.random.default_rng(2)
        u = pl.ScalarField(ref_op.grid, 0.5 + rng.random(64))
        q1 = critical_quotient(ref_op, u)
        q2 = critical_quotient(ref_op, -7.3 * u)
        assert q2 == pytest.approx(q1, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
           negate=st.booleans())
    def test_quotient_scale_invariance_property(self, ref_op, seed, scale, negate):
        u = pl.ScalarField(ref_op.grid, np.random.default_rng(seed).standard_normal(64))
        c = -scale if negate else scale
        assert critical_quotient(ref_op, c * u) == pytest.approx(
            critical_quotient(ref_op, u), rel=1e-12
        )

    def test_random_search_oracle_coarse_grid(self, mp_params):
        grid = pl.SpectralGrid((16,), (TWO_PI,))
        op = pl.build_operator(mp_params, grid)
        S = pl.sobolev_constant(op)
        e = mp_params.two_sharp
        w = grid.cell_weight
        rng = np.random.default_rng(42)
        best = np.inf
        for k in range(100000):
            kind = k % 3
            if kind == 0:
                u = rng.standard_normal(16)
            elif kind == 1:
                hat = np.fft.rfft(rng.standard_normal(16)) * np.exp(-np.arange(9))
                u = np.fft.irfft(hat, 16)
            else:
                amp = 0.3 * rng.standard_normal()
                u = 1.0 + amp * rng.standard_normal(16)
            q = op.grid.inner(u, op.apply_values(u)) / (np.sum(np.abs(u) ** e) * w) ** (2 / e)
            best = min(best, q)
        assert S <= best + 1e-12
        assert abs(S - best) <= 0.02 * best

    def test_translation_invariance(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(ref_grid, 3.0 * np.exp(-((x - np.pi) ** 2)))
        op1 = pl.build_operator(ref_params, ref_grid, potential=V)
        op2 = pl.build_operator(
            ref_params, ref_grid,
            potential=pl.ScalarField(ref_grid, np.roll(V.values, 7)),
        )
        S1 = pl.sobolev_constant(op1)
        S2 = pl.sobolev_constant(op2)
        assert S2 == pytest.approx(S1, rel=1e-10)


class TestInverseIteration:
    """The eigenpair and S_psi come from one nonlinear inverse iteration."""

    @pytest.fixture(scope="class")
    def negative_op(self, ref_params, ref_grid):
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst + 1.0)
        return pl.build_operator(ref_params, ref_grid, potential=V)

    def test_l2_constant_is_first_eigenvalue(self, bump_op, negative_op):
        for op in (bump_op, negative_op):
            lam = pl.principal_eigenpair(op).lambda1
            S = pl.sobolev_constant(op, exponent=2.0)
            assert S == pytest.approx(lam, abs=1e-10 * max(1.0, abs(lam)))

    def test_below_descent_value_above_spectral_bound(self, ref_op, ref_sobolev):
        # 19.220906468745362 is the value the earlier projected descent reported
        e = ref_op.params.two_sharp
        w = ref_op.grid.cell_weight
        lam = pl.principal_eigenpair(ref_op).lambda1
        assert ref_sobolev < 19.220906468745362
        assert ref_sobolev >= lam * w ** (1.0 - 2.0 / e)

    def test_non_coercive_returns_eigenfunction_quotient(self, negative_op):
        S = pl.sobolev_constant(negative_op)
        eig = pl.principal_eigenpair(negative_op)
        assert S == critical_quotient(negative_op, eig.phi1)
        assert S < 0.0
        assert pl.lambda_star_bracket(negative_op, 3.0, 2.0).lower == 0.0


    def test_constant_potential_runs_one_bump(self, ref_op, mp_op, bump_op,
                                              monkeypatch):
        # with a constant potential a second bump would repeat the first; the
        # Newton finish lowers the inverse iteration's own values (old) by
        # round-off or keeps them
        from paneitzlab import spectral_analysis

        runs = []
        iterate = spectral_analysis._inverse_iteration

        def counted(*args, **kwargs):
            runs.append(args)
            return iterate(*args, **kwargs)

        monkeypatch.setattr(spectral_analysis, "_inverse_iteration", counted)
        for op, expected, old, n_runs in (
            (ref_op, 18.22813848622275, 18.228138486222758, 2),
            (mp_op, 1.0306718461351074, 1.0306718461351074, 2),
            (bump_op, 17.398849708201993, 17.398849708202004, 2),
        ):
            runs.clear()
            assert pl.sobolev_constant(op) == expected
            assert len(runs) == n_runs
            assert expected <= old
            assert expected == pytest.approx(old, rel=1e-14, abs=0.0)

    def test_two_starts_settle_where_the_center_bump_stalled(self, ref_params,
                                                             ref_grid):
        # the center bump, a third start dropped since, stalled here with
        # "inverse iteration stalled at residual 6.944e-06"
        x = ref_grid.meshgrid()[0]
        op = pl.build_operator(ref_params, ref_grid, potential=pl.ScalarField(
            ref_grid, 0.02 * (1.0 + np.cos(x - 1.0))))
        assert pl.sobolev_constant(op) == pytest.approx(18.195114062445967,
                                                        rel=1e-12)

    @pytest.mark.parametrize("newton", [True, False])
    @pytest.mark.parametrize("npts", [128, 256])
    def test_stops_at_roundoff_floor(self, ref_params, npts, newton, monkeypatch):
        # 1e-10 times beta lies below the round-off of P v on these grids
        # (max sigma is 1.7e7 and 2.7e8); the iteration used to stall there,
        # and must not need the Newton finish to stop
        from paneitzlab import spectral_analysis

        if not newton:
            monkeypatch.setattr(spectral_analysis, "_newton_finish",
                                lambda *args: None)
        op = pl.build_operator(ref_params, pl.SpectralGrid((npts,), (TWO_PI,)))
        assert pl.sobolev_constant(op) == pytest.approx(18.2281384862, rel=1e-10)

    def test_newton_finish_cuts_solves(self, mp_params, monkeypatch):
        # psi != 0 in 2-D, like the minimax benchmark's operator: the inverse
        # iteration alone made 390 shifted solves here
        grid = pl.SpectralGrid((16, 16), (TWO_PI, TWO_PI))
        x, y = grid.meshgrid()
        op = pl.build_operator(mp_params, grid,
                               psi=pl.ScalarField(grid, 0.2 * np.sin(x) * np.cos(y)))
        solves = []
        solve = pl.PaneitzOperator.solve_shifted

        def counted(self, *args, **kwargs):
            solves.append(args)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", counted)
        S = pl.sobolev_constant(op)
        assert len(solves) <= 390 // 5
        # no higher than the inverse iteration's own value; the Newton finish
        # lands on it or an ulp below (see _inverse_iteration)
        assert S <= 4.29470729113722
        assert S == pytest.approx(4.294707291137219, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("finish", ["fails", "higher"])
    def test_rejected_newton_finish_keeps_iterating(self, ref_op, bump_op,
                                                    monkeypatch, finish):
        # a failed or quotient-raising finish leaves the inverse iteration's
        # own values, bit for bit
        from paneitzlab import spectral_analysis

        def newton(op, Q, v, pv, e, target):
            return None if finish == "fails" else (Q * (1.0 + 1e-12), v)

        monkeypatch.setattr(spectral_analysis, "_newton_finish", newton)
        assert pl.sobolev_constant(ref_op) == 18.228138486222758
        assert pl.sobolev_constant(bump_op) == 17.398849708202004


class TestLobpcgEigenpair:
    """The eigenpair comes from LOBPCG, a short preconditioned finish and one
    sup-norm acceptance test."""

    @pytest.fixture
    def lobpcg_iterations(self, monkeypatch):
        import scipy.sparse.linalg as spla

        iterations = []
        lobpcg = spla.lobpcg

        def counted(*args, **kwargs):
            vals, X, hist = lobpcg(*args, **kwargs)
            iterations.append(len(hist) - 2)
            return vals, X, hist

        monkeypatch.setattr(spla, "lobpcg", counted)
        return iterations

    def test_four_point_grid_matches_dense_oracle(self, ref_params,
                                                  lobpcg_iterations):
        # lobpcg turns dense below 5 points, warns and drops its history
        grid = pl.SpectralGrid((4,), (TWO_PI,))
        x = grid.meshgrid()[0]
        op = pl.build_operator(ref_params, grid,
                               potential=pl.ScalarField(grid, 0.5 * (1.0 + np.cos(x))))
        evals, evecs = eigh(dense_operator_matrix_1d(ref_params.alpha, 4, TWO_PI,
                                                     op.W.values))
        eig = pl.principal_eigenpair(op)
        assert eig.lambda1 == pytest.approx(evals[0], rel=1e-12)
        vec = evecs[:, 0] / evecs[np.argmax(np.abs(evecs[:, 0])), 0]
        assert np.abs(eig.phi1.values - vec).max() < 1e-12
        assert lobpcg_iterations == [] and eig.iterations == 0

    def test_two_by_two_grid_matches_dense_eigh(self, ref_params):
        grid = pl.SpectralGrid((2, 2), (TWO_PI, TWO_PI))
        x, y = grid.meshgrid()
        op = pl.build_operator(ref_params, grid, potential=pl.ScalarField(
            grid, 1.0 + np.cos(x) + 0.5 * np.cos(y)))
        # two-point DFT on each axis; wavenumbers 0 and 1 give t = mx^2 + my^2
        F = np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
        t = np.add.outer([0.0, 1.0], [0.0, 1.0]).ravel()
        P = F @ np.diag(t * t + ref_params.alpha * t) @ F / 4.0
        evals, evecs = eigh(P + np.diag(op.W.values.ravel()))
        eig = pl.principal_eigenpair(op)
        assert eig.lambda1 == pytest.approx(evals[0], rel=1e-12)
        vec = evecs[:, 0] / evecs[np.argmax(np.abs(evecs[:, 0])), 0]
        assert np.abs(eig.phi1.values.ravel() - vec).max() < 1e-12

    @pytest.mark.parametrize("size", [1e-6, 1e-2])
    def test_perturbed_lobpcg_vector_raises(self, bump_op, monkeypatch, size):
        import scipy.sparse.linalg as spla

        lobpcg = spla.lobpcg
        mode = np.cos(bump_op.grid.meshgrid()[0]).reshape(-1, 1)

        def perturbed(*args, **kwargs):
            vals, X, hist = lobpcg(*args, **kwargs)
            return vals, X + size * np.abs(X).max() * mode, hist

        monkeypatch.setattr(spla, "lobpcg", perturbed)
        with pytest.raises(pl.ConvergenceError):
            pl.principal_eigenpair(bump_op)

    def test_roundoff_bound_grids_finish_quietly(self, ref_params,
                                                 lobpcg_iterations):
        # at these sizes the sup-norm floor lies below what LOBPCG's own
        # residual resolves; the finish steps close the gap, and no warning
        # of lobpcg's gets out (values from the earlier inverse iteration).
        # Neither grid nests, so LOBPCG starts from the constant field; psi
        # is resolved on 16 points in y, so the 128 x 16 grid keeps the
        # eigenvalue measured on 128^2
        import warnings

        line = pl.SpectralGrid((128,), (TWO_PI,))
        x = line.meshgrid()[0]
        strip = pl.SpectralGrid((128, 16), (TWO_PI, TWO_PI))
        sx, sy = strip.meshgrid()
        for op, lam in (
            (pl.build_operator(ref_params, line, potential=pl.ScalarField(
                line, 0.5 * (1.0 + np.cos(x)))), 6.307695554988224),
            (pl.build_operator(ref_params, strip, psi=pl.ScalarField(
                strip, 2.0 * np.sin(sx) * np.cos(sy))), 5.560185218105653),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                eig = pl.principal_eigenpair(op)
            assert eig.lambda1 == pytest.approx(lam, rel=1e-14)
            assert eig.iterations > lobpcg_iterations[-1]
            assert eig.positive


    def test_nested_start_keeps_the_eigenpair(self, ref_params, lobpcg_iterations,
                                              monkeypatch):
        # 32^2 nests: LOBPCG runs on 16^2 from the constant field, then on
        # 32^2 from the prolonged eigenvector, where it has nothing left to do
        op = _sin_psi_2d(ref_params, 32, 2.0, 1)
        nested = pl.principal_eigenpair(op)
        assert len(lobpcg_iterations) == 2
        monkeypatch.setattr(operator_module, "NEST_POINTS", op.grid.npoints + 1)
        lobpcg_iterations.clear()
        single = pl.principal_eigenpair(op)
        assert len(lobpcg_iterations) == 1
        assert nested.iterations < single.iterations
        assert nested.lambda1 == pytest.approx(single.lambda1, rel=1e-14)
        assert np.abs(nested.phi1.values - single.phi1.values).max() <= 1e-12
        assert nested.positive and nested.residual <= 1e-10 * _scale(op)


def _sin_psi_2d(params, size, amplitude, my):
    """``size^2`` operator with psi = amplitude sin x cos(my y)."""
    grid = pl.SpectralGrid((size, size), (TWO_PI, TWO_PI))
    x, y = grid.meshgrid()
    return pl.build_operator(params, grid, psi=pl.ScalarField(
        grid, amplitude * np.sin(x) * np.cos(my * y)))


# operators of at most 4096 points on which inverse positivity is proved:
# test id -> (R, builder from the coefficients)
PROVED_OPERATORS = {
    "1d-psi0-R20": (20.0, lambda prm: sin_psi_operator(prm, 64, 0.0)),
    "1d-psi0-R3.8": (3.8, lambda prm: sin_psi_operator(prm, 64, 0.0)),
    "1d-sqrt10-sin": (20.0, lambda prm: sin_psi_operator(prm, 64, np.sqrt(10.0))),
    # max |grad psi|^2 = 27 > Qconst = 13.125: the potential changes sign
    "16x16-strong": (20.0, lambda prm: _sin_psi_2d(prm, 16, np.sqrt(27.0) / 2.0, 2)),
    # max |grad psi|^2 = 0.08, as in the minimax benchmark
    "32x32-minimax": (3.8, lambda prm: _sin_psi_2d(prm, 32, np.sqrt(0.08), 1)),
}


def _dense_kernels(op):
    """Dense ``inv(P)`` and the comparison kernel ``inv(P0)``."""
    args = (op.params.alpha, op.grid.sizes, op.grid.lengths)
    W = op.W.values
    return dense_inverse(*args, W), dense_inverse(*args, np.full(W.shape, W.max()))


class TestPositivity:
    @pytest.mark.parametrize("case", list(PROVED_OPERATORS))
    def test_verdict_agrees_with_the_dense_inverse(self, case):
        R, build = PROVED_OPERATORS[case]
        op = build(pl.derive_coefficients(5, R))
        rep = pl.positivity_check(op)
        assert rep.passed and rep.reason == ""
        assert rep.lambda1 > 0.0
        inv, g0 = _dense_kernels(op)
        # P^{-1} = sum_k (G0 D)^k G0 >= G0 > 0 entrywise
        assert (inv - g0).min() >= -1e-9 * inv.max()
        assert g0.min() > 0.0
        assert rep.kernel_floor == pytest.approx(g0.min() / g0.max(), rel=1e-9)

    @pytest.mark.parametrize("lam, ok", [(10.0, True), (20.0, False)])
    def test_comparison_floor_under_shift(self, ref_params, ref_grid, lam, ok):
        # the window of proved order for P + lam on the reference operator
        # ends between these shifts; P + lam is the operator whose potential
        # is lowered by lam / b_n
        V = pl.ScalarField.constant(ref_grid, -lam / ref_params.b_n)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        inv, g0 = _dense_kernels(op)
        got, floor = op.comparison_floor()
        assert got is ok
        assert floor == pytest.approx(g0.min() / g0.max(), rel=1e-9)
        assert bool(inv.min() >= 0.0) is ok

    def test_negative_kernel_is_inconclusive(self, ref_params, ref_grid):
        # W = beta + 20 everywhere: P = P0, so the kernel's negative entries
        # are the inverse's own, and a definite P is still not proved
        V = pl.ScalarField.constant(ref_grid, -20.0 / ref_params.b_n)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rep = pl.positivity_check(op)
        assert not rep.passed and rep.lambda1 > 0.0
        assert rep.reason.startswith("inconclusive: kernel dips to -5.800e-03")
        assert _dense_kernels(op)[0].min() < 0.0

    def test_makes_no_solve(self, monkeypatch):
        op = PROVED_OPERATORS["1d-sqrt10-sin"][1](pl.derive_coefficients(5, 20))
        solves = []
        solve = pl.PaneitzOperator.solve_shifted
        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted",
                            lambda *a, **k: solves.append(a) or solve(*a, **k))
        eig = pl.principal_eigenpair(op)
        assert pl.positivity_check(op, eig) == pl.positivity_check(op)
        assert solves == []

    def test_reference_operator_passes(self, ref_op):
        rep = pl.positivity_check(ref_op)
        assert rep.passed
        assert rep.lambda1 == pytest.approx(6.5625, rel=1e-12)
        assert rep.kernel_floor > 0.0

    def test_green_column_profile(self, ref_op):
        delta = np.zeros(64)
        delta[10] = 1.0 / ref_op.grid.cell_weight
        col = ref_op.solve_shifted(0.0, delta)
        assert col.min() > 0.0
        centered = np.roll(col, -10)
        assert np.argmax(centered) == 0
        assert np.all(np.diff(centered[:33]) <= 1e-12 * col.max())

    def test_engineered_failure_reported(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        V = pl.ScalarField(
            ref_grid, ref_params.Qconst + 60.0 * np.exp(-8.0 * (x - np.pi) ** 2)
        )
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        rep = pl.positivity_check(op)
        assert not rep.passed
        assert rep.reason == "not positive definite"
        assert rep.lambda1 < 0.0
