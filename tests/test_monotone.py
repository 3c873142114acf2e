import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paneitzlab as pl
from paneitzlab import operator as operator_module
from paneitzlab.cli import parse_config, run
from paneitzlab.monotone import ORDER_SLACK, _scale_search
from paneitzlab.operator import FORCING
from paneitzlab.problems import reaction, reaction_derivative

from _oracles import (
    dense_monotone_limit,
    dense_operator_matrix_1d,
    scalar_absorption_root,
)
from conftest import constant_problem, random_absorption_fixture, sin_psi_operator

TWO_PI = 2.0 * np.pi

# frozen before the build: bisection root of 6.5625 u = u^-3 - u^2 on [0.25, 4]
USTAR_REFERENCE = 0.6110358366588059
# closed form beta^(-1/(p+1)) for p = 3
USTAR_B0 = 6.5625**-0.25


@pytest.fixture(scope="module")
def ref_prob(ref_grid):
    return constant_problem(ref_grid)


@pytest.fixture(scope="module")
def small_op(ref_params):
    return pl.build_operator(ref_params, pl.SpectralGrid((16,), (TWO_PI,)))


class TestFindSubSuper:
    def test_reference_bracket_valid(self, ref_op, ref_prob):
        br = pl.find_sub_super(ref_op, ref_prob)
        assert 0 < br.s1 <= br.s2
        assert pl.verify_bracket(ref_op, ref_prob, br) == (True, True)

    def test_spec_pair_is_admissible(self, ref_op, ref_prob):
        # (0.25, 4) satisfies the defining inequalities directly
        br = pl.Bracket(0.25, 4.0, ref_op.grid)
        assert pl.verify_bracket(ref_op, ref_prob, br) == (True, True)
        # scalar check: W*s vs A/s^p - B*s^q at both ends
        assert 6.5625 * 0.25 <= 1 / 0.25**3 - 0.25**2
        assert 6.5625 * 4.0 >= 1 / 4.0**3 - 4.0**2

    def test_pure_singular_with_positive_potential(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=0.0)
        br = pl.find_sub_super(ref_op, prob)
        # doubling terminates once beta*s >= A/s^p
        assert 6.5625 * br.s2 >= 1.0 / br.s2**3

    def test_rescaled_singular_coefficient(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, a=1e6)
        br = pl.find_sub_super(ref_op, prob)
        assert pl.verify_bracket(ref_op, prob, br) == (True, True)

    def test_source_supersolution_between_powers_of_two(self, mp_op, ref_grid):
        # constant supersolutions fill s in [2.40, 3.93], which holds no
        # power of two; past the fold (B = 0.06) there are none
        prob = constant_problem(ref_grid, b=0.052, p=1.5, q=2.0, mode="source")
        br = pl.find_sub_super(mp_op, prob)
        assert pl.verify_bracket(mp_op, prob, br) == (True, True)
        assert 2.4 < br.s2 < 3.93
        with pytest.raises(pl.BracketError):
            pl.find_sub_super(mp_op, prob.with_B(pl.ScalarField.constant(ref_grid, 0.06)))

    def test_no_supersolution_reported(self, ref_params, ref_grid):
        # potential dips nonpositive and B vanishes: doubling can never stop
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst + 1.0)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        prob = constant_problem(ref_grid, b=0.0)
        with pytest.raises(pl.BracketError):
            pl.find_sub_super(op, prob)


class TestScaleSearch:
    def test_first_passing_power(self):
        asked = []

        def ok(s):
            asked.append(s)
            return s <= 0.1

        assert _scale_search(ok, 1.0, 0.5, 10) == 0.0625
        # no call past the first pass
        assert asked == [1.0, 0.5, 0.25, 0.125, 0.0625]

    def test_none_after_tries(self):
        asked = []
        assert _scale_search(lambda s: asked.append(s), 3.0, 2.0, 4) is None
        assert asked == [3.0, 6.0, 12.0, 24.0]
        assert _scale_search(lambda s: True, 1.0, 2.0, 0) is None


class TestMonotoneSolve:
    def test_reference_constant_solution(self, ref_op, ref_prob):
        br = pl.find_sub_super(ref_op, ref_prob)
        rep = pl.monotone_solve(ref_op, ref_prob, br)
        ustar = scalar_absorption_root(6.5625, 1.0, 1.0, 3.0, 2.0, 0.25, 4.0)
        assert ustar == pytest.approx(USTAR_REFERENCE, abs=1e-12)
        assert np.abs(rep.u.values - ustar).max() < 1e-8
        assert rep.residual <= 1e-8
        assert rep.monotone_ok

    def test_pure_singular_closed_form(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=0.0)
        rep = pl.monotone_solve(ref_op, prob, pl.find_sub_super(ref_op, prob))
        assert np.abs(rep.u.values - USTAR_B0).max() < 1e-8

    def test_downward_iteration_same_limit(self, ref_op, ref_prob):
        br = pl.find_sub_super(ref_op, ref_prob)
        up = pl.monotone_solve(ref_op, ref_prob, br, start="sub")
        down = pl.monotone_solve(ref_op, ref_prob, br, start="super")
        assert np.abs(up.u.values - down.u.values).max() < 1e-6

    def test_fixed_point_property(self, ref_op, ref_prob):
        br = pl.find_sub_super(ref_op, ref_prob)
        rep = pl.monotone_solve(ref_op, ref_prob, br)
        lam = float(-reaction_derivative(ref_prob, rep.u.values).max())
        rhs = pl.ScalarField(
            ref_op.grid, reaction(ref_prob, rep.u.values) + lam * rep.u.values
        )
        back = ref_op.solve_shifted(lam, rhs.values)
        assert np.abs(back - rep.u.values).max() < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gap=st.floats(0.05, 1.0),
           p=st.floats(1.5, 4.0), q=st.floats(1.2, 3.0))
    def test_comparison_in_B(self, small_op, seed, gap, p, q):
        # B1 <= B2 pointwise gives u1 >= u2 pointwise: more absorption, a
        # smaller solution
        grid = small_op.grid
        rng = np.random.default_rng(seed)
        A = pl.ScalarField(grid, 0.5 + rng.random(grid.shape))
        B1 = rng.random(grid.shape)
        B2 = B1 + gap * rng.random(grid.shape)

        def solve(B):
            prob = pl.ProblemSpec(A, pl.ScalarField(grid, B), p, q)
            return pl.monotone_solve(small_op, prob, pl.find_sub_super(small_op, prob)).u.values

        u1, u2 = solve(B1), solve(B2)
        assert float((u2 - u1).max()) <= ORDER_SLACK * max(float(u1.max()), 1.0)
        assert float((u1 - u2).max()) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gap=st.floats(0.05, 1.0),
           p=st.floats(1.5, 4.0), q=st.floats(1.2, 3.0))
    def test_comparison_in_A_property(self, small_op, seed, gap, p, q):
        # A1 <= A2 pointwise gives u1 <= u2 pointwise
        grid = small_op.grid
        rng = np.random.default_rng(seed)
        A1 = 0.5 + rng.random(grid.shape)
        A2 = A1 + gap * rng.random(grid.shape)
        B = pl.ScalarField(grid, 0.5 + rng.random(grid.shape))

        def solve(A):
            prob = pl.ProblemSpec(pl.ScalarField(grid, A), B, p, q)
            return pl.monotone_solve(small_op, prob, pl.find_sub_super(small_op, prob)).u.values

        u1, u2 = solve(A1), solve(A2)
        assert float((u1 - u2).max()) <= ORDER_SLACK * max(float(u2.max()), 1.0)
        assert float((u2 - u1).max()) > 0.0

    def test_variable_coefficients(self, ref_op, ref_grid):
        x = ref_grid.meshgrid()[0]
        prob = pl.ProblemSpec(
            A=pl.ScalarField(ref_grid, 1.0 + 0.5 * np.sin(x)),
            B=pl.ScalarField(ref_grid, 0.5 * (1.0 + np.cos(2 * x))),
            p=2.5,
            q=1.8,
            mode="absorption",
        )
        rep = pl.monotone_solve(ref_op, prob, pl.find_sub_super(ref_op, prob))
        assert rep.residual <= 1e-8
        assert rep.u.min() > 0
        assert rep.monotone_ok

    def test_fine_grid_stops_at_the_roundoff_floor(self, ref_params):
        # on 256 points the floor of P u (about 3.6e-8) is above
        # tol_residual = 1e-8, which the iteration could only dip under by
        # chance (it took 74,838 steps when it ignored the floor)
        op = sin_psi_operator(ref_params, 256, 0.3)
        prob = constant_problem(op.grid)
        rep = pl.monotone_solve(op, prob, pl.find_sub_super(op, prob), maxiter=1000)
        assert rep.iterations <= 20
        floor = rep.extras["residual_floor"]
        assert floor == op.roundoff_floor(rep.u.values)
        assert 1e-8 < rep.residual <= floor

    def test_stop_at_tolerance_reports_no_floor(self, ref_op, ref_prob):
        rep = pl.monotone_solve(ref_op, ref_prob, pl.find_sub_super(ref_op, ref_prob))
        assert rep.residual <= 1e-8
        assert "residual_floor" not in rep.extras

    def test_invalid_bracket_rejected(self, ref_op, ref_prob):
        bad = pl.Bracket(3.0, 4.0, ref_op.grid)
        with pytest.raises(pl.BracketError):
            pl.monotone_solve(ref_op, ref_prob, bad)


class TestNewtonSteps:
    @staticmethod
    def _matches_the_dense_loop(op, prob):
        br = pl.find_sub_super(op, prob)
        rep = pl.monotone_solve(op, prob, br)
        assert rep.iterations > 0
        assert rep.monotone_ok is True
        P = dense_operator_matrix_1d(op.params.alpha, op.grid.npoints, TWO_PI,
                                     op.W.values)
        ref = dense_monotone_limit(P, prob.A.values, prob.B.values, prob.p,
                                   prob.q, br.lower.values, br.s2)
        assert np.abs(rep.u.values - ref).max() <= 1e-9 * np.abs(ref).max()
        return rep

    def test_from_subsolution_reference_problem(self, ref_op, ref_prob):
        self._matches_the_dense_loop(ref_op, ref_prob)

    def test_from_subsolution_random_fixtures(self, ref_params):
        # the fixtures of acceptance criteria 4 and 5
        op = pl.build_operator(ref_params, pl.SpectralGrid((32,), (TWO_PI,)))
        rng = np.random.default_rng(7)
        for _ in range(20):
            self._matches_the_dense_loop(op, random_absorption_fixture(op.grid, rng))

    def test_refused_from_supersolution_restarts(self, ref_op, ref_prob):
        # the full step from the supersolution leaves the bracket and is
        # halved instead of restarting the solve; the descent is then not
        # monotone but ends where the ascent does
        br = pl.find_sub_super(ref_op, ref_prob)
        up = pl.monotone_solve(ref_op, ref_prob, br, start="sub")
        down = pl.monotone_solve(ref_op, ref_prob, br, start="super")
        assert down.monotone_ok is False
        assert np.abs(down.u.values - up.u.values).max() <= 1e-12 * up.u.max()

    def test_array_shift_on_newton_steps_scalar_on_the_loop(self, ref_op, ref_prob,
                                                            monkeypatch):
        # there is no loop with a scalar shift: every solve from either end
        # is a Newton step with the pointwise shift
        ndims = []
        solve = pl.PaneitzOperator.solve_shifted

        def recorded(self, lam, *args, **kwargs):
            ndims.append(np.ndim(lam))
            return solve(self, lam, *args, **kwargs)

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", recorded)
        br = pl.find_sub_super(ref_op, ref_prob)
        for start in ("sub", "super"):
            ndims.clear()
            rep = pl.monotone_solve(ref_op, ref_prob, br, start=start)
            assert ndims == [1] * rep.iterations, start

    def test_each_step_solves_to_the_forcing_term(self, ref_params, ref_op, ref_prob,
                                                  monkeypatch):
        # step k's conjugate gradients stop at max(1e-12, min(FORCING,
        # (r_k / r_0)^2)) relative to its right side, whose sup norm is the
        # residual r_k; r_0 is the residual where the solve, or the
        # continuation entry, starts
        solves = []
        solve = pl.PaneitzOperator.solve_shifted

        def recorded(self, lam, rhs, *args, **kwargs):
            solves.append((float(np.abs(rhs).max()), kwargs.get("tol")))
            return solve(self, lam, rhs, *args, **kwargs)

        def forced(entry):
            r0 = entry[0][0]
            return [max(1e-12, min(FORCING, (r / r0) ** 2)) for r, _ in entry]

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", recorded)
        op = sin_psi_operator(ref_params, 32, 1.0)
        prob = random_absorption_fixture(op.grid, np.random.default_rng(3))
        br = pl.find_sub_super(op, prob)
        for start in ("sub", "super"):
            solves.clear()
            rep = pl.monotone_solve(op, prob, br, start=start)
            assert len(solves) == rep.iterations >= 4, start
            assert [tol for _, tol in solves] == forced(solves), start
            assert solves[0][1] == FORCING and solves[-1][1] < 1e-6, start
        solves.clear()
        rep = pl.epsilon_continuation(op, prob, [1.0, 0.1, 0.0])
        for entry in rep.eps_trace:
            steps, solves[:entry["newton_steps"]] = solves[:entry["newton_steps"]], []
            assert [tol for _, tol in steps] == forced(steps)
        assert solves == []
        # the constant problem's first entry ends at residual 0, where the
        # second starts: its one step solves the zero right side at 1e-12
        rep = pl.epsilon_continuation(ref_op, ref_prob, [0.0, 0.0])
        assert [e["residual"] for e in rep.eps_trace] == [0.0, 0.0]
        assert solves[-1] == (0.0, 1e-12)

    def test_inexact_steps_spare_preconditioner_applications(self, tmp_path,
                                                             monkeypatch):
        # the 3-D console-script smoke config, whose W = b_n (Q - |grad psi|^2)
        # changes sign: 34 preconditioner applications with forced steps, 45
        # with every Newton step solved to 1e-12.  16^3 is below the nesting
        # threshold, so the steps start from the subsolution on one grid and
        # every one moves upward
        applied = []
        preconditioner = pl.PaneitzOperator._preconditioner

        def counted(self, lam):
            pinv, c = preconditioner(self, lam)
            return (lambda r: applied.append(1) or pinv(r)), c

        monkeypatch.setattr(pl.PaneitzOperator, "_preconditioner", counted)
        lengths = ",".join([repr(TWO_PI)] * 3)
        config = parse_config(
            f"action = solve\nsizes = 16,16,16\nlengths = {lengths}\n"
            "psi = mode\npsi_mode = 1,1,1\npsi_amplitude = 3\n")
        assert run(config, out_dir=tmp_path).exit_code == 0
        s = json.loads((tmp_path / "report.json").read_text())["solver"]
        assert s["converged"] and s["monotone_ok"] is True and s["iterations"] <= 20
        assert s["extras"]["levels"] == 1
        assert len(applied) <= 40

    def test_refused_solve_names_the_step(self, ref_op, ref_prob, monkeypatch):
        def refused(self, lam, rhs, *args, **kwargs):
            raise pl.CoercivityError("nonpositive curvature")

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", refused)
        br = pl.find_sub_super(ref_op, ref_prob)
        with pytest.raises(pl.ConvergenceError, match="Newton step 1"):
            pl.monotone_solve(ref_op, ref_prob, br)


def _psi3(params, n, amplitude=3.0):
    """``n^3`` operator with psi = amplitude sin(x + y + z), the field of the
    3-D console-script smoke config; at amplitude 3 its W changes sign."""
    grid = pl.SpectralGrid((n,) * 3, (TWO_PI,) * 3)
    x, y, z = grid.meshgrid()
    return pl.build_operator(params, grid, psi=pl.ScalarField(
        grid, amplitude * np.sin(x + y + z)))


class TestNestedSolve:
    """Grids that nest (at least 1024 points, every axis at least 32) solve
    on the half grid first and start from its prolonged solution."""

    @pytest.fixture(scope="class")
    def strong32(self, ref_params):
        op = _psi3(ref_params, 32)
        prob = constant_problem(op.grid)
        return op, prob, pl.find_sub_super(op, prob)

    @pytest.mark.parametrize("start", ["sub", "super"])
    def test_nested_solve_agrees_with_the_single_grid_solve(self, strong32, start,
                                                            monkeypatch):
        op, prob, br = strong32
        nested = pl.monotone_solve(op, prob, br, start=start)
        monkeypatch.setattr(operator_module, "NEST_POINTS", op.grid.npoints + 1)
        single = pl.monotone_solve(op, prob, br, start=start)
        assert (nested.extras["levels"], single.extras["levels"]) == (2, 1)
        scale = np.abs(single.u.values).max()
        assert np.abs(nested.u.values - single.u.values).max() <= 1e-14 * scale
        # the 32^3 grid finishes in 2 steps of the single grid's 6 (sub) or 8
        # (super); monotone_ok is the 16^3 grid's, whose steps start from its
        # bracket end as the single grid's do, and reads the same
        assert nested.iterations <= 3 < single.iterations
        assert nested.monotone_ok is single.monotone_ok is (start == "sub")

    def test_forcing_is_measured_from_the_bracket_end(self, strong32, monkeypatch):
        # the 32^3 grid starts near the solution; its forcing terms
        # (r / r0)^2 take r0 at its bracket end, as a single-grid solve does,
        # so its first step is solved far below FORCING
        op, prob, br = strong32
        solves = []
        solve = pl.PaneitzOperator.solve_shifted

        def recorded(self, lam, rhs, *args, **kwargs):
            if self.grid == op.grid:
                solves.append((float(np.abs(rhs).max()), kwargs["tol"]))
            return solve(self, lam, rhs, *args, **kwargs)

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", recorded)
        rep = pl.monotone_solve(op, prob, br)
        s1 = np.full(op.grid.shape, br.s1)
        r0 = float(np.abs(reaction(prob, s1) - s1 * op.W.values).max())
        assert len(solves) == rep.iterations
        assert [tol for _, tol in solves] == [
            max(1e-12, min(FORCING, (r / r0) ** 2)) for r, _ in solves]
        assert solves[0][1] < 1e-6

    def test_failed_half_grid_solve_names_its_grid(self, strong32, monkeypatch):
        op, prob, br = strong32
        grids = []
        solve = pl.PaneitzOperator.solve_shifted

        def refused(self, lam, rhs, *args, **kwargs):
            grids.append(self.grid.sizes)
            if self.grid != op.grid:
                raise pl.CoercivityError("nonpositive curvature")
            return solve(self, lam, rhs, *args, **kwargs)

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", refused)
        with pytest.raises(pl.ConvergenceError,
                           match="^Newton step 1 on the 16x16x16 grid: "):
            pl.monotone_solve(op, prob, br)
        assert grids == [(16, 16, 16)]

    def test_continuation_nests_its_first_entry_only(self, strong32, monkeypatch):
        op, prob, _ = strong32
        grids = []
        solve = pl.PaneitzOperator.solve_shifted

        def recorded(self, lam, rhs, *args, **kwargs):
            grids.append(self.grid.sizes[0])
            return solve(self, lam, rhs, *args, **kwargs)

        monkeypatch.setattr(pl.PaneitzOperator, "solve_shifted", recorded)
        nested = pl.epsilon_continuation(op, prob, [1.0, 0.0])
        first = nested.eps_trace[0]["newton_steps"]
        assert nested.extras["levels"] == 2
        # the 16^3 steps, then the first entry's and the second's on 32^3
        coarse = len(grids) - first - nested.iterations
        assert coarse > 0
        assert grids == [16] * coarse + [32] * (first + nested.iterations)
        monkeypatch.setattr(operator_module, "NEST_POINTS", op.grid.npoints + 1)
        single = pl.epsilon_continuation(op, prob, [1.0, 0.0])
        assert single.extras["levels"] == 1
        assert first < single.eps_trace[0]["newton_steps"]
        scale = np.abs(single.u.values).max()
        assert np.abs(nested.u.values - single.u.values).max() <= 1e-14 * scale


class TestEpsilonContinuation:
    def test_zero_target_closed_form(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=0.0)
        rep = pl.epsilon_continuation(ref_op, prob, [1.0, 0.1, 0.01, 1e-3, 0.0])
        assert np.abs(rep.u.values - USTAR_B0).max() < 1e-6
        assert rep.extras["eps_monotone_ok"]
        assert rep.extras["uniform_lower_bound"] > 0.1

    def test_monotone_in_eps(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=1.0)
        solutions = []
        for eps in (1.0, 0.1, 0.01):
            pe = prob.with_B(prob.B + eps)
            solutions.append(
                pl.monotone_solve(ref_op, pe, pl.find_sub_super(ref_op, pe)).u.values
            )
        for a, b in zip(solutions, solutions[1:]):
            assert float((b - a).min()) > -1e-10

    def test_degenerate_schedule_matches_direct(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=1.0)
        via_cont = pl.epsilon_continuation(ref_op, prob, [0.0])
        direct = pl.monotone_solve(ref_op, prob, pl.find_sub_super(ref_op, prob))
        assert np.array_equal(via_cont.u.values, direct.u.values)

    def test_schedule_validation(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=1.0)
        with pytest.raises(ValueError):
            pl.epsilon_continuation(ref_op, prob, [0.1, 1.0])
        with pytest.raises(ValueError):
            pl.epsilon_continuation(ref_op, prob, [])
