import dataclasses

import numpy as np
import pytest

import paneitzlab as pl

from _oracles import bisect_root, golden_min, scalar_source_roots
from conftest import constant_problem

TWO_PI = 2.0 * np.pi


class TestTangentSlope:
    def test_reference_values(self):
        t0, lam_c = pl.tangent_slope_root(1.0, 1.0, 3.0, 2.0)
        assert t0 == pytest.approx(4.0**0.2, rel=1e-14)
        assert lam_c == pytest.approx(4.0**-0.8 + 4.0**0.2, rel=1e-14)

    def test_numeric_cross_check(self):
        # closed form versus an independent bisection root of f(t)/t - f'(t)
        for a, b, p, q in [(2.0, 0.5, 2.2, 3.1), (0.3, 4.0, 5.0, 1.5)]:
            t0, lam_c = pl.tangent_slope_root(a, b, p, q)
            g = lambda t: (a / t**p + b * t**q) / t - (
                -p * a / t ** (p + 1) + q * b * t ** (q - 1)
            )
            t_oracle = bisect_root(g, 1e-3 * t0, 1e3 * t0)
            assert t0 == pytest.approx(t_oracle, rel=1e-12)
            assert lam_c == pytest.approx(a / t_oracle ** (p + 1) + b * t_oracle ** (q - 1),
                                          rel=1e-12)

    def test_vanishing_singular_coefficient(self):
        prev_t0, prev_lc = np.inf, np.inf
        for a in (1e-2, 1e-4, 1e-6, 1e-10):
            t0, lam_c = pl.tangent_slope_root(a, 1.0, 3.0, 2.0)
            assert t0 < prev_t0 and lam_c < prev_lc
            assert lam_c == pytest.approx(a / t0**4 + t0, rel=1e-12)
            prev_t0, prev_lc = t0, lam_c
        assert t0 < 1e-1 and lam_c < 1e-1

    def test_root_count_dichotomy(self):
        t0, lam_c = pl.tangent_slope_root(1.0, 1.0, 3.0, 2.0)
        f = lambda t: 1.0 / t**3 + t**2
        for lam, expected in [(0.9 * lam_c, 0), (1.1 * lam_c, 2)]:
            g = lambda t: lam * t - f(t)
            ts = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 20000))
            signs = np.sign([g(t) for t in ts])
            crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert crossings == expected

    def test_degenerate_exponent(self):
        with pytest.raises(ValueError):
            pl.tangent_slope_root(1.0, 1.0, 3.0, 1.0)

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 5.0, 8.0])
    def test_denominator_is_unit_tangency(self, p, q):
        _, lam_c = pl.tangent_slope_root(1.0, 1.0, p, q)
        assert pl.ineq_denominator(p, q) == pytest.approx(lam_c, rel=1e-10)


@pytest.fixture(scope="module")
def eig(ref_op):
    return pl.principal_eigenpair(ref_op)


class TestExistenceIneq:
    def test_reference_margin(self, ref_op, ref_grid, eig):
        prob = constant_problem(ref_grid, b=-1.0)
        rep = pl.check_existence_ineq(ref_op, prob, eig)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)
        assert rep.margin == pytest.approx(6.5625 / 1.649384888466118 - 1.0, rel=1e-9)

    def test_nonnegative_B_vacuous(self, ref_op, ref_grid, eig):
        prob = constant_problem(ref_grid, b=2.0)
        rep = pl.check_existence_ineq(ref_op, prob, eig)
        assert rep.satisfied and rep.lhs == 0.0

    def test_homogeneity_in_A(self, ref_op, ref_grid, eig):
        c = 5.0
        p, q = 3.0, 2.0
        r1 = pl.check_existence_ineq(ref_op, constant_problem(ref_grid, a=1.0, b=-1.0), eig)
        r2 = pl.check_existence_ineq(ref_op, constant_problem(ref_grid, a=c, b=-1.0), eig)
        assert r2.lhs == pytest.approx(c ** ((q - 1) / (p + q)) * r1.lhs, rel=1e-12)

    def test_source_mode_rejected(self, ref_op, ref_grid, eig):
        prob = constant_problem(ref_grid, mode="source")
        with pytest.raises(pl.CertificateError):
            pl.check_existence_ineq(ref_op, prob, eig)


class TestExistenceCond:
    def test_zero_B(self, mp_op, ref_grid, mp_sobolev):
        prob = constant_problem(ref_grid, b=0.0, p=1.5, q=2.0, mode="source")
        rep = pl.check_existence_cond(mp_op, prob, S_psi=mp_sobolev)
        assert rep.satisfied and rep.lhs == 0.0

    def test_linear_in_A(self, mp_op, ref_grid, mp_sobolev):
        r1 = pl.check_existence_cond(
            mp_op, constant_problem(ref_grid, a=1.0, b=0.05, p=1.5, q=2.0, mode="source"),
            S_psi=mp_sobolev,
        )
        r2 = pl.check_existence_cond(
            mp_op, constant_problem(ref_grid, a=2.0, b=0.05, p=1.5, q=2.0, mode="source"),
            S_psi=mp_sobolev,
        )
        assert r2.lhs == pytest.approx(2.0 * r1.lhs, rel=1e-12)

    def test_threshold_in_B(self, mp_op, ref_grid, mp_sobolev):
        # the left side is an exact monomial in the coupling, so the
        # satisfied flag must flip across the recomputed threshold
        p, q = 1.5, 2.0
        r1 = pl.check_existence_cond(
            mp_op, constant_problem(ref_grid, b=1.0, p=p, q=q, mode="source"),
            S_psi=mp_sobolev,
        )
        bstar = (r1.rhs / r1.lhs) ** ((q - 1.0) / (p + 1.0))
        below = pl.check_existence_cond(
            mp_op, constant_problem(ref_grid, b=0.9 * bstar, p=p, q=q, mode="source"),
            S_psi=mp_sobolev,
        )
        above = pl.check_existence_cond(
            mp_op, constant_problem(ref_grid, b=1.1 * bstar, p=p, q=q, mode="source"),
            S_psi=mp_sobolev,
        )
        assert below.satisfied and not above.satisfied

    def test_critical_exponent_rejected(self, ref_op, ref_grid, ref_sobolev):
        prob = constant_problem(ref_grid, q=9.5, mode="source")
        with pytest.raises(pl.CertificateError):
            pl.check_existence_cond(ref_op, prob, S_psi=ref_sobolev)

    def test_borderline_exponent_warns(self, ref_op, ref_grid, ref_sobolev):
        with pytest.warns(RuntimeWarning):
            prob = constant_problem(ref_grid, q=9.0, mode="source")
            rep = pl.check_existence_cond(ref_op, prob, S_psi=ref_sobolev)
        assert rep.ingredients["norm_order_s"] == np.inf


class TestNonexistence:
    def test_minimizer_against_golden_section(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=2.0, mode="source")
        rep = pl.check_nonexistence(ref_op, prob)
        K = rep.ingredients["K"]
        p, q = 3.0, 2.0
        g = lambda X: X ** ((q - 1) / q) + K ** ((p + q) / q) * X ** (-(p + 1) / q)
        xstar, gmin = golden_min(g, 1e-6 * K, 1e6 * K)
        # the minimum value is checked at 1e-10; the location itself can only
        # be resolved to sqrt(machine eps) by value comparisons at a
        # quadratic minimum
        assert rep.rhs == pytest.approx(gmin, rel=1e-10)
        assert g(rep.ingredients["X_star"]) == pytest.approx(gmin, rel=1e-10)
        assert rep.ingredients["X_star"] == pytest.approx(xstar, rel=1e-6)

    def test_derived_minimum_is_lower_bound(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=1.3, mode="source")
        rep = pl.check_nonexistence(ref_op, prob)
        K = rep.ingredients["K"]
        p, q = 3.0, 2.0
        rng = np.random.default_rng(0)
        for _ in range(100):
            X = 10.0 ** rng.uniform(-6, 6) * K
            val = X ** ((q - 1) / q) + K ** ((p + q) / q) * X ** (-(p + 1) / q)
            assert val >= rep.rhs - 1e-12 * abs(val)

    def test_vanishing_B_inconclusive(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=0.0, mode="source")
        rep = pl.check_nonexistence(ref_op, prob)
        assert not rep.conclusive
        assert not rep.satisfied
        assert "no conclusion" in rep.note

    def test_vanishing_A_rejected(self, ref_grid):
        with pytest.raises(ValueError):
            constant_problem(ref_grid, a=0.0, b=1.0, mode="source")

    def test_absorption_mode_rejected(self, ref_op, ref_grid):
        with pytest.raises(pl.CertificateError):
            pl.check_nonexistence(ref_op, constant_problem(ref_grid))

    def test_printed_discrepancy_reported(self, ref_op, ref_grid):
        rep = pl.check_nonexistence(ref_op, constant_problem(ref_grid, b=2.0, mode="source"))
        assert np.isfinite(rep.ingredients["printed_formula_value"])
        assert np.isfinite(rep.ingredients["printed_vs_derived"])

    def test_sweep_soundness_against_scalar_oracle(self, ref_op, ref_grid):
        # certificate true must imply no positive scalar root (constants)
        beta = 6.5625
        agree = 0
        cells = 0
        for q in np.linspace(1.6, 4.0, 5):
            for lam in np.geomspace(0.5, 40.0, 5):
                prob = constant_problem(ref_grid, b=lam, p=3.0, q=q, mode="source")
                rep = pl.check_nonexistence(ref_op, prob)
                cells += 1
                if rep.satisfied:
                    roots = scalar_source_roots(beta, 1.0, lam, 3.0, q)
                    assert roots == [], (q, lam)
                agree += 1
        assert cells == agree == 25

    def test_mutually_exclusive_with_existence(self, mp_op, ref_grid, mp_sobolev):
        for lam in np.geomspace(1e-4, 10.0, 12):
            prob = constant_problem(ref_grid, b=lam, p=1.5, q=2.0, mode="source")
            non = pl.check_nonexistence(mp_op, prob)
            cond = pl.check_existence_cond(mp_op, prob, S_psi=mp_sobolev)
            assert not (cond.satisfied and non.satisfied), lam

    def test_pure_evaluation(self, ref_op, ref_grid):
        prob = constant_problem(ref_grid, b=2.0, mode="source")
        r1 = pl.check_nonexistence(ref_op, prob)
        r2 = pl.check_nonexistence(ref_op, prob)
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)


class TestLambdaStar:
    def test_bracket_reference_fixture(self, ref_op, ref_sobolev):
        res = pl.lambda_star_bracket(ref_op, 3.0, 2.0, S_psi=ref_sobolev)
        assert 0 < res.lower < res.upper
        # for constant data the derived threshold is the scalar tangency one
        expected = (6.5625 / pl.ineq_denominator(3.0, 2.0)) ** (5.0 / 4.0)
        assert res.upper == pytest.approx(expected, rel=1e-10)
        assert res.printed_lower is not None and res.printed_upper is not None

    def test_lower_scales_with_constant(self, ref_op, ref_sobolev):
        # the existence side scales as lambda^((p+1)/(q-1)), so the lower end
        # is (C / lhs(1))^((q-1)/(p+1)) in the bracket's own ingredients
        res = pl.lambda_star_bracket(ref_op, 3.0, 2.0, S_psi=ref_sobolev)
        ing = res.ingredients
        assert res.lower == (ing["cond_constant"] / ing["cond_lhs_at_1"]) ** (
            (2.0 - 1.0) / (3.0 + 1.0)
        )

    def test_zero_curvature_potential(self, ref_params, ref_grid):
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        res = pl.lambda_star_bracket(op, 3.0, 2.0)
        assert res.upper == 0.0
        assert res.lower == 0.0

    def test_bisect_brackets_empirical(self, bis_op, bis_sobolev):
        res = pl.lambda_star_bisect(bis_op, 1.5, 2.0, tol=2e-3, S_psi=bis_sobolev)
        assert res.empirical is not None
        assert res.lower <= res.empirical <= res.upper
        assert res.anomaly == ""
        assert res.probes[0] == {"lam": 0.0, "feasible": True}
        # the derived threshold is exact on constant data, so the empirical
        # value must approach the certified upper end from below
        assert res.upper - res.empirical <= 2e-3

    def test_bisect_tolerance_contract(self, bis_op, bis_sobolev):
        coarse = pl.lambda_star_bisect(bis_op, 1.5, 2.0, tol=8e-3, S_psi=bis_sobolev)
        fine = pl.lambda_star_bisect(bis_op, 1.5, 2.0, tol=4e-3, S_psi=bis_sobolev)
        lo_c, hi_c = coarse.ingredients["interval"]
        lo_f, hi_f = fine.ingredients["interval"]
        assert hi_c - lo_c <= 8e-3 and hi_f - lo_f <= 4e-3
        assert lo_c - 1e-12 <= lo_f and hi_f <= hi_c + 1e-12

    def test_bisect_stops_at_feasible_upper(self, bis_op, bis_sobolev):
        # the certified upper end is the first minimax probe; on constant
        # data it is feasible, so the search needs no other
        res = pl.lambda_star_bisect(bis_op, 1.5, 2.0, tol=2e-3, S_psi=bis_sobolev)
        assert res.probes == [{"lam": 0.0, "feasible": True},
                              {"lam": res.upper, "feasible": True}]
        assert res.empirical == res.upper
        assert res.ingredients["interval"] == [res.upper, res.upper]

    def test_bisect_never_probes_above_upper(self, ref_params, ref_grid):
        x = ref_grid.meshgrid()[0]
        psi = pl.ScalarField(ref_grid, np.sqrt(3.0) * np.sin(x))
        op = pl.build_operator(ref_params, ref_grid, psi=psi)
        res = pl.lambda_star_bisect(op, 3.0, 2.0, tol=1e-2,
                                    mp_kwargs={"max_sweeps": 100})
        assert max(pr["lam"] for pr in res.probes) == res.upper
        # the value of the search that also probed 2 * upper first: the
        # probes it drops above upper were all infeasible
        assert res.empirical == pytest.approx(4.815542143343726, rel=1e-12)
        infeasible = [pr for pr in res.probes if not pr["feasible"]]
        assert infeasible and all(
            pr["reason"].startswith("ConvergenceError: ") for pr in infeasible
        )

    def test_failed_base_probe_is_logged(self, ref_params, ref_grid):
        # W = 0 gives upper = 0, and no bracket exists at coupling 0
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        res = pl.lambda_star_bisect(op, 3.0, 2.0, tol=1e-3)
        assert res.upper == 0.0
        assert [pr["lam"] for pr in res.probes] == [0.0]
        assert res.probes[0]["reason"].startswith("BracketError: ")
        assert res.anomaly.startswith("coupling 0 infeasible")

    @pytest.mark.parametrize("w, contradicts", [(0.1, True), (1.0, False)])
    def test_contradictory_bracket_is_flagged(self, ref_params, ref_grid, w, contradicts):
        # a constant potential W = w; at w = 0.1 (S_psi = 0.435) the existence
        # certificate holds at coupling 1, where non-existence is certified
        # too and the minimax rim is negative, so lower 2.38 > upper 0.0301;
        # at w = 1 the bracket is consistent (1.37e-3 < 0.535)
        V = pl.ScalarField.constant(ref_grid, ref_params.Qconst - w / ref_params.b_n)
        op = pl.build_operator(ref_params, ref_grid, potential=V)
        S = pl.sobolev_constant(op)
        res = pl.lambda_star_bracket(op, 3.0, 2.0, S_psi=S)
        assert (res.lower > res.upper) == contradicts
        assert ("over-certifies" in res.anomaly) == contradicts
        if not contradicts:
            assert res.anomaly == ""
            return
        prob = constant_problem(ref_grid, b=1.0, p=3.0, q=2.0, mode="source")
        assert pl.check_existence_cond(op, prob, S_psi=S).satisfied
        assert pl.check_nonexistence(op, prob).satisfied
        with pytest.raises(pl.MountainPassGeometryError):
            pl.mountain_pass_solve(op, prob, S_psi=S)
        # the search keeps the bracket's anomaly and appends its own
        found = pl.lambda_star_bisect(op, 3.0, 2.0, tol=1e-2, S_psi=S,
                                      mp_kwargs={"max_sweeps": 100})
        first, *rest = found.anomaly.split("; ")
        assert first == res.anomaly
        assert len(rest) == 1 and rest[0].startswith("empirical ")

    def test_inconsistent_certificates_are_flagged(self, mp_op, mp_sobolev):
        # near unit embedding constant the published existence constant
        # over-certifies: its threshold exceeds the (sharp, on constants)
        # non-existence threshold; the bisection must report the anomaly
        # rather than hide it
        res = pl.lambda_star_bisect(mp_op, 1.5, 2.0, tol=2e-3, S_psi=mp_sobolev)
        assert res.lower > res.upper
        assert res.anomaly != ""
        assert res.empirical == pytest.approx(res.upper, abs=2e-3)
