"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value is either trivial arithmetic, frozen from an
independent scalar oracle computed before the build, or recomputed here by
oracles that share no code with the implementation under test (plain
bisection, explicit DFT assembly, dense random search, sign scans).
"""

import json
import time

import numpy as np
import pytest
from scipy.linalg import eigh

import paneitzlab as pl
from paneitzlab.cli import parse_config, run

from _oracles import (
    bisect_root,
    dense_operator_matrix_1d,
    scalar_absorption_root,
    scalar_source_roots,
)
from conftest import constant_problem, random_absorption_fixture

TWO_PI = 2.0 * np.pi

# frozen oracle values (scalar bisection to 1e-12, computed before the build)
USTAR_REFERENCE = 0.6110358366588059  # root of 6.5625 u = u^-3 - u^2
USTAR_B0 = 6.5625**-0.25              # root of 6.5625 u = u^-3


def test_c01_coefficient_and_factorization_fidelity():
    gp5 = pl.derive_coefficients(5, 20)
    assert gp5.alpha == pytest.approx(5.5, rel=1e-12)
    assert gp5.beta == pytest.approx(6.5625, rel=1e-12)
    assert gp5.Qconst == pytest.approx(13.125, rel=1e-12)
    r = sorted(gp5.factor_roots())
    assert r[0] == pytest.approx(1.75, rel=1e-12)
    assert r[1] == pytest.approx(3.75, rel=1e-12)
    gp6 = pl.derive_coefficients(6, 30)
    assert gp6.alpha == pytest.approx(10.0, rel=1e-12)
    assert gp6.beta == pytest.approx(24.0, rel=1e-12)
    assert gp6.Qconst == pytest.approx(24.0, rel=1e-12)
    assert sorted(gp6.factor_roots()) == [pytest.approx(4.0, rel=1e-12),
                                          pytest.approx(6.0, rel=1e-12)]
    for n in range(5, 11):
        for R in (1.0, float(n * (n - 1))):
            gp = pl.derive_coefficients(n, R)
            assert gp.beta == pytest.approx(gp.b_n * gp.Qconst, rel=1e-12)
    print("[PASS] criterion 1: coefficient and factorization fidelity")


def test_c02_operator_algebra(ref_params, ref_grid):
    x = ref_grid.meshgrid()[0]
    V = pl.ScalarField(ref_grid, 1.0 + 0.5 * np.sin(2 * x))
    op = pl.build_operator(ref_params, ref_grid, potential=V)
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = pl.ScalarField(ref_grid, rng.standard_normal(64))
        v = pl.ScalarField(ref_grid, rng.standard_normal(64))
        a, b = rng.uniform(-2, 2, size=2)
        lin = op.apply(a * u + b * v).values - (
            a * op.apply(u).values + b * op.apply(v).values
        )
        scale = max(np.abs(op.apply(u).values).max(),
                    np.abs(op.apply(v).values).max(), 1.0)
        assert np.abs(lin).max() <= 1e-12 * scale
        ip1 = ref_grid.inner(op.apply(u).values, v.values)
        ip2 = ref_grid.inner(u.values, op.apply(v).values)
        assert abs(ip1 - ip2) <= 1e-10 * max(abs(ip1), abs(ip2), 1.0)
    # inverse composed with forward is the identity on band-limited fields
    for lam in (0.0, 1.5):
        hat = np.zeros(64, dtype=complex)
        hat[0] = rng.standard_normal()
        hat[1:7] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        full = hat.copy()
        full[-6:] = np.conj(hat[1:7][::-1])
        u = pl.ScalarField(ref_grid, np.fft.ifft(full).real)
        rhs = pl.ScalarField(ref_grid, op.apply(u).values + lam * u.values)
        back = op.solve_shifted(lam, rhs.values)
        err = np.abs(back - u.values).max()
        assert err <= 1e-10 * max(np.abs(u.values).max(), 1.0)
    print("[PASS] criterion 2: operator linearity, self-adjointness, inverse identity")


def test_c03_constant_data_equivalence(ref_op, ref_grid):
    prob = constant_problem(ref_grid)
    rep = pl.monotone_solve(ref_op, prob, pl.find_sub_super(ref_op, prob))
    ustar = scalar_absorption_root(6.5625, 1.0, 1.0, 3.0, 2.0, 0.25, 4.0)
    assert abs(ustar - USTAR_REFERENCE) < 1e-12
    assert np.abs(rep.u.values - ustar).max() <= 1e-8
    assert rep.residual <= 1e-8
    print(f"[PASS] criterion 3: reference solve matches scalar oracle "
          f"u* = {ustar:.12f}")


def test_c04_monotone_iteration_invariants(ref_params):
    grid = pl.SpectralGrid((32,), (TWO_PI,))
    op = pl.build_operator(ref_params, grid)
    rng = np.random.default_rng(7)
    for k in range(20):
        prob = random_absorption_fixture(grid, rng)
        bracket = pl.find_sub_super(op, prob)
        rep = pl.monotone_solve(op, prob, bracket)
        # every accepted iterate passed the bracket test at 1e-12 pointwise
        # slack; the flag certifies per-step monotonicity
        assert rep.monotone_ok, k
        assert float((rep.u.values - bracket.lower.values).min()) >= -1e-10
        assert float((bracket.upper.values - rep.u.values).min()) >= -1e-10
    print("[PASS] criterion 4: monotone iterates nondecreasing and confined "
          "on 20 random fixtures")


def test_c05_uniqueness_up_down(ref_params):
    grid = pl.SpectralGrid((32,), (TWO_PI,))
    op = pl.build_operator(ref_params, grid)
    rng = np.random.default_rng(7)
    for k in range(20):
        prob = random_absorption_fixture(grid, rng)
        bracket = pl.find_sub_super(op, prob)
        up = pl.monotone_solve(op, prob, bracket, start="sub")
        down = pl.monotone_solve(op, prob, bracket, start="super")
        assert np.abs(up.u.values - down.u.values).max() <= 1e-6, k
    print("[PASS] criterion 5: upward and downward limits agree to 1e-6")


def test_c06_epsilon_continuation(ref_op, ref_grid):
    prob = constant_problem(ref_grid, b=0.0)
    rep = pl.epsilon_continuation(ref_op, prob, [1.0, 0.1, 0.01, 1e-3, 0.0])
    assert np.abs(rep.u.values - USTAR_B0).max() <= 1e-6
    assert rep.extras["eps_monotone_ok"]
    assert rep.extras["uniform_lower_bound"] > 0.0
    print(f"[PASS] criterion 6: continuation limit matches beta^(-1/4) = {USTAR_B0:.10f}")


def test_c07_flow_steady_equivalence(ref_params, ref_grid, ref_op):
    x = ref_grid.meshgrid()[0]
    psi = pl.ScalarField(ref_grid, 0.4 * np.sin(x))
    cases = [
        (ref_op, constant_problem(ref_grid)),
        (ref_op, constant_problem(ref_grid, b=0.0)),
        (ref_op, pl.ProblemSpec(
            A=pl.ScalarField(ref_grid, 1.0 + 0.4 * np.cos(x)),
            B=pl.ScalarField(ref_grid, 0.5 * (1.0 + np.sin(2 * x))),
            p=2.6, q=1.7, mode="absorption")),
        (pl.build_operator(ref_params, ref_grid, psi=psi),
         constant_problem(ref_grid)),
    ]
    for i, (op, prob) in enumerate(cases):
        bracket = pl.find_sub_super(op, prob)
        steady = pl.monotone_solve(op, prob, bracket)
        flow, _ = pl.parabolic_flow(op, prob, bracket.lower, tau=0.05, tmax=500.0)
        assert flow.converged, i
        assert np.abs(flow.u.values - steady.u.values).max() <= 1e-6, i
    print("[PASS] criterion 7: flow and monotone limits agree to 1e-6 on 4 cases")


def test_c08_eigen_fidelity(ref_params, ref_op):
    grid = pl.SpectralGrid((32,), (TWO_PI,))
    x = grid.meshgrid()[0]
    V = pl.ScalarField(grid, 0.5 * (1.0 + np.cos(2 * np.pi * x / TWO_PI)))
    op = pl.build_operator(ref_params, grid, potential=V)
    eig = pl.principal_eigenpair(op, tol=1e-12)
    M = dense_operator_matrix_1d(ref_params.alpha, 32, TWO_PI, op.W.values)
    evals, evecs = eigh(M)
    assert abs(eig.lambda1 - evals[0]) <= 1e-8
    vec = evecs[:, 0]
    vec = vec / vec[np.argmax(np.abs(vec))]
    assert np.abs(eig.phi1.values - vec).max() <= 1e-8
    assert eig.phi1.min() > 0.0
    eig0 = pl.principal_eigenpair(ref_op)
    assert abs(eig0.lambda1 - 6.5625) <= 1e-10
    print(f"[PASS] criterion 8: eigenpair matches dense oracle "
          f"(lambda1 = {eig.lambda1:.10f})")


def test_c09_tangency_identity():
    for p in np.linspace(2.0, 6.0, 5):
        for q in np.linspace(1.5, 5.5, 5):
            _, lam_c = pl.tangent_slope_root(1.0, 1.0, p, q)
            D = pl.ineq_denominator(p, q)
            assert abs(D - lam_c) <= 1e-10 * lam_c
    print("[PASS] criterion 9: certificate denominator equals unit tangency "
          "slope on a 5x5 exponent grid")


def test_c10_nonexistence_soundness(ref_op, ref_grid):
    fired = 0
    checked = 0
    discrepancies = []
    for q in np.linspace(1.6, 4.3, 10):
        for lam in np.geomspace(0.5, 60.0, 10):
            prob = constant_problem(ref_grid, b=float(lam), p=3.0, q=float(q),
                                    mode="source")
            rep = pl.check_nonexistence(ref_op, prob)
            checked += 1
            discrepancies.append(rep.ingredients["printed_vs_derived"])
            if rep.satisfied:
                fired += 1
                roots = scalar_source_roots(6.5625, 1.0, float(lam), 3.0, float(q))
                assert roots == [], (q, lam)
    assert checked == 100 and fired > 0
    print(f"[PASS] criterion 10: {fired}/100 certified cells all root-free; "
          f"printed-formula discrepancy range "
          f"[{min(discrepancies):.3g}, {max(discrepancies):.3g}] (logged only)")


def test_c11_mountain_pass_contract(mp_op, mp_problem, mp_sobolev, mp_params):
    started = time.monotonic()
    cond = pl.check_existence_cond(mp_op, mp_problem, S_psi=mp_sobolev)
    assert cond.satisfied
    rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev)
    elapsed = time.monotonic() - started
    assert rep.residual <= 1e-6
    assert rep.u.min() > 0.0
    assert rep.rim_value < rep.pass_level < rep.energy_at_r0
    roots = scalar_source_roots(mp_params.beta, 1.0, 0.05, 1.5, 2.0)
    assert min(abs(rep.u.max() - r) for r in roots) <= 1e-6
    assert elapsed <= 60.0
    print(f"[PASS] criterion 11: minimax solve in {elapsed:.1f}s, residual "
          f"{rep.residual:.2e}, pass level {rep.pass_level:.4f} in "
          f"({rep.rim_value:.4f}, {rep.energy_at_r0:.4f})")


def test_c12_lambda_star_bracketing(ref_op, ref_sobolev):
    started = time.monotonic()
    res = pl.lambda_star_bisect(ref_op, 3.0, 2.0, tol=1e-3, S_psi=ref_sobolev)
    elapsed = time.monotonic() - started
    assert res.empirical is not None
    assert res.lower <= res.empirical <= res.upper
    assert elapsed <= 300.0
    print(f"[PASS] criterion 12: empirical threshold {res.empirical:.6f} in "
          f"[{res.lower:.3g}, {res.upper:.6f}] ({elapsed:.1f}s)")


def test_c13_conformal_transform(ref_op, ref_params):
    q1 = ref_op.conformal_Q(pl.ScalarField.constant(ref_op.grid, 1.0))
    assert np.abs(q1.values - ref_params.Qconst).max() <= 1e-10
    c = 2.3
    qc = ref_op.conformal_Q(pl.ScalarField.constant(ref_op.grid, c))
    expected = c ** (-8.0 / (ref_params.n - 4.0)) * ref_params.Qconst
    assert np.abs(qc.values - expected).max() <= 1e-10 * abs(expected)
    print("[PASS] criterion 13: conformal transform normalization exact")


def test_c14_positivity_diagnostics(ref_op, ref_params, ref_grid):
    rep = pl.positivity_check(ref_op)
    assert rep.passed
    assert rep.kernel_floor > 0.0
    x = ref_grid.meshgrid()[0]
    V = pl.ScalarField(
        ref_grid, ref_params.Qconst + 60.0 * np.exp(-8.0 * (x - np.pi) ** 2)
    )
    bad = pl.build_operator(ref_params, ref_grid, potential=V)
    rep_bad = pl.positivity_check(bad)
    assert not rep_bad.passed
    assert rep_bad.reason
    print(f"[PASS] criterion 14: inverse positivity proved, kernel floor "
          f"{rep.kernel_floor:.3e}; engineered failure reported without exception")


def test_c15_end_to_end_determinism(tmp_path):
    cfg_text = (
        "n = 5\nR = 20\nsizes = 64\naction = solve\nmode = absorption\n"
        "A = 1.0\nB = 1.0\np = 3\nq = 2\nseed = 3\n"
    )
    cfg = parse_config(cfg_text)
    run(cfg, out_dir=tmp_path / "r1")
    run(cfg, out_dir=tmp_path / "r2")
    for name in ("report.json", "solution.f64", "solution.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (
            tmp_path / "r2" / name
        ).read_bytes(), name
    rep = json.loads((tmp_path / "r1" / "report.json").read_text())
    assert rep["solver"]["residual"] <= 1e-8
    print("[PASS] criterion 15: identical config and seed reproduce "
          "byte-identical reports")
