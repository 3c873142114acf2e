import numpy as np
import pytest

import paneitzlab as pl

from conftest import TWO_PI, constant_problem, sin_psi_operator


@pytest.fixture(scope="module")
def ref_prob(ref_grid):
    return constant_problem(ref_grid)


@pytest.fixture(scope="module")
def steady(ref_op, ref_prob):
    br = pl.find_sub_super(ref_op, ref_prob)
    return pl.monotone_solve(ref_op, ref_prob, br)


def test_steady_state_is_fixed(ref_op, ref_prob, steady):
    rep, samples = pl.parabolic_flow(ref_op, ref_prob, steady.u, tau=0.05, tmax=5.0)
    assert rep.converged
    assert all(s.residual <= 1e-8 for s in samples)
    assert np.abs(rep.u.values - steady.u.values).max() < 1e-8


def test_flow_from_subsolution(ref_op, ref_prob, steady):
    br = pl.find_sub_super(ref_op, ref_prob)
    rep, samples = pl.parabolic_flow(ref_op, ref_prob, br.lower, tau=0.05, tmax=300.0)
    assert rep.converged
    assert np.abs(rep.u.values - steady.u.values).max() < 1e-6
    # approach from below: sampled minima never overshoot downward
    mins = [s.min_u for s in samples]
    assert all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))


def test_flow_from_supersolution(ref_op, ref_prob, steady):
    br = pl.find_sub_super(ref_op, ref_prob)
    rep, samples = pl.parabolic_flow(ref_op, ref_prob, br.upper, tau=0.05, tmax=300.0)
    assert rep.converged
    assert np.abs(rep.u.values - steady.u.values).max() < 1e-6
    maxs = [s.max_u for s in samples]
    assert all(b <= a + 1e-9 for a, b in zip(maxs, maxs[1:]))


def test_lyapunov_energy_decreases(ref_op, ref_prob):
    br = pl.find_sub_super(ref_op, ref_prob)
    _, samples = pl.parabolic_flow(ref_op, ref_prob, br.lower, tau=0.02, tmax=300.0)
    energies = [s.energy for s in samples]
    assert all(b <= a + 1e-9 * max(abs(a), 1.0) for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("mode, sign", [("absorption", 1.0), ("source", -1.0)])
def test_energy_on_constants_takes_the_problem_sign(ref_op, ref_grid, mode, sign):
    # E(c) = |box| (beta c^2/2 + A c^(1-p)/(p-1) +/- B c^(q+1)/(q+1)), the
    # power term with + in absorption mode and - in source mode
    c, beta, vol = 1.3, ref_op.params.beta, ref_grid.volume
    prob = constant_problem(ref_grid, a=0.7, b=0.4, p=3.0, q=2.0, mode=mode)
    expected = vol * (0.5 * beta * c**2 + 0.7 * c**-2.0 / 2.0 + sign * 0.4 * c**3.0 / 3.0)
    got = pl.energy(ref_op, prob, 0.0, pl.ScalarField.constant(ref_grid, c))
    assert got == pytest.approx(expected, rel=1e-13)


def test_tmax_without_convergence_is_reported(ref_op, ref_prob):
    br = pl.find_sub_super(ref_op, ref_prob)
    rep, _ = pl.parabolic_flow(ref_op, ref_prob, br.lower, tau=1e-4, tmax=3e-4)
    assert not rep.converged
    assert rep.extras["final_time"] <= 3e-4 + 1e-12


def test_fine_grid_stops_at_the_roundoff_floor(ref_params):
    # on 512 points the floor of P u (about 5.8e-7) is far above
    # tol_residual = 1e-8: the flow stops there instead of running to tmax
    op = sin_psi_operator(ref_params, 512, 0.3)
    prob = constant_problem(op.grid)
    u0 = pl.find_sub_super(op, prob).lower
    rep, _ = pl.parabolic_flow(op, prob, u0, tau=0.05, tmax=5.0)
    assert rep.converged
    assert rep.iterations <= 20
    floor = rep.extras["residual_floor"]
    assert floor == op.roundoff_floor(rep.u.values)
    assert 1e-8 < rep.residual <= floor


def test_positivity_rejection_recovers(ref_op, ref_grid):
    # a large explicit power term drives the first step negative until the
    # step size is halved enough
    prob = constant_problem(ref_grid, b=100.0, q=3.0)
    u0 = pl.ScalarField.constant(ref_grid, 2.0)
    rep, _ = pl.parabolic_flow(ref_op, prob, u0, tau=1.0, tmax=2000.0)
    assert rep.extras["halvings"] > 0
    assert rep.converged
    assert rep.u.min() > 0


def test_positivity_exhaustion_raises(ref_op, ref_grid):
    prob = constant_problem(ref_grid, b=100.0, q=3.0)
    u0 = pl.ScalarField.constant(ref_grid, 2.0)
    with pytest.raises(pl.SolverError):
        pl.parabolic_flow(ref_op, prob, u0, tau=1.0, tmax=10.0, max_halvings=0)


def test_input_validation(ref_op, ref_prob):
    bad = pl.ScalarField.constant(ref_op.grid, -1.0)
    with pytest.raises(ValueError):
        pl.parabolic_flow(ref_op, ref_prob, bad, tau=0.1, tmax=1.0)
    good = pl.ScalarField.constant(ref_op.grid, 1.0)
    with pytest.raises(ValueError):
        pl.parabolic_flow(ref_op, ref_prob, good, tau=-0.1, tmax=1.0)


@pytest.mark.parametrize("case", ["plain", "rejections"])
def test_one_application_of_p_per_accepted_step(ref_op, ref_grid, monkeypatch, case):
    # the warm start of each step reuses the P u its stopping test computed,
    # and a rejected step applies nothing
    if case == "plain":
        prob = constant_problem(ref_grid)
        u0, tau, tmax = pl.find_sub_super(ref_op, prob).lower, 0.05, 300.0
    else:
        prob = constant_problem(ref_grid, b=100.0, q=3.0)
        u0, tau, tmax = pl.ScalarField.constant(ref_grid, 2.0), 1.0, 2000.0
    applied = []
    apply_values = ref_op.apply_values
    monkeypatch.setattr(ref_op, "apply_values",
                        lambda v: applied.append(1) or apply_values(v))
    rep, _ = pl.parabolic_flow(ref_op, prob, u0, tau=tau, tmax=tmax)
    assert rep.converged
    assert (rep.extras["halvings"] > 0) == (case == "rejections")
    assert len(applied) == rep.iterations + 1


def test_inexact_steps_meet_the_stopping_rule_in_3d(ref_params):
    # max |grad psi|^2 = 40.5 > Qconst = 13.125: W changes sign.  The steps'
    # solves stop early, but the returned field still meets the flow's
    # stopping rule, measured afresh, and agrees with the monotone solve
    grid = pl.SpectralGrid((16, 16, 16), (TWO_PI,) * 3)
    x, y, z = grid.meshgrid()
    psi = 3.0 * (np.sin(x) + np.sin(y) * np.cos(z) + 0.5 * np.cos(x + z))
    op = pl.build_operator(ref_params, grid, psi=pl.ScalarField(grid, psi))
    assert op.W.min() < 0.0 < op.W.max()
    prob = constant_problem(grid)
    bracket = pl.find_sub_super(op, prob)
    steady = pl.monotone_solve(op, prob, bracket)
    # P + diag d is definite on every Newton step though W + d dips below 0
    assert steady.monotone_ok is True
    assert steady.iterations <= 10
    rep, _ = pl.parabolic_flow(op, prob, bracket.lower, tau=0.05, tmax=200.0)
    assert rep.converged
    u = rep.u.values
    resid = np.abs(op.apply_values(u) - pl.problems.reaction(prob, u)).max()
    assert resid == rep.residual
    assert resid <= max(1e-8, op.roundoff_floor(u))
    ref = steady.u.values
    assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()
