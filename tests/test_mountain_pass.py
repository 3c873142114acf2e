import json
import tracemalloc

import numpy as np
import pytest

import paneitzlab as pl
from paneitzlab import mountain_pass
from paneitzlab.cli import parse_config, run
from paneitzlab.mountain_pass import REPARAM_EVERY, _energy_values, _path_max
from paneitzlab.operator import _prolong, backtrack, newton
from paneitzlab.problems import smoothed_reaction

from _oracles import scalar_source_roots, sequential_halving
from conftest import constant_problem, sin_psi_operator

TWO_PI = 2.0 * np.pi
# the CI smoke solve: a source-mode minimax solve on an n^2 grid with mild psi
SMOKE_MINIMAX = ("action = mountain-pass\nmode = source\nsizes = {n},{n}\n"
                 "lengths = 6.283185307179586,6.283185307179586\nR = 3.8\nA = 1\n"
                 "B = 0.05\np = 1.5\nq = 2\npsi = mode\npsi_mode = 1,1\n"
                 "psi_amplitude = 0.2\nmp_require_cond = false\n")


@pytest.fixture(scope="module")
def mp_solution(mp_op, mp_problem, mp_sobolev):
    return pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev)


class TestMountainPass:
    def test_certificate_holds_on_fixture(self, mp_op, mp_problem, mp_sobolev):
        cond = pl.check_existence_cond(mp_op, mp_problem, S_psi=mp_sobolev)
        assert cond.satisfied

    def test_residual_and_positivity(self, mp_op, mp_problem, mp_solution):
        assert mp_solution.residual <= 1e-6
        assert mp_solution.u.min() > 0
        assert mp_solution.converged

    def test_solution_is_a_scalar_root(self, mp_params, mp_solution):
        roots = scalar_source_roots(mp_params.beta, 1.0, 0.05, 1.5, 2.0)
        assert len(roots) == 2
        u = mp_solution.u
        assert u.max() - u.min() < 1e-8  # constant data, constant solution
        assert min(abs(u.max() - r) for r in roots) < 1e-6

    def test_pass_level_bracket(self, mp_solution):
        assert mp_solution.rim_value is not None
        assert mp_solution.energy_at_r0 is not None
        assert mp_solution.rim_value < mp_solution.pass_level < mp_solution.energy_at_r0
        assert mp_solution.extras["pass_level_in_bracket"]

    def test_endpoints_below_rim(self, mp_solution):
        e0, e2 = mp_solution.energy_at_endpoints
        assert e0 < mp_solution.rim_value
        assert e2 < mp_solution.rim_value

    def test_monitors(self, mp_solution):
        assert all(entry["green_ok"] for entry in mp_solution.eps_trace)
        assert mp_solution.eps_trace[-1]["eps"] == 0.0
        assert all(entry["min_u"] > 0 for entry in mp_solution.eps_trace)

    def test_energy_identity_at_solution(self, mp_op, mp_problem, mp_solution):
        # (q+1) E_eps(u) - <E_eps'(u), u> splits into manifestly nonnegative
        # pieces; the printed form of this identity elsewhere carries a sign
        # slip, so assert the recomputed split
        q, p = mp_problem.q, mp_problem.p
        grid = mp_op.grid
        u = mp_solution.u
        for eps in (0.3, 0.0):
            lhs = (q + 1.0) * pl.energy(mp_op, mp_problem, eps, u)
            grad = mp_op.apply_values(u.values) - smoothed_reaction(mp_problem, u.values, eps)
            lhs -= grid.inner(grad, u.values)
            up = np.maximum(u.values, 0.0)
            i1 = grid.integrate(mp_problem.A.values * (eps + up**2) ** (-(p - 1) / 2))
            i2 = grid.integrate(mp_problem.A.values * (eps + up**2) ** (-(p + 1) / 2))
            norm2 = mp_op.form(u)
            pieces = [
                ((q - 1.0) / 2.0) * norm2,
                ((q + 1.0) / (p - 1.0)) * i1,
                i1 - eps * i2,
            ]
            assert all(piece >= -1e-12 for piece in pieces)
            rhs = sum(pieces)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_infeasible_coupling_fails_honestly(self, mp_op, ref_grid, mp_sobolev):
        # beyond the fold no positive solution exists; the solver must not
        # fabricate one
        prob = constant_problem(ref_grid, b=0.12, p=1.5, q=2.0, mode="source")
        roots = scalar_source_roots(mp_op.params.beta, 1.0, 0.12, 1.5, 2.0)
        assert roots == []
        with pytest.raises(pl.SolverError):
            pl.mountain_pass_solve(mp_op, prob, S_psi=mp_sobolev)

    def test_infeasible_polish_applies_p_at_most_twice_per_step(
            self, mp_op, ref_grid, mp_sobolev, monkeypatch):
        # the sweep cell lambda = 0.1 beyond the fold: the polish halves its
        # steps many times before it stagnates.  Each step applies P to its
        # first admissible try and to a candidate it accepts below that, no
        # more, and the residual returned is a freshly applied one, to the bit
        from paneitzlab import operator

        log, tries, returned = [], [], []
        apply = pl.PaneitzOperator.apply_values
        monkeypatch.setattr(pl.PaneitzOperator, "apply_values",
                            lambda self, v: log.append("P") or apply(self, v))
        search = operator.backtrack

        def counted_search(x, step, accept):
            tries.append(0)

            def counted(cand, s):
                tries[-1] += 1
                return accept(cand, s)
            return search(x, step, counted)

        monkeypatch.setattr(operator, "backtrack", counted_search)
        polish = mountain_pass.newton

        def logged(op, f, fprime, u, pu, done, maxiter, solve=None, admissible=None):
            def logged_solve(fp, rhs):
                log.append("S")
                return (solve or op.solve_linearized)(fp, rhs)

            del log[:]
            out = polish(op, f, fprime, u, pu, done, maxiter, solve=logged_solve,
                         admissible=admissible)
            returned.append((op, f, out))
            return out

        monkeypatch.setattr(mountain_pass, "newton", logged)
        prob = constant_problem(ref_grid, b=0.1, p=1.5, q=2.0, mode="source")
        with pytest.raises(pl.ConvergenceError, match="polish stagnated"):
            pl.mountain_pass_solve(mp_op, prob, S_psi=mp_sobolev)
        per_step = [len(seg) for seg in "".join(log).split("S")[1:]]
        assert len(per_step) > 10 and max(per_step) == 2
        assert sum(tries) > 10 * sum(per_step)
        (op, f, (u, resid, steps, stop)), = returned
        assert stop == "stagnated" and steps == len(per_step) - 1
        assert resid == float(np.abs(apply(op, u) - f(u)).max())

    @pytest.mark.parametrize("S_psi", [0.0, -1.0])
    def test_nonpositive_embedding_constant_is_not_coercive(self, mp_op, mp_problem,
                                                            S_psi):
        with pytest.raises(pl.CoercivityError):
            pl.mountain_pass_solve(mp_op, mp_problem, S_psi=S_psi)

    def test_monitor_skipped_where_the_inverse_image_does_not_solve(
            self, mp_op, mp_problem, mp_sobolev, monkeypatch):
        # conjugate gradients refusing P drops the inverse-image monitor and
        # nothing else.  The refusal goes into the session operator's own
        # dict, whose undo deletes the key again: setattr would restore a
        # bound method there, which later class-level patches never reach
        def refused(*args, **kwargs):
            raise pl.CoercivityError("nonpositive curvature")

        with monkeypatch.context() as m:
            m.setitem(vars(mp_op), "solve_shifted", refused)
            rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev,
                                         max_sweeps=0)
        assert "solve_shifted" not in vars(mp_op)
        assert rep.eps_trace
        assert not any({"green_ok", "green_lower_bound"} & set(e) for e in rep.eps_trace)

    def test_newton_iterations_are_the_steps_taken(self, mp_op, mp_problem, mp_sobolev,
                                                   monkeypatch):
        import paneitzlab.mountain_pass as mp

        steps = []
        newton = mp.newton

        def counted(*args, **kwargs):
            out = newton(*args, **kwargs)
            steps.append(out[2])
            return out

        monkeypatch.setattr(mp, "newton", counted)
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev, max_sweeps=0)
        # one polish of the exact equation, recorded as one eps = 0 entry
        assert len(steps) == 1
        assert [(e["eps"], e["newton_iterations"]) for e in rep.eps_trace] == [(0.0, steps[0])]
        assert rep.iterations == rep.extras["path_sweeps"] + steps[0]

    def test_zero_B_routes_to_absorption(self, mp_op, ref_grid):
        prob = constant_problem(ref_grid, b=0.0, p=1.5, q=2.0, mode="source")
        rep = pl.mountain_pass_solve(mp_op, prob)
        expected = mp_op.params.beta ** (-1.0 / (1.5 + 1.0))
        assert np.abs(rep.u.values - expected).max() < 1e-8
        assert "absorption" in rep.method

    def test_wrong_mode_rejected(self, mp_op, ref_grid):
        prob = constant_problem(ref_grid, mode="absorption")
        with pytest.raises(ValueError):
            pl.mountain_pass_solve(mp_op, prob)


def _traced_peak(fn):
    """``fn()`` and the traced peak it allocated beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestDenseSolver:
    """``_dense_solver``: Newton's linear solve on grids up to ``MAX_DENSE``,
    and the memory of the dense path, in units of one matrix; the operator is
    the stiff 16^2 one at R = 20."""

    @pytest.fixture(scope="class")
    def dense16(self, ref_params):
        op = _stiff_source_16(ref_params)[0]
        rng = np.random.default_rng(16)
        fps = [0.5 * rng.random(op.grid.shape), -rng.random(op.grid.shape)]
        return op.dense_matrix(), fps, rng.standard_normal(op.grid.shape)

    def test_matches_solve_of_the_formed_jacobian(self, dense16):
        P, fps, rhs = dense16
        solve = mountain_pass._dense_solver(P)
        for fp in fps:
            want = np.linalg.solve(P - np.diag(fp.ravel()), rhs.ravel()).reshape(rhs.shape)
            got = solve(fp, rhs)
            assert got.shape == rhs.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_threads_each_assemble_and_solve(self, ref_params):
        # more threads than cores, switching often: threads sharing the
        # operator each assemble P and solve with it, as the sweep's cells do
        import sys
        import threading

        op = _stiff_source_16(ref_params)[0]
        rng = np.random.default_rng(2)
        fps = [0.5 * rng.random(op.grid.shape) for _ in range(4)]
        rhs = rng.standard_normal(op.grid.shape)
        alone = [mountain_pass._dense_solver(op.dense_matrix())(fp, rhs) for fp in fps]
        barrier = threading.Barrier(len(fps))
        out = [None] * len(fps)

        def run(k):
            barrier.wait()
            solve = mountain_pass._dense_solver(op.dense_matrix())
            out[k] = [solve(fps[k], rhs) for _ in range(5)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(fps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        # concurrent LAPACK calls may split the work differently
        for k in range(len(fps)):
            scale = np.abs(alone[k]).max()
            assert all(np.abs(x - alone[k]).max() <= 1e-12 * scale for x in out[k])

    def test_assembly_peaks_at_two_matrices(self, ref_params):
        # the identity, the rows and their symmetrized copy read 3.1 here
        op = _stiff_source_16(ref_params)[0]
        op.apply_values(np.zeros(op.grid.shape))  # FFT set-up outside the trace
        P, peak = _traced_peak(op.dense_matrix)
        assert peak <= 2.2 * P.nbytes

    def test_solve_holds_one_matrix_beyond_p(self, dense16):
        # forming diag f' and P - diag f' reads 2.0 here
        P, fps, rhs = dense16
        _, peak = _traced_peak(lambda: mountain_pass._dense_solver(P)(fps[0], rhs))
        assert peak <= 1.2 * P.nbytes

    def test_singular_jacobian_stops_newton(self, mp_op):
        # P = diag d and f' = d make P - diag f' the zero matrix
        d = 1.0 + np.arange(mp_op.grid.npoints, dtype=float)
        u = np.ones(mp_op.grid.shape)
        _, resid, steps, stop = newton(
            mp_op, lambda v: 2.0 * v, lambda v: d.reshape(v.shape), u,
            mp_op.apply_values(u), lambda v, pv, r: False, 10,
            solve=mountain_pass._dense_solver(np.diag(d)))
        assert (stop, steps) == ("solve-failed", 0)
        assert resid > 0.0


class TestStackedPath:
    """The path is one stack of nodes carrying its image under P."""

    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (8, 4, 4)])
    def test_stacked_energy_matches_per_field(self, mp_params, sizes):
        grid = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        rng = np.random.default_rng(len(sizes))
        psi = pl.ScalarField(grid, 0.2 * rng.standard_normal(sizes))
        op = pl.build_operator(mp_params, grid, psi=psi)
        prob = pl.ProblemSpec(
            A=pl.ScalarField(grid, 1.0 + rng.random(sizes)),
            B=pl.ScalarField(grid, 0.05 + 0.1 * rng.random(sizes)),
            p=1.5, q=2.0, mode="source",
        )
        stack = rng.standard_normal((5,) + sizes) + 0.5
        stacked = _energy_values(op, prob, 0.1, stack, op.apply_values(stack))
        per_field = [_energy_values(op, prob, 0.1, v) for v in stack]
        reference = [pl.energy(op, prob, 0.1, pl.ScalarField(grid, v)) for v in stack]
        assert stacked.shape == (5,)
        assert np.array_equal(stacked, per_field)
        assert np.array_equal(stacked, reference)

        # the stacked path maximum is the largest per-sample energy along
        # the polyline through the stack, 8 samples per segment
        nodes = np.abs(stack) + 0.1
        best, field = _path_max(op, prob, 0.1, nodes, op.apply_values(nodes))
        samples = [(1.0 - w / 8) * a + (w / 8) * b
                   for a, b in zip(nodes, nodes[1:]) for w in range(8)] + [nodes[-1]]
        energies = [pl.energy(op, prob, 0.1, pl.ScalarField(grid, v)) for v in samples]
        k = int(np.argmax(energies))
        assert best == pytest.approx(energies[k], rel=1e-13)
        assert np.array_equal(field, samples[k])

    def test_application_count(self, mp_op, mp_problem, mp_sobolev, monkeypatch):
        # one application per sweep plus one batched refresh per
        # reparametrization; re-applying P to every trial field took 5392
        calls = []
        apply = mp_op.apply_values

        def counted(values):
            calls.append(values.shape)
            return apply(values)

        monkeypatch.setattr(mp_op, "apply_values", counted)
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev)
        assert rep.extras["path_sweeps"] == 40
        assert len(calls) <= 1000

    def test_pass_level_and_stop_reason(self, mp_solution):
        # 8.262404971810911 is the pass level of the per-node path, and of
        # the L^2 descent that ran to the 600-sweep cap
        assert mp_solution.pass_level == pytest.approx(8.262404971810911, rel=1e-12)
        assert mp_solution.extras["path_stop"] == "stall"

    def test_no_sweeps_reads_cap(self, mp_op, mp_problem, mp_sobolev):
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev, max_sweeps=0)
        assert rep.extras["path_sweeps"] == 0
        assert rep.extras["path_stop"] == "cap"

    @pytest.mark.parametrize("kw, match", [
        ({"eps0": -1.0}, "eps0 must be positive, got -1.0"),
        ({"eps0": 0.0}, "eps0 must be positive, got 0.0"),
        ({"n_nodes": 2}, "n_nodes must be at least 3, got 2"),
        ({"n_nodes": 1}, "n_nodes must be at least 3, got 1"),
        ({"max_sweeps": -1}, "max_sweeps must be nonnegative, got -1"),
        ({"tol_residual": 0.0}, "tol_residual must be positive, got 0.0"),
        ({"tol_residual": -1e-6}, "tol_residual must be positive, got -1e-06"),
    ], ids=["eps0=-1", "eps0=0", "n_nodes=2", "n_nodes=1", "max_sweeps=-1",
            "tol_residual=0", "tol_residual=-1e-6"])
    def test_bad_regularization_refused_before_any_work(self, mp_op, mp_problem,
                                                        monkeypatch, kw, match):
        # without S_psi the embedding constant is the solve's first work
        def no_work(op):
            raise AssertionError("the solve started working")

        monkeypatch.setattr(mountain_pass, "sobolev_constant", no_work)
        with pytest.raises(ValueError, match=match):
            pl.mountain_pass_solve(mp_op, mp_problem, **kw)


class TestEnergyNormDescent:
    """A sweep descends along (sigma + mean W)^{-1} of the L^2 gradient, and
    the path stops once its maximum after reparametrization settles."""

    def test_direction_is_the_preconditioned_gradient(self, mp_op, mp_problem,
                                                      mp_sobolev, monkeypatch):
        seen = []

        def spy(u, step, accept):
            found = backtrack(u, step, accept)
            seen.append((u.copy(), step, found))
            return found

        monkeypatch.setattr(mountain_pass, "backtrack", spy)
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev, max_sweeps=3)
        assert len(seen) == 3
        eps0 = rep.extras["eps0"]
        precondition = mp_op.preconditioner(0.0)[0]
        for u, step, (cand, (pcand, _)) in seen:
            g = mp_op.apply_values(u) - smoothed_reaction(mp_problem, u, eps0)
            z = precondition(g)
            # the step is -su z for one positive su: a descent direction
            su = -step / z
            assert su.max() > 0.0
            assert np.allclose(su, su.max(), rtol=1e-12, atol=0.0)
            assert mp_op.grid.inner(g, step) < 0.0
            # the accepted image is P of the accepted node
            scale = np.abs(pcand).max()
            assert np.abs(pcand - mp_op.apply_values(cand)).max() <= 1e-12 * scale

    def test_fixture_path_stalls_below_the_cap(self, mp_solution):
        sweeps = mp_solution.extras["path_sweeps"]
        assert mp_solution.extras["path_stop"] == "stall"
        assert sweeps < 600
        # the test runs once per reparametrization, and three periods agree
        assert sweeps % REPARAM_EVERY == 0
        assert sweeps >= 3 * REPARAM_EVERY

    def test_fewer_sweeps_than_a_period_read_cap(self, mp_op, mp_problem, mp_sobolev):
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev,
                                     max_sweeps=REPARAM_EVERY - 1)
        assert rep.extras["path_sweeps"] == REPARAM_EVERY - 1
        assert rep.extras["path_stop"] == "cap"

    def test_stiff_sweeps_accept_the_full_step(self, stiff_run):
        # one evaluation per sweep and one stacked refresh per
        # reparametrization: no sweep halves (the L^2 step refused 12-17)
        rep, calls, setup = stiff_run
        sweeps = rep.extras["path_sweeps"]
        assert calls - setup == sweeps + sweeps // REPARAM_EVERY
        assert calls - setup == 143

    def test_newton_lands_on_the_l2_path_solution(self, stiff_run, mp_params):
        # max u of the L^2 descent's solution, to within the polish's
        # residual target: the path only supplies the start that Newton
        # converges from
        rep, _, _ = stiff_run
        assert rep.u.max() == pytest.approx(3.8513477349623306, rel=1e-12)
        op = sin_psi_operator(mp_params, 64, 0.2)
        prob = constant_problem(op.grid, b=0.05, p=1.5, q=2.0, mode="source")
        rep = pl.mountain_pass_solve(op, prob)
        # the polish stops at its residual target, here 1.2e-9 relative
        # from the field that further Newton steps settle on (3.852654554998)
        assert rep.u.max() == pytest.approx(3.852654559782821, rel=1e-12)


def _stiff_source_16(mp_params):
    """The source problem (B = 0.05, p = 1.5, q = 2) on a 16^2 operator with
    psi = 0.2 sin x cos y, where an L^2 gradient step refuses about 13
    halvings."""
    grid = pl.SpectralGrid((16, 16), (TWO_PI, TWO_PI))
    x, y = grid.meshgrid()
    psi = pl.ScalarField(grid, 0.2 * np.sin(x) * np.cos(y))
    op = pl.build_operator(mp_params, grid, psi=psi)
    return op, constant_problem(grid, b=0.05, p=1.5, q=2.0, mode="source")


def _energy_calls(op, prob, **kw):
    """The solve's report and the number of ``_energy_values`` calls it made."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mountain_pass, "_energy_values",
                  lambda *args: calls.append(1) or _energy_values(*args))
        rep = pl.mountain_pass_solve(op, prob, **kw)
    return rep, len(calls)


@pytest.fixture(scope="module")
def stiff_run(mp_params):
    """The minimax solve on the 16^2 stiff operator, its ``_energy_values``
    calls and the calls of its set-up alone."""
    op, prob = _stiff_source_16(mp_params)
    S = pl.sobolev_constant(op)
    _, setup = _energy_calls(op, prob, S_psi=S, max_sweeps=0)
    rep, calls = _energy_calls(op, prob, S_psi=S)
    return rep, calls, setup


def _sweep_search(E, u, pu, g, pg, su, bar):
    """The sweep's line search on ``u - s su g``: :func:`backtrack` with the
    acceptance ``mountain_pass_solve`` passes it, which carries the image
    ``pu - s su pg`` and takes the first energy below ``bar``.  Returns
    ``(k, candidate, image, energy)`` like ``sequential_halving``."""
    pstep = -su * pg

    def below_bar(cand, s):
        pcand = pu + s * pstep
        ec = E(cand, pcand)
        return (pcand, ec, s) if ec < bar else None

    found = backtrack(u, -su * g, below_bar)
    if found is None:
        return None
    cand, (pcand, ec, s) = found
    return -int(np.log2(s)), cand, pcand, ec


class TestHalvingSearch:
    """A sweep halves its step through the line search Newton uses; what it
    accepts is what halving one candidate at a time accepts, bit for bit."""

    @pytest.fixture(scope="class")
    def stiff(self, mp_params):
        op, prob = _stiff_source_16(mp_params)
        rng = np.random.default_rng(3)
        u = 2.0 + 0.05 * rng.standard_normal(op.grid.shape)
        pu = op.apply_values(u)
        g = pu - smoothed_reaction(prob, u, 0.1)

        def E(values, pvalues):
            return _energy_values(op, prob, 0.1, values, pvalues)

        e0 = E(u, pu)
        return E, u, pu, g, op.apply_values(g), e0 - 1e-16 * max(abs(e0), 1.0)

    # the search starts from the step su = 2^-start: below, at and above the
    # 12 halvings the full L^2 step takes, and deep in round-off
    @pytest.mark.parametrize("start", [0, 9, 12, 15, 59])
    def test_matches_sequential_halving(self, stiff, start):
        E, u, pu, g, pg, bar = stiff
        su = np.ldexp(1.0, -start)
        want = sequential_halving(E, u, pu, g, pg, su, bar)
        got = _sweep_search(E, u, pu, g, pg, su, bar)
        assert want[0] == max(12 - start, 0)  # the L^2 step halves 12 times
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        assert got[3] == want[3]

    @pytest.mark.parametrize("start", [0, 12])
    def test_every_step_refused(self, stiff, start):
        E, u, pu, g, pg, _ = stiff
        su = np.ldexp(1.0, -start)
        assert sequential_halving(E, u, pu, g, pg, su, -np.inf) is None
        assert _sweep_search(E, u, pu, g, pg, su, -np.inf) is None

    def test_refused_sweep_stops_the_path(self, mp_op, mp_problem, mp_sobolev,
                                          monkeypatch):
        monkeypatch.setattr(mountain_pass, "backtrack",
                            lambda u, step, accept: backtrack(u, step, lambda c, s: None))
        rep = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev)
        assert rep.extras["path_stop"] == "no-descent"
        assert rep.extras["path_sweeps"] == 1

    def test_energy_evaluations_per_sweep(self, stiff_run):
        # one evaluation per try and one stacked refresh per
        # reparametrization; the L^2 path, halving one candidate at a time,
        # took 8230 calls in all
        rep, calls, setup = stiff_run
        sweeps = rep.extras["path_sweeps"]
        assert sweeps == 130
        assert calls - setup <= 3 * sweeps + sweeps // REPARAM_EVERY
        # the energy-norm path's level, to the bit (two ulps below the
        # 30.75445319009134 it read with S_psi from the inverse iteration,
        # an ulp above the descent's); it sits below the level
        # 30.75447296442178 of the L^2 path after 600 sweeps, and above the rim
        assert rep.pass_level == 30.754453190091333
        assert rep.rim_value < rep.pass_level < 30.75447296442178

    def test_descent_images_need_no_transform(self, mp_params, monkeypatch):
        # a sweep takes P z = g - c z + W z from the preconditioner's identity
        # sigma (sigma + c)^{-1} g = g - c z; it is P z within the round-off
        # of P z, and the images the path carries to its maximum are P nodes
        # within the round-off of P nodes
        op, prob = _stiff_source_16(mp_params)
        S = pl.sobolev_constant(op)
        seen, carried, sweeping = [], [], []
        preconditioner = op.preconditioner

        def recorded(lam):
            pinv, c = preconditioner(lam)

            def precondition(g):
                z = pinv(g)
                if sweeping:
                    seen.append((g, z, c))
                return z
            return precondition, c

        sweep, path_max = mountain_pass._sweep, mountain_pass._path_max

        def flagged(*args):
            sweeping.append(1)
            try:
                return sweep(*args)
            finally:
                sweeping.pop()

        monkeypatch.setattr(op, "preconditioner", recorded)
        monkeypatch.setattr(mountain_pass, "_sweep", flagged)
        monkeypatch.setattr(mountain_pass, "_path_max", lambda op, prob, eps, nodes, pnodes: (
            carried.append((nodes, pnodes)) or path_max(op, prob, eps, nodes, pnodes)))
        pl.mountain_pass_solve(op, prob, S_psi=S, max_sweeps=REPARAM_EVERY - 1)
        assert len(seen) == REPARAM_EVERY - 1
        for g, z, c in seen:
            pz = g - c * z + op.W.values * z
            assert np.abs(pz - op.apply_values(z)).max() <= op.roundoff_floor(z)
        (nodes, pnodes), = carried
        assert np.abs(pnodes - op.apply_values(nodes)).max() <= op.roundoff_floor(nodes)

    def test_unhalved_sweeps_take_one_evaluation(self, mp_op, mp_problem, mp_sobolev):
        # every full step is accepted on the 1-D fixture: nothing is halved
        _, setup = _energy_calls(mp_op, mp_problem, S_psi=mp_sobolev, max_sweeps=0)
        rep, calls = _energy_calls(mp_op, mp_problem, S_psi=mp_sobolev)
        sweeps = rep.extras["path_sweeps"]
        assert calls - setup == sweeps + sweeps // REPARAM_EVERY


class TestRoundoffFloorStop:
    """On fine grids Newton cannot reach 1e-9 relative: every run stops at
    its target or the round-off floor of P u, and nothing else is accepted."""

    def test_128_points_no_entry_reaches_the_step_cap(self, mp_params):
        op = sin_psi_operator(mp_params, 128, 0.2)
        prob = constant_problem(op.grid, b=0.05, p=1.5, q=2.0, mode="source")
        rep = pl.mountain_pass_solve(op, prob)
        assert rep.converged
        assert all(e["newton_iterations"] < 80 for e in rep.eps_trace)

    def test_256_points_solve_with_every_entry_at_the_floor(self, mp_params):
        op = sin_psi_operator(mp_params, 256, 0.2)
        prob = constant_problem(op.grid, b=0.05, p=1.5, q=2.0, mode="source")
        rep = pl.mountain_pass_solve(op, prob)
        assert rep.converged and rep.u.min() > 0.0
        assert rep.residual <= max(1e-6, op.roundoff_floor(rep.u.values))
        assert all(e["residual"] <= e["residual_floor"] for e in rep.eps_trace)


class TestNestedLevels:
    """Grids with at least 1024 points and every axis at least 32 long solve
    on the half grid first; smaller grids sweep their own path.  The ladder's
    helpers live in :mod:`paneitzlab.operator`, shared with every nested
    solve."""

    # max u and pass level of the solve that swept its path on the n^2 grid
    @pytest.mark.parametrize("n, max_u, pass_level", [
        (32, 3.4002591310813113, 26.865210169676075),
        (64, 3.4002591310812673, 26.86521016967606),
        (128, 3.4002591310813166, 26.86521016967606),
    ])
    def test_nested_solve_keeps_the_single_level_answer(self, tmp_path, monkeypatch, n,
                                                       max_u, pass_level):
        swept = []

        def spy(op, *args):
            swept.append(op.grid.sizes)
            return _path_max(op, *args)

        monkeypatch.setattr(mountain_pass, "_path_max", spy)
        result, peak = _traced_peak(
            lambda: run(parse_config(SMOKE_MINIMAX.format(n=n)), out_dir=tmp_path))
        assert result.exit_code == 0
        # only the 16^2 level sweeps and evaluates a path, and finer levels
        # hold single fields, so the peak does not grow with the grid
        assert swept == [(16, 16)]
        assert peak < 16 * 2**20
        solver = json.loads((tmp_path / "report.json").read_text())["solver"]
        assert solver["max_u"] == pytest.approx(max_u, rel=1e-8)
        assert solver["pass_level"] == pytest.approx(pass_level, rel=1e-8)
        # 16^2 up to n^2, coarsest first
        sizes = [[m, m] for m in (16, 32, 64, 128) if m <= n]
        assert solver["extras"]["levels"] == len(sizes)
        assert [e["sizes"] for e in solver["eps_trace"]] == sizes
        assert solver["iterations"] == solver["extras"]["path_sweeps"] + sum(
            e["newton_iterations"] for e in solver["eps_trace"])

    def test_small_grids_report_one_level(self, mp_solution):
        assert mp_solution.extras["levels"] == 1
        assert [e["sizes"] for e in mp_solution.eps_trace] == [[64]]

    @pytest.fixture(scope="class")
    def nest32(self, mp_params):
        grid = pl.SpectralGrid((32, 32), (TWO_PI, TWO_PI))
        x, y = grid.meshgrid()
        op = pl.build_operator(mp_params, grid, psi=pl.ScalarField(grid, 0.2 * np.sin(x + y)))
        prob = constant_problem(grid, b=0.05, p=1.5, q=2.0, mode="source")
        return op, prob, pl.sobolev_constant(op)

    def test_failed_solve_raises_from_the_half_grid(self, nest32, monkeypatch):
        # at B = 0.1 the 16^2 polish cannot converge; the solve raises there,
        # and neither sweeps a path nor assembles P on the 32^2 grid
        op, _, S = nest32
        prob = constant_problem(op.grid, b=0.1, p=1.5, q=2.0, mode="source")
        swept, assembled = [], []
        dense_matrix = pl.PaneitzOperator.dense_matrix

        def path_max(level_op, *args):
            swept.append(level_op.grid.sizes)
            return _path_max(level_op, *args)

        def dense(level_op):
            assembled.append(level_op.grid.sizes)
            return dense_matrix(level_op)

        monkeypatch.setattr(mountain_pass, "_path_max", path_max)
        monkeypatch.setattr(pl.PaneitzOperator, "dense_matrix", dense)

        def solve():
            with pytest.raises(pl.ConvergenceError, match="on the 16x16 grid$"):
                pl.mountain_pass_solve(op, prob, S_psi=S)

        _, peak = _traced_peak(solve)
        assert swept == [(16, 16)]
        assert assembled == [(16, 16)]
        assert peak < 8 * 2**20

    def test_sweeping_level_checks_its_endpoints_against_the_rim(self, nest32, monkeypatch):
        # at eps0 = 0.01 the smoothed singular term at zero (about 250) sits
        # far above the rim (about 0.017), so the ray has no inner endpoint:
        # the 16^2 grid that sweeps refuses
        op, prob, S = nest32
        seen = []
        sweep = mountain_pass._sweep

        def spy(level_op, *args):
            seen.append(level_op.grid.sizes)
            return sweep(level_op, *args)

        monkeypatch.setattr(mountain_pass, "_sweep", spy)
        with pytest.raises(pl.MountainPassGeometryError, match="no inner endpoint below the rim"):
            pl.mountain_pass_solve(op, prob, S_psi=S, eps0=0.01)
        assert seen == [(16, 16)]

    @pytest.mark.parametrize("sizes", [(16,), (8, 4), (4, 8, 4)])
    def test_prolongation_interpolates_band_limited_fields(self, sizes):
        coarse = pl.SpectralGrid(sizes, (TWO_PI,) * len(sizes))
        fine = pl.SpectralGrid(tuple(2 * m for m in sizes), coarse.lengths)

        def field(grid):
            # resolved on the coarse grid, its Nyquist mode included
            return 1.0 + sum(np.cos(m // 2 * x) + np.sin((m // 2 - 1) * x + 0.3)
                             for m, x in zip(sizes, grid.meshgrid()))

        out = _prolong(field(coarse))
        assert out.shape == fine.shape
        assert np.abs(out - field(fine)).max() <= 1e-13
        every_other = (slice(None, None, 2),) * coarse.d
        assert np.abs(out[every_other] - field(coarse)).max() <= 1e-13


class TestLichnerowiczExponents:
    def test_borderline_case_runs(self, ref_op, ref_grid, ref_sobolev):
        # p - 1 = q + 1 with q at the critical exponent: runs best-effort
        # with a warning and the power-term bound recorded via the embedding
        with pytest.warns(RuntimeWarning):
            prob = constant_problem(ref_grid, b=1.0, p=11.0, q=9.0, mode="source")
            rep = pl.mountain_pass_solve(ref_op, prob, S_psi=ref_sobolev)
        assert rep.residual <= 1e-6
        assert rep.u.min() > 0
        assert rep.extras["lichnerowicz_exponents"]
        assert all("power_term_sobolev_bound" in e for e in rep.eps_trace)
        roots = scalar_source_roots(6.5625, 1.0, 1.0, 11.0, 9.0, u_max=50.0)
        assert min(abs(rep.u.max() - r) for r in roots) < 1e-6


class TestRegularizedEnergy:
    def test_zero_field(self, mp_op, mp_problem):
        u = pl.ScalarField.constant(mp_op.grid, 0.0)
        eps = 0.7
        p = mp_problem.p
        expected = (
            mp_op.grid.integrate(mp_problem.A.values)
            * eps ** (-(p - 1) / 2.0)
            / (p - 1.0)
        )
        assert pl.energy(mp_op, mp_problem, eps, u) == pytest.approx(expected, rel=1e-12)

    def test_constant_field(self, mp_op, mp_problem):
        c, eps = 1.4, 0.2
        p, q = mp_problem.p, mp_problem.q
        beta = mp_op.params.beta
        V = mp_op.grid.volume
        expected = (
            0.5 * beta * V * c * c
            + (V / (p - 1.0)) * (eps + c * c) ** (-(p - 1) / 2.0)
            - (V / (q + 1.0)) * 0.05 * c ** (q + 1.0)
        )
        u = pl.ScalarField.constant(mp_op.grid, c)
        assert pl.energy(mp_op, mp_problem, eps, u) == pytest.approx(expected, rel=1e-12)

    def test_nonincreasing_in_eps(self, mp_op, mp_problem):
        rng = np.random.default_rng(5)
        u = pl.ScalarField(mp_op.grid, np.abs(rng.standard_normal(64)) + 0.1)
        values = [pl.energy(mp_op, mp_problem, eps, u) for eps in (0.0, 0.01, 0.1, 1.0)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_zero_eps_needs_positive_field(self, mp_op, mp_problem):
        u = pl.ScalarField.constant(mp_op.grid, 0.0)
        with pytest.raises(ValueError):
            pl.energy(mp_op, mp_problem, 0.0, u)

    def test_absorption_mode_rejected(self, mp_op, ref_grid):
        with pytest.raises(ValueError):
            pl.energy(mp_op, constant_problem(ref_grid), 0.1,
                      pl.ScalarField.constant(ref_grid, 1.0))


class TestSecondSolution:
    def test_distinct_solution_found(self, mp_op, mp_problem, mp_sobolev):
        u_B = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev).u
        rep = pl.second_solution_attempt(
            mp_op, mp_problem, u_B, 0.002, S_psi=mp_sobolev
        )
        assert rep is not None
        assert rep.extras["distinct"]
        assert rep.residual <= 1e-6
        # the limit is a genuine root of the scalar equation, different from u_B
        roots = scalar_source_roots(mp_op.params.beta, 1.0, 0.05, 1.5, 2.0)
        assert min(abs(rep.u.max() - r) for r in roots) < 1e-6
        assert abs(rep.u.max() - u_B.max()) > 1e-4

    def test_ordered_perturbations_iterate_upward(self, mp_op, mp_problem,
                                                  mp_sobolev, monkeypatch):
        # the lower (stable) roots of the perturbed problems are ordered in
        # the coefficient, unlike the mountain-pass ones; given those, the
        # attempt iterates upward from the lower one to the stable root of B
        import paneitzlab.mountain_pass as mp

        def stable_root(op, prob, **kw):
            lo, hi = sorted(scalar_source_roots(op.params.beta, 1.0, prob.B.max(),
                                                1.5, 2.0))
            return pl.monotone_solve(op, prob, pl.Bracket(0.5 * lo, 0.5 * (lo + hi), op.grid))

        u_B = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev).u
        monkeypatch.setattr(mp, "mountain_pass_solve", stable_root)
        rep = pl.second_solution_attempt(mp_op, mp_problem, u_B, 0.002)
        assert rep is not None
        assert rep.extras["ordering_ok"] and rep.extras["distinct"]
        assert rep.residual <= 1e-6
        roots = scalar_source_roots(mp_op.params.beta, 1.0, 0.05, 1.5, 2.0)
        assert np.abs(rep.u.values - min(roots)).max() < 1e-6

    def test_refused_newton_solve_returns_nothing(self, mp_op, mp_problem,
                                                  mp_sobolev, monkeypatch):
        # conjugate gradients refusing a Newton system (the pointwise shift)
        # ends the attempt with None instead of leaking CoercivityError
        u_B = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev).u
        solve = mp_op.solve_shifted
        refused = []

        def refuse_pointwise(lam, *args, **kwargs):
            if np.ndim(lam):
                refused.append(1)
                raise pl.CoercivityError("nonpositive curvature")
            return solve(lam, *args, **kwargs)

        monkeypatch.setattr(mp_op, "solve_shifted", refuse_pointwise)
        rep = pl.second_solution_attempt(mp_op, mp_problem, u_B, 0.002,
                                         S_psi=mp_sobolev)
        assert rep is None
        assert refused == [1]

    def test_degenerate_perturbation(self, mp_op, mp_problem, mp_sobolev):
        u_B = pl.mountain_pass_solve(mp_op, mp_problem, S_psi=mp_sobolev).u
        rep = pl.second_solution_attempt(mp_op, mp_problem, u_B, 0.0)
        assert rep is not None
        assert not rep.extras["distinct"]

    def test_perturbation_bounds(self, mp_op, mp_problem):
        u_B = pl.ScalarField.constant(mp_op.grid, 4.0)
        with pytest.raises(ValueError):
            pl.second_solution_attempt(mp_op, mp_problem, u_B, 0.2)

    def test_near_fold_returns_nothing(self, mp_op, mp_sobolev, ref_grid):
        # at the coupling where the two scalar roots merge, perturbing the
        # coefficient upward leaves no solution: the attempt reports nothing
        # instead of raising
        beta = mp_op.params.beta
        fold = (beta / pl.ineq_denominator(1.5, 2.0)) ** (3.5 / 2.5)
        prob = constant_problem(ref_grid, b=0.999 * fold, p=1.5, q=2.0, mode="source")
        u_B = pl.mountain_pass_solve(mp_op, prob, S_psi=mp_sobolev).u
        rep = pl.second_solution_attempt(
            mp_op, prob, u_B, 0.01 * fold, S_psi=mp_sobolev
        )
        assert rep is None
