import json
import re
from pathlib import Path

import numpy as np
import pytest

import paneitzlab as pl
from paneitzlab.cli import _BOUNDS, _REMOVED, _SCHEMA, ACTIONS, parse_config, run

REF_SOLVE = """
n = 5
R = 20
sizes = 64
lengths = 6.283185307179586
A = 1.0
B = 1.0
p = 3
q = 2
mode = absorption
action = solve
seed = 0
"""


# bad input and the error it exits 2 with; lambda_max, d and
# precheck_nonexistence are removed keys
INVALID_INPUTS = {
    "sizes = 60": "ValueError",
    "A = -1": "ValueError",
    "p = 0.5": "ConfigError",
    "lambda_max = 5": "ConfigError",
    "workers = 0": "ConfigError",
    "tmax = nan": "ConfigError",
    "lambda_tol = inf": "ConfigError",
    "eps0 = nan": "ConfigError",
    "eps0 = inf": "ConfigError",
    "eps_schedule = 1e-3,nan": "ConfigError",
    "sweep_lambdas = 0.05,nan": "ConfigError",
    "A = abc": "ConfigError",
    "B = inf": "ConfigError",
    "lambda_tol = -1": "ConfigError",
    "tol_residual = -1": "ConfigError",
    "tol_step = 0": "ConfigError",
    "mp_tol_residual = 0": "ConfigError",
    "mp_nodes = 2": "ConfigError",
    "mp_max_sweeps = -3": "ConfigError",
    "max_iter = -2": "ConfigError",
    "solver_budget = -1": "ConfigError",
    "eps0 = -1": "ConfigError",
    "eps0 = 0": "ConfigError",
    "eps_schedule = -1": "ConfigError",
    "eps_schedule = 1,0\nmode = source": "ConfigError",
    "sweep_lambdas = -1": "ConfigError",
    "tau = -0.05": "ConfigError",
    "tmax = -1": "ConfigError",
    "lengths = 0": "ConfigError",
    "d = 1": "ConfigError",
    "precheck_nonexistence = false": "ConfigError",
    "sizes = 32,32": "ConfigError",
    "save_fields = maybe": "ConfigError",
    "tol_residual 1e-6": "ConfigError",
}

# eps_schedule drives only the absorption continuation; each action that
# solves by minimax refuses it: config lines after the action by action
MINIMAX_ACTION_EXTRA = {
    "mountain-pass": "mode = source\n",
    "sweep": "sweep_lambdas = 0.05\nsweep_solve = true\n",
    "lambda-star": "",
}

# the smallest config each action parses on a 16-point 1-D grid
TINY_1D = "n = 5\nR = 3.8\nsizes = 16\np = 1.5\nq = 2\nB = 0.05\n"
ACTION_EXTRA = {
    "mountain-pass": "mode = source\n",
    "check-nonexistence": "mode = source\n",
    "sweep": "mode = source\nsweep_lambdas = 0.05\nsweep_solve = true\n",
}

# sample counts below 1 that exit 2: (config lines, error) by test id;
# positivity_samples is a removed key, refused before anything runs
BELOW_ONE_INPUTS = {
    "0": ("action = eigen\npositivity_samples = 0", "ConfigError"),
    "-3": ("action = eigen\npositivity_samples = -3", "ConfigError"),
    "flow_sample_every = 0": ("action = flow\nflow_sample_every = 0", "ConfigError"),
    "flow_sample_every = -1": ("action = flow\nflow_sample_every = -1", "ConfigError"),
}

# bad field files, each exiting 2 with its error:
# (psi_file, files written beside the config, error)
CSV_64 = "i0,value\n" + "".join(f"{i},0.1\n" for i in range(64))
BAD_FIELD_INPUTS = {
    "missing-file": ("missing.csv", {}, "FieldFileError"),
    "index-past-grid": ("psi.csv", {"psi.csv": CSV_64 + "64,0.1\n"}, "FieldFileError"),
    "meta-without-sizes": ("psi.f64", {"psi.f64": bytes(8 * 64),
                                       "psi.f64.meta": "d = 1\nlengths = 6.28\n"},
                           "FieldFileError"),
    "one-row-of-64": ("psi.csv", {"psi.csv": "i0,value\n0,0.1\n"}, "FieldFileError"),
    # 64 rows, but point 0 twice and point 63 never
    "repeated-point": ("psi.csv", {"psi.csv": CSV_64.replace("63,", "0,")},
                       "FieldFileError"),
}


def run_config(text, out):
    return run(parse_config(text), out_dir=out)


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config("n = 5\nR = 20\naction = eigen\n")
        assert cfg["sizes"] == (64,)
        assert cfg["mode"] == "absorption"
        assert cfg["workers"] == 1

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\nn = 5  # trailing\naction = eigen\n")
        assert cfg["n"] == 5

    def test_low_dimension_rejected(self):
        with pytest.raises(pl.ConfigError, match="n must be >= 5"):
            parse_config("n = 4\naction = eigen\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(pl.ConfigError, match="line 2.*frobnicate"):
            parse_config("n = 5\nfrobnicate = 1\naction = eigen\n")

    def test_missing_action(self):
        with pytest.raises(pl.ConfigError, match="action"):
            parse_config("n = 5\n")

    def test_sweep_requires_ranges(self):
        with pytest.raises(pl.ConfigError, match="sweep_lambdas"):
            parse_config("n = 5\naction = sweep\n")

    def test_malformed_value(self):
        with pytest.raises(pl.ConfigError, match="line 1"):
            parse_config("n = five\naction = eigen\n")

    def test_removed_key_says_why(self):
        with pytest.raises(pl.ConfigError, match="line 2: removed key "
                           "'positivity_samples': the positivity check is exact"):
            parse_config("action = eigen\npositivity_samples = 4\n")

    @pytest.mark.parametrize("key", ["d", "precheck_nonexistence"])
    def test_retired_key_says_why(self, key):
        with pytest.raises(pl.ConfigError, match=re.escape(
                f"line 2: removed key {key!r}: {_REMOVED[key]}")):
            parse_config(f"action = eigen\n{key} = 1\n")

    @pytest.mark.parametrize("key", sorted(_BOUNDS))
    def test_every_bound_is_checked_with_the_line(self, key):
        # a value on the wrong side of the bound, as the second entry of a
        # list key; an inclusive bound's own value parses
        cmp, bound = _BOUNDS[key]
        bad = bound if cmp == ">" else bound - 1
        listed = _SCHEMA[key][0].endswith("s")
        value = f"{bound + 1},{bad}" if listed else str(bad)
        with pytest.raises(pl.ConfigError,
                           match=rf"^line 2: {key} must be {cmp} {bound}, got "):
            parse_config(f"action = eigen\n{key} = {value}\n")
        if cmp == ">=":
            parsed = parse_config(f"action = eigen\n{key} = {bound}\n")[key]
            assert parsed == ((bound,) if listed else bound)

    def test_auto_skips_the_bounds(self):
        cfg = parse_config("action = eigen\neps0 = auto\neps_schedule = auto\n")
        assert cfg["eps0"] is None and cfg["eps_schedule"] is None

    def test_duplicate_key(self):
        with pytest.raises(pl.ConfigError, match="duplicate"):
            parse_config("n = 5\nn = 6\naction = eigen\n")

    def test_readme_names_every_key(self):
        from paneitzlab.cli import _SCHEMA

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("The keys (defaults in parentheses):", 1)[1]
        block = block.split("```", 2)[1]
        missing = [k for k in _SCHEMA if not re.search(rf"\b{k}\b", block)]
        assert not missing

    def test_bad_choice(self):
        with pytest.raises(pl.ConfigError, match="one of"):
            parse_config("n = 5\naction = eigen\nmode = mixed\n")

    def test_psi_mode_per_axis(self):
        with pytest.raises(pl.ConfigError, match="line 4: psi_mode"):
            parse_config("action = eigen\nsizes = 8,8\nlengths = 1,1\n"
                         "psi_mode = 1\npsi = mode\n")

    def test_psi_file_required(self):
        with pytest.raises(pl.ConfigError, match="line 2: psi = file"):
            parse_config("action = eigen\npsi = file\n")

    def test_mountain_pass_requires_source(self):
        with pytest.raises(pl.ConfigError, match="line 1: mountain-pass"):
            parse_config("action = mountain-pass\nn = 5\n")

    def test_typed_values(self):
        cfg = parse_config("action = sweep\nsweep_lambdas = 0.5\np = 1.5\n")
        assert cfg["eps0"] is None and cfg["eps_schedule"] is None
        assert cfg["A"] == cfg["B"] == 1.0
        assert (cfg["sweep_ps"], cfg["sweep_qs"]) == ((1.5,), (2.0,))
        cfg = parse_config("action = solve\neps0 = 0.5\neps_schedule = 1,0.1,0\n"
                           "A = 2\nB = @b.f64\nsweep_qs = 3,4\n")
        assert cfg["eps0"] == 0.5
        assert cfg["eps_schedule"] == (1.0, 0.1, 0.0)
        assert cfg["A"] == 2.0 and isinstance(cfg["A"], float)
        assert cfg["B"] == "@b.f64"
        assert cfg["sweep_qs"] == (3.0, 4.0)


class TestRun:
    def test_solve_reference(self, tmp_path):
        man = run_config(REF_SOLVE, tmp_path / "out")
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["solver"]["residual"] <= 1e-8
        assert abs(rep["solver"]["min_u"] - 0.6110358366588059) < 1e-8
        sol = pl.load_field(tmp_path / "out" / "solution.f64")
        assert sol.values.shape == (64,)

    def test_manifest_verifies(self, tmp_path):
        man = run_config(REF_SOLVE, tmp_path / "out")
        assert man.verify(tmp_path / "out")
        listed = {a["path"] for a in man.artifacts}
        assert {"report.json", "solution.f64", "solution.f64.meta",
                "solution.csv"} <= listed

    def test_determinism(self, tmp_path):
        run_config(REF_SOLVE, tmp_path / "r1")
        run_config(REF_SOLVE, tmp_path / "r2")
        for name in ("report.json", "solution.f64", "solution.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name

    def test_eigen_action(self, tmp_path):
        man = run_config("n = 5\nR = 20\naction = eigen\n", tmp_path / "out")
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["lambda1"] == pytest.approx(6.5625, abs=1e-8)
        assert rep["invariant_sign"] == 1
        assert rep["positivity"]["passed"]
        assert rep["positivity"]["lambda1"] == rep["lambda1"]
        assert set(rep["positivity"]) == {"passed", "lambda1", "kernel_floor", "reason"}

    def test_eigen_action_is_byte_identical_across_runs(self, tmp_path):
        cfg = ("n = 5\nR = 20\naction = eigen\n"
               "psi = mode\npsi_amplitude = 0.5\npsi_mode = 1\n")
        run_config(cfg, tmp_path / "r1")
        run_config(cfg, tmp_path / "r2")
        for name in ("report.json", "phi1.f64"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, name

    def test_flow_action_trajectory(self, tmp_path):
        cfg = "n = 5\nR = 20\naction = flow\ntau = 0.05\ntmax = 100\n"
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,residual,min_u,max_u,energy"
        assert len(lines) > 2

    def test_certified_infeasible_exit(self, tmp_path):
        cfg = "n = 5\nR = 20\naction = solve\nmode = source\nB = 8.0\n"
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 1
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["outcome"] == "certified-infeasible"
        assert rep["certificate"]["satisfied"]

    @pytest.mark.parametrize("action", ["solve", "mountain-pass"])
    def test_failed_existence_gate_exit(self, tmp_path, action):
        # B vanishes on half the box, so non-existence is inconclusive and
        # only the existence condition blocks the solve
        grid = pl.SpectralGrid((32,), (2 * np.pi,))
        x = grid.meshgrid()[0]
        pl.save_field(pl.ScalarField(grid, 5.0 * np.maximum(np.sin(x), 0.0)),
                      tmp_path / "B.f64")
        cfg = ("n = 5\nR = 3.8\nsizes = 32\nmode = source\nA = 1\nB = @B.f64\n"
               f"p = 1.5\nq = 2\naction = {action}\n")
        man = run(parse_config(cfg, base_dir=tmp_path), out_dir=tmp_path / "out")
        assert man.exit_code == 1
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["action"] == action
        assert rep["outcome"] == "certificate-blocked"
        assert not rep["certificate"]["satisfied"]
        assert rep["certificate"]["margin"] < 0.0
        assert not (tmp_path / "out" / "error.json").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("require_cond", ["true", "false"])
    def test_minimax_computes_sobolev_once(self, tmp_path, monkeypatch, require_cond):
        import paneitzlab.cli as cli
        import paneitzlab.mountain_pass as mp

        calls = []
        for mod in (cli, mp):
            orig = mod.sobolev_constant
            monkeypatch.setattr(mod, "sobolev_constant",
                                lambda *a, _orig=orig, **k: calls.append(1) or _orig(*a, **k))
        cfg = ("n = 5\nR = 3.8\nsizes = 32\nmode = source\nA = 1\nB = 0.05\n"
               "p = 1.5\nq = 2\naction = mountain-pass\n"
               f"mp_require_cond = {require_cond}\n")
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", list(INVALID_INPUTS))
    def test_invalid_value_exit(self, tmp_path, bad):
        from paneitzlab.cli import main

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 5\naction = solve\n{bad}\n")
        assert main([str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == INVALID_INPUTS[bad]
        # a config that does not parse runs nothing, so it leaves no manifest
        parsed = INVALID_INPUTS[bad] != "ConfigError"
        assert (tmp_path / "out" / "manifest.json").exists() == parsed
        assert parsed or err["message"].startswith("line 3: ")

    @pytest.mark.parametrize("action", list(MINIMAX_ACTION_EXTRA))
    def test_minimax_actions_refuse_eps_schedule(self, tmp_path, action):
        from paneitzlab.cli import main

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"action = {action}\neps_schedule = 1,0\n"
                       f"{MINIMAX_ACTION_EXTRA[action]}")
        assert main([str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(
            "line 2: eps_schedule drives only the absorption continuation")
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_absorption_solve_continues_along_eps_schedule(self, tmp_path):
        man = run_config(REF_SOLVE + "eps_schedule = 1,0.1,0\n", tmp_path / "out")
        assert man.exit_code == 0
        solver = json.loads((tmp_path / "out" / "report.json").read_text())["solver"]
        assert solver["method"] == "epsilon-continuation"
        assert [e["eps"] for e in solver["eps_trace"]] == [1.0, 0.1, 0.0]

    @pytest.mark.parametrize("case", list(BELOW_ONE_INPUTS))
    def test_positivity_samples_below_one_exit(self, tmp_path, case):
        from paneitzlab.cli import main

        lines, error = BELOW_ONE_INPUTS[case]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 5\n{lines}\n")
        assert main([str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == error
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("case", list(BAD_FIELD_INPUTS))
    def test_bad_field_input_exit(self, tmp_path, case):
        from paneitzlab.cli import main

        psi_file, files, error = BAD_FIELD_INPUTS[case]
        for name, data in files.items():
            if isinstance(data, bytes):
                (tmp_path / name).write_bytes(data)
            else:
                (tmp_path / name).write_text(data)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"n = 5\naction = eigen\npsi = file\npsi_file = {psi_file}\n")
        assert main([str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == error
        assert issubclass(getattr(pl, error), pl.PaneitzLabError)

    def test_solver_error_exit(self, tmp_path):
        # strong scalar-field gradient drives the potential negative while
        # B = 0 removes the damping: no bracket exists
        cfg = ("n = 5\nR = 20\naction = solve\nmode = absorption\nB = 0.0\n"
               "psi = mode\npsi_amplitude = 4.0\npsi_mode = 1\n")
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 2
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "BracketError"

    def test_check_actions(self, tmp_path):
        man = run_config(
            "n = 5\nR = 20\naction = check-existence\nB = -1.0\n", tmp_path / "a"
        )
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "a" / "report.json").read_text())
        assert rep["certificate"]["satisfied"]
        man = run_config(
            "n = 5\nR = 20\naction = check-nonexistence\nmode = source\nB = 8.0\n",
            tmp_path / "b",
        )
        rep = json.loads((tmp_path / "b" / "report.json").read_text())
        assert rep["certificate"]["satisfied"]

    def test_source_existence_takes_the_trial_direction_file(self, tmp_path):
        grid = pl.SpectralGrid((64,), (2 * np.pi,))
        x = grid.meshgrid()[0]
        pl.save_field(pl.ScalarField(grid, 1.0 + 0.2 * np.cos(x)), tmp_path / "phi.f64")
        cfg = ("n = 5\nR = 20\naction = check-existence\nmode = source\n"
               "B = 0.05\np = 3\nphi_file = phi.f64\n")
        man = run(parse_config(cfg, base_dir=tmp_path), out_dir=tmp_path / "out")
        assert man.exit_code == 0
        cert = json.loads((tmp_path / "out" / "report.json").read_text())["certificate"]
        # with A = 1 and p = 3 the certificate integrates phi^-2, not 1
        want = 2 * np.pi * (1.0 - 0.2**2) ** -1.5
        assert abs(cert["ingredients"]["int_A_over_phi"] - want) <= 1e-12 * want

    def test_field_file_coefficient(self, tmp_path):
        grid = pl.SpectralGrid((64,), (2 * np.pi,))
        x = grid.meshgrid()[0]
        afield = pl.ScalarField(grid, 1.0 + 0.3 * np.sin(x))
        pl.save_field(afield, tmp_path / "a.f64")
        cfg = (
            "n = 5\nR = 20\naction = solve\nmode = absorption\n"
            "A = @a.f64\nB = 1.0\n"
        )
        man = run(parse_config(cfg, base_dir=tmp_path), out_dir=tmp_path / "out")
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["solver"]["residual"] <= 1e-8
        assert rep["solver"]["max_u"] > rep["solver"]["min_u"]

    def test_minimax_tolerance_below_the_floor_stops_at_the_floor(self, tmp_path):
        # mp_tol_residual lies below the round-off floor of P u on 16^2: the
        # polish stops at the floor, like every loop on P u = f(u), and flags it
        cfg = ("n = 5\nR = 3.8\nsizes = 16,16\nlengths = 6.283185307179586,"
               "6.283185307179586\nA = 1\nB = 0.05\np = 1.5\nq = 2\n"
               "mode = source\naction = mountain-pass\npsi = mode\npsi_mode = 1,1\n"
               "psi_amplitude = 0.2\nmp_require_cond = false\nmp_tol_residual = 1e-12\n")
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        solver = json.loads((tmp_path / "out" / "report.json").read_text())["solver"]
        assert solver["converged"]
        floor = solver["extras"]["residual_floor"]
        assert 1e-12 < solver["residual"] <= floor
        assert solver["eps_trace"][0]["residual_floor"] == floor

    def test_sweep_action(self, tmp_path):
        cfg = (
            "n = 5\nR = 20\naction = sweep\nmode = source\n"
            "sweep_lambdas = 1.0,6.0\nsweep_qs = 2.0,3.0\n"
        )
        man1 = run_config(cfg + "workers = 1\n", tmp_path / "w1")
        man2 = run_config(cfg + "workers = 3\n", tmp_path / "w2")
        assert man1.exit_code == man2.exit_code == 0
        rows1 = (tmp_path / "w1" / "sweep.csv").read_bytes()
        rows2 = (tmp_path / "w2" / "sweep.csv").read_bytes()
        assert rows1 == rows2
        header, *rows = rows1.decode().splitlines()
        assert len(rows) == 4
        for idx in range(4):
            cell = json.loads(
                (tmp_path / "w1" / "cells" / f"{idx:03d}" / "report.json").read_text()
            )
            assert cell["cell"] == idx
            assert "nonexistence" in cell

    def test_sweep_cells_take_the_minimax_keys(self, tmp_path):
        cfg = ("n = 5\nR = 3.8\nsizes = 32\naction = sweep\nmode = source\n"
               "p = 1.5\nq = 2\nsweep_lambdas = 0.05\nsweep_solve = true\n"
               "mp_max_sweeps = 0\nmp_nodes = 8\neps0 = 1000\n")
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        cell = json.loads((tmp_path / "out" / "cells" / "000" / "report.json").read_text())
        extras = cell["solver"]["extras"]
        assert (extras["path_sweeps"], extras["eps0"]) == (0, 1000.0)
        assert [e["eps"] for e in cell["solver"]["eps_trace"]] == [0.0]

    def test_lambda_star_probes_take_the_minimax_keys(self, tmp_path, monkeypatch):
        import paneitzlab.conditions as conditions

        seen = []
        orig = conditions.mountain_pass_solve
        monkeypatch.setattr(conditions, "mountain_pass_solve",
                            lambda *a, **k: seen.append(k) or orig(*a, **k))
        cfg = ("n = 5\nR = 20\nsizes = 32\naction = lambda-star\np = 3\nq = 2\n"
               "lambda_tol = 0.01\nmp_max_sweeps = 50\nmp_nodes = 8\n"
               "mp_tol_residual = 1e-7\n")
        assert run_config(cfg, tmp_path / "out").exit_code == 0
        assert seen and all(
            (k["max_sweeps"], k["n_nodes"], k["tol_residual"]) == (50, 8, 1e-7)
            for k in seen
        )

    @pytest.mark.parametrize("action", ACTIONS)
    def test_every_action_runs_on_a_tiny_grid(self, tmp_path, action):
        cfg = f"{TINY_1D}action = {action}\n{ACTION_EXTRA.get(action, '')}"
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code in (0, 1)
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "error.json").exists()

    def test_lambda_star_action(self, tmp_path):
        cfg = (
            "n = 5\nR = 20\nsizes = 32\naction = lambda-star\n"
            "p = 3\nq = 2\nlambda_tol = 0.01\n"
        )
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        res = rep["result"]
        assert res["lower"] <= res["empirical"] <= res["upper"]
        assert res["probes"][0]["feasible"] is True

    def test_main_entry(self, tmp_path, capsys):
        from paneitzlab.cli import main

        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n = 5\nR = 20\naction = eigen\n")
        code = main([str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert main([str(tmp_path / "missing.txt")]) == 2

    def test_psi_mode_run(self, tmp_path):
        cfg = (
            "n = 5\nR = 20\naction = eigen\n"
            "psi = mode\npsi_amplitude = 0.5\npsi_mode = 1\n"
        )
        man = run_config(cfg, tmp_path / "out")
        assert man.exit_code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["lambda1"] < 6.5625  # the gradient potential lowers it
