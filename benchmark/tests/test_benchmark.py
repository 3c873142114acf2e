"""Self-tests of the benchmark: verifier, tracer and workload separation.

Run from the repository root:

    python3 -m pytest benchmark/tests -q

The workload tests run each workload once through ``run.py --trace 1`` (one
untraced and one traced pass) and source-1d a second time, so the module
takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 2 * len(workloads.WORKLOADS[workload].jobs)
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def layers():
    return {name: traced_run(name) for name in workloads.WORKLOADS}


# -- verifier ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """absorption-grid's first job (32^3 solve, strong psi), run once."""
    work = tmp_path_factory.mktemp("solve")
    session = worker.Session("absorption-grid", 0, work)
    inputs, configs = session.input_set(0)
    session.cli.run(configs[0], out_dir=work / "out")
    return session.wl.jobs[0], inputs, work / "out"


def _check(job, inputs, out):
    return verify.check_job(job.name, job.values(), out, inputs)


def test_verifier_accepts_the_solution(solved):
    failures, u = _check(*solved)
    assert failures == []
    assert u is not None and u.min() > 0


@pytest.mark.parametrize("where", ["everywhere", "one point"])
def test_verifier_rejects_a_perturbed_solution(solved, where, tmp_path):
    job, inputs, out = solved
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    u = np.fromfile(copy / "solution.f64", dtype="<f8")
    if where == "everywhere":
        u += 1e-4
    else:
        u[len(u) // 3] += 1e-4
    u.astype("<f8").tofile(copy / "solution.f64")
    failures, _ = _check(job, inputs, copy)
    assert [(f.check, f.kind) for f in failures] == [("residual", "wrong")]


def test_lambda_star_reference_is_the_constant_tangency():
    # beta u = u^-p + lambda u^q has a constant root iff lambda <= lambda*
    beta, p, q = verify.coefficients(5, 20.0)["beta"], 3.0, 2.0
    lam = verify.lambda_star_constant(beta, p, q)
    t = np.geomspace(1e-3, 1e3, 200001)
    assert np.min(t ** (-p - 1) + lam * t ** (q - 1)) == pytest.approx(beta, rel=1e-8)


def test_sobolev_lower_bound_is_below_the_constant_quotient():
    op = verify.SpectralOperator(5, 20.0, (64,), (2 * np.pi,))
    assert 0 < op.sobolev_lower() < 19.220906468745362 < op.constant_quotient()


# -- tracer -------------------------------------------------------------------------


def test_self_times_split_overlapping_tasks():
    # main thread: cli.run [0, 10] > cli.wait [2, 8]; two pool tasks overlap
    # on [2, 5], the first runs alone on [5, 8]
    t = {
        "start": np.array([0.0, 2.0, 2.0, 2.0]),
        "end": np.array([10.0, 8.0, 8.0, 5.0]),
        "parent": np.array([-1, 0, 1, 1]),
        "thread": np.array([0, 0, 1, 2]),
    }
    _, excl = tracing.self_times(t)
    assert excl.tolist() == pytest.approx([4.0, 0.0, 4.5, 1.5])
    assert excl.sum() == pytest.approx(10.0)


# -- workloads ------------------------------------------------------------------------


def test_every_per_layer_metric_is_reported(layers):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for name, metrics in layers.items():
        assert set(metrics) == names, name
        assert all(np.isfinite(v) for v in metrics.values()), name


def test_layers_are_reached_where_intended(layers):
    src, absn, mm = layers["source-1d"], layers["absorption-grid"], layers["minimax-2d"]
    # lambda-star, the sweep, and once more in each of its two cells
    assert src["spectral_analysis.sobolev.calls"] == 4
    assert absn["spectral_analysis.sobolev.calls"] == 0
    assert mm["spectral_analysis.sobolev.calls"] == 1
    assert src["conditions.lambda_star.probes"] > 0
    assert src["conditions.cert.calls"] > 0
    assert src["kernel.dense_solve.calls"] > 0
    assert mm["kernel.dense_solve.calls"] > 0
    assert mm["operator.dense.calls"] > 0
    assert mm["mountain_pass.newton_iters"] > 0
    assert mm["mountain_pass.path_sweeps"] > 0
    assert src["mountain_pass.solve.calls"] > 0
    for name in ("mountain_pass.solve.calls", "kernel.dense_solve.calls",
                 "kernel.minres.calls", "operator.dense.calls"):
        assert absn[name] == 0, name
    assert absn["monotone.steps"] > 0
    assert absn["flow.steps"] > 0
    assert absn["spectral_analysis.eigen.calls"] > 0
    assert absn["spectral_analysis.positivity.s"] > 0
    assert absn["operator.solve.fft_per_call"] > 2
    assert absn["geometry.io.bytes"] > 1e6
    assert src["geometry.io.calls"] == 0
    assert src["flow.steps"] == 0 and mm["flow.steps"] == 0


def test_self_times_sum_to_the_traced_wall_time(layers):
    for name, m in layers.items():
        total = sum(m[f"self_s.{layer}"] for layer in tracing.LAYERS)
        assert total == pytest.approx(m["trace.wall_s"], rel=0.02), name


def test_counts_repeat_across_traced_runs(layers):
    again = traced_run("source-1d")
    first = layers["source-1d"]
    for name, value in first.items():
        if name.endswith((".calls", ".steps", ".iters", ".probes", ".points",
                          ".bytes_computed", ".path_sweeps", ".newton_iters",
                          "fft_per_call", "_frac")) and not name.startswith("trace."):
            assert again[name] == value, name
