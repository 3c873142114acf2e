"""Independent checks of what each benchmark job wrote.

Nothing here imports paneitzlab.  The operator is rebuilt from the analytic
coefficients with numpy FFTs (symbol ``t^2 + alpha t`` plus the potential
``W = b_n (Q - |grad psi|^2)``), fields are read straight from the raw
binary64 files, and every number a job reports is checked against that.

A failed check is one of two kinds:

* ``unmet``: the job did not deliver the requested result and said so
  (non-zero exit, or a residual above tolerance on a run reported as not
  converged).
* ``wrong``: a reported result contradicts the independent recomputation
  (a run claimed convergence but the residual is too large, a certificate is
  violated, two solutions of a unique problem differ, ...).

A job that fails any check counts as failed; the run's outputs are correct
when no check of kind ``wrong`` failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A saved solution passes when its recomputed sup-norm residual is at most
# this factor times the tolerance the job requested.  The factor covers the
# round-off difference between two FFT implementations of the same operator
# (about 1e-10 on the 32^3 grids); it does not cover a requested tolerance
# that the arithmetic cannot reach.
ROUNDOFF_FACTOR = 2.0
# Two solutions of the same uniquely solvable problem agree to this share of
# their sup norm.
AGREE_RTOL = 1e-6
# Eigen-residual ||P phi - lambda phi||_inf of the max-normalized
# eigenfunction, relative to the operator scale max(|beta|, max|W|, 1).
EIGEN_RTOL = 1e-8
# Relative slack on the S_psi bounds and the lambda-star bracket.
BOUND_RTOL = 1e-9
DENSE_MAX_POINTS = 4096


@dataclass(frozen=True)
class Failure:
    job: str
    check: str
    kind: str  # "unmet" or "wrong"
    detail: str


def coefficients(n: int, R: float) -> dict:
    """Constant coefficients of the Einstein-form fourth-order operator."""
    Q = (n * n - 4) * R * R / (8 * n * (n - 1) ** 2)
    b_n = (n - 4) / 2.0
    return {
        "alpha": (n * n - 2 * n - 4) * R / (2 * n * (n - 1)),
        "beta": b_n * Q,
        "Q": Q,
        "b_n": b_n,
        "two_sharp": 2.0 * n / (n - 4),
    }


class SpectralOperator:
    """P u = ifft(sigma * fft(u)) + W u on a periodic box."""

    def __init__(self, n: int, R: float, sizes, lengths, psi=None):
        self.sizes = tuple(sizes)
        self.cell_weight = math.prod(L / m for L, m in zip(lengths, sizes))
        self.coef = coefficients(n, R)
        ks = [2.0 * np.pi * np.fft.fftfreq(m, d=L / m) for m, L in zip(sizes, lengths)]
        grids = np.meshgrid(*ks, indexing="ij")
        t = sum(k * k for k in grids)
        self.sigma = t * (t + self.coef["alpha"])
        grad_sq = np.zeros(self.sizes)
        if psi is not None:
            hat = np.fft.fftn(psi)
            for axis, k in enumerate(grids):
                k = k.copy()
                m = self.sizes[axis]
                # the Nyquist mode has no real odd derivative
                nyq = [slice(None)] * len(self.sizes)
                nyq[axis] = m // 2
                k[tuple(nyq)] = 0.0
                d = np.fft.ifftn(1j * k * hat).real
                grad_sq += d * d
        self.W = self.coef["b_n"] * (self.coef["Q"] - grad_sq)
        self.scale = max(abs(self.coef["beta"]), float(np.abs(self.W).max()), 1.0)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(self.sigma * np.fft.fftn(u)).real + self.W * u

    def lambda1(self) -> float:
        """Smallest eigenvalue of the dense symmetric matrix of P."""
        npts = math.prod(self.sizes)
        if npts > DENSE_MAX_POINTS:
            raise ValueError(f"dense eigenvalues refused for {npts} points")
        axes = tuple(range(1, len(self.sizes) + 1))
        eye = np.eye(npts).reshape((npts,) + self.sizes)
        cols = np.fft.ifftn(self.sigma * np.fft.fftn(eye, axes=axes), axes=axes).real
        P = cols.reshape(npts, npts).T + np.diag(self.W.ravel())
        return float(np.linalg.eigvalsh(0.5 * (P + P.T))[0])

    def sobolev_lower(self) -> float:
        """lambda1 * w^(1-2/e): no discrete quotient can lie below it."""
        e = self.coef["two_sharp"]
        return self.lambda1() * self.cell_weight ** (1.0 - 2.0 / e)

    def constant_quotient(self) -> float:
        """Critical quotient <1, P 1> / ||1||_e^2: the descent's first value."""
        e = self.coef["two_sharp"]
        one = np.ones(self.sizes)
        form = float(np.sum(self.apply(one))) * self.cell_weight
        norm_sq = (one.size * self.cell_weight) ** (2.0 / e)
        return form / norm_sq


def read_field(path: Path, sizes) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != math.prod(sizes):
        raise ValueError(f"{path.name}: {raw.size} values for grid {tuple(sizes)}")
    return raw.reshape(tuple(sizes))


class JobContext:
    """A job's config, its outputs, and the operator it was run with."""

    def __init__(self, name: str, values: dict, out_dir: Path, inputs_dir: Path):
        self.name = name
        self.values = values
        self.out = out_dir
        self.inputs = inputs_dir
        self.sizes = tuple(int(x) for x in values.get("sizes", "64").split(","))
        lengths = values.get("lengths", repr(2.0 * math.pi))
        self.lengths = tuple(float(x) for x in lengths.split(","))
        self.manifest = json.loads((out_dir / "manifest.json").read_text())
        report = out_dir / "report.json"
        self.report = json.loads(report.read_text()) if report.exists() else {}
        self._op = None

    def field(self, spec: str) -> np.ndarray:
        """A coefficient: a constant, or ``@file`` from the inputs."""
        if spec.startswith("@"):
            return read_field(self.inputs / spec[1:], self.sizes)
        return np.full(self.sizes, float(spec))

    @property
    def op(self) -> SpectralOperator:
        if self._op is None:
            psi = None
            if self.values.get("psi", "zero") == "file":
                psi = read_field(self.inputs / self.values["psi_file"], self.sizes)
            self._op = SpectralOperator(int(self.values.get("n", 5)),
                                        float(self.values.get("R", 20.0)),
                                        self.sizes, self.lengths, psi)
        return self._op

    @property
    def psi_is_zero(self) -> bool:
        return self.values.get("psi", "zero") == "zero"

    def output(self, name: str) -> np.ndarray:
        return read_field(self.out / name, self.sizes)


class Checker:
    """Collects the failures of one job."""

    def __init__(self, job: str):
        self.job = job
        self.failures: list[Failure] = []

    def require(self, ok: bool, check: str, kind: str, detail: str) -> bool:
        if not ok:
            self.failures.append(Failure(self.job, check, kind, detail))
        return ok


def _residual(ctx: JobContext, u: np.ndarray, source: bool) -> float:
    p = float(ctx.values.get("p", 3.0))
    q = float(ctx.values.get("q", 2.0))
    A = ctx.field(ctx.values.get("A", "1.0"))
    B = ctx.field(ctx.values.get("B", "1.0"))
    sign = 1.0 if source else -1.0
    rhs = A / u**p + sign * B * u**q
    return float(np.abs(ctx.op.apply(u) - rhs).max())


def _check_solution(ck: Checker, ctx: JobContext, tol_key: str, default_tol: float,
                    claimed: bool, source: bool) -> np.ndarray | None:
    path = ctx.out / "solution.f64"
    if not ck.require(path.exists(), "solution", "wrong", "no solution field written"):
        return None
    u = ctx.output("solution.f64")
    if not ck.require(float(u.min()) > 0.0, "positivity", "wrong",
                      f"min u = {u.min():.3e}"):
        return u
    tol = float(ctx.values.get(tol_key, default_tol))
    resid = _residual(ctx, u, source)
    ck.require(resid <= ROUNDOFF_FACTOR * tol, "residual",
               "wrong" if claimed else "unmet",
               f"recomputed residual {resid:.3e} > {ROUNDOFF_FACTOR:g} x "
               f"requested {tol:.1e} (reported converged={claimed})")
    return u


def _check_sobolev(ck: Checker, ctx: JobContext, S: float, reference=None) -> None:
    """lambda1 * w^(1-2/e) <= S_psi <= reference."""
    lower = ctx.op.sobolev_lower()
    upper = ctx.op.constant_quotient()
    if reference is not None:
        upper = min(upper, reference)
    ok = lower - BOUND_RTOL * abs(lower) <= S <= upper + BOUND_RTOL * abs(upper)
    ck.require(ok, "sobolev-bounds", "wrong", f"S_psi {S!r} outside [{lower!r}, {upper!r}]")


def check_solve(ck: Checker, ctx: JobContext, reference=None) -> np.ndarray | None:
    solver = ctx.report.get("solver", {})
    source = ctx.values.get("mode", "absorption") == "source"
    tol_key, default = ("mp_tol_residual", 1e-6) if source else ("tol_residual", 1e-8)
    claimed = ctx.report.get("outcome") in ("solved", "steady") and bool(solver.get("converged"))
    u = _check_solution(ck, ctx, tol_key, default, claimed, source)
    trace = solver.get("eps_trace") or []
    if ctx.values.get("eps_schedule", "auto") != "auto" and not source:
        mins = [float(e["min_u"]) for e in trace]
        ck.require(len(mins) == len(ctx.values["eps_schedule"].split(",")),
                   "eps-trace", "wrong", f"{len(mins)} trace entries")
        drops = [b - a for a, b in zip(mins, mins[1:])
                 if b < a - 1e-12 * max(1.0, abs(a))]
        ck.require(not drops, "eps-monotone", "wrong",
                   f"min_u along the continuation decreased: {mins}")
    if source:
        extras = solver.get("extras", {})
        if "S_psi" in extras:
            _check_sobolev(ck, ctx, float(extras["S_psi"]), reference)
        if solver.get("pass_level") is not None:
            ck.require(float(solver["pass_level"]) > float(solver["rim_value"]),
                       "pass-level", "wrong",
                       f"pass level {solver['pass_level']} not above rim {solver['rim_value']}")
    return u


def check_eigen(ck: Checker, ctx: JobContext) -> None:
    rep = ctx.report
    phi = ctx.output("phi1.f64")
    lam = float(rep["lambda1"])
    resid = float(np.abs(ctx.op.apply(phi) - lam * phi).max())
    bound = EIGEN_RTOL * ctx.op.scale * float(np.abs(phi).max())
    ck.require(resid <= bound, "eigen-residual", "wrong",
               f"||P phi - lambda phi|| = {resid:.3e} > {bound:.3e}")
    ck.require(bool(rep["positive"]) == bool(phi.min() > 0.0), "eigen-positive",
               "wrong", f"reported positive={rep['positive']}, min phi = {phi.min():.3e}")


def lambda_star_constant(beta: float, p: float, q: float) -> float:
    """Largest lambda for which beta u = u^-p + lambda u^q has a constant root.

    The line beta*t touches t^-p + lambda t^q where t^(p+q) =
    (p+1)/(lambda (q-1)); solving the tangency for lambda gives the closed
    form below.
    """
    return (p + 1.0) / (q - 1.0) * (beta * (q - 1.0) / (p + q)) ** ((p + q) / (p + 1.0))


def check_lambda_star(ck: Checker, ctx: JobContext, reference=None) -> None:
    res = ctx.report["result"]
    emp = res.get("empirical")
    if not ck.require(emp is not None, "lambda-star", "unmet", "no empirical value"):
        return
    emp = float(emp)
    lower, upper = float(res["lower"]), float(res["upper"])
    slack = BOUND_RTOL * max(1.0, upper)
    ck.require(lower - slack <= emp <= upper + slack, "lambda-bracket", "wrong",
               f"empirical {emp!r} outside certified [{lower!r}, {upper!r}]")
    if ctx.psi_is_zero:
        p, q = float(ctx.values["p"]), float(ctx.values["q"])
        ref = lambda_star_constant(ctx.op.coef["beta"], p, q)
        tol = float(ctx.values.get("lambda_tol", 1e-3))
        ck.require(abs(emp - ref) <= tol, "lambda-reference", "wrong",
                   f"empirical {emp!r} farther than {tol:g} from {ref!r}")
    _check_sobolev(ck, ctx, float(res["ingredients"]["S_psi"]), reference)


def check_sweep(ck: Checker, ctx: JobContext, reference=None) -> None:
    _check_sobolev(ck, ctx, float(ctx.report["S_psi"]), reference)
    tol = float(ctx.values.get("mp_tol_residual", 1e-6))
    with open(ctx.out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(ctx.values["sweep_lambdas"].split(","))
    ck.require(len(rows) == expected, "sweep-cells", "wrong",
               f"{len(rows)} rows for {expected} cells")
    for row in rows:
        cell = f"lambda={row['lambda']}"
        feasible = row["cond_satisfied"] == "True"
        infeasible = row["nonexistence_satisfied"] == "True"
        solved = row["solver_outcome"] == "solved"
        ck.require(not (feasible and infeasible), "sweep-certificates", "wrong",
                   f"{cell}: existence and non-existence both certified")
        ck.require(not (solved and infeasible), "sweep-outcome", "wrong",
                   f"{cell}: solved where non-existence is certified")
        if ctx.values.get("sweep_solve") == "true":
            ck.require(solved or not feasible, "sweep-outcome", "unmet",
                       f"{cell}: solver failed where existence is certified")
        if solved:
            ck.require(float(row["solver_residual"]) <= ROUNDOFF_FACTOR * tol,
                       "sweep-residual", "wrong",
                       f"{cell}: residual {row['solver_residual']} > {tol:g}")


def check_job(name: str, values: dict, out_dir: Path, inputs_dir: Path,
              sobolev_reference: dict | None = None):
    """Check one job's outputs; returns (failures, solution or None)."""
    ck = Checker(name)
    ctx = JobContext(name, values, out_dir, inputs_dir)
    code = int(ctx.manifest["exit_code"])
    if not ck.require(code == 0, "exit-code", "unmet", f"exit code {code}"):
        return ck.failures, None
    reference = None
    if ctx.psi_is_zero and sobolev_reference:
        key = (int(values.get("n", 5)), float(values.get("R", 20.0)), ctx.sizes)
        reference = sobolev_reference.get(key)
    action = values["action"]
    u = None
    if action in ("solve", "flow", "mountain-pass"):
        u = check_solve(ck, ctx, reference)
    elif action == "eigen":
        check_eigen(ck, ctx)
    elif action == "lambda-star":
        check_lambda_star(ck, ctx, reference)
    elif action == "sweep":
        check_sweep(ck, ctx, reference)
    else:
        raise ValueError(f"no checks for action {action!r}")
    return ck.failures, u


def check_agreement(name: str, u_a, u_b, trusted: bool) -> list[Failure]:
    """Two runs of a uniquely solvable problem must return one solution.

    ``trusted`` says both runs passed their own checks; a disagreement is
    then a wrong result rather than a consequence of an unmet tolerance.
    """
    ck = Checker(name)
    if u_a is None or u_b is None:
        ck.require(False, "agreement", "unmet", "a solution is missing")
    else:
        gap = float(np.abs(u_a - u_b).max())
        bound = AGREE_RTOL * float(np.abs(u_a).max())
        ck.require(gap <= bound, "agreement", "wrong" if trusted else "unmet",
                   f"solutions differ by {gap:.3e} > {bound:.3e}")
    return ck.failures
