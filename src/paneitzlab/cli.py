"""Configuration-driven experiment runner.

Reads a flat ``key = value`` config (``#`` starts a comment), builds the
geometry / operator / problem, dispatches the requested action, and writes
JSON reports, CSV logs and binary fields plus a manifest with checksums.

Exit status: 0 on success, 1 when a certificate blocked a requested solve
(certified infeasibility, or a failed existence gate before a minimax
solve), 2 on errors, invalid input values included.  An identical config
reproduces byte-identical reports (the manifest carries wall-clock timing
and is exempt).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .conditions import (
    _constant_problem,
    check_existence_cond,
    check_existence_ineq,
    check_nonexistence,
    lambda_star_bisect,
)
from .errors import ConfigError, PaneitzLabError
from .flow import parabolic_flow
from .geometry import (
    ScalarField,
    SpectralGrid,
    derive_coefficients,
    field_to_csv,
    load_field,
    save_field,
)
from .geometry import load_field_csv
from .monotone import epsilon_continuation, find_sub_super, monotone_solve
from .mountain_pass import mountain_pass_solve
from .operator import build_operator
from .problems import ABSORPTION, SOURCE, ProblemSpec
from .spectral_analysis import (
    invariant_sign,
    positivity_check,
    principal_eigenpair,
    sobolev_constant,
)

__all__ = ["ExperimentConfig", "RunManifest", "parse_config", "run", "main"]

ACTIONS = (
    "solve",
    "flow",
    "eigen",
    "sobolev",
    "check-existence",
    "check-nonexistence",
    "mountain-pass",
    "lambda-star",
    "sweep",
)

# key -> (type tag, default); defaults marked REQUIRED must appear.  An
# "auto|" kind also takes ``auto`` (parsed to None); a "coefficient" is a
# finite float or an ``@path`` to a field file, kept as its string.
_REQUIRED = object()
_SCHEMA = {
    "action": ("choice:" + ",".join(ACTIONS), _REQUIRED),
    "n": ("int", 5),
    "R": ("float", 20.0),
    "sizes": ("ints", (64,)),
    "lengths": ("floats", (2.0 * math.pi,)),
    "psi": ("choice:zero,mode,file", "zero"),
    "psi_amplitude": ("float", 1.0),
    "psi_mode": ("ints", (1,)),
    "psi_file": ("str", ""),
    "A": ("coefficient", 1.0),
    "B": ("coefficient", 1.0),
    "p": ("float", 3.0),
    "q": ("float", 2.0),
    "mode": ("choice:absorption,source", "absorption"),
    "phi_file": ("str", ""),
    "seed": ("int", 0),  # parsed and ignored: no action draws random numbers
    "out": ("str", "runs"),
    "workers": ("int", 1),
    "save_fields": ("bool", True),
    "tol_step": ("float", 1e-10),
    "tol_residual": ("float", 1e-8),
    "max_iter": ("int", 100),
    "eps_schedule": ("auto|floats", None),
    "eps0": ("auto|float", None),
    "mp_tol_residual": ("float", 1e-6),
    "mp_nodes": ("int", 32),
    "mp_max_sweeps": ("int", 600),
    "mp_require_cond": ("bool", True),
    "tau": ("float", 0.05),
    "tmax": ("float", 200.0),
    "flow_sample_every": ("int", 10),
    "lambda_tol": ("float", 1e-3),
    "solver_budget": ("int", 60),
    "sweep_lambdas": ("floats", ()),
    "sweep_ps": ("floats", ()),
    "sweep_qs": ("floats", ()),
    "sweep_solve": ("bool", False),
}

# key -> (comparison, bound) that every number of its value must meet;
# ``auto`` is exempt.  Rules across keys stay in ``parse_config``.
_BOUNDS = {
    "n": (">=", 5), "lengths": (">", 0),
    "p": (">", 1), "q": (">", 1), "sweep_ps": (">", 1), "sweep_qs": (">", 1),
    "tol_step": (">", 0), "tol_residual": (">", 0), "mp_tol_residual": (">", 0),
    "lambda_tol": (">", 0), "tau": (">", 0), "tmax": (">", 0),
    "max_iter": (">=", 1), "flow_sample_every": (">=", 1), "workers": (">=", 1),
    "mp_nodes": (">=", 3), "mp_max_sweeps": (">=", 0), "solver_budget": (">=", 0),
    "eps0": (">", 0), "eps_schedule": (">=", 0), "sweep_lambdas": (">=", 0),
}

# removed key -> why it went; setting one exits 2 with the reason
_REMOVED = {
    "positivity_samples": "the positivity check is exact now and takes no samples",
    "d": "the lattice dimension is the number of entries of sizes",
    "precheck_nonexistence": "a solve that is certified infeasible always "
                             "stops with exit 1",
}


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict
    echo: str
    base_dir: Path

    def __getitem__(self, key):
        return self.values[key]


@dataclass
class RunManifest:
    action: str
    version: str
    exit_code: int
    timing_seconds: float
    config_echo: str
    artifacts: list = dc_field(default_factory=list)

    def verify(self, out_dir: Path) -> bool:
        for art in self.artifacts:
            path = out_dir / art["path"]
            if not path.exists():
                return False
            if _sha256(path) != art["sha256"]:
                return False
        return True


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {x}")
    return x


def _convert(kind: str, raw: str):
    if kind.startswith("auto|"):
        if raw == "auto":
            return None
        kind = kind[len("auto|"):]
    if kind == "coefficient":
        if raw.startswith("@"):
            return raw
        kind = "float"
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(float(raw))
    if kind == "bool":
        low = raw.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind == "ints":
        return tuple(int(x) for x in raw.split(","))
    if kind == "floats":
        return tuple(_finite(float(x)) for x in raw.split(","))
    if kind.startswith("choice:"):
        options = kind.split(":", 1)[1].split(",")
        if raw not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
    return raw


def _parse_value(key: str, raw: str, line: int):
    """Parse one value and check every number it holds against ``_BOUNDS``."""
    try:
        value = _convert(_SCHEMA[key][0], raw.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", line=line) from None
    cmp, bound = _BOUNDS.get(key, (None, None))
    if cmp is not None and value is not None:
        for x in value if isinstance(value, tuple) else (value,):
            if not (x > bound if cmp == ">" else x >= bound):
                raise ConfigError(f"{key} must be {cmp} {bound}, got {x}", line=line)
    return value


def parse_config(text: str, base_dir: str | Path = ".") -> ExperimentConfig:
    """Parse and validate a flat key = value configuration.

    Unknown keys, malformed values, values outside their ``_BOUNDS`` and
    missing action-specific keys are rejected with the offending line number.
    """
    values = {}
    seen = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in _REMOVED:
            raise ConfigError(f"removed key {key!r}: {_REMOVED[key]}", line=lineno)
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen[key]})", line=lineno)
        seen[key] = lineno
        values[key] = _parse_value(key, value, lineno)

    for key, (kind, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default

    if len(values["sizes"]) != len(values["lengths"]):
        raise ConfigError("sizes and lengths must have the same dimension",
                          line=seen.get("sizes", seen.get("lengths")))
    if values["action"] == "sweep" and not values["sweep_lambdas"]:
        raise ConfigError("action 'sweep' requires key 'sweep_lambdas'")
    if values["psi"] == "mode" and len(values["psi_mode"]) != len(values["sizes"]):
        raise ConfigError("psi_mode must have one integer per grid axis",
                          line=seen.get("psi_mode", seen["psi"]))
    if values["psi"] == "file" and not values["psi_file"]:
        raise ConfigError("psi = file requires psi_file", line=seen["psi"])
    if values["action"] == "mountain-pass" and values["mode"] != SOURCE:
        raise ConfigError("mountain-pass action requires mode = source",
                          line=seen.get("mode", seen["action"]))
    if values["eps_schedule"] is not None and (
            values["mode"] == SOURCE or values["action"] in ("lambda-star", "sweep")):
        raise ConfigError("eps_schedule drives only the absorption continuation; "
                          "the minimax solve polishes once at eps = 0",
                          line=seen["eps_schedule"])
    # the sweep's exponent lists default to the single configured exponent
    values["sweep_ps"] = values["sweep_ps"] or (values["p"],)
    values["sweep_qs"] = values["sweep_qs"] or (values["q"],)
    return ExperimentConfig(values=values, echo=text, base_dir=Path(base_dir))


# -- builders -----------------------------------------------------------------


def _load_any_field(spec: str, grid: SpectralGrid, base: Path) -> ScalarField:
    path = base / spec
    if spec.endswith(".csv"):
        return load_field_csv(path, grid)
    return load_field(path, grid)


def _coefficient_field(spec, grid: SpectralGrid, base: Path) -> ScalarField:
    if isinstance(spec, str):
        return _load_any_field(spec[1:], grid, base)
    return ScalarField.constant(grid, spec)


def _build(config: ExperimentConfig):
    v = config.values
    params = derive_coefficients(v["n"], v["R"])
    grid = SpectralGrid(v["sizes"], v["lengths"])
    psi = None
    if v["psi"] == "mode":
        mesh = grid.meshgrid()
        phase = np.zeros(grid.shape)
        for m, x, L in zip(v["psi_mode"], mesh, grid.lengths):
            phase = phase + 2.0 * np.pi * m * x / L
        psi = ScalarField(grid, v["psi_amplitude"] * np.sin(phase))
    elif v["psi"] == "file":
        psi = _load_any_field(v["psi_file"], grid, config.base_dir)
    return build_operator(params, grid, psi=psi)


def _build_problem(config: ExperimentConfig, grid: SpectralGrid) -> ProblemSpec:
    v = config.values
    A = _coefficient_field(v["A"], grid, config.base_dir)
    B = _coefficient_field(v["B"], grid, config.base_dir)
    return ProblemSpec(A=A, B=B, p=v["p"], q=v["q"], mode=v["mode"])


def _phi_field(config: ExperimentConfig, grid: SpectralGrid) -> ScalarField | None:
    if config.values["phi_file"]:
        return _load_any_field(config.values["phi_file"], grid, config.base_dir)
    return None


# -- serialization --------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, ScalarField):
        return {
            "min": obj.min(),
            "max": obj.max(),
            "mean": float(obj.values.mean()),
            "points": obj.grid.npoints,
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class _Writer:
    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def json(self, name: str, payload: dict) -> Path:
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
        self.paths.append(path)
        return path

    def csv_rows(self, name: str, header, rows) -> Path:
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([repr(x) if isinstance(x, float) else x for x in row])
        self.paths.append(path)
        return path

    def field(self, name: str, field: ScalarField) -> None:
        raw, meta = save_field(field, self.out / (name + ".f64"))
        self.paths += [raw, meta]
        # a CSV copy for plotting, in 1-D only, where CSVs are read back too
        if field.grid.d == 1:
            self.paths.append(field_to_csv(field, self.out / (name + ".csv")))


# -- action handlers --------------------------------------------------------------


def _action_eigen(config, op, w: _Writer):
    eig = principal_eigenpair(op)
    sign = invariant_sign(op, eig)
    pos = positivity_check(op, eig)
    if config.values["save_fields"]:
        w.field("phi1", eig.phi1)
    w.json("report.json", {
        "action": "eigen",
        "lambda1": eig.lambda1,
        "residual": eig.residual,
        "iterations": eig.iterations,
        "positive": eig.positive,
        "invariant_sign": sign,
        "positivity": _jsonable(pos),
    })
    return 0


def _action_sobolev(config, op, w: _Writer):
    S = sobolev_constant(op)
    w.json("report.json", {
        "action": "sobolev",
        "S_psi": S,
        "grid": {"sizes": list(op.grid.sizes), "lengths": list(op.grid.lengths)},
        "critical_exponent": op.params.two_sharp,
    })
    return 0


def _certified_infeasible(op, prob):
    rep = check_nonexistence(op, prob)
    return rep if rep.conclusive and rep.satisfied else None


def _action_solve(config, op, w: _Writer):
    v = config.values
    prob = _build_problem(config, op.grid)
    if prob.mode == SOURCE:
        return _minimax(config, op, prob, "solve", w)
    if v["eps_schedule"] is not None:
        rep = epsilon_continuation(op, prob, v["eps_schedule"],
                                   tol_step=v["tol_step"],
                                   tol_residual=v["tol_residual"],
                                   maxiter=v["max_iter"])
    else:
        bracket = find_sub_super(op, prob)
        rep = monotone_solve(op, prob, bracket,
                             tol_step=v["tol_step"],
                             tol_residual=v["tol_residual"],
                             maxiter=v["max_iter"])
    if v["save_fields"]:
        w.field("solution", rep.u)
    w.json("report.json", {"action": "solve", "outcome": "solved",
                           "solver": rep.summary()})
    return 0


def _mp_kwargs(v: dict) -> dict:
    """The config's minimax settings as ``mountain_pass_solve`` keywords,
    shared by the solve, the sweep cells and the lambda-star probes."""
    return {"eps0": v["eps0"], "n_nodes": v["mp_nodes"],
            "tol_residual": v["mp_tol_residual"], "max_sweeps": v["mp_max_sweeps"]}


def _minimax(config, op, prob, action, w: _Writer):
    """Run the minimax solve unless a certificate blocks it (exit 1).

    The blocking certificates are a certified infeasibility and, when
    ``mp_require_cond`` is set, a failed existence condition.  The condition
    is evaluated once, with the ``S_psi`` the solve then uses, and a solved
    report carries it beside the solver summary.
    """
    v = config.values
    blocked = _certified_infeasible(op, prob)
    if blocked is not None:
        w.json("report.json", {
            "action": action,
            "outcome": "certified-infeasible",
            "certificate": _jsonable(blocked),
        })
        return 1
    phi = _phi_field(config, op.grid)
    S = sobolev_constant(op)
    cond = check_existence_cond(op, prob, phi=phi, S_psi=S)
    if v["mp_require_cond"] and not cond.satisfied:
        w.json("report.json", {
            "action": action,
            "outcome": "certificate-blocked",
            "certificate": _jsonable(cond),
        })
        return 1
    rep = mountain_pass_solve(op, prob, phi=phi, S_psi=S, **_mp_kwargs(v))
    if v["save_fields"]:
        w.field("solution", rep.u)
    w.json("report.json", {"action": action, "outcome": "solved",
                           "certificate": _jsonable(cond), "solver": rep.summary()})
    return 0


def _action_flow(config, op, w: _Writer):
    v = config.values
    prob = _build_problem(config, op.grid)
    bracket = find_sub_super(op, prob)
    u0 = bracket.lower
    rep, samples = parabolic_flow(op, prob, u0, tau=v["tau"], tmax=v["tmax"],
                                  tol_residual=v["tol_residual"],
                                  sample_every=v["flow_sample_every"])
    if v["save_fields"]:
        w.field("solution", rep.u)
    w.csv_rows("trajectory.csv",
               ["time", "residual", "min_u", "max_u", "energy"],
               [(s.time, s.residual, s.min_u, s.max_u, s.energy) for s in samples])
    w.json("report.json", {"action": "flow", "outcome": "steady" if rep.converged else "tmax",
                           "solver": rep.summary()})
    return 0


def _action_check_existence(config, op, w: _Writer):
    prob = _build_problem(config, op.grid)
    if prob.mode == ABSORPTION:
        rep = check_existence_ineq(op, prob)
    else:
        rep = check_existence_cond(op, prob, phi=_phi_field(config, op.grid))
    w.json("report.json", {"action": "check-existence", "certificate": _jsonable(rep)})
    return 0


def _action_check_nonexistence(config, op, w: _Writer):
    prob = _build_problem(config, op.grid)
    rep = check_nonexistence(op, prob)
    w.json("report.json", {"action": "check-nonexistence", "certificate": _jsonable(rep)})
    return 0


def _action_mountain_pass(config, op, w: _Writer):
    return _minimax(config, op, _build_problem(config, op.grid), "mountain-pass", w)


def _action_lambda_star(config, op, w: _Writer):
    v = config.values
    result = lambda_star_bisect(op, v["p"], v["q"], tol=v["lambda_tol"],
                                solver_budget=v["solver_budget"],
                                mp_kwargs=_mp_kwargs(v))
    w.json("report.json", {"action": "lambda-star", "result": _jsonable(result)})
    return 0


def _action_sweep(config, op, w: _Writer):
    v = config.values
    cells = [(p, q, lam) for p in v["sweep_ps"] for q in v["sweep_qs"]
             for lam in v["sweep_lambdas"]]
    S = sobolev_constant(op)

    def run_cell(idx_cell):
        idx, (p, q, lam) = idx_cell
        prob = _constant_problem(op, lam, p, q)
        try:
            cond = check_existence_cond(op, prob, S_psi=S)
            cond_sat, cond_margin = cond.satisfied, cond.margin
            cond_payload = _jsonable(cond)
        except PaneitzLabError as exc:
            cond_sat, cond_margin = "error", repr(exc)
            cond_payload = {"error": repr(exc)}
        non = check_nonexistence(op, prob)
        outcome = ""
        resid = ""
        solver_payload = None
        if v["sweep_solve"]:
            try:
                rep = mountain_pass_solve(op, prob, **_mp_kwargs(v))
                outcome, resid = "solved", rep.residual
                solver_payload = rep.summary()
            except PaneitzLabError as exc:
                outcome, resid = "failed", ""
                solver_payload = {"error": repr(exc)}
        # each cell owns a subdirectory; the shared CSV is written after the
        # join point
        w.json(f"cells/{idx:03d}/report.json", {
            "cell": idx, "p": p, "q": q, "lambda": lam,
            "existence": cond_payload, "nonexistence": _jsonable(non),
            "solver": solver_payload,
        })
        return idx, (p, q, lam, cond_sat, cond_margin,
                     non.satisfied if non.conclusive else "inconclusive",
                     non.margin, outcome, resid)

    if v["workers"] > 1:
        with ThreadPoolExecutor(max_workers=v["workers"]) as pool:
            results = list(pool.map(run_cell, enumerate(cells)))
    else:
        results = [run_cell(ic) for ic in enumerate(cells)]
    results.sort(key=lambda r: r[0])
    rows = [r[1] for r in results]
    w.csv_rows("sweep.csv",
               ["p", "q", "lambda", "cond_satisfied", "cond_margin",
                "nonexistence_satisfied", "nonexistence_margin",
                "solver_outcome", "solver_residual"],
               rows)
    w.json("report.json", {"action": "sweep", "cells": len(rows), "S_psi": S})
    return 0


_HANDLERS = {
    "eigen": _action_eigen,
    "sobolev": _action_sobolev,
    "solve": _action_solve,
    "flow": _action_flow,
    "check-existence": _action_check_existence,
    "check-nonexistence": _action_check_nonexistence,
    "mountain-pass": _action_mountain_pass,
    "lambda-star": _action_lambda_star,
    "sweep": _action_sweep,
}


def _write_error(writer: _Writer, exc: Exception) -> None:
    writer.json("error.json", {"error": type(exc).__name__, "message": str(exc)})


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> RunManifest:
    """Execute the configured action and write all artifacts plus a manifest."""
    started = time.monotonic()
    values = config.values
    out = Path(out_dir) if out_dir is not None else Path(values["out"])
    writer = _Writer(out)
    exit_code = 0
    try:
        op = _build(config)
        exit_code = _HANDLERS[values["action"]](config, op, writer)
    except (PaneitzLabError, ValueError) as exc:
        _write_error(writer, exc)
        exit_code = 2
    manifest = RunManifest(
        action=values["action"],
        version=__version__,
        exit_code=exit_code,
        timing_seconds=time.monotonic() - started,
        config_echo=config.echo,
        artifacts=[
            {
                "path": str(p.relative_to(out)),
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            }
            for p in sorted(set(writer.paths))
        ],
    )
    (out / "manifest.json").write_text(
        json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n"
    )
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="paneitz-lab",
        description="Run a configured experiment for the fourth-order singular equation lab.",
    )
    parser.add_argument("config", help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)

    out = args.out or os.environ.get("PANEITZLAB_OUT")

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, base_dir=Path(args.config).resolve().parent)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the config did not parse, so its out key is unknown
        _write_error(_Writer(Path(out or _SCHEMA["out"][1])), exc)
        return 2
    manifest = run(config, out_dir=out)
    print(f"paneitz-lab: action={manifest.action} exit={manifest.exit_code} "
          f"artifacts={len(manifest.artifacts)} ({manifest.timing_seconds:.2f}s)")
    return manifest.exit_code


if __name__ == "__main__":
    sys.exit(main())
