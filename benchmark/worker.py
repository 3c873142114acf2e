"""One benchmark process: set up one workload, run its jobs, check them.

Started by ``run.py`` with the BLAS thread count already in the environment.
Set-up (imports, seeded inputs, parsed configs) is timed from the moment the
parent spawned this process.  Unless ``--setup-only`` is given, the job list
then runs through ``paneitzlab.cli.run`` in cycles over the workload's input
sets until ``--seconds`` have passed (at least one cycle); then the peak
resident memory is read and every pass's outputs are checked by ``verify``.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# set-up pays for these imports; the package itself loads scipy.sparse.linalg
# lazily, on its first Newton step
import numpy as np
import scipy.optimize  # noqa: F401
import scipy.sparse.linalg  # noqa: F401

import inputs
import tracing
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def input_seed(seed: int, k: int) -> int:
    """Seed of the k-th input set of a run: the run's own seed first."""
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class Session:
    """A workload set up in this process: inputs on disk, configs parsed.

    Construction is the timed set-up: imports plus the first input set.
    Further input sets are prepared on first use, outside any timing.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        import paneitzlab
        from paneitzlab import cli

        if not Path(paneitzlab.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"paneitzlab imported from {paneitzlab.__file__}, not {SRC}")
        self.cli = cli
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self._sets: dict[int, tuple[Path, list]] = {}
        self.input_set(0)

    def input_set(self, k: int):
        """Inputs directory and parsed configs of input set ``k``."""
        if k not in self._sets:
            from paneitzlab import ScalarField, SpectralGrid, save_field

            seed = input_seed(self.seed, k)
            where = self.work / f"inputs{k}"
            where.mkdir(parents=True, exist_ok=True)
            for spec in self.wl.fields:
                grid = SpectralGrid(spec.sizes, (workloads.LENGTH,) * len(spec.sizes))
                values = inputs.make_field(spec.kind, inputs.field_rng(seed, spec.name),
                                           grid.sizes, grid.lengths, spec.grad_sq_max)
                save_field(ScalarField(grid, values), where / spec.file)
            configs = [self.cli.parse_config(job.text(seed), base_dir=where)
                       for job in self.wl.jobs]
            self._sets[k] = (where, configs)
        return self._sets[k]

    def run_pass(self, k: int, tag: str, recorder=None):
        """Run every job of input set k once.

        Returns the wall and CPU seconds of the pass, the output directories
        and the wall seconds of each job.
        """
        _, configs = self.input_set(k)
        outs = [self.work / tag / f"{i}-{job.name}" for i, job in enumerate(self.wl.jobs)]
        t0, c0 = time.perf_counter(), time.process_time()
        job_walls = []
        for i, (config, out) in enumerate(zip(configs, outs)):
            if recorder is not None:
                recorder.job = i
            t = time.perf_counter()
            self.cli.run(config, out_dir=out)
            job_walls.append(time.perf_counter() - t)
        return time.perf_counter() - t0, time.process_time() - c0, outs, job_walls

    def check_pass(self, k: int, outs):
        """Verifier failures of one pass and the number of jobs that failed."""
        where, _ = self.input_set(k)
        failures, solutions = [], []
        for job, out in zip(self.wl.jobs, outs):
            fails, u = verify.check_job(job.name, job.values(), out, where,
                                        workloads.SOBOLEV_REFERENCE)
            failures += fails
            solutions.append(u)
        for a, b in self.wl.agree:
            names = (self.wl.jobs[a].name, self.wl.jobs[b].name)
            trusted = not any(f.job in names for f in failures)
            failures += verify.check_agreement(names[1], solutions[a], solutions[b], trusted)
        return failures, len({f.job for f in failures})


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Run cycles over the workload's input sets until ``seconds`` have passed.

    Untraced, a cycle runs every input set once and yields the mean pass wall
    time; the result is the median over cycles.  Traced, a cycle runs input
    set 0 untraced and then traced.  Peak memory is read once every pass has
    run and before any is checked, so it is the program's alone.
    """
    cycles, walls, cpus, traced_walls, layers = [], [], [], [], []
    job_walls = {job.name: [] for job in session.wl.jobs}
    attempted, failures, failed, passes = 0, [], 0, []
    sets = 1 if trace else session.wl.input_sets
    deadline = time.monotonic() + seconds
    c = 0
    while True:
        cycle = []
        for k in range(sets):
            runs = [("plain", None)]
            if trace:
                runs.append(("traced", tracing.Recorder()))
            for kind, rec in runs:
                tag = f"cycle{c}-set{k}-{kind}"
                if rec is None:
                    wall, cpu, outs, per_job = session.run_pass(k, tag)
                    cycle.append(wall)
                    cpus.append(cpu)
                    for name, t in zip(job_walls, per_job):
                        job_walls[name].append(t)
                else:
                    with rec:
                        wall, _, outs, _ = session.run_pass(k, tag, rec)
                    traced_walls.append(wall)
                    layers.append(tracing.layer_metrics(rec.arrays(), rec.counters()))
                    traces = ROOT / ".bench_work" / "traces"
                    traces.mkdir(parents=True, exist_ok=True)
                    rec.save(traces / f"{session.wl.name}.npz")
                passes.append((k, tag, outs))
        walls += cycle
        cycles.append(statistics.fmean(cycle))
        c += 1
        if time.monotonic() >= deadline:
            break
    # the verifier's own arrays must not set the program's high-water mark
    peak_rss_mb = _peak_rss_mb()
    for k, tag, outs in passes:
        fails, nfailed = session.check_pass(k, outs)
        attempted += len(outs)
        failed += nfailed
        failures += fails
        shutil.rmtree(session.work / tag, ignore_errors=True)
    result = {
        "wall_s": statistics.median(cycles),
        "walls": walls,
        "job_walls": {name: statistics.fmean(t) for name, t in job_walls.items()},
        "cycles": len(cycles),
        "attempted": attempted,
        "failed": failed,
        "wrong": sum(1 for f in failures if f.kind == "wrong"),
        "failures": sorted({f"{f.job}: {f.check} [{f.kind}] {f.detail}" for f in failures}),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        layer = {key: statistics.median(run[key] for run in layers) for key in layers[0]}
        layer["process.cpu_s"] = statistics.median(cpus)
        layer["trace.wall_s"] = statistics.median(traced_walls)
        layer["trace.overhead_frac"] = layer["trace.wall_s"] / statistics.median(walls) - 1.0
        result["layers"] = layer
        result["traced_walls"] = traced_walls
        result["missing"] = rec.missing
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent when it spawned this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    session = Session(args.workload, args.seed, args.work)
    result = {"setup_s": time.monotonic() - args.started}
    if not args.setup_only:
        result.update(measure(session, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
