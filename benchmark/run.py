"""paneitzlab benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py`` or ``all``.  With
``--trace 0`` the end-to-end metrics are measured: set-up time (the median
over several fresh processes), the wall time of the job list, the peak
resident memory of the process that ran it, and the share of jobs that
passed the independent checks.  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of the traced passes are
reported, with the tracing overhead.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in its own processes, started from the checkout's
``src`` with the BLAS thread count fixed per workload.  Everything the run
writes goes under ``.bench_work`` in the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
# set-up is timed in this many fresh processes per run, the measuring one
# included
SETUP_SAMPLES = 5
# every run, set-up included, ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def metric_table() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def thread_settings(wl) -> dict:
    nproc = os.cpu_count() or 1
    workers = max(int(job.values().get("workers", 1)) for job in wl.jobs)
    return {"nproc": nproc, "blas_threads": min(wl.blas_threads, nproc),
            "sweep_workers": workers}


def spawn(wl, args, work: Path, deadline: float, setup_only: bool) -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = str(thread_settings(wl)["blas_threads"])
    # write no byte-code caches: nothing outside the checkout is written, and
    # set-up compiles the package's sources in every run alike
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPYCACHEPREFIX", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", wl.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--started", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{wl.name}: worker exceeded the time limit") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{wl.name}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(wl, args, deadline: float) -> dict:
    work = WORK / f"run-{os.getpid()}-{wl.name}"
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn(wl, args, work / f"setup{k}", deadline, True)["setup_s"])
        result = spawn(wl, args, work / "measure", deadline, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setups"] = setups
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": statistics.median(result["setups"]),
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "passed_frac": 1.0 - result["failed"] / result["attempted"],
    }


def report(wl, args, result: dict, table: dict) -> dict:
    """Print one workload's metrics; return them with their units."""
    threads = thread_settings(wl)
    print(f"[{wl.name}] seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in threads.items()))
    print("  untraced job wall times, mean over passes: " + ", ".join(
        f"{name} {t:.3f} s" for name, t in result["job_walls"].items()))
    for line in result["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name in result.get("missing", []):
        print(f"  not traced (absent): {name}", file=sys.stderr)
    if args.trace:
        values, rows = result["layers"], table["per_layer"]
        counts = f"median of {len(result['traced_walls'])} traced passes"
    else:
        values, rows = end_to_end(result), table["end_to_end"]
        counts = {
            "setup_s": f"median of {len(result['setups'])} processes",
            "wall_s": (f"mean of {len(result['walls'])} passes over "
                       f"{wl.input_sets} input sets, median of {result['cycles']} cycles"),
            "peak_rss_mb": "1 process",
            "passed_frac": (f"{result['attempted'] - result['failed']} of "
                            f"{result['attempted']} jobs passed every check"),
        }
    metrics = {}
    for row in rows:
        value = values[row["name"]]
        note = counts if isinstance(counts, str) else counts[row["name"]]
        print(f"  {row['name']:<38} {value:>16.6g} {row['unit']:<6} {note}")
        metrics[row["name"]] = {"value": value, "unit": row["unit"]}
    if not args.trace:
        # printed only: the JSON carries its complement, which is never 0
        failed_frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<38} {failed_frac:>16.6g} {'ratio':<6} "
              f"{result['failed']} failed of {result['attempted']} jobs attempted")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="paneitzlab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "paneitzlab" / "__init__.py").is_file():
        print(f"error: no paneitzlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = metric_table()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    metrics, attempted, failed, wrong = {}, 0, 0, 0
    try:
        for name in names:
            wl = workloads.WORKLOADS[name]
            result = run_workload(wl, args, deadline)
            got = report(wl, args, result, table)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            wrong += result["wrong"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
