"""The benchmark's workloads: generated input fields plus a list of CLI jobs.

Each job is a flat ``key = value`` config that is parsed and run in-process
through ``paneitzlab.cli``.  Field inputs are referenced by file name and
resolved against the directory the fields are written to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# every box edge is 2*pi long
LENGTH = 2.0 * math.pi
TWO_PI = repr(LENGTH)
L2 = f"{TWO_PI},{TWO_PI}"
L3 = f"{TWO_PI},{TWO_PI},{TWO_PI}"

# max |grad psi|^2 of the generated psi fields.  At n = 5, R = 20 the
# potential W = b_n (Q - |grad psi|^2) has Q = 13.125: "strong" makes W change
# sign, "mild" keeps it positive.  The minimax value keeps W > 0 at R = 3.8.
GRAD_STRONG = 27.0
GRAD_MILD = 3.0
GRAD_MINIMAX = 0.08

@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str  # "psi", "A" or "B", see inputs.make_field
    sizes: tuple[int, ...]
    grad_sq_max: float | None = None

    @property
    def file(self) -> str:
        return self.name + ".f64"


@dataclass(frozen=True)
class Job:
    name: str
    config: tuple[tuple[str, str], ...]

    def values(self) -> dict[str, str]:
        return dict(self.config)

    def text(self, seed: int) -> str:
        lines = [f"{k} = {v}" for k, v in self.config] + [f"seed = {seed}"]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    blas_threads: int
    # Seeded input sets per cycle.  The reported wall time is their mean,
    # which evens out how much the seed changes the work (random Sobolev
    # starts, the shape of psi).
    input_sets: int
    fields: tuple[FieldSpec, ...]
    jobs: tuple[Job, ...]
    # pairs of job indices that must return the same (unique) solution
    agree: tuple[tuple[int, int], ...] = ()


def _job(name: str, **config) -> Job:
    return Job(name, tuple((k, str(v)) for k, v in config.items()))


# Arrays are tiny, so per-call overhead in geometry.inner/integrate and
# operator.apply_values dominates.  The work is Sobolev descent, path sweeps
# and 64-point dense Newton; the only workload with the threaded sweep.
SOURCE_1D = Workload(
    name="source-1d",
    blas_threads=1,
    input_sets=2,
    fields=(),
    jobs=(
        _job("lambda-star", action="lambda-star", n=5, R=20, sizes=64,
             lengths=TWO_PI, psi="zero", p=3, q=2, lambda_tol=1e-3),
        _job("sweep", action="sweep", n=5, R=3.8, sizes=64, lengths=TWO_PI,
             psi="zero", mode="source", p=1.5, q=2,
             sweep_lambdas="0.05,0.1", sweep_solve="true", workers=2),
    ),
)

# Large arrays, so FFTs inside CG dominate; no Sobolev or Newton work, and
# about 1 MB of fields written per job.  Should move with the FFT kernel and
# stay put under Sobolev or minimax changes.  The CG iteration counts follow
# the shape of the generated fields, so a pass takes up to 20% longer on one
# seed than on another: four input sets even that out.  The FFTs are
# single-threaded, and with one BLAS thread instead of two the jobs ran
# about 10% faster on a 2-vCPU machine.
ABSORPTION_GRID = Workload(
    name="absorption-grid",
    blas_threads=1,
    input_sets=4,
    fields=(
        FieldSpec("psi_strong_32c", "psi", (32, 32, 32), GRAD_STRONG),
        FieldSpec("psi_mild_32c", "psi", (32, 32, 32), GRAD_MILD),
        FieldSpec("A_32c", "A", (32, 32, 32)),
        FieldSpec("B_32c", "B", (32, 32, 32)),
        FieldSpec("psi_strong_128s", "psi", (128, 128), GRAD_STRONG),
        FieldSpec("A_128s", "A", (128, 128)),
    ),
    jobs=(
        _job("solve-strong", action="solve", sizes="32,32,32", lengths=L3,
             psi="file", psi_file="psi_strong_32c.f64", A="@A_32c.f64"),
        _job("flow-strong", action="flow", sizes="32,32,32", lengths=L3,
             psi="file", psi_file="psi_strong_32c.f64", A="@A_32c.f64"),
        _job("eigen-mild", action="eigen", sizes="32,32,32", lengths=L3,
             psi="file", psi_file="psi_mild_32c.f64"),
        _job("continuation-mild", action="solve", sizes="32,32,32", lengths=L3,
             psi="file", psi_file="psi_mild_32c.f64", A="@A_32c.f64",
             B="@B_32c.f64", eps_schedule="1,0.1,0.01,0"),
        _job("flow-strong-128", action="flow", sizes="128,128", lengths=L2,
             psi="file", psi_file="psi_strong_128s.f64", A="@A_128s.f64",
             tmax=20),
    ),
    agree=((0, 1),),
)

# On 1024-point arrays the Sobolev descent is bound by FFT work, not call
# overhead; Newton uses the 1024^2 dense assembly plus LU (BLAS time and the
# extra memory).  Shows the removal of the dense path.
MINIMAX_2D = Workload(
    name="minimax-2d",
    blas_threads=2,
    input_sets=2,
    fields=(FieldSpec("psi_mild_32s", "psi", (32, 32), GRAD_MINIMAX),),
    jobs=(
        _job("mountain-pass", action="mountain-pass", n=5, R=3.8,
             sizes="32,32", lengths=L2, psi="file", psi_file="psi_mild_32s.f64",
             A=1, B=0.05, p=1.5, q=2, mode="source", mp_require_cond="false"),
    ),
)

WORKLOADS = {w.name: w for w in (SOURCE_1D, ABSORPTION_GRID, MINIMAX_2D)}

# S_psi reported by the seed code for psi = 0 on the 64-point box of length
# 2*pi (constant and bump starts; the random starts never won).  Any attained
# quotient is an upper estimate, so a correct change may only lower these.
SOBOLEV_REFERENCE = {
    (5, 20.0, (64,)): 19.220906468745362,
    (5, 3.8, (64,)): 1.0306718461351074,
}
