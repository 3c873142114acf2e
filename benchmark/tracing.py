"""Spans and counts around the calls into each paneitzlab layer.

The package is not instrumented; this module wraps its public functions and
methods from outside while a :class:`Recorder` is installed, and removes the
wrappers afterwards, so untraced passes run the unmodified code.

* Functions are imported by value, so every ``paneitzlab.*`` module binding
  of a wrapped function is replaced, not just the defining one.
* Every numpy/scipy FFT entry point is wrapped (complex and real, n-d and
  1-d), so a switch of transform keeps being counted.  A transform called
  from inside another one is not counted twice.
* Each thread keeps its own span stack and storage.  Work handed to the
  sweep's thread pool is recorded under a ``cli.task`` span whose parent is
  the ``cli.wait`` span of the submitting thread.

A wrapped name that the package no longer has is skipped and listed in
``Recorder.missing``, so its metrics read zero instead of breaking the run.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor

import numpy as np

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn", "hfft", "ihfft")
DENSE_SOLVERS = (("numpy.linalg", "solve"), ("scipy.linalg", "solve"),
                 ("scipy.linalg", "lu_factor"), ("scipy.linalg", "lu_solve"),
                 ("scipy.linalg", "cho_factor"), ("scipy.linalg", "cho_solve"))

# (span name, module, attribute path): methods are "Class.method"
PACKAGE_TARGETS = (
    ("geometry.inner", "geometry", "SpectralGrid.inner"),
    ("geometry.integrate", "geometry", "SpectralGrid.integrate"),
    ("geometry.field", "geometry", "ScalarField.__init__"),
    ("geometry.gradient", "geometry", "gradient_squared"),
    ("geometry.io", "geometry", "save_field"),
    ("geometry.io", "geometry", "load_field"),
    ("geometry.io", "geometry", "field_to_csv"),
    ("geometry.io", "geometry", "load_field_csv"),
    ("operator.apply", "operator", "PaneitzOperator.apply_values"),
    ("operator.solve", "operator", "PaneitzOperator.solve_shifted"),
    ("operator.dense", "operator", "PaneitzOperator.dense_matrix"),
    ("operator.build", "operator", "build_operator"),
    ("spectral_analysis.sobolev", "spectral_analysis", "sobolev_constant"),
    ("spectral_analysis.eigen", "spectral_analysis", "principal_eigenpair"),
    ("spectral_analysis.positivity", "spectral_analysis", "positivity_check"),
    ("spectral_analysis.energy_norm", "spectral_analysis", "energy_norm"),
    ("monotone.solve", "monotone", "monotone_solve"),
    ("monotone.solve", "monotone", "epsilon_continuation"),
    ("monotone.bracket", "monotone", "find_sub_super"),
    ("monotone.iterate", "monotone", "_monotone_iterate"),
    ("flow.solve", "flow", "parabolic_flow"),
    ("mountain_pass.solve", "mountain_pass", "mountain_pass_solve"),
    ("conditions.cert", "conditions", "check_existence_cond"),
    ("conditions.cert", "conditions", "check_existence_ineq"),
    ("conditions.cert", "conditions", "check_nonexistence"),
    ("conditions.cert", "conditions", "lambda_star_bracket"),
    ("conditions.lambda_star", "conditions", "lambda_star_bisect"),
    ("cli.run", "cli", "run"),
)


class _ThreadState:
    __slots__ = ("tid", "stack", "start", "end", "name", "parent", "ptid", "job",
                 "counters", "root")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.ptid = array("i")
        self.job = array("i")
        self.counters: dict[str, float] = {}
        # (thread id, span index) that roots spans opened on an empty stack
        self.root = (-1, -1)


class Recorder:
    """In-memory span store: name, start, end, parent and job of each call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self.job = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    def wrap(self, name: str, fn, on_result=None, skip_nested=False):
        """``fn`` recorded as span ``name``; ``on_result(st, args, result)``
        records counts from the return value."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            st = self.state()
            stack = st.stack
            if skip_nested and stack and st.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(st.start)
            if stack:
                st.parent.append(stack[-1])
                st.ptid.append(st.tid)
            else:
                st.ptid.append(st.root[0])
                st.parent.append(st.root[1])
            st.name.append(nid)
            st.job.append(self.job)
            st.start.append(0.0)
            st.end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                st.start[idx] = t0
                st.end[idx] = t1
            if on_result is not None:
                on_result(st, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers --------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, original, wrapped, extra_owners=()) -> None:
        """Replace every paneitzlab module binding of ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "paneitzlab" or mod_name.startswith("paneitzlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)
        for owner, attr in extra_owners:
            if getattr(owner, attr, None) is original:
                self._set(owner, attr, wrapped)

    def install(self) -> None:
        hooks = _result_hooks()
        for name, mod_name, path in PACKAGE_TARGETS:
            mod = importlib.import_module(f"paneitzlab.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"paneitzlab.{mod_name}.{path}")
                continue
            wrapped = self.wrap(name, original, hooks.get(path))
            if owner_name:
                self._set(owner, attr, wrapped)
            else:
                self._patch_function(original, wrapped)
        self._install_kernels()
        self._install_pool()

    def _install_kernels(self) -> None:
        for mod_name in ("numpy.fft", "scipy.fft"):
            mod = importlib.import_module(mod_name)
            for attr in FFT_NAMES:
                original = getattr(mod, attr, None)
                if original is not None:
                    wrapped = self.wrap("kernel.fft", original, _count_fft, skip_nested=True)
                    self._patch_function(original, wrapped, [(mod, attr)])
        for mod_name, attr in DENSE_SOLVERS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._patch_function(original, self.wrap("kernel.dense_solve", original),
                                 [(mod, attr)])
        spla = importlib.import_module("scipy.sparse.linalg")
        self._patch_function(spla.minres, self.wrap("kernel.minres", spla.minres),
                             [(spla, "minres")])

    def _install_pool(self) -> None:
        cli = importlib.import_module("paneitzlab.cli")
        if getattr(cli, "ThreadPoolExecutor", None) is not ThreadPoolExecutor:
            self.missing.append("paneitzlab.cli.ThreadPoolExecutor")
            return
        rec = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                task = rec.wrap("cli.task", fn)

                def waiting():
                    owner = rec.state()
                    parent = (owner.tid, owner.stack[-1])

                    def run_task(*args):
                        rec.state().root = parent
                        return task(*args)

                    return list(ThreadPoolExecutor.map(self, run_task, *iterables, **kwargs))

                return rec.wrap("cli.wait", waiting)()

        self._set(cli, "ThreadPoolExecutor", TracedPool)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- export -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans in one table; ``parent`` indexes the same table."""
        offsets = np.cumsum([0] + [len(s.start) for s in self._states])
        cols = {k: [] for k in ("start", "end", "name", "parent", "thread", "job")}
        for st in self._states:
            cols["start"].append(np.frombuffer(st.start, dtype=float))
            cols["end"].append(np.frombuffer(st.end, dtype=float))
            cols["name"].append(np.frombuffer(st.name, dtype=np.int32).astype(np.int64))
            parent = np.frombuffer(st.parent, dtype=np.int64)
            ptid = np.frombuffer(st.ptid, dtype=np.int32)
            cols["parent"].append(np.where(parent >= 0, offsets[ptid] + parent, -1))
            cols["thread"].append(np.full(len(st.start), st.tid, dtype=np.int64))
            cols["job"].append(np.frombuffer(st.job, dtype=np.int32).astype(np.int64))
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        out["names"] = np.array(self.names)
        return out

    def counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        for st in self._states:
            for k, v in st.counters.items():
                total[k] = total.get(k, 0.0) + v
        return total

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _add(st: _ThreadState, key: str, n: float) -> None:
    st.counters[key] = st.counters.get(key, 0.0) + n


def _count_fft(st, args, result):
    a = np.asarray(args[0])
    _add(st, "kernel.fft.points", a.size)
    _add(st, "kernel.fft.bytes_computed", a.nbytes + result.nbytes)


def _result_hooks():
    """Counts read from the return values of wrapped calls."""

    def io_bytes(st, args, result):
        if isinstance(result, tuple):  # save_field: the data file and its sidecar
            paths = result
        elif isinstance(result, (str, os.PathLike)):  # field_to_csv
            paths = (result,)
        else:  # a load: the file read
            paths = (args[0],)
        _add(st, "geometry.io.bytes", sum(os.path.getsize(p) for p in paths))

    def eigen(st, args, result):
        _add(st, "spectral_analysis.eigen.iters", result.iterations)

    def monotone_iterate(st, args, result):
        _add(st, "monotone.steps", result[2])

    def flow(st, args, result):
        rep = result[0]
        _add(st, "flow.steps", rep.iterations)
        _add(st, "flow.rejected", rep.extras.get("halvings", 0))

    def mountain_pass(st, args, result):
        _add(st, "mountain_pass.path_sweeps", result.extras.get("path_sweeps", 0))
        newton = sum(e.get("newton_iterations", 0) for e in result.eps_trace)
        _add(st, "mountain_pass.newton_iters", newton)

    def lambda_star(st, args, result):
        _add(st, "conditions.lambda_star.probes", len(result.probes))
        feasible = sum(1 for pr in result.probes if pr.get("feasible"))
        _add(st, "conditions.lambda_star.feasible", feasible)

    def cli_run(st, args, result):
        _add(st, "cli.artifact_bytes", sum(a["bytes"] for a in result.artifacts))

    return {
        "save_field": io_bytes,
        "load_field": io_bytes,
        "field_to_csv": io_bytes,
        "load_field_csv": io_bytes,
        "principal_eigenpair": eigen,
        "_monotone_iterate": monotone_iterate,
        "parabolic_flow": flow,
        "mountain_pass_solve": mountain_pass,
        "lambda_star_bisect": lambda_star,
        "run": cli_run,
    }


# -- analysis -----------------------------------------------------------------

LAYERS = ("geometry", "operator", "kernel", "spectral_analysis", "monotone",
          "flow", "mountain_pass", "conditions", "cli")


def _union_length(starts: np.ndarray, ends: np.ndarray) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(zip(starts.tolist(), ends.tolist())):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _wall_shares(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Wall time owned by each interval when overlapping ones split it evenly."""
    edges = np.unique(np.concatenate([starts, ends]))
    share = np.zeros(len(starts))
    for a, b in zip(edges[:-1], edges[1:]):
        active = (starts <= a) & (ends >= b)
        k = int(active.sum())
        if k:
            share[active] += (b - a) / k
    return share


def self_times(t: dict) -> tuple[np.ndarray, np.ndarray]:
    """Duration and wall-clock self time of every span.

    Self time is the duration minus what same-thread children cover.  Where
    tasks of a thread pool overlap, each instant is split evenly between the
    tasks running then, and each task's share is spread over its subtree in
    proportion to thread time; the submitting thread's waiting span keeps
    only the instants no task covered.  The self times of all spans then sum
    to the duration of the root spans.
    """
    start, end, parent, thread = t["start"], t["end"], t["parent"], t["thread"]
    n = len(start)
    dur = end - start
    has_parent = parent >= 0
    pp = np.where(has_parent, parent, 0)
    same = has_parent & (thread[pp] == thread)
    excl = dur - np.bincount(parent[same], weights=dur[same], minlength=n)
    cross = np.flatnonzero(has_parent & ~same)
    if cross.size:
        root = np.where(same, parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        factor = np.ones(n)
        factor[cross] = _wall_shares(start[cross], end[cross]) / np.maximum(dur[cross], 1e-300)
        excl = excl * factor[root]
        for w in np.unique(parent[cross]):
            kids = cross[parent[cross] == w]
            excl[w] -= _union_length(start[kids], end[kids])
    return dur, excl


def _ancestor_match(t: dict, match) -> np.ndarray:
    """For each span, whether some ancestor satisfies ``match(anc, span)``."""
    parent = t["parent"]
    idx = np.arange(len(parent))
    cur = parent.copy()
    found = np.zeros(len(parent), dtype=bool)
    while True:
        live = cur >= 0
        if not live.any():
            return found
        found[live] |= match(cur[live], idx[live])
        cur = np.where(live, parent[np.where(live, cur, 0)], -1)


def layer_metrics(t: dict, counters: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    names = list(t["names"])
    name = t["name"]
    dur, excl = self_times(t)
    nested_same = _ancestor_match(t, lambda anc, i: name[anc] == name[i])

    def mask(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def calls(span):
        return float(mask(span).sum())

    def inclusive(span):
        return float(dur[mask(span) & ~nested_same].sum())

    def self_s(span):
        return float(excl[mask(span)].sum())

    def c(key):
        return float(counters.get(key, 0.0))

    solve_calls = calls("operator.solve")
    if "operator.solve" in names:
        solve_id = names.index("operator.solve")
        in_solve = _ancestor_match(t, lambda anc, i: name[anc] == solve_id)
        fft_in_solve = float((mask("kernel.fft") & in_solve).sum())
    else:
        fft_in_solve = 0.0
    steps, rejected = c("flow.steps"), c("flow.rejected")
    probes = c("conditions.lambda_star.probes")
    m = {
        "geometry.inner.calls": calls("geometry.inner"),
        "geometry.inner.s": inclusive("geometry.inner"),
        "geometry.integrate.calls": calls("geometry.integrate"),
        "geometry.integrate.s": inclusive("geometry.integrate"),
        "geometry.field.calls": calls("geometry.field"),
        "geometry.field.s": inclusive("geometry.field"),
        "geometry.io.calls": calls("geometry.io"),
        "geometry.io.s": inclusive("geometry.io"),
        "geometry.io.bytes": c("geometry.io.bytes"),
        "operator.apply.calls": calls("operator.apply"),
        "operator.apply.self_s": self_s("operator.apply"),
        "operator.solve.calls": solve_calls,
        "operator.solve.self_s": self_s("operator.solve"),
        "operator.solve.fft_per_call": fft_in_solve / solve_calls if solve_calls else 0.0,
        "operator.dense.calls": calls("operator.dense"),
        "operator.dense.s": inclusive("operator.dense"),
        "kernel.fft.calls": calls("kernel.fft"),
        "kernel.fft.s": inclusive("kernel.fft"),
        "kernel.fft.points": c("kernel.fft.points"),
        "kernel.fft.bytes_computed": c("kernel.fft.bytes_computed"),
        "kernel.dense_solve.calls": calls("kernel.dense_solve"),
        "kernel.dense_solve.s": inclusive("kernel.dense_solve"),
        "kernel.minres.calls": calls("kernel.minres"),
        "kernel.minres.s": inclusive("kernel.minres"),
        "spectral_analysis.sobolev.calls": calls("spectral_analysis.sobolev"),
        "spectral_analysis.sobolev.s": inclusive("spectral_analysis.sobolev"),
        "spectral_analysis.eigen.calls": calls("spectral_analysis.eigen"),
        "spectral_analysis.eigen.s": inclusive("spectral_analysis.eigen"),
        "spectral_analysis.eigen.iters": c("spectral_analysis.eigen.iters"),
        "spectral_analysis.positivity.s": inclusive("spectral_analysis.positivity"),
        "monotone.solve.calls": calls("monotone.solve"),
        "monotone.solve.self_s": self_s("monotone.solve"),
        "monotone.steps": c("monotone.steps"),
        "flow.solve.self_s": self_s("flow.solve"),
        "flow.steps": steps,
        "flow.rejected_frac": rejected / (steps + rejected) if steps + rejected else 0.0,
        "mountain_pass.solve.calls": calls("mountain_pass.solve"),
        "mountain_pass.solve.self_s": self_s("mountain_pass.solve"),
        "mountain_pass.path_sweeps": c("mountain_pass.path_sweeps"),
        "mountain_pass.newton_iters": c("mountain_pass.newton_iters"),
        "conditions.cert.calls": calls("conditions.cert"),
        "conditions.cert.s": inclusive("conditions.cert"),
        "conditions.lambda_star.probes": probes,
        "conditions.lambda_star.feasible_frac":
            c("conditions.lambda_star.feasible") / probes if probes else 0.0,
        "cli.run.self_s": self_s("cli.run"),
        "cli.artifact_bytes": c("cli.artifact_bytes"),
    }
    layer_of = np.array([n.split(".", 1)[0] for n in names]) if names else np.array([])
    for layer in LAYERS:
        ids = np.flatnonzero(layer_of == layer)
        m[f"self_s.{layer}"] = float(excl[np.isin(name, ids)].sum())
    return m
