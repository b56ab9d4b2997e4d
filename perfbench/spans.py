"""Spans around the public functions of every ``rdn`` layer, from outside.

``Tracer.install`` wraps the public functions of ``linalg``, ``manifold``,
``objectives``, ``solver``, ``bench`` and ``cli``, a few methods (point
construction and the ``Problem`` entry points the solver calls), and the two
numpy factorizations as kernel counters.  The package binds helpers with
``from .x import y``, so each wrapper is bound in place of the original in
every ``rdn`` module that holds it, not only where it is defined; otherwise
calls from the consuming modules would bypass it.  ``uninstall`` restores
every binding.

A span is (id, parent id, name, start, end, error).  Spans live in per-thread
buffers of compact arrays, so recording takes no lock; ``take`` moves them out
as numpy arrays between passes.  The parent is the innermost open span of the
same thread.  Runs that the grid fans out to pool threads are therefore roots
in their thread, and ``bench.run_grid``'s self time includes waiting on them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = ("linalg", "manifold", "objectives", "solver", "bench", "cli")

# Methods traced besides module-level functions: point construction, and the
# GradientField entry points whose names differ from the module functions
# they delegate to (the others, e.g. newton_solve, are traced as functions).
METHODS = (
    ("manifold", "SpdPoint", "__init__", "manifold.SpdPoint"),
    ("objectives", "GradientField", "field_value", "objectives.field_value"),
    ("objectives", "GradientField", "fallback_direction", "objectives.fallback_direction"),
)
KERNELS = (("eigh", "numpy.eigh"), ("cholesky", "numpy.cholesky"))


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self):
        self.stack: list[int] = []
        self.ids = array("q")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = array("H")
        self.iter_s = array("d")


@dataclass
class PassSpans:
    """The spans of one traced pass, as parallel arrays."""

    ids: np.ndarray
    parents: np.ndarray
    names: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    errors: np.ndarray
    iter_s: np.ndarray


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.error_types: list[str] = [""]
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[tuple[threading.Thread, _Buffer]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append((threading.current_thread(), buf))
        return buf

    def _error_code(self, exc: BaseException) -> int:
        name = type(exc).__name__
        with self._lock:
            if name not in self.error_types:
                self.error_types.append(name)
            return self.error_types.index(name)

    def wrap(self, name: str, fn):
        """``fn`` inside a span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        clock = time.perf_counter
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            span = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else -1
            stack.append(span)
            error = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = self._error_code(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                buf.ids.append(span)
                buf.parents.append(parent)
                buf.names.append(code)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.errors.append(error)

        return traced

    def _wrap_solve(self, fn):
        """Span around ``solve`` that also times each committed iteration,
        from one ``on_iterate`` callback to the next."""
        spanned = self.wrap("solver.solve", fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, on_iterate=None, **kwargs):
            marks: list[float] = []

            def observe(k, p):
                marks.append(clock())
                if on_iterate is not None:
                    on_iterate(k, p)

            try:
                return spanned(*args, on_iterate=observe, **kwargs)
            finally:
                self._buffer().iter_s.extend(np.diff(marks).tolist())

        return traced

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and bind the wrappers everywhere."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {layer: importlib.import_module(f"rdn.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rdn" or n.startswith("rdn.")]
        wrappers = {}
        for layer, module in layers.items():
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = (fn, self._wrap_solve(fn) if name == "solver.solve" else self.wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        for layer, cls, method, name in METHODS:
            owner = getattr(layers[layer], cls)
            self._patch(owner, method, self.wrap(name, getattr(owner, method)))
        for attr, name in KERNELS:
            self._patch(np.linalg, attr, self.wrap(name, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- collecting --------------------------------------------------------

    def take(self) -> PassSpans:
        """Every span recorded since the last call; call between passes."""
        parts = {k: [] for k in ("ids", "parents", "names", "starts", "ends", "errors", "iter_s")}
        dtypes = {"ids": np.int64, "parents": np.int64, "names": np.uint16, "errors": np.uint16}
        for _, buf in self._buffers:
            for key, chunks in parts.items():
                arr = getattr(buf, key)
                chunks.append(np.array(arr, dtype=dtypes.get(key, np.float64)))
                del arr[:]
        self._buffers = [(t, b) for t, b in self._buffers if t.is_alive()]
        return PassSpans(**{k: np.concatenate(v) if v else np.zeros(0) for k, v in parts.items()})


# -- per-layer metrics -----------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


def _parent_index(s: PassSpans) -> np.ndarray:
    """Index of each span's parent in the arrays, or -1 for a root."""
    index = np.full(len(s.ids), -1, dtype=np.int64)
    has_parent = s.parents >= 0
    order = np.argsort(s.ids)
    index[has_parent] = order[np.searchsorted(s.ids, s.parents[has_parent], sorter=order)]
    return index


def pass_metrics(s: PassSpans, names: list[str], errors: list[str], *, nit_total: int, accepted_trials: int, workers: int) -> tuple[dict[str, float], dict[str, np.ndarray]]:
    """Scalar per-layer metrics of one traced pass, and the timing samples
    that are pooled across passes for percentiles."""
    parent = _parent_index(s)
    has_parent = parent >= 0
    dur = s.ends - s.starts
    covered = np.zeros_like(dur)
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered
    code = {n: i for i, n in enumerate(names)}
    parent_name = np.where(has_parent, s.names[parent].astype(np.int64), -1)

    def mask(name: str) -> np.ndarray:
        return s.names == code[name] if name in code else np.zeros(len(s.ids), dtype=bool)

    def under(name: str, caller: str) -> np.ndarray:
        return mask(name) & (parent_name == code.get(caller, -2))

    out: dict[str, float] = {}
    for name in names:
        m = mask(name)
        out[f"{name}.calls"] = float(np.count_nonzero(m))
        out[f"{name}.s"] = float(dur[m].sum())
        out[f"{name}.self_s"] = float(self_s[m].sum())
    failed = s.errors != 0
    overflow = s.errors == (errors.index("StepOverflow") if "StepOverflow" in errors else -1)
    out["manifold.exp_map.overflows"] = float(np.count_nonzero(mask("manifold.exp_map") & overflow))
    out["manifold.cholesky.calls"] = float(np.count_nonzero(under("numpy.cholesky", "manifold.SpdPoint")))
    trials = under("manifold.exp_map", "solver.armijo_stepsize")
    rejected = (trials | under("objectives.merit_value", "solver.armijo_stepsize")) & failed
    out["solver.trials"] = float(np.count_nonzero(trials))
    out["solver.trials_overflowed"] = float(np.count_nonzero(rejected))
    out["solver.trials_accepted_ratio"] = accepted_trials / out["solver.trials"] if out["solver.trials"] else 0.0
    factorizations = out.get("numpy.eigh.calls", 0.0) + out.get("numpy.cholesky.calls", 0.0)
    out["solver.factorizations_per_iter"] = factorizations / nit_total if nit_total else 0.0
    busy = out.get("bench.run_experiment.s", 0.0)
    grid = out.get("bench.run_grid.s", 0.0)
    out["bench.pool_busy_frac"] = busy / (grid * workers) if grid else 0.0
    out["self_sum_s"] = float(self_s.sum())
    samples = {
        "bench.run_experiment.s": dur[mask("bench.run_experiment")],
        "solver.iter_s": s.iter_s,
    }
    return out, samples


# The per-layer metrics a traced run reports, with their units.  Names ending
# in .calls, .s and .self_s come from pass_metrics; percentiles are taken
# over the samples of every traced pass, with the sample count reported.
PER_LAYER = [
    Metric("linalg.sym_eigen.calls", "count"),
    Metric("linalg.sym_eigen.s", "s"),
    Metric("linalg.mat_func.calls", "count"),
    Metric("linalg.mat_func.self_s", "s"),
    Metric("linalg.lyapunov_solve.calls", "count"),
    Metric("linalg.lyapunov_solve.self_s", "s"),
    Metric("linalg.symmetrize.calls", "count"),
    Metric("linalg.symmetrize.s", "s"),
    Metric("numpy.eigh.calls", "count"),
    Metric("numpy.eigh.s", "s"),
    Metric("manifold.exp_map.calls", "count"),
    Metric("manifold.exp_map.self_s", "s"),
    Metric("manifold.exp_map.overflows", "count"),
    Metric("manifold.norm.calls", "count"),
    Metric("manifold.norm.s", "s"),
    Metric("manifold.SpdPoint.calls", "count"),
    Metric("manifold.SpdPoint.s", "s"),
    Metric("manifold.cholesky.calls", "count"),
    Metric("manifold.random_spd.s", "s"),
    Metric("manifold.distance.s", "s"),
    Metric("objectives.field_value.calls", "count"),
    Metric("objectives.field_value.s", "s"),
    Metric("objectives.newton_solve.calls", "count"),
    Metric("objectives.newton_solve.s", "s"),
    Metric("objectives.merit_value.calls", "count"),
    Metric("objectives.merit_value.s", "s"),
    Metric("objectives.merit_gradient.calls", "count"),
    Metric("solver.solve.calls", "count"),
    Metric("solver.solve.self_s", "s"),
    Metric("solver.armijo_stepsize.calls", "count"),
    Metric("solver.armijo_stepsize.s", "s"),
    Metric("solver.trials", "count"),
    Metric("solver.trials_accepted_ratio", "ratio"),
    Metric("solver.trials_overflowed", "count"),
    Metric("solver.iter_s.p50", "s"),
    Metric("solver.iter_s.p90", "s"),
    Metric("solver.iter_s.samples", "count"),
    Metric("solver.factorizations_per_iter", "count/iter"),
    Metric("bench.run_experiment.s.p50", "s"),
    Metric("bench.run_experiment.s.p90", "s"),
    Metric("bench.run_experiment.samples", "count"),
    Metric("bench.run_grid.s", "s"),
    Metric("bench.pool_busy_frac", "ratio"),
    Metric("bench.emit_csv.s", "s"),
    Metric("cli.main.self_s", "s"),
    Metric("trace_overhead_frac", "ratio"),
]

# Timing samples pooled over traced passes: sample key, metric prefix of the
# percentiles, name of the sample count.
POOLED = (
    ("bench.run_experiment.s", "bench.run_experiment.s", "bench.run_experiment.samples"),
    ("solver.iter_s", "solver.iter_s", "solver.iter_s.samples"),
)


def combine(per_pass: list[dict[str, float]], samples: list[dict[str, np.ndarray]]) -> dict[str, float]:
    """Median of each scalar over the traced passes, and percentiles of the
    pooled timing samples."""
    out = {key: statistics.median(p.get(key, 0.0) for p in per_pass) for key in per_pass[0]}
    for key, prefix, count in POOLED:
        pooled = np.concatenate([s[key] for s in samples])
        out[count] = float(len(pooled))
        for q in (50, 90):
            out[f"{prefix}.p{q}"] = float(np.percentile(pooled, q)) if len(pooled) else 0.0
    return out
