"""Seeded experiment harness: single runs, grids, and CSV emission.

One experiment fixes (family, ratio, dim, method, seed): the objective is
built with a = 1 and b = ratio, the start is a random point with spectrum
uniform in ``init_eig_range``, and the run is fully deterministic given the
spec.  ``run_grid`` runs experiments one after another in the calling
thread, in input order.

CSV output is byte-deterministic: floats are written in shortest round-trip
form, lines end in a bare newline and, by default, the wall-clock column is
written as 0.0 so repeated runs of the same grid produce identical files.
Measured times live in ExperimentResult.time_s and can be written with
``wall_times=True`` (at the cost of byte determinism).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field

from .errors import RdnError
from .linalg import quiet
from .manifold import distance, random_spd
from .objectives import Family, GradientField, Objective, minimizer
from .solver import Method, SolveTrace, SolverConfig, solve

__all__ = [
    "RESULT_HEADER",
    "TRACE_HEADER",
    "F1_RATIOS",
    "F2_RATIOS",
    "TABLE1_DIMS",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "run_grid",
    "table1_grid",
    "emit_csv",
    "emit_trace",
]

RESULT_HEADER = "family,ratio,dim,method,seed,sigma,status,nit,he,ge,time_s,final_grad_norm,final_dist"
TRACE_HEADER = "k,grad_norm,merit,alpha,direction_kind,backtracks"

F1_RATIOS = (0.1, 1.0, 1.5)
F2_RATIOS = (0.001, 0.002, 0.01)
TABLE1_DIMS = (1, 100, 1000)


def _physical_memory() -> float:
    """Bytes of physical memory, inf where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return math.inf


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark cell: which objective, at which size, solved how."""

    family: Family
    ratio: float
    dim: int
    method: Method
    seed: int
    sigma: float = SolverConfig.sigma
    grad_tol: float = SolverConfig.grad_tol
    max_iters: int = SolverConfig.max_iters
    init_eig_range: tuple[float, float] = (1.0, 10.0)

    def __post_init__(self):
        if not 0.0 < self.ratio < float("inf"):
            raise ValueError(f"ratio must be finite and positive, got {self.ratio}")
        # numpy's integers are Integral too; a float or a string is neither.
        for name, value in (("dim", self.dim), ("seed", self.seed)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        # A run that stays spectral forms no n x n array, but one that hands
        # over to the dense route draws the start's n x n basis and factors
        # n x n matrices.
        if 8 * int(self.dim) ** 2 > _physical_memory():
            raise ValueError(f"dim {self.dim} needs an n x n float64 matrix larger than physical memory")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        low, high = self.init_eig_range
        if not 0.0 < low <= high < float("inf"):
            raise ValueError(f"init range needs 0 < LOW <= HIGH < inf, got {low},{high}")
        self.config()  # validates sigma, grad_tol and max_iters

    def objective(self) -> Objective:
        return Objective(self.family, a=1.0, b=self.ratio)

    def config(self) -> SolverConfig:
        return SolverConfig(
            sigma=self.sigma,
            grad_tol=self.grad_tol,
            max_iters=self.max_iters,
            method=self.method,
        )


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    status: str
    nit: int
    he: int
    ge: int
    time_s: float
    final_grad_norm: float
    final_dist_to_star: float
    trace: SolveTrace = field(repr=False)


@quiet
def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run one experiment; solver failure statuses are carried through."""
    obj = spec.objective()
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    point, trace = solve(GradientField(obj), p0, spec.config())
    try:
        final_dist = distance(point, minimizer(obj, spec.dim))
    except RdnError:
        final_dist = float("nan")
    return ExperimentResult(
        spec=spec,
        status=trace.status.value,
        nit=trace.nit,
        he=trace.he,
        ge=trace.ge,
        time_s=trace.elapsed,
        final_grad_norm=trace.final_grad_norm,
        final_dist_to_star=final_dist,
        trace=trace,
    )


def run_grid(specs) -> list[ExperimentResult]:
    """Run every spec in the calling thread, in input order."""
    return [run_experiment(s) for s in specs]


def table1_grid(seed: int, *, max_dim: int | None = None, **settings) -> list[ExperimentSpec]:
    """The built-in benchmark grid: both families, three ratios each, dims
    1/100/1000, full and damped methods (36 specs, two per grid cell).

    Row i draws seed ``seed + i``; the index runs over the unfiltered grid so
    a seed stays attached to its (family, ratio, dim, method) cell no matter
    how ``max_dim`` trims the list.  A ``max_dim`` below 1 would trim every
    cell and is rejected.  ``settings`` (sigma, grad_tol, max_iters,
    init_eig_range) go to every ExperimentSpec unchanged.
    """
    if max_dim is not None and max_dim < 1:
        raise ValueError(f"max_dim must be >= 1, got {max_dim}")
    specs: list[ExperimentSpec] = []
    index = 0
    for family, ratios in ((Family.F1, F1_RATIOS), (Family.F2, F2_RATIOS)):
        for ratio in ratios:
            for dim in TABLE1_DIMS:
                for method in (Method.FULL, Method.DAMPED):
                    if max_dim is None or dim <= max_dim:
                        specs.append(ExperimentSpec(family, ratio, dim, method, seed + index, **settings))
                    index += 1
    return specs


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def emit_csv(results, path: str, *, wall_times: bool = False) -> None:
    """Write one result row per experiment under the pinned header."""
    lines = [RESULT_HEADER]
    for r in results:
        s = r.spec
        lines.append(
            ",".join(
                (
                    s.family.value,
                    _fmt(s.ratio),
                    str(s.dim),
                    s.method.value,
                    str(s.seed),
                    _fmt(s.sigma),
                    r.status,
                    str(r.nit),
                    str(r.he),
                    str(r.ge),
                    _fmt(r.time_s) if wall_times else "0.0",
                    _fmt(r.final_grad_norm),
                    _fmt(r.final_dist_to_star),
                )
            )
        )
    _write_lines(path, lines)


def emit_trace(trace: SolveTrace, path: str) -> None:
    """Write the per-iteration trace plus one terminal row.

    The terminal row carries the final gradient norm and merit at k = nit
    with empty step columns, so a zero-iteration run still emits header plus
    one row and gradient-norm-versus-iteration plots include the last point.
    """
    lines = [TRACE_HEADER]
    for rec in trace.records:
        lines.append(
            ",".join(
                (
                    str(rec.k),
                    _fmt(rec.grad_norm),
                    _fmt(rec.merit),
                    _fmt(rec.alpha),
                    rec.direction_kind.value,
                    str(rec.backtracks),
                )
            )
        )
    lines.append(
        ",".join(
            (str(trace.nit), _fmt(trace.final_grad_norm), _fmt(trace.final_merit), "", "", "")
        )
    )
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err
