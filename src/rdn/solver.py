"""Damped and full-step Newton iterations for vector-field singularities.

Given a problem exposing a vector field X on the SPD cone together with its
Newton solve and the merit function phi = ||X||^2 / 2, the damped method
iterates

    step 0:  pick sigma in (0, 1/2) and a feasible start,
    step 1:  search direction v from the Newton system X(P) + DX(P)[v] = 0,
             falling back to -grad phi(P) when that system has no solution,
    step 2:  step size alpha = max{2^-j : phi(exp_P(2^-j v)) <=
             phi(P) + sigma 2^-j <grad phi(P), v>},  trying j = 0..60 in
             turn (the search fails if none passes),
    step 3:  P <- exp_P(alpha v).

For Newton directions <grad phi, v> = -||X||^2 = -2 phi(P), so the step-2
test is evaluated in the equivalent form phi(exp_P(t v)) <= (1 - 2 sigma t)
phi(P) without forming grad phi.  The full-step variant skips step 2
entirely (alpha = 1 always).

Counters follow iteration-count-table semantics: each committed iteration
counts one Hessian evaluation (the Newton solve) and one gradient evaluation,
and every merit evaluation inside the backtracking loop counts one more
gradient evaluation; the final evaluation that certifies the stop criterion
is not counted.  Hence he == nit always and ge == nit for the full method.
For the damped one 2 * nit <= ge <= 2 * nit + total backtracks: a trial
rejected as unrepresentable (its exponential overflows, or it rounds outside
the cone) costs a backtrack but no merit evaluation.  Equality with the upper
bound holds when no trial is rejected that way.

Every point holds its frame, so the solver converts no iterate.  Problems
whose field and Newton direction come back as SpectralTangents (the shipped
GradientField) run the loop in O(n) per trial; others return matrices and
take dense steps, each a point factored when it is made.  Every trial is
one exp_map(p, v, t) call, and a trial that cannot be formed is
backtracked past.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol

import numpy as np

from .errors import (
    INTEGER,
    REAL,
    InvalidPoint,
    SingularOperator,
    SpectrumDomainError,
    StationaryOfMerit,
    StepOverflow,
    require,
)
from .linalg import quiet
from .manifold import SpdPoint, SpectralTangent, exp_map, inner, norm

__all__ = [
    "Method",
    "Status",
    "DirectionKind",
    "Problem",
    "SolverConfig",
    "IterationRecord",
    "SolveTrace",
    "ArmijoResult",
    "direction",
    "armijo_stepsize",
    "solve",
]


class Method(str, Enum):
    DAMPED = "damped"
    FULL = "full"


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_FAILED = "line_search_failed"
    STATIONARY_OF_MERIT = "stationary_of_merit"
    STEP_OVERFLOW = "step_overflow"


class DirectionKind(str, Enum):
    NEWTON = "newton"
    GRADIENT_FALLBACK = "gradient_fallback"


class Problem(Protocol):
    """A differentiable vector field X on the cone, with merit phi = ||X||^2/2.

    These four methods are all ``solve`` calls.  ``newton_solve`` raises
    SingularOperator when the Newton system has no solution, and
    ``fallback_direction`` is then -grad phi(P).  A problem may return
    SpectralTangents in the point's frame at any point.
    """

    def field_value(self, p: SpdPoint) -> np.ndarray | SpectralTangent: ...

    def newton_solve(self, p: SpdPoint) -> np.ndarray | SpectralTangent: ...

    def merit_value(self, p: SpdPoint) -> float: ...

    def fallback_direction(self, p: SpdPoint) -> np.ndarray: ...


@dataclass(frozen=True)
class SolverConfig:
    sigma: float = 1e-4
    grad_tol: float = 1e-8
    max_iters: int = 500
    method: Method = Method.DAMPED

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        require(REAL, sigma=self.sigma, grad_tol=self.grad_tol)
        require(INTEGER, max_iters=self.max_iters)
        if not (0.0 < self.sigma < 0.5):
            raise ValueError(f"sigma must lie strictly inside (0, 1/2), got {self.sigma}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be finite and positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class IterationRecord:
    """State at the k-th iterate and the step taken from it."""

    k: int
    grad_norm: float
    merit: float
    alpha: float
    direction_kind: DirectionKind
    backtracks: int


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration records, terminal status and counters of one run.

    nit == len(records) == he; ge >= nit.  For damped runs the recorded
    merits decrease strictly, and final_merit lies below the last one,
    wherever each recorded 0.5 ||X||^2 agrees with the merit the Armijo test
    accepted.  They need not where the field is formed from subnormal
    products, as for f2 at ratios above about 1e155, whose spectral field
    a lambda - b lambda^2 forms a subnormal lambda^2 near the minimizer:
    ``f2 --ratio 1e160 --dim 3 --method damped --seed 0`` records merits up
    to about 7.5e21 times ``merit_value`` of the same iterate, then reaches
    (a/b) I at k = 376, where ``merit_value`` reads 0 and the recorded
    merit 1.9e-10, and repeats it to max_iters; 138 of its 500 records are
    not below the one before.
    """

    records: tuple[IterationRecord, ...]
    status: Status
    nit: int
    ge: int
    elapsed: float
    final_grad_norm: float
    final_merit: float

    @property
    def he(self) -> int:
        """Hessian evaluations: one Newton solve per committed iteration."""
        return self.nit


def direction(problem: Problem, p: SpdPoint) -> tuple[np.ndarray | SpectralTangent, DirectionKind]:
    """Search direction at ``p``: Newton when the system is solvable, else the
    steepest-descent direction of the merit function.

    A zero fallback direction means ``p`` is a critical point of the merit
    that is not a singularity of the field: StationaryOfMerit is raised.
    """
    try:
        return problem.newton_solve(p), DirectionKind.NEWTON
    except SingularOperator:
        v = problem.fallback_direction(p)
        if not np.any(v):
            raise StationaryOfMerit(
                "merit gradient vanishes at a point that is not a singularity"
            ) from None
        return v, DirectionKind.GRADIENT_FALLBACK


@dataclass(frozen=True)
class ArmijoResult:
    alpha: float
    backtracks: int
    evaluations: int
    accepted: bool
    point: SpdPoint | None
    merit: float


# What makes a trial or an iterate unrepresentable: its exponential
# overflows, it rounds outside the cone, or its field or merit is not finite.
_BREAKDOWN = (InvalidPoint, StepOverflow, SpectrumDomainError)

# Step 2's step sizes 2^-j, j = 0..60, which the line search tries largest first.
_STEPS = tuple(2.0**-j for j in range(61))


def armijo_stepsize(
    problem: Problem,
    p: SpdPoint,
    v: np.ndarray | SpectralTangent,
    sigma: float,
    *,
    direction_kind: DirectionKind = DirectionKind.NEWTON,
    merit: float | None = None,
) -> ArmijoResult:
    """Backtracking step size: largest 2^-j, j = 0..60, with sufficient merit
    decrease.  The full step j = 0 is always tried first.

    ``merit`` is phi(P), computed if omitted.  The slope <grad phi(P), v>
    needs no gradient: for Newton directions it equals -2 phi(P) exactly and
    the test is applied as phi(exp_P(t v)) <= (1 - 2 sigma t) phi(P); for the
    gradient fallback v = -grad phi(P), so it is -<v, v>_P.  Trial points
    whose exponential overflows are rejected without a merit evaluation;
    ``evaluations`` counts the merit evaluations performed.  Each trial is
    one exp_map(p, v, t) call.
    """
    if merit is None:
        merit = problem.merit_value(p)
    newton = direction_kind is DirectionKind.NEWTON
    if not newton:
        slope = -inner(p, v, v)
    evaluations = 0
    for j, t in enumerate(_STEPS):
        try:
            candidate = exp_map(p, v, t)
            trial = problem.merit_value(candidate)
        except _BREAKDOWN:
            continue
        evaluations += 1
        if newton:
            threshold = (1.0 - 2.0 * sigma * t) * merit
        else:
            threshold = merit + sigma * t * slope
        if trial <= threshold:
            # Positional, in field order: alpha, backtracks, evaluations,
            # accepted, point, merit.
            return ArmijoResult(t, j, evaluations, True, candidate, trial)
    return ArmijoResult(0.0, len(_STEPS) - 1, evaluations, False, None, merit)


@quiet
def solve(
    problem: Problem,
    p0: SpdPoint,
    config: SolverConfig = SolverConfig(),
    *,
    on_iterate: Callable[[int, SpdPoint], None] | None = None,
) -> tuple[SpdPoint, SolveTrace]:
    """Run the chosen method from ``p0`` until ||X(P_k)||_{P_k} <= grad_tol.

    Never raises on a feasible start: numerical breakdown of an iterate
    (overflowing exponential, iterate rounding outside the cone) terminates
    with status STEP_OVERFLOW, and the other failure modes map to their own
    statuses.  A field or direction of the wrong shape is the problem's
    fault, not a breakdown: it raises InvalidMatrix or DimMismatch.
    ``on_iterate`` is called as on_iterate(k, P_k) for the start (k = 0)
    and after every committed step, and the last committed iterate is
    returned; each holds its frame.

    ``problem``'s methods and ``on_iterate`` run with numpy's floating-point
    warnings off (``linalg.quiet``), as does the rest of the run.
    """
    start = time.perf_counter()
    p = p0
    records: list[IterationRecord] = []
    ge = 0
    k = 0
    final_grad_norm = math.nan
    final_merit = math.nan
    full = config.method is Method.FULL
    if on_iterate is not None:
        on_iterate(0, p0)
    while True:
        try:
            x = problem.field_value(p)
            grad_norm = norm(p, x)
        except _BREAKDOWN:
            status = Status.STEP_OVERFLOW
            break
        merit = 0.5 * grad_norm * grad_norm
        final_grad_norm = grad_norm
        final_merit = merit
        if grad_norm <= config.grad_tol:
            status = Status.CONVERGED
            break
        if k >= config.max_iters:
            status = Status.MAX_ITERS
            break
        try:
            v, kind = direction(problem, p)
            if full:
                nxt = exp_map(p, v)
                alpha, backtracks, trial_evals = 1.0, 0, 0
            else:
                result = armijo_stepsize(problem, p, v, config.sigma, direction_kind=kind, merit=merit)
                if not result.accepted:
                    status = Status.LINE_SEARCH_FAILED
                    break
                nxt = result.point
                alpha, backtracks, trial_evals = result.alpha, result.backtracks, result.evaluations
        except StationaryOfMerit:
            status = Status.STATIONARY_OF_MERIT
            break
        except _BREAKDOWN:
            status = Status.STEP_OVERFLOW
            break
        ge += 1 + trial_evals
        records.append(IterationRecord(k, grad_norm, merit, alpha, kind, backtracks))
        k += 1
        if on_iterate is not None:
            on_iterate(k, nxt)
        p = nxt
    elapsed = time.perf_counter() - start
    trace = SolveTrace(
        records=tuple(records),
        status=status,
        nit=len(records),
        ge=ge,
        elapsed=elapsed,
        final_grad_norm=final_grad_norm,
        final_merit=final_merit,
    )
    return p, trace
