"""Damped and full-step Newton iterations for vector-field singularities.

Given a problem exposing a vector field X on the SPD cone together with its
Newton solve and the merit function phi = ||X||^2 / 2, the damped method
iterates

    step 0:  pick sigma in (0, 1/2) and a feasible start,
    step 1:  search direction v from the Newton system X(P) + DX(P)[v] = 0,
             falling back to -grad phi(P) when that system has no solution,
    step 2:  step size alpha = max{2^-j : phi(exp_P(2^-j v)) <=
             phi(P) + sigma 2^-j <grad phi(P), v>},  trying j = 0 first,
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

The solver starts from the spectral form of P_0.  Problems whose field and
Newton direction come back as SpectralTangents there (the shipped
GradientField) run the same loop in O(n) per trial; others return matrices
and continue on the dense route.  An iteration whose iterate, direction or
possible trial points leave the range where the spectral route reproduces
the dense one (manifold.needs_dense: spreads near the rounding floor,
magnitudes near overflow) runs on the dense route instead, from the
materialized iterate, so statuses and counters match it.  The trial that
check forms for the first finite step is the one the full step or the line
search then takes, not formed a second time; every trial is still one
exp_map call.  Once a dense iteration commits its step, the run returns to
the spectral route on the new iterate's eigendecomposition; the iterates
after a hand-over agree with a purely dense run only to rounding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol

import numpy as np

from .errors import (
    InvalidMatrix,
    InvalidPoint,
    SingularOperator,
    SpectrumDomainError,
    StationaryOfMerit,
    StepOverflow,
)
from .linalg import quiet
from .manifold import DenseTangent, SpdPoint, SpectralTangent, exp_map, inner, needs_dense, norm

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
    ``fallback_direction`` is then -grad phi(P).  At spectral points
    (``p.spectral``) a problem may return SpectralTangents.
    """

    def field_value(self, p: SpdPoint) -> np.ndarray: ...

    def newton_solve(self, p: SpdPoint) -> np.ndarray: ...

    def merit_value(self, p: SpdPoint) -> float: ...

    def fallback_direction(self, p: SpdPoint) -> np.ndarray: ...


@dataclass(frozen=True)
class SolverConfig:
    sigma: float = 1e-4
    grad_tol: float = 1e-8
    max_iters: int = 500
    max_backtracks: int = 60
    method: Method = Method.DAMPED

    def __post_init__(self):
        if not (0.0 < self.sigma < 0.5):
            raise ValueError(f"sigma must lie strictly inside (0, 1/2), got {self.sigma}")
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.max_backtracks < 0:
            raise ValueError(f"max_backtracks must be >= 0, got {self.max_backtracks}")


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
    accepted.  They need not where the dense route forms the field from
    subnormal products, as for f2 at ratios above about 1e155 (ROADMAP
    item 4): ``f2 --ratio 1e160 --dim 3 --method damped --seed 0`` records
    139 of its 500 merits at or above the one before.
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


def direction(problem: Problem, p: SpdPoint) -> tuple[np.ndarray, DirectionKind]:
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


def armijo_stepsize(
    problem: Problem,
    p: SpdPoint,
    v: np.ndarray,
    sigma: float,
    max_backtracks: int = 60,
    *,
    direction_kind: DirectionKind = DirectionKind.NEWTON,
    merit: float | None = None,
) -> ArmijoResult:
    """Backtracking step size: largest 2^-j, j = 0..max_backtracks, with
    sufficient merit decrease.  The full step j = 0 is always tried first.

    ``merit`` is phi(P), computed if omitted.  The slope <grad phi(P), v>
    needs no gradient: for Newton directions it equals -2 phi(P) exactly and
    the test is applied as phi(exp_P(t v)) <= (1 - 2 sigma t) phi(P); for the
    gradient fallback v = -grad phi(P), so it is -<v, v>_P.  Trial points
    whose exponential overflows are rejected without a merit evaluation;
    ``evaluations`` counts the merit evaluations performed.  A matrix
    direction is wrapped in a DenseTangent, so that its trials share one
    factorization of the whitened direction.
    """
    if merit is None:
        merit = problem.merit_value(p)
    if direction_kind is not DirectionKind.NEWTON:
        slope = -inner(p, v, v)
    step = v if isinstance(v, SpectralTangent) else DenseTangent(v)
    evaluations = 0
    for j in range(max_backtracks + 1):
        t = 2.0**-j
        try:
            candidate = exp_map(p, t * step)
            trial = problem.merit_value(candidate)
        except (StepOverflow, InvalidPoint, SpectrumDomainError):
            continue
        evaluations += 1
        if direction_kind is DirectionKind.NEWTON:
            threshold = (1.0 - 2.0 * sigma * t) * merit
        else:
            threshold = merit + sigma * t * slope
        if trial <= threshold:
            return ArmijoResult(
                alpha=t,
                backtracks=j,
                evaluations=evaluations,
                accepted=True,
                point=candidate,
                merit=trial,
            )
    return ArmijoResult(
        alpha=0.0,
        backtracks=max_backtracks,
        evaluations=evaluations,
        accepted=False,
        point=None,
        merit=merit,
    )


def _spectral_form(p: SpdPoint) -> SpdPoint:
    """``p`` in spectral form, or ``p`` itself if its spectrum is not
    positive; the dense route then reports the breakdown as a status."""
    try:
        return p.to_spectral()
    except InvalidPoint:
        return p


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
    statuses.  ``on_iterate`` is called as on_iterate(k, P_k) for the start
    (k = 0) and after every committed step.

    ``problem``'s methods and ``on_iterate`` run with numpy's floating-point
    warnings off (``linalg.quiet``), as does the rest of the run.
    """
    start = time.perf_counter()
    p = _spectral_form(p0)
    handed_over = False
    records: list[IterationRecord] = []
    ge = 0
    k = 0
    final_grad_norm = math.nan
    final_merit = math.nan
    # Step sizes a line search may try, largest first; the hand-over check
    # reads the first whose trial is finite.
    if config.method is Method.DAMPED:
        trial_steps = np.ldexp(1.0, -np.arange(config.max_backtracks + 1))
    else:
        trial_steps = np.ones(1)
    if on_iterate is not None:
        on_iterate(0, p0)
    while True:
        try:
            x = problem.field_value(p)
            grad_norm = norm(p, x)
        except (InvalidPoint, StepOverflow, SpectrumDomainError, InvalidMatrix):
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
            if needs_dense(p, v, trial_steps):
                p = p.to_dense()
                handed_over = True
                continue
            if config.method is Method.FULL:
                nxt = exp_map(p, v)
                alpha, backtracks, trial_evals = 1.0, 0, 0
            else:
                result = armijo_stepsize(
                    problem,
                    p,
                    v,
                    config.sigma,
                    config.max_backtracks,
                    direction_kind=kind,
                    merit=merit,
                )
                if not result.accepted:
                    status = Status.LINE_SEARCH_FAILED
                    break
                nxt = result.point
                alpha, backtracks, trial_evals = result.alpha, result.backtracks, result.evaluations
        except StationaryOfMerit:
            status = Status.STATIONARY_OF_MERIT
            break
        except (StepOverflow, InvalidPoint, SpectrumDomainError, InvalidMatrix):
            status = Status.STEP_OVERFLOW
            break
        ge += 1 + trial_evals
        records.append(
            IterationRecord(
                k=k,
                grad_norm=grad_norm,
                merit=merit,
                alpha=alpha,
                direction_kind=kind,
                backtracks=backtracks,
            )
        )
        k += 1
        p = nxt
        if on_iterate is not None:
            on_iterate(k, p)
        if handed_over:
            # Free: the accepted trial's eigendecomposition is cached by its
            # merit, and a full step's would be computed by the next norm.
            p = _spectral_form(p)
            handed_over = False
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
