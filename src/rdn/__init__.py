"""Damped Newton iterations on the symmetric positive definite cone.

The package finds singularities of vector fields on the SPD manifold under
the affine-invariant metric.  A backtracking line search on the merit
function ||X||^2/2 globalizes the Newton iteration; near the solution the
full step is always accepted, so the damped method inherits the classical
superlinear/quadratic tail while converging from far-away starts where the
plain iteration wanders or diverges.

Layout: ``linalg`` (symmetric-matrix primitives), ``manifold`` (metric,
exponential map, distance, random points), ``objectives`` (the two shipped
objective families as vector-field problems), ``solver`` (the damped and
full-step iterations with tracing), ``bench`` and ``cli`` (the seeded
benchmark harness behind the ``rdn-bench`` command).

The shipped fields are spectral functions of P, so ``GradientField`` runs the
solver on each point's frame and on SpectralTangents (``manifold``): O(n) per
step, handing single iterations over to the dense route where that route's
outcome depends on rounding (spreads lambda_min / lambda_max near the
rounding floor).  The start's basis is drawn only if a matrix is read.
"""

from .errors import (
    DimMismatch,
    InvalidMatrix,
    InvalidPoint,
    InvalidRange,
    RdnError,
    SingularOperator,
    SpectrumDomainError,
    StationaryOfMerit,
    StepOverflow,
)
from .linalg import EigenPair, lyapunov_solve, mat_func, sym_eigen, symmetrize
from .manifold import Line, SpdPoint, SpectralTangent, distance, exp_map, inner, norm, random_spd
from .objectives import (
    Family,
    GradientField,
    Objective,
    euclidean_grad,
    euclidean_hess_apply,
    hess_apply,
    merit_gradient,
    merit_value,
    minimizer,
    newton_solve,
    riemannian_grad,
    value,
)
from .solver import (
    ArmijoResult,
    DirectionKind,
    IterationRecord,
    Method,
    Problem,
    SolverConfig,
    SolveTrace,
    Status,
    armijo_stepsize,
    direction,
    solve,
)
from .bench import (
    ExperimentResult,
    ExperimentSpec,
    emit_csv,
    emit_trace,
    run_experiment,
    run_grid,
    table1_grid,
)

__version__ = "0.1.0"
