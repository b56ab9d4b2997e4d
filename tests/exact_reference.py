"""The shipped problems' Newton iterations in exact arithmetic: a reference
for the counters that depends on neither float route.

For both shipped families the field, the Newton direction, the merit and
the exponential map are functions of the eigenvalues alone, so the paper's
method can be run on the start's eigenvalues with no matrix at all:

    whitened Newton coefficient  w = 1 - (a/b) lambda (f1),  (a/b) / lambda - 1 (f2),
    trial at step t              lambda e^{t w},
    merit                        phi = sum r^2 / 2,  r = a - b / lambda (f1),  a - b lambda (f2).

``exact_iterations`` does so in ``decimal`` at 40 digits, from given float
start eigenvalues and the float coefficients, sigma and tolerance taken
exactly; ``exact_run`` starts it from a benchmark cell's seeded start.
"""

from decimal import Context, Decimal, DivisionByZero, InvalidOperation, MAX_EMAX, MIN_EMIN, localcontext

from rdn.bench import ExperimentSpec
from rdn.manifold import random_spd
from rdn.objectives import Family, Objective
from rdn.solver import Method, SolverConfig

_CONTEXT = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[InvalidOperation, DivisionByZero])
_DBL_MAX = Decimal(1.7976931348623157e308)
_ROUNDS_TO_ZERO = Decimal("2.5e-324")
_ROUNDING_FLOOR = Decimal("1e-17")


def _representable(values):
    """Whether the float route can form the trial: every eigenvalue at most
    DBL_MAX and at least 2.5e-324 (below it a double rounds to zero), and a
    spread lambda_min / lambda_max of at least the rounding floor 1e-17."""
    low, high = min(values), max(values)
    return high <= _DBL_MAX and low >= _ROUNDS_TO_ZERO and low / high >= _ROUNDING_FLOOR


def exact_run(spec: ExperimentSpec) -> tuple[str, int, int, list[int]]:
    """(status, NIT, GE, backtracks per iteration) of ``spec``'s run in exact
    arithmetic, from the eigenvalues of its seeded float start."""
    start = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed).spectrum
    return exact_iterations(spec.objective(), start, spec.config())


def exact_iterations(obj: Objective, start, config: SolverConfig) -> tuple[str, int, int, list[int]]:
    """(status, NIT, GE, backtracks per iteration) of the run of ``obj`` from
    the float eigenvalues ``start`` under ``config``, in exact arithmetic.

    The counters follow ``rdn.solver``: each committed iteration counts one
    gradient evaluation and each merit evaluation of a damped line search one
    more.  A trial the float route cannot represent (``_representable``: an
    eigenvalue above DBL_MAX or below 2.5e-324, or a spread below 1e-17)
    costs a backtrack and no evaluation; a full step that cannot be
    represented ends the run as ``step_overflow``.
    """
    with localcontext(_CONTEXT):
        a, b = Decimal(obj.a), Decimal(obj.b)
        sigma, tol2 = Decimal(config.sigma), Decimal(config.grad_tol) ** 2
        f1 = obj.family is Family.F1
        lam = [Decimal(float(x)) for x in start]
        merit = lambda values: sum((a - b / x if f1 else a - b * x) ** 2 for x in values) / 2
        full = config.method is Method.FULL
        ge, backtracks = 0, []
        while True:
            phi = merit(lam)
            if 2 * phi <= tol2:
                return "converged", len(backtracks), ge, backtracks
            if len(backtracks) >= config.max_iters:
                return "max_iters", len(backtracks), ge, backtracks
            w = [1 - a / b * x if f1 else a / b / x - 1 for x in lam]
            evaluations = 0
            for j in range(1 if full else 61):
                t = Decimal(2) ** -j
                trial = [x * (t * c).exp() for x, c in zip(lam, w)]
                if not _representable(trial):
                    continue
                if full:
                    break
                evaluations += 1
                if merit(trial) <= (1 - 2 * sigma * t) * phi:
                    break
            else:
                return "step_overflow" if full else "line_search_failed", len(backtracks), ge, backtracks
            ge += 1 + evaluations
            backtracks.append(j)
            lam = trial
