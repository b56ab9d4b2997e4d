"""The float runs against the same iterations in exact arithmetic
(``exact_reference``): status, NIT, GE and the backtracks of every iteration.
"""

import pytest

from rdn.bench import ExperimentSpec, run_experiment, table1_grid
from rdn.manifold import random_spd
from rdn.objectives import Family, GradientField
from rdn.solver import Method, solve

from exact_reference import exact_run


def _float_run(spec):
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    _, trace = solve(GradientField(spec.objective()), p0, spec.config())
    return trace.status.value, trace.nit, trace.ge, [r.backtracks for r in trace.records]


@pytest.mark.parametrize("init_range", ((9.0, 10.0), (1.0, 10.0)), ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", (42, 3))
def test_table1_cells_agree_with_exact_arithmetic(seed, init_range):
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        got, want = _float_run(spec), exact_run(spec)
        if got != want:
            failures.append(f"{spec.family.value} {spec.ratio} n={spec.dim} {spec.method.value}: {got[:3]} vs {want[:3]}")
    assert not failures, "; ".join(failures)


def test_full_step_run_through_huge_iterates_agrees_with_exact_arithmetic():
    # The first step lands at lambda = 9.7e153, where the dense route's
    # P^2 overflows in symmetrize; the spectral run converges from there.
    spec = ExperimentSpec(Family.F2, 0.001, 1, Method.FULL, 10998, init_eig_range=(1.0, 10.0))
    want = exact_run(spec)
    assert want[:3] == ("converged", 353, 353)
    assert _float_run(spec) == want


# Cells whose float run parts from exact arithmetic because an intermediate
# of the spectral route leaves the float range: the Newton coefficient
# lambda - (a/b) lambda^2 overflows near lambda = 1.3e154 (f1), or the field
# a lambda - b lambda^2 forms a subnormal lambda^2 near (a/b) I (f2).
# (family, ratio, dim, seed, float status/NIT/GE, exact status/NIT/GE)
_FLOAT_RANGE_GAPS = [
    (Family.F1, 9.61739821402542e307, 2, 352551, ("step_overflow", 354, 708), ("max_iters", 500, 1000)),
    (Family.F1, 1e300, 10, 1, ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    (Family.F1, 1e308, 3, 0, ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    (Family.F2, 1e160, 3, 0, ("max_iters", 500, 1000), ("converged", 375, 750)),
]


@pytest.mark.parametrize("family, ratio, dim, seed, in_float, in_exact", _FLOAT_RANGE_GAPS)
def test_float_range_gaps_are_known(family, ratio, dim, seed, in_float, in_exact):
    spec = ExperimentSpec(family, ratio, dim, Method.DAMPED, seed)
    r = run_experiment(spec)
    assert (r.status, r.nit, r.ge) == in_float
    assert exact_run(spec)[:3] == in_exact
