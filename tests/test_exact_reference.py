"""The float runs against the same iterations in exact arithmetic
(``exact_reference``): status, NIT, GE and the backtracks of every iteration.
"""

import pytest

from rdn.bench import ExperimentSpec, run_experiment, table1_grid
from rdn.manifold import random_spd
from rdn.objectives import Family, GradientField
from rdn.solver import Method, SolverConfig, solve

from exact_reference import exact_iterations, exact_run
from test_bench import census_starts


def _float_run(spec):
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    return _counters(solve(GradientField(spec.objective()), p0, spec.config()))


def _counters(run):
    _, trace = run
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


def test_census_runs_agree_with_exact_arithmetic():
    # The ill-conditioned census (tests/test_bench.py): spreads down to
    # 1e-16 at the start.  The exact loop starts from each start's float
    # spectrum, and all 600 runs agree.
    config = SolverConfig(max_iters=2000)
    disagree = []
    for i, (obj, start, _) in enumerate(census_starts()):
        got = _counters(solve(GradientField(obj), start, config))
        if got != exact_iterations(obj, start.spectrum, config):
            disagree.append(i)
    assert not disagree, disagree


# f2 n = 100 damped cells from 1,10 starts, of the benchmark's wide-start
# workload at seed 42, whose first trial that can be formed has a spread near
# the rounding floor.  (ratio, seed, exact GE)
_NEAR_FLOOR_CELLS = [(0.002, 48483, 21)] + [
    (0.01, seed, 19)
    for seed in (48597, 48633, 48669, 48741, 48777, 48849, 49101, 49173, 49209, 49245, 49317, 49425)
]


def test_cells_near_the_rounding_floor_agree_with_exact_arithmetic():
    failures = []
    for ratio, seed, ge in _NEAR_FLOOR_CELLS:
        spec = ExperimentSpec(Family.F2, ratio, 100, Method.DAMPED, seed, init_eig_range=(1.0, 10.0))
        got, want = _float_run(spec), exact_run(spec)
        if got != want or want[:3] != ("converged", 7, ge):
            failures.append(f"seed {seed}: {got[:3]} vs {want[:3]}")
    assert not failures, failures


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
