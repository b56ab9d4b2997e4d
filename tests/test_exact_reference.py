"""The float runs against the same iterations in exact arithmetic
(``exact_reference``): status, NIT, GE and the backtracks of every iteration,
and on the paper's grid every iterate.
"""

import numpy as np
import pytest

from rdn.bench import ExperimentSpec, run_experiment, table1_grid
from rdn.manifold import random_spd
from rdn.objectives import Family, GradientField
from rdn.solver import Method, SolverConfig, solve

from exact_reference import exact_iterations, exact_run
from test_bench import census_starts


def _float_run(spec, iterates=None):
    """(status, NIT, GE, backtracks) of ``spec``'s float run; each iterate's
    eigenvalues are appended to ``iterates`` if given."""
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    on_iterate = None if iterates is None else lambda k, p: iterates.append(p.spectrum)
    return _counters(solve(GradientField(spec.objective()), p0, spec.config(), on_iterate=on_iterate))


def _counters(run):
    _, trace = run
    return trace.status.value, trace.nit, trace.ge, [r.backtracks for r in trace.records]


@pytest.mark.parametrize("init_range", ((9.0, 10.0), (1.0, 10.0)), ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", (42, 3))
def test_table1_cells_agree_with_exact_arithmetic(seed, init_range):
    # Counters, and every iterate's eigenvalues to a relative 1e-13 (the
    # largest error measured is 3.0e-14), so a drift of the trial formula
    # that moves no counter still shows.
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        iterates = []
        got, want = _float_run(spec, iterates), exact_run(spec)
        cell = f"{spec.family.value} {spec.ratio} n={spec.dim} {spec.method.value}"
        if got != want[:4]:
            failures.append(f"{cell}: {got[:3]} vs {want[:3]}")
            continue
        for k, (x, exact) in enumerate(zip(iterates, want[4])):
            exact = np.array(exact, dtype=float)
            error = float(np.max(np.abs(x - exact) / exact))
            if not error <= 1e-13:
                failures.append(f"{cell}: iterate {k} off by {error:.1e}")
                break
    assert not failures, "; ".join(failures)


def test_full_step_run_through_huge_iterates_agrees_with_exact_arithmetic():
    # The first step lands at lambda = 9.7e153, where the dense route's
    # P^2 overflows in symmetrize; the spectral run converges from there.
    spec = ExperimentSpec(Family.F2, 0.001, 1, Method.FULL, 10998, init_eig_range=(1.0, 10.0))
    want = exact_run(spec)[:4]
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
        if got != exact_iterations(obj, start.spectrum, config)[:4]:
            disagree.append(i)
    assert not disagree, disagree


# Cells whose float run parts from exact arithmetic because an intermediate
# of the spectral route leaves the float range: the Newton coefficient
# lambda - (a/b) lambda^2 overflows near lambda = 1.3e154 (f1); the field
# a lambda - b lambda^2 forms a subnormal lambda^2 near (a/b) I (f2 1e160);
# or it overflows at the first iterate of a full step from a 1,10 start
# (f2 0.001 n = 1, lambda 5.3e191, 2.0e156 and 8.5e200), which ends the
# float run at the field's breakdown.  (cell, float status/NIT/GE, exact
# status/NIT/GE)
_FLOAT_RANGE_GAPS = [
    (ExperimentSpec(Family.F1, 9.61739821402542e307, 2, Method.DAMPED, 352551), ("step_overflow", 354, 708), ("max_iters", 500, 1000)),
    (ExperimentSpec(Family.F1, 1e300, 10, Method.DAMPED, 1), ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    (ExperimentSpec(Family.F1, 1e308, 3, Method.DAMPED, 0), ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    (ExperimentSpec(Family.F2, 1e160, 3, Method.DAMPED, 0), ("max_iters", 500, 1000), ("converged", 375, 750)),
] + [
    (ExperimentSpec(Family.F2, 0.001, 1, Method.FULL, seed, init_eig_range=(1.0, 10.0)), ("step_overflow", 1, 1), in_exact)
    for seed, in_exact in ((48690, ("converged", 440, 440)), (48978, ("converged", 358, 358)), (49266, ("converged", 461, 461)))
]


def _cell_id(value):
    """A gap row's cell as family-ratio-dim-seed, with ``full`` after the
    seed for a full-step cell."""
    if isinstance(value, ExperimentSpec):
        full = ["full"] if value.method is Method.FULL else []
        return "-".join(map(str, [value.family.value, value.ratio, value.dim, value.seed, *full]))
    return None


@pytest.mark.parametrize("spec, in_float, in_exact", _FLOAT_RANGE_GAPS, ids=_cell_id)
def test_float_range_gaps_are_known(spec, in_float, in_exact):
    r = run_experiment(spec)
    assert (r.status, r.nit, r.ge) == in_float
    assert exact_run(spec)[:3] == in_exact


def _wide_start_cells():
    """The 768 cells of the benchmark's wide-start workload at seed 42: 32
    table1 grids to n = 100 from 1,10 starts, grid k seeded 48384 + 36 k
    (48384 = 36 * 32 * 42)."""
    return [
        spec
        for k in range(32)
        for spec in table1_grid(48384 + 36 * k, max_dim=100, init_eig_range=(1.0, 10.0))
    ]


def test_wide_start_cells_agree_with_exact_arithmetic(monkeypatch):
    # Every cell but the float-range gaps among them.  The runs call no
    # factorization, and so no BLAS routine: their counters hold on one
    # thread as on any other count.
    factored = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: factored.append(a.shape) or eigh(a, *args))
    cells = _wide_start_cells()
    disagree = {spec for spec in cells if _float_run(spec) != exact_run(spec)[:4]}
    gaps = {spec for spec, _, _ in _FLOAT_RANGE_GAPS} & set(cells)
    assert (len(cells), len(gaps)) == (768, 3)
    assert disagree == gaps
    assert factored == []
