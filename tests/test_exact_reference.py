"""The float runs against the same iterations in exact arithmetic
(``exact_reference``): status, NIT, GE and the backtracks of every iteration,
and on the paper's grid every iterate.
"""

import functools
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from rdn.bench import ExperimentSpec, table1_grid
from rdn.manifold import SpdPoint, random_spd
from rdn.objectives import Family, GradientField, Objective
from rdn.solver import Method, SolverConfig, solve

from exact_reference import exact_iterations, exact_run
from test_bench import NEAR_THE_FLOAT_RANGE_END, CENSUS_CONFIG, census_runs


class _Start(NamedTuple):
    """A cell given by its start point, run under the default config."""

    objective: Objective
    start: SpdPoint


def _float_run(cell, iterates=None):
    """(status, NIT, GE, backtracks) of the float run of ``cell``, an
    ``ExperimentSpec`` or a ``_Start``; each iterate's eigenvalues are
    appended to ``iterates`` if given."""
    if isinstance(cell, _Start):
        obj, start, config = cell.objective, cell.start, SolverConfig()
    else:
        obj, start, config = cell.objective(), random_spd(cell.dim, *cell.init_eig_range, seed=cell.seed), cell.config()
    on_iterate = None if iterates is None else lambda k, p: iterates.append(p.spectrum)
    return _counters(solve(GradientField(obj), start, config, on_iterate=on_iterate)[1])


@functools.cache
def _exact_counters(cell):
    """(status, NIT, GE, backtracks) of ``cell`` in exact arithmetic, made
    once for every test that judges the cell."""
    if isinstance(cell, _Start):
        return exact_iterations(cell.objective, cell.start.spectrum, SolverConfig())[:4]
    return exact_run(cell)[:4]


def _counters(trace):
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
    # 1e-16.  The exact loop starts from each start's float spectrum: all 600
    # runs converge in it, and every float run agrees.
    disagree, exact_statuses = [], set()
    for i, (obj, start, trace) in enumerate(census_runs()):
        want = exact_iterations(obj, start.spectrum, CENSUS_CONFIG)[:4]
        exact_statuses.add(want[0])
        if _counters(trace) != want:
            disagree.append(i)
    assert not disagree, disagree
    assert exact_statuses == {"converged"}


# Cells whose float run parts from exact arithmetic because an intermediate
# of the spectral route leaves the float range: (cell, float status/NIT/GE,
# exact status/NIT/GE).  This is the one place tier-1 states what a float
# run reads on these cells; the other tests that run them check only the
# property they are named for.
_FLOAT_RANGE_GAPS = [
    # The f1 Newton coefficient lambda - (a/b) lambda^2 overflows near
    # lambda = 1.3e154.
    (ExperimentSpec(Family.F1, 9.61739821402542e307, 2, Method.DAMPED, 352551), ("step_overflow", 354, 708), ("max_iters", 500, 1000)),
    (ExperimentSpec(Family.F1, 1e300, 10, Method.DAMPED, 1), ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    (ExperimentSpec(Family.F1, 1e308, 3, Method.DAMPED, 0), ("step_overflow", 353, 706), ("max_iters", 500, 1000)),
    # The f2 field a lambda - b lambda^2 forms a subnormal lambda^2 near
    # (a/b) I, so the run repeats an iterate there.
    (ExperimentSpec(Family.F2, 1e160, 3, Method.DAMPED, 0), ("max_iters", 500, 1000), ("converged", 375, 750)),
] + [
    # The field overflows at the first iterate of a full step from a 1,10
    # start (lambda 5.3e191, 2.0e156 and 8.5e200), which ends the float run
    # at the field's breakdown.
    (ExperimentSpec(Family.F2, 0.001, 1, Method.FULL, seed, init_eig_range=(1.0, 10.0)), ("step_overflow", 1, 1), in_exact)
    for seed, in_exact in ((48690, ("converged", 440, 440)), (48978, ("converged", 358, 358)), (49266, ("converged", 461, 461)))
] + [
    # The f2 field's subnormal lambda^2 again, near lambda = 1e-163: ||X||
    # reads sqrt 3 while every trial's merit reads about 1e75, and the line
    # search fails.
    (ExperimentSpec(Family.F2, 1e200, 3, Method.DAMPED, 0), ("line_search_failed", 375, 750), ("converged", 467, 934)),
    # The Newton coefficient is not finite at the start, so the damped run
    # ends step_overflow at NIT 0 where exact arithmetic finds no
    # representable trial on the ladder: a/b is inf in floats (1e320, and
    # 1.8e308 above the float maximum), or lambda - lambda^2 overflows at an
    # eigenvalue of 1e308.
    (ExperimentSpec(Family.F1, 1e-320, 3, Method.DAMPED, 0), ("step_overflow", 0, 0), ("line_search_failed", 0, 0)),
    (ExperimentSpec(Family.F2, 5.5e-309, 2, Method.DAMPED, 0), ("step_overflow", 0, 0), ("line_search_failed", 0, 0)),
    (_Start(Objective(Family.F1, 1.0, 1.0), SpdPoint(np.diag([1e308, 1.0]))), ("step_overflow", 0, 0), ("line_search_failed", 0, 0)),
]


def _cell_id(value):
    """A gap row's cell as family-ratio-dim-seed, with ``full`` after the
    seed for a full-step cell, or as family-start-largest eigenvalue."""
    if isinstance(value, ExperimentSpec):
        full = ["full"] if value.method is Method.FULL else []
        return "-".join(map(str, [value.family.value, value.ratio, value.dim, value.seed, *full]))
    if isinstance(value, _Start):
        return f"{value.objective.family.value}-start-{value.start.spectrum.max()}"
    return None


@pytest.mark.parametrize("cell, in_float, in_exact", _FLOAT_RANGE_GAPS, ids=_cell_id)
def test_float_range_gaps_are_known(cell, in_float, in_exact):
    assert _float_run(cell)[:3] == in_float
    assert _exact_counters(cell)[:3] == in_exact


_GAP_CELLS = {cell for cell, _, _ in _FLOAT_RANGE_GAPS}


def test_cells_near_the_float_range_end_agree_with_exact_arithmetic():
    # The cells tests/test_bench.py runs for their warnings: each reads
    # what exact arithmetic reads, unless it is a gap row.
    cells = set(NEAR_THE_FLOAT_RANGE_END)
    disagree = {cell for cell in cells if _float_run(cell) != _exact_counters(cell)}
    assert disagree == cells & _GAP_CELLS


# perfbench/reference.json holds the benchmark's seed-42 cells as family,
# ratio, dim, method, seed, status, NIT, HE, GE.  Each workload starts its
# cells from one range, which its plan in perfbench/workloads.py sets.
_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
_WORKLOAD_RANGES = {"table1-n100": (9.0, 10.0), "damped-n1000": (9.0, 10.0), "wide-start-threaded": (1.0, 10.0)}


def _reference_cells(workload):
    """{cell: (status, NIT, HE, GE)} of ``workload`` in reference.json."""
    rows = json.loads(_REFERENCE.read_text())[workload]
    return {ExperimentSpec(*row[:5], init_eig_range=_WORKLOAD_RANGES[workload]): tuple(row[5:]) for row in rows}


def test_wide_start_cells_agree_with_exact_arithmetic(monkeypatch):
    # The 768 cells of the benchmark's wide-start workload at seed 42, the
    # ones reference.json records: 32 table1 grids to n = 100 from 1,10
    # starts, grid k seeded 48384 + 36 k (48384 = 36 * 32 * 42).  Every one
    # agrees but the float-range gaps among them.  The runs call no
    # factorization, and so no BLAS routine: their counters hold on one
    # thread as on any other count.
    factored = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: factored.append(a.shape) or eigh(a, *args))
    cells = {
        spec
        for k in range(32)
        for spec in table1_grid(48384 + 36 * k, max_dim=100, init_eig_range=(1.0, 10.0))
    }
    assert cells == set(_reference_cells("wide-start-threaded"))
    disagree = {spec for spec in cells if _float_run(spec) != _exact_counters(spec)}
    gaps = _GAP_CELLS & cells
    assert (len(cells), len(gaps)) == (768, 3)
    assert disagree == gaps
    assert factored == []


# Wide-start cells that reference.json records one GE below exact
# arithmetic: counters from before the dense route was removed, still to be
# re-recorded.
_STALE_REFERENCE_CELLS = {
    ExperimentSpec(Family.F2, ratio, 100, Method.DAMPED, seed, init_eig_range=(1.0, 10.0))
    for ratio, seeds in (
        (0.002, [48483]),
        (0.01, [48597, 48633, 48669, 48741, 48777, 48849, 49101, 49173, 49209, 49245, 49317, 49425]),
    )
    for seed in seeds
}


@pytest.mark.parametrize("workload", list(_WORKLOAD_RANGES))
def test_reference_cells_agree_with_exact_arithmetic(workload):
    # Every cell the benchmark checks its runs against, but the float-range
    # gaps and the stale cells above.  HE is NIT: one Newton solve per
    # iteration.
    recorded = _reference_cells(workload)
    exact = {spec: _exact_counters(spec)[:3] for spec in recorded}
    differ = {spec for spec, (status, nit, ge) in exact.items() if recorded[spec] != (status, nit, nit, ge)}
    assert differ == (_GAP_CELLS | _STALE_REFERENCE_CELLS) & set(recorded)
