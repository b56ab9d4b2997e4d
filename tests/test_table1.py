"""The paper's table at seed 42: counters pinned, claims checked per cell,
and the counters' invariance under scaling and rotation of the start.

The pins are independent of ``solve``'s spectral start: a fault in the
start's factorization would move them, where it would move both sides of
the cross-route comparison in ``test_backends.py``.
"""

import dataclasses

import numpy as np
import pytest

from rdn.bench import run_experiment, table1_grid
from rdn.manifold import SpdPoint, random_spd
from rdn.objectives import Family, GradientField
from rdn.solver import solve

# family, ratio, dim, method, start range, status, NIT, HE, GE: every cell of
# the table at both start ranges.
PINNED = [
    ["f1", 0.1, 1, "full", "9,10", "converged", 97, 97, 97],
    ["f1", 0.1, 1, "damped", "9,10", "converged", 6, 6, 18],
    ["f1", 0.1, 100, "full", "9,10", "converged", 100, 100, 100],
    ["f1", 0.1, 100, "damped", "9,10", "converged", 6, 6, 18],
    ["f1", 0.1, 1000, "full", "9,10", "converged", 100, 100, 100],
    ["f1", 0.1, 1000, "damped", "9,10", "converged", 6, 6, 18],
    ["f1", 1.0, 1, "full", "9,10", "converged", 11, 11, 11],
    ["f1", 1.0, 1, "damped", "9,10", "converged", 4, 4, 10],
    ["f1", 1.0, 100, "full", "9,10", "converged", 12, 12, 12],
    ["f1", 1.0, 100, "damped", "9,10", "converged", 5, 5, 12],
    ["f1", 1.0, 1000, "full", "9,10", "converged", 12, 12, 12],
    ["f1", 1.0, 1000, "damped", "9,10", "converged", 5, 5, 12],
    ["f1", 1.5, 1, "full", "9,10", "converged", 9, 9, 9],
    ["f1", 1.5, 1, "damped", "9,10", "converged", 5, 5, 12],
    ["f1", 1.5, 100, "full", "9,10", "converged", 9, 9, 9],
    ["f1", 1.5, 100, "damped", "9,10", "converged", 6, 6, 14],
    ["f1", 1.5, 1000, "full", "9,10", "converged", 9, 9, 9],
    ["f1", 1.5, 1000, "damped", "9,10", "converged", 6, 6, 14],
    ["f2", 0.001, 1, "full", "9,10", "converged", 107, 107, 107],
    ["f2", 0.001, 1, "damped", "9,10", "converged", 5, 5, 16],
    ["f2", 0.001, 100, "full", "9,10", "converged", 110, 110, 110],
    ["f2", 0.001, 100, "damped", "9,10", "converged", 6, 6, 18],
    ["f2", 0.001, 1000, "full", "9,10", "converged", 111, 111, 111],
    ["f2", 0.001, 1000, "damped", "9,10", "converged", 6, 6, 18],
    ["f2", 0.002, 1, "full", "9,10", "converged", 51, 51, 51],
    ["f2", 0.002, 1, "damped", "9,10", "converged", 6, 6, 16],
    ["f2", 0.002, 100, "full", "9,10", "converged", 56, 56, 56],
    ["f2", 0.002, 100, "damped", "9,10", "converged", 6, 6, 16],
    ["f2", 0.002, 1000, "full", "9,10", "converged", 56, 56, 56],
    ["f2", 0.002, 1000, "damped", "9,10", "converged", 6, 6, 16],
    ["f2", 0.01, 1, "full", "9,10", "converged", 12, 12, 12],
    ["f2", 0.01, 1, "damped", "9,10", "converged", 4, 4, 10],
    ["f2", 0.01, 100, "full", "9,10", "converged", 13, 13, 13],
    ["f2", 0.01, 100, "damped", "9,10", "converged", 4, 4, 10],
    ["f2", 0.01, 1000, "full", "9,10", "converged", 13, 13, 13],
    ["f2", 0.01, 1000, "damped", "9,10", "converged", 4, 4, 10],
    ["f1", 0.1, 1, "full", "1,10", "converged", 79, 79, 79],
    ["f1", 0.1, 1, "damped", "1,10", "converged", 3, 3, 10],
    ["f1", 0.1, 100, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f1", 0.1, 100, "damped", "1,10", "converged", 7, 7, 19],
    ["f1", 0.1, 1000, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f1", 0.1, 1000, "damped", "1,10", "converged", 7, 7, 19],
    ["f1", 1.0, 1, "full", "1,10", "converged", 7, 7, 7],
    ["f1", 1.0, 1, "damped", "1,10", "converged", 4, 4, 9],
    ["f1", 1.0, 100, "full", "1,10", "converged", 12, 12, 12],
    ["f1", 1.0, 100, "damped", "1,10", "converged", 6, 6, 14],
    ["f1", 1.0, 1000, "full", "1,10", "converged", 12, 12, 12],
    ["f1", 1.0, 1000, "damped", "1,10", "converged", 6, 6, 14],
    ["f1", 1.5, 1, "full", "1,10", "converged", 5, 5, 5],
    ["f1", 1.5, 1, "damped", "1,10", "converged", 5, 5, 11],
    ["f1", 1.5, 100, "full", "1,10", "converged", 9, 9, 9],
    ["f1", 1.5, 100, "damped", "1,10", "converged", 6, 6, 13],
    ["f1", 1.5, 1000, "full", "1,10", "converged", 9, 9, 9],
    ["f1", 1.5, 1000, "damped", "1,10", "converged", 6, 6, 13],
    ["f2", 0.001, 1, "full", "1,10", "converged", 254, 254, 254],
    ["f2", 0.001, 1, "damped", "1,10", "converged", 6, 6, 20],
    ["f2", 0.001, 100, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.001, 100, "damped", "1,10", "converged", 8, 8, 22],
    ["f2", 0.001, 1000, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.001, 1000, "damped", "1,10", "converged", 8, 8, 22],
    ["f2", 0.002, 1, "full", "1,10", "converged", 54, 54, 54],
    ["f2", 0.002, 1, "damped", "1,10", "converged", 5, 5, 16],
    ["f2", 0.002, 100, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.002, 100, "damped", "1,10", "converged", 8, 8, 22],
    ["f2", 0.002, 1000, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.002, 1000, "damped", "1,10", "converged", 8, 8, 22],
    ["f2", 0.01, 1, "full", "1,10", "converged", 13, 13, 13],
    ["f2", 0.01, 1, "damped", "1,10", "converged", 6, 6, 15],
    ["f2", 0.01, 100, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.01, 100, "damped", "1,10", "converged", 7, 7, 18],
    ["f2", 0.01, 1000, "full", "1,10", "step_overflow", 0, 0, 0],
    ["f2", 0.01, 1000, "damped", "1,10", "converged", 7, 7, 18],
]


@pytest.fixture(scope="module")
def table():
    rows = []
    for init_range in ((9.0, 10.0), (1.0, 10.0)):
        for spec in table1_grid(42, init_eig_range=init_range):
            r = run_experiment(spec)
            head = [spec.family.value, spec.ratio, spec.dim, spec.method.value, "%g,%g" % init_range]
            rows.append(head + [r.status, r.nit, r.he, r.ge, [x.alpha for x in r.trace.records]])
    return rows


def _cells(table):
    """{(family, ratio, dim, start range): {method: row}}"""
    cells = {}
    for row in table:
        family, ratio, dim, method, init_range = row[:5]
        cells.setdefault((family, ratio, dim, init_range), {})[method] = row
    return cells


def test_the_table_keeps_its_counters_on_one_thread(table):
    assert [row[:9] for row in table] == PINNED


def test_every_damped_run_converges(table):
    assert all(row[5] == "converged" for row in table if row[3] == "damped")


def test_damping_takes_no_more_iterations_than_full_steps(table):
    for cell, runs in _cells(table).items():
        if runs["full"][5] == "converged":
            assert runs["damped"][6] <= runs["full"][6], cell


def test_overshooting_full_steps_overflow_from_the_wide_start(table):
    overflowing = {
        (family, ratio, dim, "1,10")
        for family, ratio in (("f1", 0.1), ("f2", 0.001), ("f2", 0.002), ("f2", 0.01))
        for dim in (100, 1000)
    }
    for cell, runs in _cells(table).items():
        if cell in overflowing:
            assert runs["full"][5] == "step_overflow", cell
            assert runs["damped"][5] == "converged", cell


def test_damped_runs_keep_unit_steps_once_they_take_one(table):
    for row in table:
        if row[3] == "damped":
            alphas = row[9]
            assert 1.0 in alphas, row[:5]
            assert all(a == 1.0 for a in alphas[alphas.index(1.0):]), row[:5]


@pytest.mark.parametrize("init_range", ((9.0, 10.0), (1.0, 10.0)), ids=("9,10", "1,10"))
@pytest.mark.parametrize("seed", (42, 3))
def test_scaling_the_start_keeps_the_counters(seed, init_range):
    # P0 -> c P0 moves the minimizer (b/a) I of f1 and (a/b) I of f2 along
    # with it when the f1 ratio is multiplied by c and the f2 ratio divided
    # by it.  Powers of four scale square roots exactly too.
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        want = run_experiment(spec)
        values, basis = random_spd(spec.dim, *init_range, seed=spec.seed).frame
        for m in (-40, -7, 5, 30):
            c = 4.0**m
            scaled = dataclasses.replace(spec, ratio=spec.ratio * c if spec.family is Family.F1 else spec.ratio / c)
            _, got = solve(GradientField(scaled.objective()), SpdPoint.from_frame(c * values, basis), scaled.config())
            if (got.status.value, got.nit, got.ge) != (want.status, want.nit, want.ge):
                failures.append(f"{spec} at c = 4^{m}: {got.status.value} {got.nit} {got.ge}")
    assert not failures, "; ".join(failures[:4])


@pytest.mark.parametrize("init_range", ((9.0, 10.0), (1.0, 10.0)), ids=("9,10", "1,10"))
@pytest.mark.parametrize("seed", (42, 3))
def test_rotating_the_start_keeps_the_counters(seed, init_range):
    # Both fields are spectral functions of P, so P0 -> U P0 U^T with U
    # orthogonal conjugates every iterate alike, and the spectral route
    # never reads the basis.
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        want = run_experiment(spec)
        values, basis = random_spd(spec.dim, *init_range, seed=spec.seed).frame
        u = np.linalg.qr(np.random.default_rng(spec.seed).standard_normal((spec.dim, spec.dim)))[0]
        _, got = solve(GradientField(spec.objective()), SpdPoint.from_frame(values, u @ basis), spec.config())
        if (got.status.value, got.nit, got.ge) != (want.status, want.nit, want.ge):
            failures.append(f"{spec}: {got.status.value} {got.nit} {got.ge}")
    assert not failures, "; ".join(failures[:4])
