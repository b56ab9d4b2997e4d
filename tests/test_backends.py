"""Cross-backend check: the shipped gradient fields on the spectral route
against the same fields on the dense route.

``GradientField`` runs the solver on the start's eigenbasis and hands over
to the dense route near the rounding floor; ``DenseField`` below returns
plain matrices, so the solver never leaves the dense route.  Both must give
the same statuses, counters and per-iteration step decisions.
"""

import numpy as np
import pytest

from rdn.bench import ExperimentSpec, table1_grid
from rdn.manifold import random_spd
from rdn.objectives import (
    Family,
    GradientField,
    Objective,
    hess_apply,
    merit_gradient,
    merit_value,
    newton_solve,
    riemannian_grad,
)
from rdn.solver import Method, SolverConfig, Status, solve

SEEDS = (42, 3)
INIT_RANGES = ((9.0, 10.0), (1.0, 10.0))


class DenseField:
    """The shipped field through the module-level functions, which always
    return matrices."""

    def __init__(self, objective):
        self.objective = objective

    def field_value(self, p):
        return riemannian_grad(self.objective, p)

    def hess_apply(self, p, v):
        return hess_apply(self.objective, p, v)

    def newton_solve(self, p):
        return newton_solve(self.objective, p)

    def merit_value(self, p):
        return merit_value(self.objective, p)

    def merit_gradient(self, p):
        return merit_gradient(self.objective, p)

    def fallback_direction(self, p):
        return -merit_gradient(self.objective, p)


def _both(spec):
    """Solve ``spec`` on both routes; also report whether the spectral run
    handed over (some iterate arrived without a spectral frame)."""
    obj = spec.objective()
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    frames = []
    spectral = solve(GradientField(obj), p0, spec.config(), on_iterate=lambda k, p: frames.append(p.frame))
    dense = solve(DenseField(obj), p0, spec.config())
    return spectral, dense, any(f is None for f in frames[1:])


def _mismatches(spec, spectral, dense):
    (p_s, t_s), (p_d, t_d) = spectral, dense
    where = f"{spec.family.value} {spec.ratio} n={spec.dim} {spec.method.value} seed={spec.seed}"
    got = (t_s.status, t_s.nit, t_s.he, t_s.ge)
    want = (t_d.status, t_d.nit, t_d.he, t_d.ge)
    if got != want:
        return [f"{where}: status/NIT/HE/GE {got} vs dense {want}"]
    out = []
    for a, b in zip(t_s.records, t_d.records):
        if (a.alpha, a.backtracks, a.direction_kind) != (b.alpha, b.backtracks, b.direction_kind):
            out.append(f"{where}: step {a.k} differs")
    if t_d.status is Status.CONVERGED:
        rel = np.linalg.norm(p_s.matrix - p_d.matrix) / np.linalg.norm(p_d.matrix)
        if not rel <= 1e-12:
            out.append(f"{where}: final points differ by {rel:.2e}")
    return out


@pytest.mark.parametrize("init_range", INIT_RANGES, ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", SEEDS)
def test_table1_cells_agree_across_backends(seed, init_range):
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        spectral, dense, _ = _both(spec)
        failures += _mismatches(spec, spectral, dense)
    assert not failures, "; ".join(failures[:8])


def test_rounding_floor_cell_hands_over_and_agrees():
    # A fixed 1e-16 rejection cutoff, without the hand-over, gives GE 18 here
    # while the dense route gives 19 on one OpenBLAS thread.
    spec = ExperimentSpec(Family.F2, 0.01, 100, Method.DAMPED, seed=48453, init_eig_range=(1.0, 10.0))
    spectral, dense, handed_over = _both(spec)
    assert handed_over
    assert _mismatches(spec, spectral, dense) == []


def test_overflow_regime_hands_over_and_agrees():
    # The merit overflows from the start, so every full step passes the
    # Armijo test until the dense Newton right-hand side, cubic in lambda,
    # overflows near lambda = 5.6e102; the spectral coefficient would not
    # overflow until about 1e154.
    spec = ExperimentSpec(Family.F1, 1e300, 10, Method.DAMPED, seed=1)
    spectral, dense, handed_over = _both(spec)
    assert handed_over
    assert _mismatches(spec, spectral, dense) == []
    trace = spectral[1]
    assert (trace.status, trace.nit, trace.ge) == (Status.STEP_OVERFLOW, 235, 470)


def test_problems_returning_matrices_stay_dense():
    obj = Objective(Family.F1, 1.0, 0.1)
    p0 = random_spd(20, 9.0, 10.0, seed=5)
    frames = []
    point, _ = solve(DenseField(obj), p0, SolverConfig(), on_iterate=lambda k, p: frames.append(p.frame))
    assert all(f is None for f in frames) and point.frame is None
