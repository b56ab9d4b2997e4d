"""Cross-backend check: the shipped gradient fields on the spectral route
against the same fields on the dense route.

``GradientField`` runs the solver on the start's eigenbasis; ``DenseField``
below returns plain matrices, so every step the solver takes is a dense one.
Both must give the same statuses, counters and per-iteration step decisions
wherever the dense route's rounding does not decide a trial.
"""

import numpy as np
import pytest

from rdn.bench import ExperimentSpec, run_experiment, table1_grid
from rdn.manifold import SpdPoint, random_spd
from rdn.objectives import (
    Family,
    GradientField,
    Objective,
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

    def newton_solve(self, p):
        return newton_solve(self.objective, p)

    def merit_value(self, p):
        return merit_value(self.objective, p)

    def fallback_direction(self, p):
        return -merit_gradient(self.objective, p)


class AffineField:
    """The shipped field carried through the isometry P -> G P G^T of the
    affine-invariant metric: X_G(Q) = G X(G^-1 Q G^-T) G^T.  Its iterates
    share no fixed eigenbasis, so every step runs the dense route."""

    def __init__(self, objective, g):
        self.objective, self.g, self.g_inv = objective, g, np.linalg.inv(g)

    def _back(self, q):
        return SpdPoint(self.g_inv @ q.matrix @ self.g_inv.T)

    def _forward(self, x):
        return self.g @ x @ self.g.T

    def field_value(self, q):
        return self._forward(riemannian_grad(self.objective, self._back(q)))

    def newton_solve(self, q):
        return self._forward(newton_solve(self.objective, self._back(q)))

    def merit_value(self, q):
        return merit_value(self.objective, self._back(q))

    def fallback_direction(self, q):
        return self._forward(-merit_gradient(self.objective, self._back(q)))


def _both(spec):
    """Solve ``spec`` on both routes."""
    obj = spec.objective()
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    return solve(GradientField(obj), p0, spec.config()), solve(DenseField(obj), p0, spec.config())


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
        failures += _mismatches(spec, *_both(spec))
    assert not failures, "; ".join(failures[:8])


@pytest.mark.parametrize("init_range", INIT_RANGES, ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", SEEDS)
def test_affine_images_keep_the_counters(seed, init_range):
    # The metric is affine-invariant and the Newton iteration coordinate-free,
    # so the run from G P_0 G^T on the dense route takes the steps of the
    # spectral run from P_0.  This is the dense line search's reference.
    failures = []
    for spec in table1_grid(seed, max_dim=100, init_eig_range=init_range):
        n = spec.dim
        g = 2.0 * np.eye(n) + np.random.default_rng(spec.seed).standard_normal((n, n)) / np.sqrt(n)
        p0 = random_spd(n, *spec.init_eig_range, seed=spec.seed)
        _, affine = solve(AffineField(spec.objective(), g), SpdPoint(g @ p0.matrix @ g.T), spec.config())
        r = run_experiment(spec)
        if (affine.status.value, affine.nit, affine.ge) != (r.status, r.nit, r.ge):
            failures.append(f"{spec}: {affine.status.value}/{affine.nit}/{affine.ge} vs {r.status}/{r.nit}/{r.ge}")
    assert not failures, "; ".join(failures[:8])


def test_overflow_regime_stays_spectral():
    # The merit overflows from the start, so every full step passes the
    # Armijo test.  The dense Newton right-hand side, cubic in lambda,
    # overflows near lambda = 5.6e102; the spectral coefficient
    # lambda - (a/b) lambda^2 does not until about 1.3e154, and the run stays
    # spectral until then.  The two routes take the same steps while both
    # run.
    spec = ExperimentSpec(Family.F1, 1e300, 10, Method.DAMPED, seed=1)
    (_, spectral), (_, dense) = _both(spec)
    assert (spectral.status, spectral.nit, spectral.ge) == (Status.STEP_OVERFLOW, 353, 706)
    assert (dense.status, dense.nit, dense.ge) == (Status.STEP_OVERFLOW, 235, 470)
    steps = lambda trace: [(r.alpha, r.backtracks, r.direction_kind) for r in trace.records[:235]]
    assert steps(spectral) == steps(dense)


def test_problems_returning_matrices_take_dense_steps_from_spectral_iterates():
    # exp_map's dense steps reach on_iterate holding as their frame the
    # factorization they were made with, and the solver goes on from each as
    # it is.
    obj = Objective(Family.F1, 1.0, 0.1)
    p0 = random_spd(20, 9.0, 10.0, seed=5)
    iterates = []
    point, trace = solve(DenseField(obj), p0, SolverConfig(), on_iterate=lambda k, p: iterates.append(p))
    assert trace.status is Status.CONVERGED and len(iterates) == trace.nit + 1
    assert all(p.frame[1] is p.eigen.vectors for p in iterates)
    assert point is iterates[-1]
