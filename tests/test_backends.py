"""Cross-backend check: the shipped gradient fields on the spectral route
against the same fields on the dense route.

``GradientField`` runs the solver on the start's eigenbasis and hands over
to the dense route near the rounding floor; ``DenseField`` below returns
plain matrices, so every step the solver takes is a dense one.  Both must give
the same statuses, counters and per-iteration step decisions.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rdn
from rdn import manifold, solver
from rdn.bench import ExperimentSpec, run_experiment, table1_grid
from rdn.linalg import sym_eigen
from rdn.manifold import SpdPoint, exp_map, random_spd
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

from test_bench import census_starts

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
    share no fixed eigenbasis, so every step runs the dense route, with no
    hand-over to decide it."""

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
    """Solve ``spec`` on both routes; also report whether the spectral run
    handed over (the solver took the frameless view of some iterate)."""
    obj = spec.objective()
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    with mock.patch.object(SpdPoint, "_dense", autospec=True, side_effect=SpdPoint._dense) as views:
        spectral = solve(GradientField(obj), p0, spec.config())
    dense = solve(DenseField(obj), p0, spec.config())
    return spectral, dense, views.call_count > 0


def _counting_views(monkeypatch):
    """A list that grows by one for every SpdPoint._dense call from now on:
    the solver takes that frameless view of its iterate once for each
    iteration it runs on the dense route."""
    views = []
    dense = SpdPoint._dense
    monkeypatch.setattr(SpdPoint, "_dense", lambda p: views.append(p) or dense(p))
    return views


def _dense_steps(seen):
    """The iterations run on the dense route, from the view counts that
    on_iterate saw after each committed iterate."""
    return [k for k in range(len(seen) - 1) if seen[k + 1] > seen[k]]


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


@pytest.mark.parametrize("init_range", INIT_RANGES, ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", SEEDS)
def test_affine_images_keep_the_counters(seed, init_range):
    # The metric is affine-invariant and the Newton iteration coordinate-free,
    # so the run from G P_0 G^T on the dense route takes the steps of the
    # spectral run from P_0.  This is the dense line search's reference, one
    # that does not depend on needs_dense.
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


def _fresh_exp_map(p, v, t=1.0):
    """exp_map with every trial formed and checked again: the step t of the
    line ``v`` as the plain tangent t V, which shares nothing with the
    hand-over check or with the other trials."""
    return exp_map(p, t * v.direction)


def _bits(x):
    return np.float64(x).tobytes()


def _run_bits(spec):
    """Per-record step decisions and bits, and the final gradient-norm and
    spectrum bits, of one run on the current route."""
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    point, trace = solve(GradientField(spec.objective()), p0, spec.config())
    records = [(r.alpha, r.backtracks, r.direction_kind, _bits(r.grad_norm), _bits(r.merit)) for r in trace.records]
    return trace.status, trace.nit, trace.ge, records, _bits(trace.final_grad_norm), point.spectrum.tobytes()


@pytest.mark.parametrize("init_range", INIT_RANGES, ids=lambda r: f"{r[0]:g},{r[1]:g}")
@pytest.mark.parametrize("seed", SEEDS)
def test_shared_trials_match_trials_formed_afresh(seed, init_range, monkeypatch):
    # The line search and the full step take the trial the hand-over check
    # kept on the iteration's line; forming every trial afresh must give the
    # same runs, bit for bit.
    specs = table1_grid(seed, max_dim=100, init_eig_range=init_range)
    exps = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *args: exps.append(1) or exp(x, *args))
    shared = [_run_bits(spec) for spec in specs]
    shared_exps = len(exps)
    monkeypatch.setattr(solver, "exp_map", _fresh_exp_map)
    fresh = [_run_bits(spec) for spec in specs]
    assert {spec.method for spec in specs} == set(Method)
    assert shared_exps < len(exps) - shared_exps  # the shared route forms fewer trials
    for spec, got, want in zip(specs, shared, fresh):
        assert got == want, f"{spec.family.value} {spec.ratio} n={spec.dim} {spec.method.value} seed={spec.seed}"


def test_rounding_floor_cell_hands_over_and_agrees():
    # A fixed 1e-16 rejection cutoff, without the hand-over, gives GE 18 here
    # while the dense route gives 19 on one OpenBLAS thread.
    spec = ExperimentSpec(Family.F2, 0.01, 100, Method.DAMPED, seed=48453, init_eig_range=(1.0, 10.0))
    spectral, dense, handed_over = _both(spec)
    assert handed_over
    assert _mismatches(spec, spectral, dense) == []


def test_overflow_regime_stays_spectral():
    # The merit overflows from the start, so every full step passes the
    # Armijo test.  The dense Newton right-hand side, cubic in lambda,
    # overflows near lambda = 5.6e102; the spectral coefficient
    # lambda - (a/b) lambda^2 does not until about 1.3e154, and the run stays
    # spectral until then.  The two routes take the same steps while both
    # run.
    spec = ExperimentSpec(Family.F1, 1e300, 10, Method.DAMPED, seed=1)
    (_, spectral), (_, dense), handed_over = _both(spec)
    assert not handed_over
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
    assert all(p.frame is not None and p.frame[1] is p.eigen.vectors for p in iterates)
    assert point is iterates[-1]


@pytest.mark.parametrize("seed", (48453, 48921))
def test_run_returns_to_the_spectral_route_after_a_hand_over(seed, monkeypatch):
    # These cells hand over at the first iteration.  That iteration runs on
    # the dense route; the run then continues on the spectral route, and the
    # counters and step decisions stay those of the dense route throughout.
    spec = ExperimentSpec(Family.F2, 0.01, 100, Method.DAMPED, seed=seed, init_eig_range=(1.0, 10.0))
    obj = spec.objective()
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    views, seen, framed = _counting_views(monkeypatch), [], []
    on_iterate = lambda k, p: seen.append(len(views)) or framed.append(p.frame is not None)
    point, trace = solve(GradientField(obj), p0, spec.config(), on_iterate=on_iterate)
    dense = solve(DenseField(obj), p0, spec.config())
    assert _mismatches(spec, (point, trace), dense) == []
    dense_steps = _dense_steps(seen)
    assert dense_steps and dense_steps[-1] < trace.nit - 1
    assert all(framed) and point.frame is not None


def test_no_point_without_a_frame_reaches_a_caller(monkeypatch):
    # The solver runs a hand-over iteration at the frameless view of its
    # iterate; on_iterate and the caller only ever see points with a frame.
    census_obj, census_start, k = next(itertools.islice(census_starts(), 123, None))
    assert (census_obj.family, census_start.dim, k) == (Family.F1, 9, 8) and round(census_obj.ratio, 3) == 11.016
    views = _counting_views(monkeypatch)
    runs = [
        # The hand-over cell converges after a dense first iteration.
        (GradientField(Objective(Family.F2, 1.0, 0.01)), random_spd(100, 1.0, 10.0, seed=48453), SolverConfig()),
        # Census run 123 stops inside a dense iteration.
        (GradientField(census_obj), census_start, SolverConfig(max_iters=2000)),
    ]
    outcomes = []
    for field, p0, config in runs:
        del views[:]
        seen = []
        point, trace = solve(field, p0, config, on_iterate=lambda k, p: seen.append((len(views), p)))
        assert len(seen) == trace.nit + 1 and all(p.frame is not None for _, p in seen)
        assert point is seen[-1][1]
        counts = [c for c, _ in seen]
        outcomes.append((trace.status, trace.nit, len(_dense_steps(counts)) >= 1, len(views) > counts[-1]))
    assert outcomes == [(Status.CONVERGED, 7, True, False), (Status.LINE_SEARCH_FAILED, 1, True, True)]


def _run_hex(run):
    """Status, NIT, GE, every record with its floats as hex, and the final point's bytes."""
    point, trace = run
    records = [
        (r.k, r.grad_norm.hex(), r.merit.hex(), r.alpha.hex(), r.direction_kind, r.backtracks) for r in trace.records
    ]
    return trace.status, trace.nit, trace.ge, records, point.matrix.tobytes()


def _factoring_each_trial(line, t, step):
    """Every dense trial factors its own whitened step, sharing nothing."""
    si = line.point.inv_sqrt()
    return sym_eigen(si @ step @ si)


_SHARED_PAIR_RUNS = [
    (GradientField, Family.F2, 0.01, 100, 48453),
    (GradientField, Family.F2, 0.01, 100, 48921),
    (DenseField, Family.F2, 0.001, 20, 0),
]


@pytest.mark.parametrize("field,family,ratio,dim,seed", _SHARED_PAIR_RUNS, ids=lambda x: getattr(x, "__name__", x))
def test_a_line_s_shared_whitened_eigenpair_keeps_every_run_bit_for_bit(field, family, ratio, dim, seed, monkeypatch):
    # Backtracked dense trials scale the eigenpair of their line's first
    # whitened step; each gives the bits of factoring its own.  The hand-over
    # cells run their first iteration densely with 4 backtracks, the
    # DenseField run every iteration.
    obj = Objective(family, 1.0, ratio)
    p0 = random_spd(dim, 1.0, 10.0, seed=seed)
    shared = solve(field(obj), p0, SolverConfig())
    monkeypatch.setattr(manifold, "_whitened_eigen", _factoring_each_trial)
    own = solve(field(obj), p0, SolverConfig())
    assert sum(r.backtracks for r in own[1].records) >= 4
    assert _run_hex(shared) == _run_hex(own)


_ROUNDING_FLOOR_CELLS = """
import json
from rdn.bench import ExperimentSpec
from rdn.manifold import SpdPoint, random_spd
from rdn.objectives import Family, GradientField
from rdn.solver import Method, solve

dense, views = SpdPoint._dense, []
SpdPoint._dense = lambda p: views.append(p) or dense(p)
out = {}
for seed in (48453, 48921):
    spec = ExperimentSpec(Family.F2, 0.01, 100, Method.DAMPED, seed=seed, init_eig_range=(1.0, 10.0))
    p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
    seen = []
    _, t = solve(GradientField(spec.objective()), p0, spec.config(), on_iterate=lambda k, p: seen.append(len(views)))
    dense_steps = [k for k in range(t.nit) if seen[k + 1] > seen[k]]
    out[seed] = [t.status.value, t.nit, t.he, t.ge, [r.backtracks for r in t.records], dense_steps]
print(json.dumps(out))
"""


def test_rounding_floor_cells_keep_their_counters_on_one_thread():
    # Pinned literally, as perfbench/reference.json pins its cells, because
    # DenseField starts from the same spectral form of P_0 and so shares any
    # fault in it: rebuilding the start's factorization from the frame's
    # basis copy moves seed 48453 to GE 18 on both routes.  The dense route's
    # rounding depends on the BLAS thread count (two OpenBLAS threads give GE
    # 18 for seed 48453), so the cells run in a one-thread interpreter.
    src = str(Path(rdn.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _ROUNDING_FLOOR_CELLS], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    # status, NIT, HE, GE, backtracks per iteration, iterations run densely
    assert json.loads(proc.stdout) == {
        "48453": ["converged", 7, 7, 19, [4, 2, 0, 0, 0, 0, 0], [0]],
        "48921": ["converged", 7, 7, 19, [4, 2, 0, 0, 0, 0, 0], [0]],
    }
