import math
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rdn import linalg, manifold, objectives
from rdn.bench import (
    RESULT_HEADER,
    TRACE_HEADER,
    ExperimentSpec,
    emit_csv,
    emit_trace,
    run_experiment,
    run_grid,
    table1_grid,
)
from rdn.manifold import SpdPoint
from rdn.objectives import Family, GradientField, Objective
from rdn.solver import Method, SolverConfig, Status, solve


def spec(**overrides):
    base = dict(
        family=Family.F1,
        ratio=0.1,
        dim=5,
        method=Method.DAMPED,
        seed=7,
        init_eig_range=(9.0, 10.0),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(ratio=0.0)
        with pytest.raises(ValueError):
            spec(dim=0)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", "1"), ("dim", 3.0), ("dim", "3")])
    def test_rejects_a_seed_or_dimension_that_is_not_an_integer(self, field, value):
        # Without the check the seed fails inside run_experiment with
        # InvalidRange and the dimension with numpy's TypeError.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            spec(**{field: value})

    def test_numpy_integer_seed_and_dimension_give_the_run_of_python_integers(self):
        a = run_experiment(spec(dim=np.int64(5), seed=np.uint32(7)))
        b = run_experiment(spec(dim=5, seed=7))
        assert (a.status, a.nit, a.ge, a.final_grad_norm.hex()) == (b.status, b.nit, b.ge, b.final_grad_norm.hex())

    def test_objective_uses_unit_a(self):
        obj = spec(ratio=0.25).objective()
        assert obj.a == 1.0 and obj.b == 0.25


class TestRunExperiment:
    def test_deterministic(self):
        a = run_experiment(spec())
        b = run_experiment(spec())
        assert (a.status, a.nit, a.he, a.ge) == (b.status, b.nit, b.he, b.ge)
        assert a.final_grad_norm == b.final_grad_norm
        assert a.final_dist_to_star == b.final_dist_to_star

    def test_converges_and_reports_distance(self):
        r = run_experiment(spec())
        assert r.status == Status.CONVERGED.value
        assert r.final_grad_norm <= 1e-8
        assert r.final_dist_to_star <= 1e-6
        assert r.time_s > 0.0

    def test_start_at_minimizer_is_zero_iterations(self):
        # collapsed spectrum range puts the start exactly at the minimizer
        r = run_experiment(spec(family=Family.F1, ratio=0.5, dim=1, init_eig_range=(0.5, 0.5)))
        assert r.status == Status.CONVERGED.value
        assert r.nit == 0

    def test_failure_status_is_carried_through(self):
        # one full step from spectrum near 1 overflows for this ratio
        r = run_experiment(
            spec(family=Family.F2, ratio=0.001, dim=1, method=Method.FULL,
                 init_eig_range=(1.0, 1.01))
        )
        assert r.status == Status.STEP_OVERFLOW.value


class TestRunGrid:
    def test_empty(self):
        assert run_grid([]) == []

    def test_duplicates_give_identical_results(self):
        results = run_grid([spec(), spec()])
        assert results[0].nit == results[1].nit
        assert results[0].final_grad_norm == results[1].final_grad_norm

    def test_order_preserved(self):
        specs = [spec(dim=d) for d in (2, 3, 4)]
        results = run_grid(specs)
        assert [r.spec.dim for r in results] == [2, 3, 4]

    def test_runs_every_spec_in_the_callers_thread_in_order(self, monkeypatch):
        calls = []

        def recording(s):
            calls.append((threading.get_ident(), s))
            return run_experiment(s)

        monkeypatch.setattr("rdn.bench.run_experiment", recording)
        specs = [spec(dim=d, seed=d) for d in (4, 2, 3, 2)]
        results = run_grid(specs)
        assert calls == [(threading.get_ident(), s) for s in specs]
        assert [r.spec for r in results] == specs


class TestTable1Grid:
    def test_full_grid_has_two_specs_per_cell(self):
        specs = table1_grid(0)
        assert len(specs) == 36
        cells = {(s.family, s.ratio, s.dim) for s in specs}
        assert len(cells) == 18
        assert {s.method for s in specs} == {Method.FULL, Method.DAMPED}

    def test_ratios_per_family(self):
        specs = table1_grid(0)
        assert {s.ratio for s in specs if s.family is Family.F1} == {0.1, 1.0, 1.5}
        assert {s.ratio for s in specs if s.family is Family.F2} == {0.001, 0.002, 0.01}

    def test_max_dim_filters_cells(self):
        specs = table1_grid(0, max_dim=100)
        assert len(specs) == 24
        assert {s.dim for s in specs} == {1, 100}

    def test_seeds_stable_under_max_dim(self):
        full = {(s.family, s.ratio, s.dim, s.method): s.seed for s in table1_grid(42)}
        capped = {(s.family, s.ratio, s.dim, s.method): s.seed for s in table1_grid(42, max_dim=100)}
        for key, seed in capped.items():
            assert full[key] == seed


class TestCsvEmission:
    def test_header_and_newlines(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_csv([run_experiment(spec(dim=2))], str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().split("\n")
        assert lines[0] == RESULT_HEADER
        assert lines[-1] == ""  # trailing newline

    def test_round_trip_values(self, tmp_path):
        out = tmp_path / "r.csv"
        result = run_experiment(spec(dim=3))
        emit_csv([result], str(out))
        row = dict(zip(RESULT_HEADER.split(","), out.read_text().splitlines()[1].split(",")))
        assert row["family"] == "f1" and row["method"] == "damped"
        assert float(row["ratio"]) == result.spec.ratio
        assert int(row["nit"]) == result.nit
        assert float(row["final_grad_norm"]) == result.final_grad_norm
        assert float(row["final_dist"]) == result.final_dist_to_star
        assert row["time_s"] == "0.0"

    def test_wall_times_opt_in(self, tmp_path):
        out = tmp_path / "r.csv"
        result = run_experiment(spec(dim=2))
        emit_csv([result], str(out), wall_times=True)
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[10]) == result.time_s > 0.0

    def test_byte_identical_across_runs(self, tmp_path):
        specs = table1_grid(5, max_dim=10)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_grid(specs), str(a))
        emit_csv(run_grid(specs), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_write_error_mentions_path(self):
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv([], "/no/such/dir/out.csv")


class TestTraceEmission:
    def test_zero_iteration_trace(self, tmp_path):
        obj = Objective(Family.F1, 1.0, 1.0)
        _, trace = solve(GradientField(obj), SpdPoint(np.eye(3)))
        out = tmp_path / "t.csv"
        emit_trace(trace, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("0,0.0,0.0,")

    def test_rows_match_records_plus_terminal(self, tmp_path):
        r = run_experiment(spec(dim=4))
        out = tmp_path / "t.csv"
        emit_trace(r.trace, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == r.nit + 2
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == r.trace.records[0].grad_norm
        terminal = lines[-1].split(",")
        assert int(terminal[0]) == r.nit
        assert float(terminal[1]) == r.final_grad_norm
        assert terminal[3:] == ["", "", ""]

    def test_gradient_norm_tail_is_monotone(self, tmp_path):
        # damped run decreases the merit (and the reported norm) every step
        r = run_experiment(spec(family=Family.F1, ratio=0.1, dim=100))
        assert r.status == Status.CONVERGED.value
        norms = [rec.grad_norm for rec in r.trace.records] + [r.final_grad_norm]
        assert all(a > b for a, b in zip(norms, norms[1:]))


def test_spectral_run_at_n1000_factorizes_nothing(monkeypatch):
    # The start's basis is drawn only when a matrix is read: a run that stays
    # on the spectral route calls no QR and no factorization.
    calls = []
    for module, name in ((np.linalg, "qr"), (np.linalg, "eigh"), (np.linalg, "cholesky")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name, **k: (calls.append(_n), _f(*a, **k))[1])
    result = run_experiment(spec(ratio=1.0, dim=1000, seed=43))
    assert result.status == Status.CONVERGED.value and result.nit > 0
    assert 0.0 <= result.final_dist_to_star < 1e-6
    assert calls == []


@given(
    family=st.sampled_from(list(Family)),
    method=st.sampled_from(list(Method)),
    log_ratio=st.floats(-300.0, 300.0),
    dim=st.integers(1, 20),
    seed=st.integers(0, 10**6),
    log_low=st.floats(-2.0, 2.0),
    log_width=st.floats(0.0, 2.0),
)
@example(family=Family.F2, method=Method.DAMPED, log_ratio=200.0, dim=3, seed=0, log_low=0.0, log_width=1.0)
@example(family=Family.F1, method=Method.DAMPED, log_ratio=-300.0, dim=3, seed=0, log_low=0.0, log_width=1.0)
@settings(deadline=None, max_examples=60)
def test_hostile_ratios_end_in_a_status(family, method, log_ratio, dim, seed, log_low, log_width):
    # Extreme but valid coefficients end in a status, never in an exception.
    low = 10.0**log_low
    result = run_experiment(
        spec(
            family=family,
            ratio=10.0**log_ratio,
            dim=dim,
            method=method,
            seed=seed,
            init_eig_range=(low, low * 10.0**log_width),
        )
    )
    assert result.status in {s.value for s in Status}
    assert result.nit == len(result.trace.records)


def _ill_conditioned_census():
    """(k, status) of 600 damped runs from starts with eigenvalues
    10^U(-k, k), k = 1..8, on a Gaussian QR basis, at ratios 10^U(-3, 3):
    family f1 on odd i and f2 on even i, n in 1..10."""
    rng = np.random.default_rng(7)
    for i in range(600):
        family = Family.F1 if i % 2 else Family.F2
        ratio = 10.0 ** rng.uniform(-3.0, 3.0)
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 9))
        lam = 10.0 ** rng.uniform(-k, k, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        start = SpdPoint((q * lam) @ q.T)
        _, trace = solve(GradientField(Objective(family, 1.0, ratio)), start, SolverConfig(max_iters=2000))
        yield k, trace.status


# Runs that converge per k, at least: 583 of the 600.  The rest end
# line_search_failed on the dense route, an open defect rather than an
# expected outcome, so the floors may rise but not fall.
_CENSUS_CONVERGED_FLOOR = {1: 80, 2: 78, 3: 70, 4: 68, 5: 80, 6: 78, 7: 62, 8: 67}


def test_ill_conditioned_starts_converge():
    runs, converged = Counter(), Counter()
    for k, status in _ill_conditioned_census():
        assert isinstance(status, Status)
        runs[k] += 1
        converged[k] += status is Status.CONVERGED
    assert all(converged[k] == runs[k] for k in range(1, 6)), (runs, converged)
    assert all(converged[k] >= floor for k, floor in _CENSUS_CONVERGED_FLOOR.items()), converged


@pytest.mark.parametrize(
    "family, ratio, dim, method, seed, nit, ge",
    [
        # spectral throughout: the Newton coefficient lambda - (a/b) lambda^2
        # overflows near lambda = 1.3e154 (exact arithmetic: max_iters 500/1000)
        (Family.F1, 9.61739821402542e307, 2, Method.DAMPED, 352551, 354, 708),
        # lyapunov_solve's products and a matrix function's symmetrize
        (Family.F2, 1.6424888986677155e-307, 7, Method.FULL, 622075, 0, 0),
        # distance's eigenvalue ratios
        (Family.F1, 1.5787476153139683e-308, 9, Method.FULL, 963496, 0, 0),
    ],
)
def test_ratios_near_the_float_range_end_without_warnings(family, ratio, dim, method, seed, nit, ge):
    # Intermediates overflow here; the finiteness checks report it as a
    # status, and numpy prints nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(ExperimentSpec(family, ratio, dim, method, seed))
    assert (result.status, result.nit, result.ge) == (Status.STEP_OVERFLOW.value, nit, ge)


def test_minimizer_past_half_the_float_maximum_gives_a_finite_distance():
    # The minimizer c I, c = 9.6e307, is built without forming c + c.
    result = run_experiment(ExperimentSpec(Family.F1, 9.61739821402542e307, 2, Method.DAMPED, 352551))
    assert (result.status, result.nit, result.ge) == (Status.STEP_OVERFLOW.value, 354, 708)
    assert math.isfinite(result.final_dist_to_star)
    assert result.final_dist_to_star == pytest.approx(500.1, rel=1e-3)


def test_an_overflowing_newton_coefficient_ends_in_step_overflow_with_a_finite_norm():
    # The run stays spectral until its Newton coefficient lambda - (a/b)
    # lambda^2 overflows near lambda = 1.3e154; the field it last formed, and
    # so its norm, is finite.
    result = run_experiment(ExperimentSpec(Family.F1, 1e308, 3, Method.DAMPED, 0))
    assert (result.status, result.nit, result.ge) == (Status.STEP_OVERFLOW.value, 353, 706)
    assert math.isfinite(result.final_grad_norm)
    assert result.final_grad_norm == pytest.approx(3.96e154, rel=1e-3)


def test_narrow_n1000_run_holds_few_matrices():
    # A run that stays spectral, with the minimizer built from its
    # spectrum, holds no n x n array: its peak is a few arrays of n values,
    # 0.01 n^2 doubles.  One n x n array reads 1.
    n = 1000
    tracemalloc.start()
    try:
        result = run_experiment(spec(ratio=1.0, dim=n, seed=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == Status.CONVERGED.value
    assert peak < 0.5 * n * n * 8


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("family, ratio", [(Family.F1, 1.0), (Family.F2, 0.01)])
def test_narrow_n1000_run_forms_no_matrix(monkeypatch, family, ratio):
    # Neither the run nor its distance to the minimizer c I forms an n x n
    # array; c I still reads as a matrix, bit for bit, when asked.
    n, calls = 1000, Counter()
    monkeypatch.setattr(np, "diag", _counting(calls, "diag", np.diag))
    monkeypatch.setattr(np, "eye", _counting(calls, "eye", np.eye))
    symmetrize = _counting(calls, "symmetrize", linalg.symmetrize)
    for module in (linalg, manifold, objectives):
        monkeypatch.setattr(module, "symmetrize", symmetrize)
    result = run_experiment(spec(family=family, ratio=ratio, dim=n, seed=50))
    assert result.status == Status.CONVERGED.value
    assert calls == Counter()
    monkeypatch.undo()
    c = ratio if family is Family.F1 else 1.0 / ratio
    star = objectives.minimizer(spec(family=family, ratio=ratio).objective(), n)
    assert star.matrix.tobytes() == (c * np.eye(n)).tobytes()


def test_ratios_near_the_float_range_end_without_warnings_on_two_threads():
    # The cells above, split over two threads: each thread's runs set their
    # own error state.
    cells = [
        (ExperimentSpec(Family.F1, 9.61739821402542e307, 2, Method.DAMPED, 352551), 354, 708),
        (ExperimentSpec(Family.F2, 1.6424888986677155e-307, 7, Method.FULL, 622075), 0, 0),
        (ExperimentSpec(Family.F1, 1.5787476153139683e-308, 9, Method.FULL, 963496), 0, 0),
    ]
    results, errors = [None] * len(cells), []

    def run(indices):
        try:
            for i in indices:
                results[i] = run_experiment(cells[i][0])
        except Exception as err:  # a warning raised as an error
            errors.append(err)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        threads = [threading.Thread(target=run, args=(share,)) for share in ((0, 2), (1,))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for (_, nit, ge), r in zip(cells, results):
        assert (r.status, r.nit, r.ge) == (Status.STEP_OVERFLOW.value, nit, ge)


@pytest.mark.parametrize(
    "family, ratio, method, seed, init_range, nit, dense_steps",
    [
        # spectral throughout
        (Family.F1, 0.1, Method.FULL, 44, (9.0, 10.0), 100, 0),
        # hands over to the dense route once
        (Family.F2, 0.01, Method.DAMPED, 48453, (1.0, 10.0), 7, 1),
    ],
)
def test_one_error_state_per_run(monkeypatch, family, ratio, method, seed, init_range, nit, dense_steps):
    made, handed_over = [], []

    class CountingErrstate(np.errstate):
        def __init__(self, **kwargs):
            made.append(kwargs)
            super().__init__(**kwargs)

    to_dense = SpdPoint.to_dense
    np.random.default_rng(0)  # numpy.random enters an errstate of its own on first import
    monkeypatch.setattr(np, "errstate", CountingErrstate)
    monkeypatch.setattr(SpdPoint, "to_dense", lambda p: handed_over.append(p) or to_dense(p))
    result = run_experiment(ExperimentSpec(family, ratio, 100, method, seed, init_eig_range=init_range))
    assert (result.status, result.nit, len(handed_over)) == (Status.CONVERGED.value, nit, dense_steps)
    assert made == [{"all": "ignore"}]
