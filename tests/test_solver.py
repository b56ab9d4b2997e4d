import math
import threading
import warnings

import numpy as np
import pytest

from rdn.bench import table1_grid
from rdn.errors import DimMismatch, InvalidMatrix, InvalidPoint, SingularOperator, StationaryOfMerit
from rdn.linalg import symmetrize
from rdn.manifold import SpdPoint, SpectralTangent, exp_map, inner, norm, random_spd
from rdn.objectives import Family, GradientField, Objective, minimizer
from rdn.solver import (
    ArmijoResult,
    DirectionKind,
    Method,
    Problem,
    SolverConfig,
    Status,
    armijo_stepsize,
    direction,
    solve,
)


class ConstantField:
    """X(P) = C with a singular Newton system everywhere.

    The merit phi(P) = tr(C P^{-1} C P^{-1}) / 2 still has the honest
    gradient -sym(C P^{-1} C), so the steepest-descent safeguard makes
    progress even though no singularity exists.
    """

    def __init__(self, c):
        self.c = symmetrize(c)

    def field_value(self, p):
        return self.c

    def newton_solve(self, p):
        raise SingularOperator("derivative has no inverse")

    def merit_value(self, p):
        return 0.5 * inner(p, self.c, self.c)

    def merit_gradient(self, p):
        return -symmetrize(self.c @ p.inv() @ self.c)

    def fallback_direction(self, p):
        return -self.merit_gradient(p)


class FlatMeritField:
    """Nonzero field whose declared merit gradient vanishes identically."""

    def field_value(self, p):
        return np.eye(p.dim)

    def newton_solve(self, p):
        raise SingularOperator("derivative has no inverse")

    def merit_value(self, p):
        return 1.0

    def fallback_direction(self, p):
        return np.zeros((p.dim, p.dim))


class FlatSpectralMerit(FlatMeritField):
    """FlatMeritField whose vanishing merit gradient is a SpectralTangent."""

    def fallback_direction(self, p):
        return SpectralTangent(np.zeros(p.dim))


class FourMethodField:
    """ConstantField with only the four methods of ``Problem``."""

    def __init__(self, c):
        self.c = symmetrize(c)

    def field_value(self, p):
        return self.c

    def newton_solve(self, p):
        raise SingularOperator("derivative has no inverse")

    def merit_value(self, p):
        return 0.5 * inner(p, self.c, self.c)

    def fallback_direction(self, p):
        return symmetrize(self.c @ p.inv() @ self.c)


class RejectingMerit(GradientField):
    """Well-posed directions, but every trial merit reads as infinite."""

    def merit_value(self, p):
        return math.inf


def f1_problem(b=0.1):
    return GradientField(Objective(Family.F1, 1.0, b))


class TestSolverConfig:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, -0.1, 0.7])
    def test_sigma_strictly_inside_half_interval(self, sigma):
        with pytest.raises(ValueError):
            SolverConfig(sigma=sigma)

    def test_sigma_interior_accepted(self):
        SolverConfig(sigma=0.49999)
        SolverConfig(sigma=1e-12)

    def test_other_bounds(self):
        with pytest.raises(ValueError):
            SolverConfig(grad_tol=0.0)
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(grad_tol=math.inf)
        with pytest.raises(ValueError, match="grad_tol"):
            SolverConfig(grad_tol=math.nan)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @pytest.mark.parametrize(
        "field,value",
        [("sigma", "0.1"), ("sigma", True), ("grad_tol", None), ("max_iters", 2.5), ("max_iters", True)],
    )
    def test_rejects_an_ill_typed_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_method_given_as_a_string_is_its_enum(self):
        # "full" once failed the full-step test and ran the damped method.
        config = SolverConfig(method="full")
        assert config.method is Method.FULL
        p0 = random_spd(3, 9.0, 10.0, seed=1)
        _, got = solve(f1_problem(), p0, config)
        _, want = solve(f1_problem(), p0, SolverConfig(method=Method.FULL))
        assert (got.status, got.nit, got.ge, got.records) == (want.status, want.nit, want.ge, want.records)
        assert got.ge == got.nit
        with pytest.raises(ValueError, match="Method"):
            SolverConfig(method="newton")


class TestDirection:
    def test_newton_direction_scalar(self):
        v, kind = direction(f1_problem(), SpdPoint(np.array([[1.0]])))
        assert kind is DirectionKind.NEWTON
        assert isinstance(v, SpectralTangent) and v.coeffs[0] == pytest.approx(-9.0, rel=1e-13)

    def test_singular_system_falls_back_to_merit_descent(self):
        field = ConstantField(np.eye(3))
        p = random_spd(3, 1.0, 2.0, seed=5)
        v, kind = direction(field, p)
        assert kind is DirectionKind.GRADIENT_FALLBACK
        assert inner(p, field.merit_gradient(p), v) < 0.0

    def test_zero_fallback_raises(self):
        with pytest.raises(StationaryOfMerit):
            direction(FlatMeritField(), SpdPoint(np.eye(2)))


class TestArmijo:
    def test_full_step_in_quadratic_regime(self):
        problem = f1_problem()
        p = SpdPoint(np.array([[0.100001]]))
        res = armijo_stepsize(problem, p, problem.newton_solve(p), sigma=1e-4)
        assert res.accepted and res.alpha == 1.0 and res.backtracks == 0

    def test_overshoot_backtracks_to_scalar_oracle_step(self):
        # scalar oracle: lambda(t) = 10 e^{-99 t}, phi = (1 - 0.1/lambda)^2 / 2
        sigma = 1e-4
        v_scalar = 10.0 - 10.0 * 100.0
        phi = lambda lam: 0.5 * (1.0 - 0.1 / lam) ** 2
        j = 0
        while True:
            t = 2.0**-j
            if phi(10.0 * math.exp(t * v_scalar / 10.0)) <= (1.0 - 2.0 * sigma * t) * phi(10.0):
                break
            j += 1
        assert j == 5  # frozen from the oracle above

        problem = f1_problem()
        p = SpdPoint(np.array([[10.0]]))
        res = armijo_stepsize(problem, p, problem.newton_solve(p), sigma=sigma)
        assert res.accepted
        assert res.alpha == 2.0**-j and res.backtracks == j
        assert res.evaluations == j + 1

    def test_exhausted_search_reports_failure(self):
        problem = RejectingMerit(Objective(Family.F1, 1.0, 0.1))
        p = SpdPoint(np.array([[2.0]]))
        res = armijo_stepsize(problem, p, problem.newton_solve(p), sigma=1e-4, merit=1.0)
        assert not res.accepted
        assert res.point is None

    def test_all_overflowing_trials_exhaust_the_ladder(self):
        # Every trial 2^-j * 1e308, j <= 60, overflows its exponential, so the
        # search backtracks through the whole ladder without a merit evaluation.
        problem = GradientField(Objective(Family.F1, 1.0, 1.0))
        p = SpdPoint.from_frame(np.array([2.0]), np.eye(1))
        res = armijo_stepsize(problem, p, SpectralTangent(np.array([1e308])), 1e-4)
        assert not res.accepted and res.point is None
        assert (res.backtracks, res.evaluations) == (60, 0)

    def test_returns_accepted_point_and_merit(self):
        problem = f1_problem()
        p = SpdPoint(np.array([[10.0]]))
        res = armijo_stepsize(problem, p, problem.newton_solve(p), sigma=1e-4)
        assert isinstance(res, ArmijoResult)
        assert res.merit == pytest.approx(problem.merit_value(res.point), rel=1e-15)


class TestSolve:
    def test_start_at_minimizer_converges_immediately(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        point, trace = solve(GradientField(obj), minimizer(obj, 4))
        assert trace.status is Status.CONVERGED
        assert trace.nit == 0 and trace.he == 0 and trace.ge == 0
        assert np.array_equal(point.matrix, minimizer(obj, 4).matrix)

    def test_full_method_matches_scalar_recurrence(self):
        obj = Objective(Family.F1, 1.0, 0.5)
        seen = []
        cfg = SolverConfig(grad_tol=1e-300, max_iters=10, method=Method.FULL)
        solve(GradientField(obj), SpdPoint(np.array([[3.0]])), cfg,
              on_iterate=lambda k, p: seen.append(p.matrix[0, 0]))
        assert len(seen) >= 8  # hits the fixed point exactly within the cap
        lam = 3.0
        for k in range(1, len(seen)):
            lam *= math.exp(1.0 - 2.0 * lam)
            assert seen[k] == pytest.approx(lam, rel=1e-12)

    def test_full_method_overflow_is_a_status(self):
        obj = Objective(Family.F2, 1.0, 0.001)
        point, trace = solve(
            GradientField(obj), SpdPoint(np.array([[1.0]])), SolverConfig(method=Method.FULL)
        )
        assert trace.status is Status.STEP_OVERFLOW
        assert point.matrix[0, 0] == 1.0  # last good iterate is returned

    @pytest.mark.parametrize("seed", [4, 10, 11])
    def test_a_start_that_cholesky_accepts_and_eigh_rejects_is_not_a_point(self, seed):
        # Cholesky accepts the matrix, but its eigh spectrum reaches below zero
        # (-6.8e-18 at seed 4): the point is rejected where it is made, so no
        # run starts from it.
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((20, 20)))[0]
        m = (q * np.geomspace(1e-18, 1.0, 20)) @ q.T
        np.linalg.cholesky(symmetrize(m))
        with pytest.raises(InvalidPoint):
            SpdPoint(m)

    @pytest.mark.parametrize("shape, error", [((2, 3), InvalidMatrix), ((3, 3), DimMismatch)])
    def test_a_field_of_the_wrong_shape_is_an_error_not_a_status(self, shape, error):
        # A malformed problem is the caller's fault, not a numerical breakdown.
        class Malformed(FourMethodField):
            def field_value(self, p):
                return np.ones(shape)

        with pytest.raises(error):
            solve(Malformed(np.eye(2)), random_spd(2, 1.0, 2.0, seed=0))

    @pytest.mark.parametrize("method", [Method.DAMPED, Method.FULL])
    @pytest.mark.parametrize("wrong", ["field_value", "newton_solve"])
    def test_a_spectral_tangent_of_the_wrong_length_is_an_error_not_a_status(self, wrong, method):
        # As for a matrix of the wrong shape: norm checks the field's
        # length, and exp_map the direction's.
        class Short(GradientField):
            pass

        short = lambda self, p: SpectralTangent(np.ones(p.dim - 1))
        setattr(Short, wrong, short)
        with pytest.raises(DimMismatch):
            solve(Short(Objective(Family.F1, 1.0, 0.1)), random_spd(3, 9.0, 10.0, seed=0), SolverConfig(method=method))

    def test_max_iters_status(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        _, trace = solve(
            GradientField(obj),
            SpdPoint(np.array([[9.0]])),
            SolverConfig(max_iters=2, method=Method.FULL),
        )
        assert trace.status is Status.MAX_ITERS
        assert trace.nit == 2

    def test_line_search_failure_status(self):
        problem = RejectingMerit(Objective(Family.F1, 1.0, 0.1))
        _, trace = solve(problem, SpdPoint(np.array([[2.0]])), SolverConfig())
        assert trace.status is Status.LINE_SEARCH_FAILED
        assert trace.nit == 0

    def test_stationary_of_merit_status(self):
        _, trace = solve(FlatMeritField(), SpdPoint(np.eye(3)), SolverConfig())
        assert trace.status is Status.STATIONARY_OF_MERIT
        assert trace.nit == 0

    def test_a_zero_spectral_fallback_is_a_stationary_point(self):
        # Every SpectralTangent object is truthy: its coefficients are what
        # vanish.
        _, trace = solve(FlatSpectralMerit(), random_spd(3, 1.0, 2.0, seed=0), SolverConfig())
        assert trace.status is Status.STATIONARY_OF_MERIT
        assert trace.nit == 0

    def test_gradient_fallback_decreases_merit(self):
        field = ConstantField(np.eye(3))
        p0 = random_spd(3, 1.0, 2.0, seed=5)
        _, trace = solve(field, p0, SolverConfig(max_iters=12))
        assert trace.status is Status.MAX_ITERS
        assert all(r.direction_kind is DirectionKind.GRADIENT_FALLBACK for r in trace.records)
        merits = [r.merit for r in trace.records]
        assert all(a > b for a, b in zip(merits, merits[1:]))

    def test_damped_counters(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        _, trace = solve(GradientField(obj), SpdPoint(np.array([[10.0]])), SolverConfig())
        assert trace.status is Status.CONVERGED
        assert trace.he == trace.nit
        backtracks = sum(r.backtracks for r in trace.records)
        assert trace.ge == 2 * trace.nit + backtracks
        assert backtracks > 0 and trace.ge > trace.nit

    @pytest.mark.parametrize("seed", (42, 3))
    def test_each_trial_is_one_exp_map_call_from_the_line_search(self, seed, monkeypatch):
        # The benchmark's tracer counts a trial as an exp_map call made in the
        # line search, and an unevaluated trial as such a call, or the merit
        # evaluation after it, that raises.  That holds while each trial is
        # one exp_map call, which these runs (many backtrack past trials that
        # overflow or round outside the cone) check.
        calls, raises = {}, {}

        def counting(name, fn):
            def run(*args):
                calls[name] += 1
                try:
                    return fn(*args)
                except Exception:
                    raises[name] += 1
                    raise

            return run

        monkeypatch.setattr("rdn.solver.exp_map", counting("exp_map", exp_map))
        monkeypatch.setattr(GradientField, "merit_value", counting("merit", GradientField.merit_value))
        checked, unevaluated, failures = 0, 0, []
        for spec in table1_grid(seed, max_dim=100, init_eig_range=(1.0, 10.0)):
            if spec.method is not Method.DAMPED:
                continue
            calls.update(exp_map=0, merit=0)
            raises.update(exp_map=0, merit=0)
            p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
            _, trace = solve(GradientField(spec.objective()), p0, spec.config())
            if trace.status is not Status.CONVERGED:
                continue
            backtracks = sum(r.backtracks for r in trace.records)
            want = (trace.nit + backtracks, 2 * trace.nit + backtracks - trace.ge)
            got = (calls["exp_map"], raises["exp_map"] + raises["merit"])
            if got != want:
                failures.append(f"{spec.family.value} {spec.ratio} n={spec.dim}: {got} != {want}")
            checked += 1
            unevaluated += want[1]
        assert not failures, failures
        assert checked >= 10 and unevaluated > 0

    def test_full_counters(self):
        obj = Objective(Family.F1, 1.0, 1.0)
        _, trace = solve(
            GradientField(obj), SpdPoint(np.array([[4.0]])), SolverConfig(method=Method.FULL)
        )
        assert trace.status is Status.CONVERGED
        assert trace.he == trace.nit == trace.ge

    def test_spectral_full_step_forms_its_trial_once(self, monkeypatch):
        # The full step forms its one trial exp_P(v) once.
        problem = GradientField(Objective(Family.F1, 1.0, 0.1))
        p0 = random_spd(30, 9.0, 10.0, seed=4)
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x, *args: calls.append(np.shape(x)) or exp(x, *args))
        _, trace = solve(problem, p0, SolverConfig(method=Method.FULL, max_iters=1))
        assert trace.nit == 1 and trace.status is Status.MAX_ITERS
        assert calls == [(30,)]

    def test_record_fields(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        _, trace = solve(GradientField(obj), SpdPoint(np.array([[10.0]])), SolverConfig())
        for i, rec in enumerate(trace.records):
            assert rec.k == i
            assert rec.merit >= 0.0
            assert rec.alpha == 2.0 ** -round(math.log2(1.0 / rec.alpha))
            assert 0.0 < rec.alpha <= 1.0

    @pytest.mark.parametrize("method", [Method.DAMPED, Method.FULL])
    def test_records_keep_each_field_in_its_place(self, method):
        # Records are built positionally; a swapped field breaks one of these.
        checked = 0
        for spec in table1_grid(3, max_dim=100):
            if spec.method is not method:
                continue
            p0 = random_spd(spec.dim, *spec.init_eig_range, seed=spec.seed)
            _, trace = solve(GradientField(spec.objective()), p0, spec.config())
            for i, rec in enumerate(trace.records):
                assert rec.k == i
                assert rec.merit == 0.5 * rec.grad_norm * rec.grad_norm
                assert isinstance(rec.direction_kind, DirectionKind)
                if method is Method.DAMPED:
                    assert rec.alpha == 2.0**-rec.backtracks and rec.alpha > 0.0
                else:
                    assert rec.alpha == 1.0 and rec.backtracks == 0
                checked += 1
        assert checked > 0

    def test_on_iterate_sees_start_and_every_step(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        ks = []
        _, trace = solve(
            GradientField(obj), SpdPoint(np.array([[10.0]])), SolverConfig(),
            on_iterate=lambda k, p: ks.append(k),
        )
        assert ks == list(range(trace.nit + 1))

    def test_damped_equals_full_once_full_step_accepted(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        problem = GradientField(obj)
        points = []
        _, trace = solve(
            problem, random_spd(5, 9.0, 10.0, seed=2), SolverConfig(),
            on_iterate=lambda k, p: points.append(p),
        )
        assert trace.status is Status.CONVERGED
        unit_steps = [r.k for r in trace.records if r.alpha == 1.0]
        assert unit_steps
        for k in unit_steps:
            v, kind = direction(problem, points[k])
            assert kind is DirectionKind.NEWTON
            manual = exp_map(points[k], v).matrix
            got = points[k + 1].matrix
            assert np.linalg.norm(got - manual) <= 1e-12 * np.linalg.norm(manual)

    def test_elapsed_is_positive(self):
        obj = Objective(Family.F1, 1.0, 0.1)
        _, trace = solve(GradientField(obj), SpdPoint(np.array([[2.0]])), SolverConfig())
        assert trace.elapsed > 0.0


def test_a_thread_started_from_on_iterate_has_its_own_error_state():
    # The solver's error state belongs to its own thread: a direct norm in
    # a new thread sets its own, and its overflowing sum of squares warns
    # nowhere.
    p = SpdPoint(np.eye(3))
    seen, errors = [], []

    def measure():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                seen.append(norm(p, SpectralTangent(np.full(3, 1e200))))
        except Exception as err:  # reported below
            errors.append(err)

    def on_iterate(k, point):
        if k == 0:
            worker = threading.Thread(target=measure)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()

    obj = Objective(Family.F1, 1.0, 0.1)
    _, trace = solve(GradientField(obj), random_spd(4, 9.0, 10.0, seed=3), on_iterate=on_iterate)
    assert trace.status is Status.CONVERGED
    assert errors == [] and seen == [1e200 * np.sqrt(3.0)]


class TestFourMethodProtocol:
    def test_protocol_holds_what_solve_calls(self):
        methods = {name for name in vars(Problem) if not name.startswith("_")}
        assert methods == {"field_value", "newton_solve", "merit_value", "fallback_direction"}

    def test_armijo_needs_no_merit_gradient(self):
        problem = FourMethodField(np.eye(3))
        p = random_spd(3, 1.0, 2.0, seed=5)
        v = problem.fallback_direction(p)
        merit = problem.merit_value(p)
        res = armijo_stepsize(
            problem, p, v, sigma=1e-4, direction_kind=DirectionKind.GRADIENT_FALLBACK
        )
        assert res.accepted
        assert res.merit <= merit - 1e-4 * res.alpha * inner(p, v, v)

    def test_solve_runs_the_gradient_fallback(self):
        p0 = random_spd(3, 1.0, 2.0, seed=5)
        cfg = SolverConfig(max_iters=12)
        _, trace = solve(FourMethodField(np.eye(3)), p0, cfg)
        _, full = solve(ConstantField(np.eye(3)), p0, cfg)
        assert trace.status is Status.MAX_ITERS
        assert all(r.direction_kind is DirectionKind.GRADIENT_FALLBACK for r in trace.records)
        assert trace.records == full.records and trace.ge == full.ge
