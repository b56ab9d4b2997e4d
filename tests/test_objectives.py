import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdn.errors import DimMismatch
from rdn.linalg import symmetrize
from rdn.manifold import SpdPoint, exp_map, inner, norm, random_spd
from rdn.objectives import (
    Family,
    GradientField,
    Objective,
    euclidean_grad,
    euclidean_hess_apply,
    hess_apply,
    merit_gradient,
    merit_value,
    minimizer,
    newton_solve,
    riemannian_grad,
    value,
)
from rdn.solver import solve

F1 = Family.F1
F2 = Family.F2


def random_symmetric(rng, n, scale=1.0):
    return symmetrize(scale * rng.standard_normal((n, n)))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def objective_cases():
    return [Objective(F1, 1.0, 0.1), Objective(F1, 2.0, 3.0), Objective(F2, 1.0, 0.05), Objective(F2, 1.5, 0.4)]


class TestObjective:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -2.0)])
    def test_coefficients_must_be_positive(self, a, b):
        with pytest.raises(ValueError):
            Objective(F1, a, b)

    def test_ratio(self):
        assert Objective(F2, 2.0, 1.0).ratio == 0.5

    @pytest.mark.parametrize("a,b", [("1", 0.1), (1.0, None), (True, 0.1)], ids=["str", "none", "bool"])
    def test_coefficients_must_be_real_numbers(self, a, b):
        with pytest.raises(ValueError, match="must be a real number"):
            Objective(F1, a, b)

    def test_family_given_as_a_string_is_its_enum(self):
        # "f1" once failed the family-one test and solved family two.
        obj = Objective("f1", 1.0, 0.1)
        assert obj.family is F1
        point, trace = solve(GradientField(obj), random_spd(3, 9.0, 10.0, seed=1))
        assert trace.nit == 6 and np.allclose(point.spectrum, 0.1, rtol=1e-8, atol=0.0)
        with pytest.raises(ValueError, match="Family"):
            Objective("f3", 1.0, 0.1)


class TestValue:
    def test_f1_at_identity(self):
        # ln det I = 0 and tr I^{-1} = 3
        assert value(Objective(F1, 1.0, 1.0), SpdPoint(np.eye(3))) == pytest.approx(3.0)

    def test_f2_at_identity(self):
        assert value(Objective(F2, 1.0, 1.0), SpdPoint(np.eye(3))) == pytest.approx(-3.0)

    def test_log_det_term(self):
        # a ln det(diag(e, e)) = 2 a; the trace term adds b * 2/e
        p = SpdPoint(np.diag([np.e, np.e]))
        assert value(Objective(F1, 2.0, 1.0), p) == pytest.approx(4.0 + 2.0 / np.e, rel=1e-14)

    def test_matches_dense_formula(self):
        for seed, obj in enumerate(objective_cases()):
            p = random_spd(6, 0.5, 4.0, seed=seed)
            logdet = np.log(np.linalg.det(p.matrix))
            if obj.family is F1:
                expected = obj.a * logdet + obj.b * np.trace(np.linalg.inv(p.matrix))
            else:
                expected = obj.a * logdet - obj.b * np.trace(p.matrix)
            assert value(obj, p) == pytest.approx(expected, rel=1e-11)


class TestEuclideanDerivatives:
    def test_f1_gradient_at_identity(self):
        obj = Objective(F1, 2.0, 0.5)
        g = euclidean_grad(obj, SpdPoint(np.eye(4)))
        assert np.allclose(g, (obj.a - obj.b) * np.eye(4))

    def test_f1_gradient_scalar(self):
        g = euclidean_grad(Objective(F1, 1.0, 0.1), SpdPoint(np.array([[2.0]])))
        assert g[0, 0] == pytest.approx(0.475)  # 1/2 - 0.1/4

    def test_f2_hessian_at_identity(self):
        obj = Objective(F2, 1.3, 0.2)
        h = euclidean_hess_apply(obj, SpdPoint(np.eye(3)), np.eye(3))
        assert np.allclose(h, -obj.a * np.eye(3))


class TestRiemannianGradient:
    def test_vanishes_at_minimizers(self):
        for obj in objective_cases():
            star = minimizer(obj, 4)
            assert np.all(riemannian_grad(obj, star) == 0.0)

    def test_f1_at_identity(self):
        g = riemannian_grad(Objective(F1, 1.0, 0.1), SpdPoint(np.eye(3)))
        assert np.allclose(g, 0.9 * np.eye(3))

    @pytest.mark.parametrize("obj", objective_cases())
    def test_matches_conversion_formula(self, obj):
        # closed form versus P f'(P) P
        p = random_spd(7, 0.4, 3.0, seed=17)
        converted = symmetrize(p.matrix @ euclidean_grad(obj, p) @ p.matrix)
        g = riemannian_grad(obj, p)
        assert np.linalg.norm(g - converted) <= 1e-10 * max(1.0, np.linalg.norm(g))


class TestHessian:
    def test_f1_at_identity(self):
        rng = np.random.default_rng(0)
        obj = Objective(F1, 1.0, 0.7)
        v = random_symmetric(rng, 4)
        assert np.allclose(hess_apply(obj, SpdPoint(np.eye(4)), v), obj.b * v, atol=1e-12)

    def test_f2_at_identity(self):
        rng = np.random.default_rng(1)
        obj = Objective(F2, 1.0, 0.3)
        v = random_symmetric(rng, 4)
        assert np.allclose(hess_apply(obj, SpdPoint(np.eye(4)), v), -obj.b * v, atol=1e-12)

    def test_linear_in_v(self):
        obj = Objective(F1, 1.0, 0.5)
        p = random_spd(3, 0.5, 2.0, seed=2)
        assert np.all(hess_apply(obj, p, np.zeros((3, 3))) == 0.0)

    @pytest.mark.parametrize("obj", objective_cases())
    def test_reduces_to_lyapunov_form(self, obj):
        # general conversion formula against the per-family simplification
        rng = np.random.default_rng(3)
        p = random_spd(6, 0.5, 3.0, seed=3)
        v = random_symmetric(rng, 6)
        got = hess_apply(obj, p, v)
        if obj.family is F1:
            pinv = p.inv()
            expected = 0.5 * obj.b * (v @ pinv + pinv @ v)
        else:
            expected = -0.5 * obj.b * (v @ p.matrix + p.matrix @ v)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))


class TestNewtonSolve:
    def test_f1_closed_form_scalar(self):
        v = newton_solve(Objective(F1, 1.0, 0.1), SpdPoint(np.array([[1.0]])))
        assert v[0, 0] == pytest.approx(-9.0, rel=1e-13)

    def test_zero_at_minimizers(self):
        for obj in objective_cases():
            star = minimizer(obj, 3)
            assert np.allclose(newton_solve(obj, star), 0.0, atol=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 10))
    @settings(deadline=None, max_examples=40)
    def test_f1_closed_form_random(self, seed, n):
        obj = Objective(F1, 1.0, 0.4)
        p = random_spd(n, 0.3, 3.0, seed=seed)
        v = newton_solve(obj, p)
        closed = p.matrix - (obj.a / obj.b) * p.power(2.0)
        assert np.linalg.norm(v - closed) <= 1e-10 * max(1.0, np.linalg.norm(closed))

    def test_f2_closed_form_random(self):
        obj = Objective(F2, 1.0, 0.05)
        p = random_spd(8, 0.5, 4.0, seed=23)
        v = newton_solve(obj, p)
        closed = (obj.a / obj.b) * np.eye(8) - p.matrix
        assert np.linalg.norm(v - closed) <= 1e-10 * np.linalg.norm(closed)

    @pytest.mark.parametrize("obj", objective_cases())
    def test_newton_residual(self, obj):
        p = random_spd(9, 0.5, 4.0, seed=29)
        v = newton_solve(obj, p)
        grad = riemannian_grad(obj, p)
        resid = np.linalg.norm(hess_apply(obj, p, v) + grad)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(grad))


class TestMerit:
    def test_zero_at_minimizers(self):
        for obj in objective_cases():
            star = minimizer(obj, 5)
            assert merit_value(obj, star) == 0.0
            assert np.allclose(merit_gradient(obj, star), 0.0, atol=1e-12)

    def test_f1_scalar_value(self):
        got = merit_value(Objective(F1, 1.0, 0.1), SpdPoint(np.array([[1.0]])))
        assert got == pytest.approx(0.405)  # (1 - 0.1)^2 / 2

    def test_f2_scalar_gradient(self):
        g = merit_gradient(Objective(F2, 1.0, 1.0), SpdPoint(np.array([[2.0]])))
        assert g[0, 0] == pytest.approx(4.0)  # b^2 p^3 - a b p^2 = 8 - 4

    @pytest.mark.parametrize("family", [F1, F2])
    def test_gradient_past_the_float_range_is_not_finite(self, family):
        p = random_spd(3, 1.0, 2.0, seed=3)
        for b in (0.1, 1e100, 1e150):  # b^2 finite: the Python-float formula's bits
            a = 1.0
            if family is F1:
                want = symmetrize(a * b * np.eye(3) - b**2 * p.inv())
            else:
                want = symmetrize(b**2 * p.power(3.0) - a * b * p.power(2.0))
            assert np.array_equal(merit_gradient(Objective(family, a, b), p), want)
        assert not np.all(np.isfinite(merit_gradient(Objective(family, 1.0, 1e200), p)))

    @pytest.mark.parametrize("obj", objective_cases())
    def test_value_is_half_squared_field_norm(self, obj):
        p = random_spd(6, 0.5, 3.0, seed=31)
        x = riemannian_grad(obj, p)
        assert merit_value(obj, p) == pytest.approx(0.5 * inner(p, x, x), rel=1e-12)

    @pytest.mark.parametrize("obj", objective_cases())
    def test_gradient_matches_adjoint_of_field(self, obj):
        # grad phi = Hess f applied to grad f (the Hessian is self-adjoint)
        p = random_spd(7, 0.5, 3.0, seed=37)
        expected = hess_apply(obj, p, riemannian_grad(obj, p))
        got = merit_gradient(obj, p)
        assert np.linalg.norm(got - expected) <= 1e-10 * max(1.0, np.linalg.norm(expected))

    @pytest.mark.parametrize("family,b", [(F1, 0.6), (F2, 0.15)])
    def test_gradient_matches_finite_differences(self, family, b):
        # entrywise Euclidean FD of phi, converted by P G P
        obj = Objective(family, 1.0, b)
        n, h = 4, 1e-6
        p = random_spd(n, 0.8, 3.0, seed=9)
        g = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                basis = np.zeros((n, n))
                basis[i, j] = basis[j, i] = 1.0
                diff = (
                    merit_value(obj, SpdPoint(p.matrix + h * basis))
                    - merit_value(obj, SpdPoint(p.matrix - h * basis))
                ) / (2.0 * h)
                g[i, j] = g[j, i] = diff if i == j else diff / 2.0
        converted = symmetrize(p.matrix @ g @ p.matrix)
        expected = merit_gradient(obj, p)
        assert np.linalg.norm(converted - expected) <= 1e-5 * np.linalg.norm(expected)


class TestMinimizer:
    def test_f1(self):
        star = minimizer(Objective(F1, 1.0, 0.1), 3)
        assert np.array_equal(star.matrix, 0.1 * np.eye(3))

    def test_f2(self):
        star = minimizer(Objective(F2, 1.0, 0.002), 2)
        assert np.array_equal(star.matrix, 500.0 * np.eye(2))

    def test_equal_coefficients(self):
        for family in (F1, F2):
            star = minimizer(Objective(family, 0.7, 0.7), 4)
            assert np.array_equal(star.matrix, np.eye(4))

    @pytest.mark.parametrize("n", [1, 2, 100])
    @pytest.mark.parametrize("obj", [Objective(F1, 1.0, 0.1), Objective(F2, 3.0, 0.7)])
    def test_bits_and_a_basis_formed_only_when_read(self, monkeypatch, obj, n):
        eyes = []
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda *a, **k: (eyes.append(a), eye(*a, **k))[1])
        star = minimizer(obj, n)
        c = obj.ratio if obj.family is F1 else obj.a / obj.b
        assert _bits(star.matrix) == _bits(c * eye(n))
        assert _bits(star.eigen.values) == _bits(np.full(n, c)) and _bits(star.spectrum) == _bits(np.full(n, c))
        assert eyes == []
        assert np.array_equal(star.eigen.vectors, eye(n)) and len(eyes) == 1

    def test_above_half_the_float_maximum(self):
        # c + c overflows; the point still holds c I, bit for bit.
        star = minimizer(Objective(F1, 1.0, 1.5e308), 3)
        assert _bits(star.matrix) == _bits(1.5e308 * np.eye(3))


@pytest.mark.parametrize("n", [0, -1])
def test_minimizer_rejects_a_dimension_below_one(n):
    # Built from its spectrum, the minimizer checks n itself, as SpdPoint does.
    with pytest.raises(DimMismatch):
        minimizer(Objective(F1, 1.0, 0.1), n)


class TestDerivativeChecks:
    """Directional finite-difference checks through the exponential map."""

    @pytest.mark.parametrize("family,b", [(F1, 0.7), (F2, 0.3)])
    def test_gradient_and_hessian(self, family, b):
        obj = Objective(family, 1.0, b)
        rng = np.random.default_rng(71)
        for _ in range(10):
            p = random_spd(6, 1.0, 4.0, seed=int(rng.integers(2**31)))
            v = random_symmetric(rng, 6)
            v /= norm(p, v)

            def f(t, h):
                return value(obj, exp_map(p, (t * h) * v))

            h = 1e-5
            fd_grad = (f(1, h) - f(-1, h)) / (2.0 * h)
            analytic = inner(p, riemannian_grad(obj, p), v)
            assert fd_grad == pytest.approx(analytic, rel=1e-6)

            h = 1e-4
            fd_hess = (f(1, h) - 2.0 * f(0, h) + f(-1, h)) / h**2
            analytic_h = inner(p, hess_apply(obj, p, v), v)
            assert fd_hess == pytest.approx(analytic_h, rel=1e-4)


class TestDescentIdentity:
    @pytest.mark.parametrize("family,b", [(F1, 0.3), (F2, 0.05)])
    def test_newton_direction_slope(self, family, b):
        # <grad phi, v> = -||X||^2 whenever v solves the Newton system
        obj = Objective(family, 1.0, b)
        for seed in range(20):
            p = random_spd(8, 0.5, 5.0, seed=1000 + seed)
            g = riemannian_grad(obj, p)
            if norm(p, g) < 1e-12:
                continue
            v = newton_solve(obj, p)
            slope = inner(p, merit_gradient(obj, p), v)
            assert slope == pytest.approx(-norm(p, g) ** 2, rel=1e-8)
            assert slope < 0.0


class TestGradientField:
    def test_field_is_riemannian_gradient(self):
        obj = Objective(F1, 1.0, 0.2)
        field = GradientField(obj)
        p = random_spd(4, 0.5, 2.0, seed=41)
        # In the point's frame, and as the matrix at its frameless view.
        values, basis = p.frame
        assert np.allclose((basis * field.field_value(p).coeffs) @ basis.T, riemannian_grad(obj, p), rtol=0, atol=1e-14)
        assert np.array_equal(field.field_value(p._dense()), riemannian_grad(obj, p))
        assert np.array_equal(field.fallback_direction(p), -merit_gradient(obj, p))
        assert field.merit_value(p) == merit_value(obj, p)


@pytest.mark.parametrize(
    "call",
    [
        lambda: riemannian_grad(Objective(F2, 1.0, 1e300), SpdPoint(1e10 * np.eye(2))),
        lambda: hess_apply(Objective(F2, 1.0, 1e300), SpdPoint(1e10 * np.eye(2)), np.eye(2)),
        lambda: euclidean_grad(Objective(F1, 1.0, 1e300), SpdPoint(1e-10 * np.eye(2))),
        lambda: euclidean_hess_apply(Objective(F1, 1.0, 1e300), SpdPoint(1e-10 * np.eye(2)), np.eye(2)),
    ],
    ids=["riemannian_grad", "hess_apply", "euclidean_grad", "euclidean_hess_apply"],
)
def test_public_conversions_overflow_without_a_warning(call):
    # The suite turns warnings into errors; past the float range each gives
    # inf entries instead.
    assert np.isinf(call()).any()
