import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rdn import manifold, objectives
from rdn.errors import DimMismatch, InvalidPoint, InvalidRange, SpectrumDomainError, StepOverflow
from rdn.linalg import mat_func, sym_eigen, symmetrize
from rdn.manifold import SpdPoint, SpectralTangent, distance, exp_map, inner, norm, random_spd
from rdn.solver import armijo_stepsize


def random_symmetric(rng, n, scale=1.0):
    return symmetrize(scale * rng.standard_normal((n, n)))


def well_conditioned_invertible(rng, n):
    """Random invertible matrix with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


class TestSpdPoint:
    def test_rejects_indefinite(self):
        with pytest.raises(InvalidPoint):
            SpdPoint(np.diag([1.0, -1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidPoint):
            SpdPoint(np.array([[np.inf]]))

    def test_matrix_is_frozen(self):
        p = SpdPoint(np.eye(2))
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 5.0

    def test_eigen_cache_reconstructs(self):
        p = SpdPoint(random_spd(6, 0.5, 3.0, seed=1).matrix)
        pair = p.eigen
        assert pair is p.eigen  # cached, not recomputed
        err = np.linalg.norm(pair.reconstruct() - p.matrix)
        assert err <= 1e-12 * np.linalg.norm(p.matrix)

    def test_entries_above_half_the_float_maximum_factor(self):
        # The matrix is exactly symmetric and finite, so eigen factors it as
        # it is: forming A + A^T again would overflow.
        p = SpdPoint(np.diag([1e308, 1.0]))
        assert list(p.eigen.values) == [1.0, 1e308]
        assert list(p.spectrum) == [1.0, 1e308]
        assert list(np.diag(p.inv_sqrt())) == [1e-154, 1.0]

    def test_every_point_made_near_the_rounding_floor_reads_its_spectrum(self):
        # A matrix is rejected where it is made, or it is a point whose
        # spectrum is finite and positive: no later read raises.  eigh's
        # spectrum reaches zero for some of these (n = 20 at 1e-18, seeds 4,
        # 10 and 11), and those are rejected.
        matrices = [np.diag([1e308, 1.0])]
        for n in (2, 3, 7, 20, 50):
            for spread in (1e-15, 1e-16, 1e-17, 1e-18, 1e-19):
                for seed in (0, 4, 10, 11):
                    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
                    matrices.append((q * np.geomspace(spread, 1.0, n)) @ q.T)
        made = 0
        for m in matrices:
            try:
                p = SpdPoint(m)
            except InvalidPoint:
                continue
            made += 1
            assert p.eigen.values[0] > 0.0 and np.isfinite(p.eigen.values).all()
            assert np.array_equal(p.spectrum, p.eigen.values)
            assert p.frame[0] is p.spectrum and p.frame[1] is p.eigen.vectors
            assert np.isfinite(p.inv_sqrt()).all()
        assert 0 < made < len(matrices)

    def test_every_constructor_returns_a_point_with_its_frame(self, monkeypatch):
        # Frames are held on the factorization a point is made with: eigh's
        # for a matrix, the lazy QR basis for a random start (still undrawn).
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        start = random_spd(4, 1.0, 10.0, seed=3)
        assert start.spectrum.shape == (4,) and drawn == []
        made = SpdPoint(start.matrix)
        assert drawn == [(4, 4)]
        points = [
            start,
            made,
            SpdPoint.from_frame(np.array([2.0, 1.0]), np.eye(2)),
            objectives.minimizer(objectives.Objective(objectives.Family.F1, 1.0, 2.0), 3),
            exp_map(made, SpectralTangent(np.full(4, 0.1))),
            exp_map(made, 0.1 * np.eye(4)),  # dense, series
            exp_map(made, random_symmetric(np.random.default_rng(3), 4)),  # dense, factored
        ]
        for p in points:
            values, basis = p.frame
            assert np.allclose((basis * values) @ basis.T, p.matrix, rtol=0, atol=1e-12 * values.max())
        assert made.frame[0] is made.eigen.values and made.frame[1] is made.eigen.vectors

    def test_rejects_dimension_zero(self):
        # As from_frame and random_spd do: a 0 x 0 point has no eigenvalue to
        # check, and solve from it would end in an IndexError.
        with pytest.raises(DimMismatch):
            SpdPoint(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "values, basis, error",
        [
            ([1.0, 2.0], np.eye(3), DimMismatch),
            ([1.0, 2.0], np.eye(2)[:, :1], DimMismatch),
            ([[1.0, 2.0]], np.eye(2), DimMismatch),
            ([], np.eye(0), DimMismatch),
            ([1.0, 2.0], np.ones((2, 2)), InvalidPoint),
            ([1.0, 2.0], np.array([[1.0, 0.0], [0.0, np.nan]]), InvalidPoint),
            ([1.0, 2.0], 2.0 * np.eye(2), InvalidPoint),
            ([1.0, 2.0], (1.0 + 1e-12) * np.eye(2), InvalidPoint),
            ([1.0, 0.0], np.eye(2), InvalidPoint),
        ],
        ids=["short", "not-square", "values-2d", "empty", "singular", "nan", "scaled", "near", "zero-value"],
    )
    def test_from_frame_rejects_what_is_not_a_frame(self, values, basis, error):
        with pytest.raises(error):
            SpdPoint.from_frame(values, basis)

    def test_a_frame_whose_matrix_overflows_rejects_its_matrix(self):
        # The frame is finite and positive, but on a rotated basis the
        # matrix's entries pass the float maximum.
        basis = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
        p = SpdPoint.from_frame(np.array([1.7e308, 1.7e308, 1.0]), basis)
        with pytest.raises(InvalidPoint):
            p.matrix

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 100])
    def test_from_frame_accepts_rotated_qr_bases(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            u = np.linalg.qr(rng.standard_normal((n, n)))[0]
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            values = rng.uniform(1.0, 10.0, n)
            for basis in (q, u @ q, np.linalg.eigh(symmetrize(rng.standard_normal((n, n))))[1]):
                p = SpdPoint.from_frame(values, basis)
                assert p.dim == n and p.frame[1] is basis

    def test_powers_are_formed_from_the_eigenpair_and_kept(self, monkeypatch):
        def formed(pair):
            raise AssertionError("formed the matrix")

        other = SpdPoint(random_spd(40, 1.0, 10.0, seed=6).matrix)  # distance reads its matrix
        monkeypatch.setattr(manifold.EigenPair, "reconstruct", formed)
        p = random_spd(40, 1.0, 10.0, seed=5)
        s = p.inv_sqrt()
        assert p.sqrt() is p.power(0.5) and p.inv() is p.power(-1.0) and p.power(-0.5) is s
        assert p.power(2.0) is p.power(2.0) and not p.power(2.0).flags.writeable
        # A point on the same eigenpair shares it, not the powers: it forms
        # its own P^t from that pair, with the same bits.
        twin = SpdPoint._from_spectrum(p.spectrum, p.eigen, p.eigen)
        assert twin.power(-0.5) is not s and twin.power(-0.5).tobytes() == s.tobytes()
        obj = objectives.Objective(objectives.Family.F2, 1.0, 0.5)
        objectives.newton_solve(obj, p)
        assert distance(p, other) > 0.0
        monkeypatch.undo()
        assert np.allclose(s @ p.matrix @ s, np.eye(40), rtol=0, atol=1e-12)


class TestInnerAndNorm:
    def test_identity_base(self):
        p = SpdPoint(np.eye(2))
        assert inner(p, np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_euclidean_case_is_trace_product(self):
        rng = np.random.default_rng(2)
        p = SpdPoint(np.eye(5))
        u, v = random_symmetric(rng, 5), random_symmetric(rng, 5)
        assert inner(p, u, v) == pytest.approx(np.trace(u @ v), rel=1e-12)

    def test_scalar(self):
        p = SpdPoint(np.array([[2.0]]))
        assert inner(p, np.array([[2.0]]), np.array([[2.0]])) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            inner(SpdPoint(np.eye(2)), np.eye(3), np.eye(3))

    @pytest.mark.parametrize("spectral_first", [True, False], ids=["spectral-matrix", "matrix-spectral"])
    def test_inner_of_a_spectral_tangent_and_a_matrix_raises(self, spectral_first):
        # DimMismatch, as norm and exp_map raise for a spectral tangent of
        # the wrong length.
        p = random_spd(3, 1.0, 3.0, seed=4)
        u, v = SpectralTangent(np.ones(3)), np.eye(3)
        args = (u, v) if spectral_first else (v, u)
        with pytest.raises(DimMismatch, match="spectral tangent and a matrix"):
            inner(p, *args)

    def test_norm_zero(self):
        assert norm(SpdPoint(np.eye(3)), np.zeros((3, 3))) == 0.0

    def test_norm_identity(self):
        assert norm(SpdPoint(np.eye(4)), np.eye(4)) == pytest.approx(2.0)

    def test_norm_scalar(self):
        assert norm(SpdPoint(np.array([[4.0]])), np.array([[4.0]])) == pytest.approx(1.0)

    def test_norm_rescales_only_where_the_sum_of_squares_overflows_or_underflows(self):
        p = SpdPoint(np.eye(3))
        assert norm(p, 1e200 * np.eye(3)) == 1e200 * np.sqrt(3.0)
        assert norm(p, SpectralTangent(np.full(3, 1e200))) == 1e200 * np.sqrt(3.0)
        # Beyond the float range, or with non-finite entries, it stays inf.
        assert norm(SpdPoint(np.eye(9)), 8e307 * np.eye(9)) == np.inf
        assert norm(p, SpectralTangent(np.array([1.0, np.inf, 1.0]))) == np.inf
        # Where the plain norm is finite its bits are kept.
        rng = np.random.default_rng(4)
        v = random_symmetric(rng, 3, scale=1e150)
        assert norm(p, v) == float(np.linalg.norm(v, "fro"))
        c = rng.standard_normal(3) * 1e150
        assert norm(p, SpectralTangent(c)) == float(np.linalg.norm(c))
        # Where the squares are subnormal or zero, it rescales: zero only for V = 0.
        p2 = SpdPoint(np.eye(2))
        for scale in (1e-160, 1e-170, 5e-324):
            exact = scale * np.sqrt(2.0)
            for r in (norm(p2, scale * np.eye(2)), norm(p2, SpectralTangent(np.full(2, scale)))):
                assert abs(r - exact) <= np.spacing(exact)
        assert norm(p2, np.zeros((2, 2))) == 0.0
        assert norm(p2, SpectralTangent(np.zeros(2))) == 0.0

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(deadline=None)
    def test_positive_definite_form(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_spd(n, 0.3, 4.0, seed=seed)
        v = random_symmetric(rng, n)
        assume(np.any(v))
        assert inner(p, v, v) > 0.0
        assert norm(p, v) == pytest.approx(np.sqrt(inner(p, v, v)), rel=1e-10)

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(deadline=None, max_examples=40)
    def test_affine_invariance(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_spd(n, 0.5, 5.0, seed=seed)
        u, v = random_symmetric(rng, n), random_symmetric(rng, n)
        a = well_conditioned_invertible(rng, n)
        p2 = SpdPoint(symmetrize(a @ p.matrix @ a.T))
        lhs = inner(p, u, v)
        rhs = inner(p2, symmetrize(a @ u @ a.T), symmetrize(a @ v @ a.T))
        assert rhs == pytest.approx(lhs, rel=1e-8, abs=1e-10)


class TestExpMap:
    def test_zero_step_is_identity(self):
        p = random_spd(5, 0.5, 3.0, seed=7)
        q = exp_map(p, np.zeros((5, 5)))
        assert np.array_equal(q.matrix, p.matrix)

    def test_at_identity_equals_matrix_exp(self):
        rng = np.random.default_rng(8)
        v = random_symmetric(rng, 4)
        q = exp_map(SpdPoint(np.eye(4)), v)
        assert np.allclose(q.matrix, mat_func(v, np.exp), rtol=1e-12, atol=1e-12)

    def test_scalar_closed_form(self):
        q = exp_map(SpdPoint(np.array([[2.0]])), np.array([[2.0]]))
        assert q.matrix[0, 0] == pytest.approx(2.0 * np.e, rel=1e-14)

    def test_overflowing_step(self):
        with pytest.raises(StepOverflow):
            exp_map(SpdPoint(np.array([[1.0]])), np.array([[800.0]]))

    def test_series_route_matches_spectral_form(self):
        p = random_spd(6, 0.8, 2.0, seed=9)
        rng = np.random.default_rng(9)
        v = random_symmetric(rng, 6)
        v *= 1e-7 / norm(p, v)  # below the series cutoff
        got = exp_map(p, v).matrix
        s, si = p.sqrt(), p.inv_sqrt()
        expected = s @ mat_func(symmetrize(si @ v @ si), np.exp) @ s
        assert np.allclose(got, expected, rtol=0, atol=1e-13 * np.linalg.norm(p.matrix))

    @given(st.integers(0, 10**6), st.integers(1, 5), st.floats(0.1, 10.0))
    @settings(deadline=None, max_examples=60)
    def test_stays_in_cone_for_large_steps(self, seed, n, ratio):
        rng = np.random.default_rng(seed)
        p = random_spd(n, 0.5, 2.0, seed=seed)
        v = random_symmetric(rng, n)
        assume(np.any(v))
        v *= ratio * np.linalg.norm(p.matrix) / np.linalg.norm(v)
        # keep the whitened step representable in doubles
        assume(norm(p, v) <= 12.0)
        q = exp_map(p, v)
        assert sym_eigen(q.matrix).values[0] > 0.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_stays_in_cone_at_ten_times_base_norm(self, n):
        # aligned step of Frobenius norm exactly 10 ||P||_F
        p = random_spd(n, 0.8, 1.25, seed=n)
        v = 10.0 * p.matrix
        q = exp_map(p, v)
        assert sym_eigen(q.matrix).values[0] > 0.0

    def test_series_bound_survives_underflow(self):
        # Every entry of the scaled step is below 1e-154, so its plain sum of
        # squares underflows to 0; the whitened step is still 1e10 I and its
        # exponential overflows, as it does for the unscaled pair.
        p0 = random_spd(5, 1.0, 4.0, seed=0).matrix
        with pytest.raises(StepOverflow):
            exp_map(SpdPoint(p0), 1e10 * p0)
        tiny = 2.0**-1016
        with pytest.raises(StepOverflow):
            exp_map(SpdPoint(tiny * p0), tiny * (1e10 * p0))
        # A tiny step that is small in the metric as well still lands on
        # P e^{1e-8}.
        q = exp_map(SpdPoint(tiny * p0), tiny * (1e-8 * p0))
        assert np.allclose(q.matrix, np.exp(1e-8) * (tiny * p0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("t", [1.0, 0.5, 0.75, 2.0])
    def test_step_argument_is_the_scaled_tangent_bitwise(self, t):
        # The step t along V is exp_map(p, t * V), as the line search forms
        # each trial: a scaled SpectralTangent steps as the tangent of the
        # scaled coefficients, to lambda e^{(t c) / lambda} bit for bit.
        rng = np.random.default_rng(11)
        p = random_spd(5, 0.5, 3.0, seed=11)
        c = rng.uniform(-2.0, 2.0, 5)
        got = exp_map(p, t * SpectralTangent(c)).spectrum.tobytes()
        assert got == exp_map(p, SpectralTangent(t * c)).spectrum.tobytes()
        assert got == (p.spectrum * np.exp((t * c) / p.spectrum)).tobytes()


def test_error_state_is_the_callers_after_an_overflowing_step():
    p = SpdPoint(np.eye(3))
    with np.errstate(all="raise", under="ignore"):
        caller = np.geterr()
        with pytest.raises(StepOverflow):
            exp_map(p, SpectralTangent(np.full(3, 1e3)))
        assert np.geterr() == caller
        # The next direct call still runs quiet.
        assert norm(p, SpectralTangent(np.full(3, 1e200))) == 1e200 * np.sqrt(3.0)
    before = np.geterr()
    with pytest.raises(StepOverflow):
        exp_map(SpdPoint(np.array([[1.0]])), np.array([[800.0]]))
    assert np.geterr() == before


class TestDistance:
    def test_self_distance(self):
        p = random_spd(4, 0.5, 3.0, seed=10)
        assert distance(p, p) == pytest.approx(0.0, abs=1e-13)

    def test_scalar_log_ratio(self):
        a = SpdPoint(np.array([[1.0]]))
        b = SpdPoint(np.array([[np.e**2]]))
        assert distance(a, b) == pytest.approx(2.0, rel=1e-14)

    def test_scalar_route_where_the_ratio_leaves_the_normal_range(self):
        # lambda / c overflows for c = 1e-320, underflows to zero for
        # c = 1e300 and to subnormals for c = 1e10; each reads
        # log lambda - log c.
        for low, high, c in ((1.0, 10.0, 1e-320), (1e-300, 1e-10, 1e300), (1e-305, 1e-300, 1e10)):
            p = random_spd(4, low, high, seed=3)
            scalar = SpdPoint(np.diag(np.full(4, c)))
            want = np.sqrt(np.sum((np.log(p.spectrum) - np.log(c)) ** 2))
            for a, b in ((p, scalar), (scalar, p)):
                assert distance(a, b) == pytest.approx(want, rel=1e-14)
        # Two scalar points: log c_b - log c_a.
        tiny, huge = SpdPoint(np.array([[1e-320]])), SpdPoint(np.array([[1e300]]))
        assert distance(tiny, huge) == pytest.approx(np.log(1e300) - np.log(1e-320), rel=1e-14)

    def test_symmetry(self):
        for seed in range(5):
            a = random_spd(6, 0.3, 4.0, seed=seed)
            b = random_spd(6, 0.3, 4.0, seed=seed + 100)
            assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            distance(SpdPoint(np.eye(2)), SpdPoint(np.eye(3)))

    def test_scalar_argument_matches_dense_route(self):
        # Scalar detection reads the spectrum: eigh resolves the 1e-18
        # perturbation into unequal eigenvalues, so c takes the general route
        # and c_exact the scalar one.
        p = random_spd(7, 0.5, 4.0, seed=12)
        c = SpdPoint(2.5 * np.eye(7) + 1e-18 * symmetrize(np.ones((7, 7))))
        c_exact = SpdPoint(2.5 * np.eye(7))
        assert manifold._scalar_coefficient(c) is None and manifold._scalar_coefficient(c_exact) == 2.5
        assert manifold._scalar_coefficient(p) is None
        assert distance(p, c_exact) == pytest.approx(distance(p, c), rel=1e-9)

    @given(st.integers(0, 10**6), st.integers(1, 6), st.floats(-2.0, 2.0))
    @settings(deadline=None, max_examples=60)
    def test_geodesic_speed(self, seed, n, t):
        rng = np.random.default_rng(seed)
        p = random_spd(n, 0.5, 2.0, seed=seed)
        v = random_symmetric(rng, n)
        assume(norm(p, v) > 1e-6)
        v *= 4.0 / norm(p, v)  # unit speed times four, representable for |t| <= 2
        d = distance(p, exp_map(p, t * v))
        assert d == pytest.approx(abs(t) * norm(p, v), rel=1e-8, abs=1e-9)

    def test_matches_step_norm(self):
        rng = np.random.default_rng(13)
        p = random_spd(8, 0.5, 2.0, seed=13)
        v = random_symmetric(rng, 8)
        v *= 3.0 / norm(p, v)
        assert distance(p, exp_map(p, v)) == pytest.approx(norm(p, v), rel=1e-10)

    def test_commuting_step_closed_form(self):
        # V polynomial in P: the step reduces to P e^{P^{-1} V} on the shared eigenbasis
        p = random_spd(6, 0.5, 2.0, seed=14)
        lam, q = p.eigen.values, p.eigen.vectors
        coeffs = (0.3, -0.2)
        v = mat_func(p.matrix, lambda x: coeffs[0] * x + coeffs[1] * x**2, eigen=p.eigen)
        got = exp_map(p, v).matrix
        expected = (q * (lam * np.exp(coeffs[0] + coeffs[1] * lam))) @ q.T
        assert np.allclose(got, expected, rtol=1e-10)


class TestRandomSpd:
    def test_deterministic(self):
        a = random_spd(12, 1.0, 10.0, seed=99)
        b = random_spd(12, 1.0, 10.0, seed=99)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        a = random_spd(5, 1.0, 10.0, seed=1)
        b = random_spd(5, 1.0, 10.0, seed=2)
        assert not np.array_equal(a.matrix, b.matrix)

    def test_collapsed_range_gives_identity_multiple(self):
        p = random_spd(6, 1.0, 1.0, seed=3)
        assert np.allclose(p.matrix, np.eye(6), atol=1e-12)

    def test_spectrum_within_bounds(self):
        p = random_spd(50, 1.0, 10.0, seed=21)
        assert np.all(p.eigen.values >= 1.0) and np.all(p.eigen.values <= 10.0)
        recomputed = sym_eigen(p.matrix).values
        assert np.all(recomputed >= 1.0 - 1e-9) and np.all(recomputed <= 10.0 + 1e-9)

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            random_spd(3, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidRange):
            random_spd(3, 2.0, 1.0, seed=0)
        with pytest.raises(InvalidRange):
            random_spd(0, 1.0, 2.0, seed=0)

    @pytest.mark.parametrize("seed", [None, -1, 1.5, "1"])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # None would draw an unseeded point, which breaks determinism.
        with pytest.raises(InvalidRange):
            random_spd(2, 1.0, 10.0, seed=seed)

    def test_numpy_integer_seeds_give_the_points_of_python_integers(self):
        for seed in (np.int64(7), np.uint32(7)):
            assert np.array_equal(random_spd(4, 1.0, 10.0, seed=seed).matrix, random_spd(4, 1.0, 10.0, seed=7).matrix)


class TestSpectralSeam:
    def test_spectral_operations_match_the_dense_route(self):
        rng = np.random.default_rng(15)
        p = random_spd(6, 0.5, 3.0, seed=15)
        basis = p.frame[1]
        cu, cv = rng.standard_normal(6), rng.standard_normal(6)
        u, v = SpectralTangent(cu), SpectralTangent(cv)
        du, dv = (basis * cu) @ basis.T, (basis * cv) @ basis.T
        assert norm(p, v) == pytest.approx(norm(p, dv), rel=1e-12)
        assert inner(p, u, v) == pytest.approx(inner(p, du, dv), rel=1e-12)
        got = exp_map(p, 0.5 * v)
        assert got.frame is not None and got.frame[1] is basis
        expected = exp_map(p, 0.5 * dv).matrix
        assert np.linalg.norm(got.matrix - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_unrepresentable_steps_raise(self):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        with pytest.raises(StepOverflow):
            exp_map(p, SpectralTangent(np.array([800.0, 0.0])))
        with pytest.raises(StepOverflow):  # spread e^-40 < 1e-17
            exp_map(p, SpectralTangent(np.array([0.0, -40.0])))
        with pytest.raises(StepOverflow):  # a nan coefficient gives a nan value
            exp_map(p, SpectralTangent(np.array([np.nan, 0.0])))
        with pytest.raises(StepOverflow):  # every value inf: the spread is nan
            exp_map(p, SpectralTangent(np.array([800.0, 800.0])))
        # Any spread from the rounding floor up is formed on the frame.
        for spread in (1e-13, 1e-15, 1e-16, 2e-17):
            got = exp_map(p, SpectralTangent(np.array([0.0, np.log(spread)])))
            assert got.frame[1] is p.frame[1] and got.spectrum[1] == pytest.approx(spread, rel=1e-13)

    def test_a_tangent_of_the_wrong_length_raises(self):
        # exp_map is the one place that checks a spectral direction's length.
        p = SpdPoint.from_frame(np.ones(3), np.eye(3))
        for coeffs in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            for t in (1.0, 0.5):
                with pytest.raises(DimMismatch):
                    exp_map(p, t * SpectralTangent(coeffs))

    @pytest.mark.parametrize(
        "value, coeff, want",
        [
            (0.5, 355.0, 1.116997383080855515626822229e308),  # 0.5 e^710: e^710 overflows
            (1e300, -750e300, 1.901684963475222736392809558e-26),  # 1e300 e^-750: e^-750 underflows
        ],
    )
    def test_a_trial_that_fits_is_formed_where_its_exponential_does_not(self, value, coeff, want):
        # lambda e^{c / lambda} in exact arithmetic (c / lambda rounds to
        # 710 and -749.9999999999999).
        p = SpdPoint.from_frame(np.array([value]), np.eye(1))
        got = exp_map(p, SpectralTangent(np.array([coeff]))).spectrum
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_overflowing_trials_stay_spectral(self):
        # The full and the half step overflow; the line search backtracks
        # past them to the quarter step, on the frame of its point.
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([2800.0, 2800.0]))
        field = objectives.GradientField(objectives.Objective(objectives.Family.F1, 1.0, 1e150))
        res = armijo_stepsize(field, p, v, 1e-4)
        assert (res.accepted, res.backtracks, res.evaluations) == (True, 2, 1)
        assert res.point.frame[1] is p.frame[1]
        assert res.point.spectrum.tobytes() == exp_map(p, 0.25 * v).spectrum.tobytes()

    def test_no_hand_over_at_extreme_magnitudes(self):
        # Only the spread decides whether a trial is formed: eigenvalues and
        # coefficients beyond 1e+-100, and spreads near the rounding floor at
        # any magnitude, step on the frame.
        still = SpectralTangent(np.zeros(2))
        for values in ([1e101, 2e101], [1e-101, 2e-101], [1e187, 1e201]):
            p = SpdPoint.from_frame(np.array(values), np.eye(2))
            assert np.array_equal(exp_map(p, still).spectrum, values)
        p = SpdPoint.from_frame(np.array([1.0, 2.0]), np.eye(2))
        cases = [  # (coefficients, step, trial)
            ([0.0, 1e101], 2.0**-400, [1.0, 2.0 * np.exp(2.0**-401 * 1e101)]),
            ([240.0, 480.0], 1.0, [np.exp(240.0), 2.0 * np.exp(240.0)]),  # 1.7e104
            ([200.0, 400.0], 1.0, [np.exp(200.0), 2.0 * np.exp(200.0)]),
        ]
        for coeffs, t, trial in cases:
            assert np.array_equal(exp_map(p, t * SpectralTangent(np.array(coeffs))).spectrum, trial)

    def test_dense_and_spectral_forms_agree(self):
        # The matrix formed from the frame, and the ascending factorization
        # read off it, are those of basis diag(values) basis^T.
        rng = np.random.default_rng(16)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        p = SpdPoint.from_frame(values, basis)
        assert np.array_equal(p.eigen.values, np.arange(1.0, 6.0))
        assert np.array_equal(p.eigen.vectors, basis[:, np.argsort(values)])
        assert np.allclose(p.matrix, (basis * values) @ basis.T, rtol=0, atol=1e-13)
        assert np.allclose(SpdPoint(p.matrix).spectrum, np.arange(1.0, 6.0), rtol=1e-13)


_HOSTILE_ENTRIES = st.one_of(
    st.sampled_from([np.nan, np.inf, 5e-324, 1e-310, 2.0**-1022, 1e200, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(st.tuples(_HOSTILE_ENTRIES, st.booleans()), min_size=1, max_size=12))
@settings(deadline=None, max_examples=300)
def test_certificates_decide_as_the_scans_they_replace(entries):
    # The spectral checks try a sum of squares or the spread test first and
    # scan only where that does not decide; each must answer as the scan.
    x = np.array([-e if negate else e for e, negate in entries])
    finite = bool(np.isfinite(x).all())
    # The two private checks run inside quiet callers in the solver.
    with np.errstate(all="ignore"):
        try:
            objectives._spectral(x)
            spectral_finite = True
        except SpectrumDomainError:
            spectral_finite = False
        # A trial, never negative, at or above the rounding floor is finite.
        assert not manifold._spread(np.abs(x)) >= 1e-17 or finite
    assert spectral_finite == finite


_NEAR_BOUNDS = st.one_of(
    st.sampled_from([np.nan, np.inf, 0.0, 5e-324, 1e-310, 2.0**-1022, 1e155, 1e200, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _same_bits(a, b):
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64) or (np.isnan(a) and np.isnan(b))


def _same_value(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@given(
    st.lists(st.tuples(_NEAR_BOUNDS, st.booleans()), min_size=1, max_size=12),
    st.integers(1, 1024),
    st.sampled_from(list(objectives.Family)),
)
@settings(deadline=None, max_examples=300)
def test_fast_forms_keep_the_bits_of_the_forms_they_replace(entries, size, family):
    # A spectral iteration reads sums of squares with ndarray.dot, sums with
    # ufunc.reduce, spreads at argmin/argmax, and the norm's plain sum of
    # squares without _frobenius.  Each gives the form it replaced: the same
    # bits where it feeds a value, the same decision where it feeds a test.
    x = np.resize(np.array([-e if negate else e for e, negate in entries]), size)
    positive = np.abs(x[np.isfinite(x) & (x != 0.0)])
    with np.errstate(all="ignore"):
        assert _same_bits(x.dot(x), x @ x)
        # Spreads are read off eigenvalues and trials, which are never below
        # +0: on signed zeros argmax and max() may pick different ones.
        mags = np.abs(x)
        assert _same_value(manifold._spread(mags), mags.min() / mags.max())
        # exp_map's spread test.
        assert (manifold._spread(mags) >= 1e-17) == (mags.min() / mags.max() >= 1e-17)
        if positive.size:
            values = np.resize(positive, size)
            p = SpdPoint.from_frame(values, np.eye(size))
            assert _same_bits(norm(p, SpectralTangent(x)), manifold._frobenius(x / values))
            for a, b in ((1.0, values[0]), (values[-1], 1.0)):
                obj = objectives.Objective(family, a, b)
                r = a - b / values if family is objectives.Family.F1 else a - b * values
                assert _same_bits(objectives.merit_value(obj, p), 0.5 * float(np.sum(r * r)))


def _eager_random_spd(dim, low, high, seed):
    """random_spd's recipe with the basis drawn at once: the spectrum, then
    the sign-fixed QR frame of a Gaussian matrix from the same generator."""
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(low, high, size=dim))
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return lam, q, symmetrize((q * lam) @ q.T)


class TestLazyStart:
    @pytest.mark.parametrize("dim,seed", [(1, 0), (2, 5), (7, 11), (100, 48453), (250, 3)])
    def test_matches_the_eager_recipe(self, dim, seed):
        lam, q, m = _eager_random_spd(dim, 1.0, 10.0, seed)
        p = random_spd(dim, 1.0, 10.0, seed=seed)
        assert p.spectrum is p.eigen.values
        assert np.array_equal(p.spectrum, lam)
        assert np.array_equal(p.matrix, m)
        assert np.array_equal(p.eigen.values, lam) and np.array_equal(p.eigen.vectors, q)
        # Eigendecomposition first, then through the frame.
        other = random_spd(dim, 1.0, 10.0, seed=seed)
        assert np.array_equal(other.eigen.vectors, q) and np.array_equal(other.matrix, m)
        framed = random_spd(dim, 1.0, 10.0, seed=seed)
        assert np.array_equal(framed.frame[1], q) and np.array_equal(framed.matrix, m)

    def test_spectral_form_draws_no_basis(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        p = random_spd(50, 1.0, 10.0, seed=8)
        step = exp_map(p, SpectralTangent(-0.1 * p.spectrum))
        assert p.dim == step.dim == 50 and drawn == []
        assert step.frame[1] is p.frame[1] and drawn == [(50, 50)]

    def test_lazy_factorization_draws_only_for_its_vectors(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        p = random_spd(50, 1.0, 10.0, seed=8)
        assert p.eigen.dim == 50 and np.array_equal(p.eigen.values, p.spectrum)
        assert p.eigen is p.eigen and drawn == []
        vectors = p.eigen.vectors
        assert drawn == [(50, 50)]
        assert p.eigen.vectors is vectors and p.frame[1] is vectors
        assert p.matrix.shape == (50, 50) and drawn == [(50, 50)]

    def test_threads_reading_one_fresh_point_agree(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(1), qr(a))[1])
        p = random_spd(200, 1.0, 10.0, seed=4)
        workers = 6  # more than the cores of a small machine
        barrier = threading.Barrier(workers)
        seen = [None] * workers

        def read(i):
            barrier.wait(timeout=10)
            seen[i] = p.matrix

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert drawn == [1]  # the basis is drawn once
        expected = _eager_random_spd(200, 1.0, 10.0, 4)[2]
        assert all(np.array_equal(m, expected) for m in seen)

    def test_matrix_is_formed_from_the_ascending_factorization(self):
        # A spectral step can reorder the frame; its matrix is still formed
        # from the ascending factorization, so the frame order moves no bit.
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        values = np.array([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
        formed = SpdPoint.from_frame(values, basis).matrix
        order = np.argsort(values)
        assert np.array_equal(formed, SpdPoint.from_frame(values[order], basis[:, order]).matrix)
        assert np.array_equal(formed, manifold.EigenPair(values[order], basis[:, order]).reconstruct())
