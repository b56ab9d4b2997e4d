import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rdn import manifold
from rdn.errors import DimMismatch, InvalidPoint, InvalidRange, StepOverflow
from rdn.linalg import mat_func, sym_eigen, symmetrize
from rdn.manifold import (
    DenseTangent,
    SpdPoint,
    SpectralTangent,
    distance,
    exp_map,
    inner,
    needs_dense,
    norm,
    random_spd,
)


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

    def test_supplied_eigen_must_be_positive(self):
        from rdn.linalg import EigenPair

        with pytest.raises(InvalidPoint):
            SpdPoint(np.eye(2), eigen=EigenPair(np.array([-1.0, 1.0]), np.eye(2)))


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

    def test_norm_zero(self):
        assert norm(SpdPoint(np.eye(3)), np.zeros((3, 3))) == 0.0

    def test_norm_identity(self):
        assert norm(SpdPoint(np.eye(4)), np.eye(4)) == pytest.approx(2.0)

    def test_norm_scalar(self):
        assert norm(SpdPoint(np.array([[4.0]])), np.array([[4.0]])) == pytest.approx(1.0)

    def test_norm_rescales_only_where_the_sum_of_squares_overflows(self):
        p = SpdPoint(np.eye(3))
        spectral = p.to_spectral()
        assert norm(p, 1e200 * np.eye(3)) == 1e200 * np.sqrt(3.0)
        assert norm(spectral, SpectralTangent(np.full(3, 1e200))) == 1e200 * np.sqrt(3.0)
        # Beyond the float range, or with non-finite entries, it stays inf.
        assert norm(SpdPoint(np.eye(9)), 8e307 * np.eye(9)) == np.inf
        assert norm(spectral, SpectralTangent(np.array([1.0, np.inf, 1.0]))) == np.inf
        # Where the plain norm is finite its bits are kept.
        rng = np.random.default_rng(4)
        v = random_symmetric(rng, 3, scale=1e150)
        assert norm(p, v) == float(np.linalg.norm(v, "fro"))
        c = rng.standard_normal(3) * 1e150
        assert norm(spectral, SpectralTangent(c)) == float(np.linalg.norm(c))

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


def test_error_state_is_the_callers_after_an_overflowing_step():
    p = SpdPoint(np.eye(3)).to_spectral()
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


def _trial(p, v):
    """The bits of exp_map(p, v), or StepOverflow if it raises that."""
    try:
        return exp_map(p, v).matrix.tobytes()
    except StepOverflow:
        return StepOverflow


def _counting_eigh(monkeypatch):
    """A list that grows by one for every np.linalg.eigh call from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _line_search_cases():
    """(point, direction, trial exponents j, reusable) over n <= 100 and
    j <= 60.  The unreusable ones reach the subnormal range: their
    direction has an entry of 1e-300, on a point of scale 1 or 2^-400."""
    rng = np.random.default_rng(20261018)
    for i in range(40):
        reusable = i % 4 != 3
        n = int(rng.choice([1, 2, 3, 7, 20, 100] if reusable else [2, 3, 7, 20, 100]))
        low = 10.0 ** rng.uniform(-3.0, 0.0)
        p = random_spd(n, low, low * 10.0 ** rng.uniform(0.0, 6.0), seed=i)
        v = random_symmetric(rng, n, scale=low * 10.0 ** rng.uniform(-3.0, 14.0))
        if not reusable:
            if i % 8 == 7:
                p, v = SpdPoint(2.0**-400 * p.matrix), 2.0**-400 * v
            v[0, -1] = v[-1, 0] = 1e-300
        js = sorted({0, *rng.integers(0, 61, size=6).tolist()})
        yield p, v, js, reusable


class TestDenseTangent:
    def test_trials_match_the_per_trial_recipe_bitwise(self, monkeypatch):
        # The shared factorization is bitwise what each trial would compute:
        # scaling by 2^-j commutes with rounding in the products, in eigh and
        # in exp.  A BLAS or LAPACK that breaks this fails here.
        fallbacks = 0
        for p, v, js, reusable in _line_search_cases():
            p.eigen
            calls = _counting_eigh(monkeypatch)
            want = [_trial(p, 2.0**-j * v) for j in js]
            own = len(calls)
            step = DenseTangent(v)
            got = [_trial(p, 2.0**-j * step) for j in js]
            shared = len(calls) - own
            monkeypatch.undo()
            mismatched = [j for j, g, w in zip(js, got, want) if g != w]
            assert not mismatched, (p.dim, mismatched, reusable)
            # One factorization for the line search, or one per trial where
            # the trials reach the subnormal range.
            assert shared == (min(own, 1) if reusable else own), (p.dim, js, reusable, own, shared)
            fallbacks += not reusable and own > 1
        assert fallbacks >= 5

    def test_shares_only_power_of_two_steps_at_one_point(self, monkeypatch):
        rng = np.random.default_rng(6)
        p, q = random_spd(5, 1.0, 3.0, seed=6), random_spd(5, 1.0, 3.0, seed=7)
        v = random_symmetric(rng, 5)
        p.eigen, q.eigen
        step = DenseTangent(v)
        exp_map(p, step)
        calls = _counting_eigh(monkeypatch)
        assert _trial(p, 0.25 * step) == _trial(p, 0.25 * v)
        assert len(calls) == 1  # the plain ndarray's own
        for t, at in ((0.75, p), (0.5, q), (2.0, p)):
            assert _trial(at, t * step) == _trial(at, t * v)
        assert len(calls) == 7

    def test_norm_and_inner_read_the_scaled_matrix(self):
        p = random_spd(4, 1.0, 3.0, seed=8)
        v = random_symmetric(np.random.default_rng(8), 4)
        step = 0.125 * DenseTangent(v)
        assert norm(p, step) == norm(p, 0.125 * v)
        assert inner(p, step, step) == inner(p, 0.125 * v, 0.125 * v)


class TestDistance:
    def test_self_distance(self):
        p = random_spd(4, 0.5, 3.0, seed=10)
        assert distance(p, p) == pytest.approx(0.0, abs=1e-13)

    def test_scalar_log_ratio(self):
        a = SpdPoint(np.array([[1.0]]))
        b = SpdPoint(np.array([[np.e**2]]))
        assert distance(a, b) == pytest.approx(2.0, rel=1e-14)

    def test_symmetry(self):
        for seed in range(5):
            a = random_spd(6, 0.3, 4.0, seed=seed)
            b = random_spd(6, 0.3, 4.0, seed=seed + 100)
            assert distance(a, b) == pytest.approx(distance(b, a), rel=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            distance(SpdPoint(np.eye(2)), SpdPoint(np.eye(3)))

    def test_scalar_argument_matches_dense_route(self):
        p = random_spd(7, 0.5, 4.0, seed=12)
        c = SpdPoint(2.5 * np.eye(7) + 1e-18 * symmetrize(np.ones((7, 7))))  # not detected as scalar
        c_exact = SpdPoint(2.5 * np.eye(7))
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


class TestSpectralSeam:
    def test_spectral_operations_match_the_dense_route(self):
        rng = np.random.default_rng(15)
        p = random_spd(6, 0.5, 3.0, seed=15).to_spectral()
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
        assert exp_map(p, SpectralTangent(np.array([0.0, -30.0]))).frame is not None

    def test_hand_over_near_the_rounding_floor(self):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([0.0, np.log(1e-15)]))
        assert needs_dense(p, v, np.array([1.0]))
        assert not needs_dense(p, v, np.array([0.5, 0.25]))
        assert not needs_dense(p, np.diag(v.coeffs), np.array([1.0]))
        narrow = SpdPoint.from_frame(np.array([1e-14, 1.0]), np.eye(2))
        assert needs_dense(narrow, SpectralTangent(np.zeros(2)), np.array([1.0]))

    def test_hand_over_below_the_rounding_floor(self):
        # The dense route accepts a few materialized matrices at a spread of
        # 1e-18, so such a trial is left to it rather than rejected here.
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([0.0, np.log(1e-18)]))
        assert needs_dense(p, v, np.array([1.0, 0.5]))
        with pytest.raises(StepOverflow):
            exp_map(p, v)
        underflow = SpectralTangent(np.array([0.0, -800.0]))
        assert needs_dense(p, underflow, np.array([1.0]))

    def test_overflowing_trials_stay_spectral(self):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        assert not needs_dense(p, SpectralTangent(np.array([800.0, 0.0])), np.array([1.0]))

    def test_hand_over_at_extreme_magnitudes(self):
        still = SpectralTangent(np.zeros(2))
        for values in ([1e101, 2e101], [1e-101, 2e-101]):
            assert needs_dense(SpdPoint.from_frame(np.array(values), np.eye(2)), still, np.ones(1))
        p = SpdPoint.from_frame(np.array([1.0, 2.0]), np.eye(2))
        assert needs_dense(p, SpectralTangent(np.array([0.0, 1e101])), np.array([2.0**-400]))
        assert needs_dense(p, SpectralTangent(np.array([240.0, 480.0])), np.ones(1))  # trial 1.7e104
        assert not needs_dense(p, SpectralTangent(np.array([200.0, 400.0])), np.ones(1))

    def test_dense_and_spectral_forms_agree(self):
        rng = np.random.default_rng(16)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        p = SpdPoint.from_frame(np.array([3.0, 1.0, 2.0, 5.0, 4.0]), basis)
        dense = p.to_dense()
        assert dense.frame is None
        assert np.array_equal(dense.eigen.values, np.arange(1.0, 6.0))
        assert np.allclose(dense.matrix, p.matrix, rtol=0, atol=1e-13)
        again = dense.to_spectral()
        assert again.eigen is dense.eigen and again.matrix is dense.matrix


def _counting_exp(monkeypatch):
    """A list that grows by one for every np.exp call from now on."""
    calls = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    return calls


def _fresh(p, v):
    """exp_map(p, v) with the trial formed again: a tangent of the same
    coefficients that shares nothing."""
    return exp_map(p, SpectralTangent(v.coeffs))


class TestSharedTrial:
    """needs_dense keeps the first finite trial it forms for the multiples of
    its tangent; exp_map returns it only for that step at that point."""

    def _setup(self):
        p = random_spd(6, 1.0, 10.0, seed=21).to_spectral()
        v = SpectralTangent(np.random.default_rng(21).uniform(-2.0, 2.0, 6))
        return p, v

    def test_reused_at_the_same_point_and_step(self, monkeypatch):
        p, v = self._setup()
        assert not needs_dense(p, v, np.array([1.0, 0.5]))
        calls = _counting_exp(monkeypatch)
        step = exp_map(p, 1.0 * v)
        again = exp_map(p, v)
        assert calls == []
        want = _fresh(p, v)
        assert np.array_equal(step.spectrum, want.spectrum) and np.array_equal(again.spectrum, want.spectrum)
        assert step.frame[1] is p.frame[1]

    def test_others_form_their_own(self, monkeypatch):
        p, v = self._setup()
        assert not needs_dense(p, v, np.array([1.0, 0.5]))
        twin = SpdPoint.from_frame(p.spectrum, p.frame[1])
        others = [
            (twin, 1.0 * v),  # another point, though equal
            (p, 0.5 * v),  # another step
            (p, SpectralTangent(v.coeffs)),  # an unrelated tangent, the same coefficients
            (p, 2.0 * (0.5 * v)),  # a multiple of a multiple
        ]
        calls = _counting_exp(monkeypatch)
        for point, step in others:
            got = exp_map(point, step)
            assert np.array_equal(got.spectrum, _fresh(point, step).spectrum)
        assert len(calls) == 2 * len(others)  # each formed its own, as _fresh did

    def test_overflowing_larger_steps_still_raise(self, monkeypatch):
        # The full step overflows in e^800; the half step 1e-90 e^400 = 5e83
        # lies inside the hand-over bounds.
        values = np.array([1e-90, 2e-90])
        p = SpdPoint.from_frame(values, np.eye(2))
        v = SpectralTangent(800.0 * values)
        assert not needs_dense(p, v, np.array([1.0, 0.5, 0.25]))
        calls = _counting_exp(monkeypatch)
        with pytest.raises(StepOverflow):
            exp_map(p, 1.0 * v)
        assert len(calls) == 1
        half = exp_map(p, 0.5 * v)
        assert len(calls) == 1
        assert np.array_equal(half.spectrum, _fresh(p, 0.5 * v).spectrum)

    def test_no_trial_is_kept_where_the_iteration_hands_over(self, monkeypatch):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([0.0, np.log(1e-15)]))
        assert needs_dense(p, v, np.array([1.0]))
        calls = _counting_exp(monkeypatch)
        exp_map(p, v)
        assert len(calls) == 1

    def test_checked_trial_is_not_checked_again_as_the_next_iterate(self, monkeypatch):
        p, v = self._setup()
        assert not needs_dense(p, v, np.ones(1))
        q = exp_map(p, v)
        ranges = []
        check = manifold._outside_handover_range
        monkeypatch.setattr(manifold, "_outside_handover_range", lambda x: ranges.append(x) or check(x))
        assert not needs_dense(q, SpectralTangent(np.zeros(6)), np.ones(1))
        assert len(ranges) == 1 and ranges[0] is not q.spectrum  # only the new trial
        ranges.clear()
        assert not needs_dense(_fresh(p, v), SpectralTangent(np.zeros(6)), np.ones(1))
        assert len(ranges) == 2  # the iterate and the trial


_TRIAL_STEPS = np.ldexp(1.0, -np.arange(61))


def _needs_dense_by_scan(p, v, steps):
    """The hand-over rule applied to the iterate and every trial step at once:
    the reference for needs_dense, which forms only the first finite trial."""
    values = p.spectrum
    if np.max(np.abs(v.coeffs)) > 1e100:
        return True
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        trials = values * np.exp(np.multiply.outer(steps, v.coeffs) / values)
        points = np.vstack([values, trials])
        low, high = points.min(axis=1), points.max(axis=1)
        inside = (low / high >= 1e-13) & (low >= 1e-100) & (high <= 1e100)
    finite = np.all(np.isfinite(points), axis=1)
    return bool(np.any(finite & ~inside))


def _near_a_bound(values, ulps=64):
    """Whether the spread, the least or the greatest eigenvalue lies within
    ``ulps`` units in the last place of its hand-over bound."""
    low, high = np.min(values), np.max(values)
    pairs = ((low / high, 1e-13), (low, 1e-100), (high, 1e100))
    return any(abs(x / bound - 1.0) <= ulps * 2.0**-52 for x, bound in pairs)


@st.composite
def _iterates_and_directions(draw):
    """A spectrum in 10^[-110, 110] of at most six values spread over at most
    fourteen decades, and coefficients whose whitened values c / lambda range
    from 1e-20 to 1e22 in magnitude, so that some trials overflow."""
    n = draw(st.integers(1, 6))
    floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
    centre, width = draw(st.floats(-110.0, 110.0)), draw(st.floats(0.0, 14.0))
    values = 10.0 ** np.clip(centre + width * np.array(draw(floats(0.0, 1.0))), -110.0, 110.0)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    return values, values * signs * 10.0 ** np.array(draw(floats(-20.0, 22.0)))


def _bits_to_float(bits):
    return float(np.int64(bits).view(np.float64))


@given(_iterates_and_directions(), st.booleans())
@settings(deadline=None, max_examples=300)
def test_needs_dense_agrees_with_the_scan_of_every_trial(case, aim):
    values, coeffs = case
    p = SpdPoint.from_frame(values, np.eye(values.size))
    scan = lambda scale: _needs_dense_by_scan(p, SpectralTangent(scale * coeffs), _TRIAL_STEPS)
    scales = [1.0]
    if aim and scan(1.0) and not scan(0.0):
        # Bisect the direction's length over the bit patterns of [0, 1] down to
        # two adjacent floats on which the scan's answer flips: there the
        # deciding trial or coefficient sits within rounding of its bound.
        lo, hi = 0, int(np.float64(1.0).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if scan(_bits_to_float(mid)) else (mid, hi)
        scales += [_bits_to_float(lo), _bits_to_float(hi)]
    for scale in scales:
        got, want = needs_dense(p, SpectralTangent(scale * coeffs), _TRIAL_STEPS), scan(scale)
        # needs_dense reads a subset of the scan's rows, so it never hands over
        # where the scan does not.  The converse rests on each bound holding on
        # an interval of steps from t = 0, which rounding can break only by an
        # ulp or two: an iterate lying on a bound, such as the spread 1e-13 of
        # [1, 1e13], may have smaller trials that rounding puts across it.
        assert want or not got
        if not _near_a_bound(values):
            assert got == want, (values, scale * coeffs)


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
        assert p.frame is None and not p.spectral
        assert np.array_equal(p.spectrum, lam)
        assert np.array_equal(p.matrix, m)
        assert np.array_equal(p.eigen.values, lam) and np.array_equal(p.eigen.vectors, q)
        # Eigendecomposition first, then through the spectral form.
        other = random_spd(dim, 1.0, 10.0, seed=seed)
        assert np.array_equal(other.eigen.vectors, q) and np.array_equal(other.matrix, m)
        spectral = random_spd(dim, 1.0, 10.0, seed=seed).to_spectral()
        assert np.array_equal(spectral.frame[1], q) and np.array_equal(spectral.matrix, m)

    def test_spectral_form_draws_no_basis(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        p = random_spd(50, 1.0, 10.0, seed=8).to_spectral()
        step = exp_map(p, SpectralTangent(-0.1 * p.spectrum))
        assert p.spectral and step.spectral and p.dim == step.dim == 50 and drawn == []
        assert step.frame[1] is p.frame[1] and drawn == [(50, 50)]
        assert p.to_dense().eigen is p.eigen and drawn == [(50, 50)]

    def test_lazy_factorization_draws_only_for_its_vectors(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        p = random_spd(50, 1.0, 10.0, seed=8)
        assert p.eigen.dim == 50 and np.array_equal(p.eigen.values, p.spectrum)
        assert p.to_spectral().eigen is p.eigen and drawn == []
        vectors = p.eigen.vectors
        assert drawn == [(50, 50)]
        assert p.eigen.vectors is vectors and p.to_spectral().frame[1] is vectors
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

    def test_to_dense_gives_back_the_arrays_made_spectral(self):
        p = SpdPoint(random_spd(5, 1.0, 10.0, seed=2).matrix)
        spectral = p.to_spectral()
        back = spectral.to_dense()
        assert back.frame is None and not back.spectral
        assert back.matrix is p.matrix and back.eigen is p.eigen
        start = random_spd(5, 1.0, 10.0, seed=2)
        back = start.to_spectral().to_dense()
        assert back.eigen is start.eigen and np.array_equal(back.matrix, start.matrix)
        # The spectral form shares the start's own factorization, not one
        # rebuilt from its frame: the basis copy that rebuild makes holds the
        # same values in another memory layout, and the dense route's products
        # then round differently (f2 0.01 n=100 damped seed 48453, start range
        # 1,10, on one OpenBLAS thread: GE 18 instead of 19).
        fresh = random_spd(5, 1.0, 10.0, seed=2)
        assert fresh.to_spectral().eigen is fresh.eigen

    def test_matrix_is_formed_from_the_ascending_factorization(self):
        # A spectral step can reorder the frame; its matrix is still the one
        # its dense form holds, so reading it first changes nothing.
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        values = np.array([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
        read_first = SpdPoint.from_frame(values, basis)
        formed = read_first.matrix
        dense = SpdPoint.from_frame(values, basis).to_dense()
        assert np.array_equal(formed, dense.matrix)
        assert read_first.to_dense().matrix is formed
