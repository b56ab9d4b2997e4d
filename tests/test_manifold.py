import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rdn import manifold, objectives
from rdn.errors import DimMismatch, InvalidPoint, InvalidRange, SpectrumDomainError, StepOverflow
from rdn.linalg import mat_func, sym_eigen, symmetrize
from rdn.manifold import (
    Line,
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

    def test_entries_above_half_the_float_maximum_factor(self):
        # The matrix is exactly symmetric and finite, so eigen factors it as
        # it is: forming A + A^T again would overflow.
        p = SpdPoint(np.diag([1e308, 1.0]))
        assert list(p.eigen.values) == [1.0, 1e308]
        assert list(p.spectrum) == [1.0, 1e308]
        assert list(np.diag(p.inv_sqrt())) == [1e-154, 1.0]

    def test_every_point_made_near_the_rounding_floor_reads_its_spectrum(self):
        # A matrix is rejected where it is made, or it is a point whose
        # spectrum is finite and positive: no later read raises.  Cholesky
        # accepts some of these spectra whose eigh spectrum reaches zero
        # (n = 20 at 1e-18, seeds 4, 10 and 11).
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
            assert p.spectral and p.frame[0] is p.spectrum and p.frame[1] is p.eigen.vectors
            assert np.isfinite(p.inv_sqrt()).all()
        assert 0 < made < len(matrices)

    def test_every_constructor_returns_a_point_with_its_frame(self, monkeypatch):
        # Frames are held on the factorization a point is made with: eigh's
        # for a matrix, the lazy QR basis for a random start (still undrawn).
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        start = random_spd(4, 1.0, 10.0, seed=3)
        assert start.spectral and drawn == []
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
            assert p.spectral and p.frame is not None
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
        # A frameless view shares the eigenpair, not the powers: it forms its
        # own P^t from that pair, with the same bits.
        dense = p._dense()
        assert dense.eigen is p.eigen and dense.power(-0.5) is not s
        assert dense.power(-0.5).tobytes() == s.tobytes()
        again = p._dense()
        assert again is not dense and again.eigen is p.eigen
        assert again.power(2.0).tobytes() == p.power(2.0).tobytes()
        obj = objectives.Objective(objectives.Family.F2, 1.0, 0.5)
        objectives.newton_solve(obj, dense)
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
        # DimMismatch, as norm and exp_map raise for a spectral tangent at a
        # point without a frame; at a point and at its frameless view alike.
        p = random_spd(3, 1.0, 3.0, seed=4)
        u, v = SpectralTangent(np.ones(3)), np.eye(3)
        args = (u, v) if spectral_first else (v, u)
        for at in (p, p._dense()):
            with pytest.raises(DimMismatch, match="spectral tangent and a matrix"):
                inner(at, *args)

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
        rng = np.random.default_rng(11)
        p = random_spd(5, 0.5, 3.0, seed=11)
        for v in (random_symmetric(rng, 5), 1e-8 * random_symmetric(rng, 5)):  # factored and series
            assert exp_map(p, v, t).matrix.tobytes() == exp_map(p, t * v).matrix.tobytes()
        v = SpectralTangent(rng.uniform(-2.0, 2.0, 5))
        assert exp_map(p, v, t).spectrum.tobytes() == exp_map(p, t * v).spectrum.tobytes()


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


def _trial(p, v, t=1.0):
    """The bits of exp_map(p, v, t), or StepOverflow if it raises that."""
    try:
        return exp_map(p, v, t).matrix.tobytes()
    except StepOverflow:
        return StepOverflow


def _trials_along_and_plain(monkeypatch, p, v, js):
    """The trials 2^-j along Line(p, v) and of the plain tangents 2^-j v, and
    how many whitened steps each factors."""
    calls = []
    monkeypatch.setattr(manifold, "sym_eigen", lambda a: calls.append(a.shape) or sym_eigen(a))
    want = [_trial(p, 2.0**-j * v) for j in js]
    own = len(calls)
    line = Line(p, v)
    got = [_trial(p, line, 2.0**-j) for j in js]
    monkeypatch.undo()
    return got, want, own, len(calls) - own


def _line_search_cases():
    """(point, direction, trial exponents j, subnormal) over n <= 100 and
    j <= 60.  The subnormal ones reach the subnormal range: their
    direction has an entry of 1e-300, on a point of scale 1 or 2^-400."""
    rng = np.random.default_rng(20261018)
    for i in range(40):
        subnormal = i % 4 == 3
        n = int(rng.choice([2, 3, 7, 20, 100] if subnormal else [1, 2, 3, 7, 20, 100]))
        low = 10.0 ** rng.uniform(-3.0, 0.0)
        p = random_spd(n, low, low * 10.0 ** rng.uniform(0.0, 6.0), seed=i)
        v = random_symmetric(rng, n, scale=low * 10.0 ** rng.uniform(-3.0, 14.0))
        if subnormal:
            if i % 8 == 7:
                p, v = SpdPoint(2.0**-400 * p.matrix), 2.0**-400 * v
            v[0, -1] = v[-1, 0] = 1e-300
        js = sorted({0, *rng.integers(0, 61, size=6).tolist()})
        yield p, v, js, subnormal


class TestLine:
    def test_trials_match_the_per_trial_recipe_bitwise(self, monkeypatch):
        # Each step of a line is bitwise the step of the scaled tangent.  The
        # line factors one whitened step, its first, and scales that
        # eigenpair for the later steps; a trial that could near the
        # subnormal range (here every trial of the subnormal cases) factors
        # its own, as the plain tangents do.
        subnormal_factored = 0
        for p, v, js, subnormal in _line_search_cases():
            got, want, own, along = _trials_along_and_plain(monkeypatch, p, v, js)
            mismatched = [j for j, g, w in zip(js, got, want) if g != w]
            assert not mismatched, (p.dim, mismatched, subnormal)
            # One for the line, plus one for each guarded trial.
            assert along == (own if subnormal else min(own, 1)), (p.dim, js, subnormal, own, along)
            subnormal_factored += subnormal and own > 1
        assert subnormal_factored >= 5

    def test_trials_across_the_scaling_floor_match_bitwise(self, monkeypatch):
        # A whitened direction with entries a few octaves above the scaling
        # floor: the first steps scale the line's eigenpair, the later ones
        # (until the series route takes over) factor their own, and every
        # step keeps the per-trial bits.  A diagonal point keeps the tiny
        # entries through the whitening.
        rng = np.random.default_rng(20261020)
        floor = manifold._SCALING_FLOOR
        for n in (2, 3, 7, 20):
            lam = rng.uniform(0.5, 2.0, n)
            p = SpdPoint(np.diag(lam))
            v = random_symmetric(rng, n)
            for _ in range(n // 2 + 1):
                a, b = rng.integers(0, n, size=2)
                v[a, b] = v[b, a] = floor * 2.0 ** rng.uniform(5.0, 12.0)
            got, want, own, along = _trials_along_and_plain(monkeypatch, p, v, range(61))
            assert got == want, n
            assert 1 < along < own, (n, own, along)


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
        assert exp_map(p, SpectralTangent(np.array([0.0, -30.0]))).frame is not None

    @pytest.mark.parametrize(
        "value, coeff, want",
        [
            (0.5, 355.0, 1.116997383080855515626822229e308),  # 0.5 e^710: e^710 overflows
            (1e300, -750e300, 1.901684963475222736392809558e-26),  # 1e300 e^-750: e^-750 underflows
        ],
    )
    def test_a_trial_that_fits_is_formed_where_its_exponential_does_not(self, value, coeff, want):
        # lambda e^{c / lambda} in exact arithmetic (c / lambda rounds to
        # 710 and -749.9999999999999); exp_map and the hand-over test form the
        # same trial, and the line returns the one needs_dense kept.
        p = SpdPoint.from_frame(np.array([value]), np.eye(1))
        v = SpectralTangent(np.array([coeff]))
        got = exp_map(p, v).spectrum
        assert got[0] == pytest.approx(want, rel=1e-12)
        line = Line(p, v)
        assert not needs_dense(line, np.array([1.0]))
        assert np.array_equal(exp_map(p, line).spectrum, got)

    def test_hand_over_near_the_rounding_floor(self):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([0.0, np.log(1e-15)]))
        assert needs_dense(Line(p, v), np.array([1.0]))
        assert not needs_dense(Line(p, v), np.array([0.5, 0.25]))
        assert not needs_dense(Line(p, np.diag(v.coeffs)), np.array([1.0]))
        narrow = SpdPoint.from_frame(np.array([1e-14, 1.0]), np.eye(2))
        assert needs_dense(Line(narrow, SpectralTangent(np.zeros(2))), np.array([1.0]))

    def test_hand_over_below_the_rounding_floor(self):
        # A trial below the 1e-17 rounding floor cannot be formed: exp_map
        # rejects it as StepOverflow and the line search backtracks past it,
        # so it hands nothing over, like an overflowing trial.
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        v = SpectralTangent(np.array([0.0, np.log(1e-18)]))
        assert not needs_dense(Line(p, v), np.array([1.0, 0.5]))  # the half step 1e-9 is inside
        underflow = SpectralTangent(np.array([0.0, -800.0]))
        assert not needs_dense(Line(p, underflow), np.array([1.0]))
        for tangent in (v, underflow):
            with pytest.raises(StepOverflow):
                exp_map(p, tangent)
        # Past a skipped trial, the first one that can be formed still hands
        # over where its spread lies in [1e-17, 1e-13).
        skipped = SpectralTangent(np.array([0.0, np.log(1e-32)]))
        assert needs_dense(Line(p, skipped), np.array([1.0, 0.5]))  # 1e-32, then 1e-16
        for spread in (1e-16, 2e-17):
            assert needs_dense(Line(p, SpectralTangent(np.array([0.0, np.log(spread)]))), np.array([1.0]))

    def test_overflowing_trials_stay_spectral(self):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        assert not needs_dense(Line(p, SpectralTangent(np.array([800.0, 0.0]))), np.array([1.0]))

    def test_no_hand_over_at_extreme_magnitudes(self):
        # Only the spread decides: eigenvalues and coefficients beyond 1e+-100
        # stay spectral, and a spread below 1e-13 hands over at any magnitude.
        still = SpectralTangent(np.zeros(2))
        for values in ([1e101, 2e101], [1e-101, 2e-101]):
            assert not needs_dense(Line(SpdPoint.from_frame(np.array(values), np.eye(2)), still), np.ones(1))
        narrow = SpdPoint.from_frame(np.array([1e187, 1e201]), np.eye(2))
        assert needs_dense(Line(narrow, still), np.ones(1))
        p = SpdPoint.from_frame(np.array([1.0, 2.0]), np.eye(2))
        assert not needs_dense(Line(p, SpectralTangent(np.array([0.0, 1e101]))), np.array([2.0**-400]))
        assert not needs_dense(Line(p, SpectralTangent(np.array([240.0, 480.0]))), np.ones(1))  # trial 1.7e104
        assert not needs_dense(Line(p, SpectralTangent(np.array([200.0, 400.0]))), np.ones(1))

    def test_dense_and_spectral_forms_agree(self):
        rng = np.random.default_rng(16)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        p = SpdPoint.from_frame(np.array([3.0, 1.0, 2.0, 5.0, 4.0]), basis)
        dense = p._dense()
        assert dense.frame is None and dense.eigen is p.eigen
        assert np.array_equal(dense.eigen.values, np.arange(1.0, 6.0))
        assert np.allclose(dense.matrix, p.matrix, rtol=0, atol=1e-13)
        # A view made once the matrix is formed shares it.
        again = p._dense()
        assert again.eigen is dense.eigen and again.matrix is p.matrix


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
    """needs_dense keeps the first finite trial it forms on the line; exp_map
    returns it only for that step of that line."""

    def _setup(self):
        p = random_spd(6, 1.0, 10.0, seed=21)
        v = SpectralTangent(np.random.default_rng(21).uniform(-2.0, 2.0, 6))
        return p, v, Line(p, v)

    def test_reused_at_the_same_point_and_step(self, monkeypatch):
        p, v, line = self._setup()
        assert not needs_dense(line, np.array([1.0, 0.5]))
        calls = _counting_exp(monkeypatch)
        step = exp_map(p, line, 1.0)
        again = exp_map(p, line)
        assert calls == []
        want = _fresh(p, v)
        assert np.array_equal(step.spectrum, want.spectrum) and np.array_equal(again.spectrum, want.spectrum)
        assert step.frame[1] is p.frame[1]

    def test_others_form_their_own(self, monkeypatch):
        p, v, line = self._setup()
        assert not needs_dense(line, np.array([1.0, 0.5]))
        twin = SpdPoint.from_frame(p.spectrum, p.frame[1])
        others = [  # (point, line or tangent, step, the plain tangent it takes)
            (twin, Line(twin, v), 1.0, v),  # another point, though equal, on a line of its own
            (p, line, 0.5, 0.5 * v),  # another step
            (p, SpectralTangent(v.coeffs), 1.0, v),  # an unrelated tangent, the same coefficients
            (p, Line(p, v), 1.0, v),  # another line along the same tangent
        ]
        calls = _counting_exp(monkeypatch)
        for point, along, t, plain in others:
            got = exp_map(point, along, t)
            assert np.array_equal(got.spectrum, _fresh(point, plain).spectrum)
        assert len(calls) == 2 * len(others)  # each formed its own, as _fresh did

    def test_overflowing_larger_steps_still_raise(self, monkeypatch):
        # The full and the half step overflow, in exact arithmetic too:
        # 1e-90 e^2000 and 1e-90 e^1000 exceed the float maximum.  The
        # quarter step 1e-90 e^500 = 1.4e127 can be formed, with the spread
        # 1/2 of the start.
        values = np.array([1e-90, 2e-90])
        p = SpdPoint.from_frame(values, np.eye(2))
        v = SpectralTangent(2000.0 * values)
        line = Line(p, v)
        assert not needs_dense(line, np.array([1.0, 0.5, 0.25]))
        calls = _counting_exp(monkeypatch)
        for t in (1.0, 0.5):
            with pytest.raises(StepOverflow):
                exp_map(p, line, t)
        assert len(calls) == 4  # each formed e^{t c / lambda}, then e^{log lambda + t c / lambda}
        quarter = exp_map(p, line, 0.25)
        assert len(calls) == 4
        assert np.array_equal(quarter.spectrum, _fresh(p, 0.25 * v).spectrum)

    def test_no_trial_is_kept_where_the_iteration_hands_over(self, monkeypatch):
        p = SpdPoint.from_frame(np.ones(2), np.eye(2))
        line = Line(p, SpectralTangent(np.array([0.0, np.log(1e-15)])))
        assert needs_dense(line, np.array([1.0]))
        calls = _counting_exp(monkeypatch)
        exp_map(p, line)
        assert len(calls) == 1

    def test_checked_trial_is_not_checked_again_as_the_next_iterate(self, monkeypatch):
        p, v, line = self._setup()
        assert not needs_dense(line, np.ones(1))
        q, fresh = exp_map(p, line), _fresh(p, v)
        spreads = []
        check = manifold._spread
        monkeypatch.setattr(manifold, "_spread", lambda x: spreads.append(x) or check(x))
        assert not needs_dense(Line(q, SpectralTangent(np.zeros(6))), np.ones(1))
        assert len(spreads) == 1 and spreads[0] is not q.spectrum  # only the new trial
        spreads.clear()
        assert not needs_dense(Line(fresh, SpectralTangent(np.zeros(6))), np.ones(1))
        assert len(spreads) == 2  # the iterate and the trial


def test_line_steps_at_another_point_raise():
    # A line belongs to the point it was made at.  An equal point held in
    # another object is another point: stepping there raises instead of
    # reading the trial or the factorization the line keeps.
    p, twin = (random_spd(3, 1.0, 3.0, seed=9) for _ in range(2))
    dense = Line(p._dense(), random_symmetric(np.random.default_rng(9), 3))
    exp_map(dense.point, dense, 0.5)
    spectral = Line(p, SpectralTangent(np.ones(3)))
    assert not needs_dense(spectral, np.ones(1))
    for line, at in ((dense, twin._dense()), (spectral, twin)):
        for t in (1.0, 0.5):
            with pytest.raises(DimMismatch):
                exp_map(at, line, t)


_TRIAL_STEPS = np.ldexp(1.0, -np.arange(61))


def _needs_dense_by_scan(p, v, steps):
    """The hand-over rule applied to the iterate and every trial step at once:
    the reference for needs_dense, which forms only the first representable
    trial.  A trial that is not finite, or whose spread lies below the 1e-17
    rounding floor, is rejected by exp_map and hands nothing over."""
    values = p.spectrum
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        trials = values * np.exp(np.multiply.outer(steps, v.coeffs) / values)
        points = np.vstack([values, trials])
        low, high = points.min(axis=1), points.max(axis=1)
        inside = low / high >= 1e-13
        representable = np.all(np.isfinite(points), axis=1) & (low / high >= 1e-17)
    representable[0] = True  # the iterate itself is a point
    return bool(np.any(representable & ~inside))


def _near_a_bound(values, ulps=64):
    """Whether the spread lies within ``ulps`` units in the last place of the
    hand-over spread or of the rounding floor."""
    spread = np.min(values) / np.max(values)
    return any(abs(spread / bound - 1.0) <= ulps * 2.0**-52 for bound in (1e-13, 1e-17))


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
        # deciding trial sits within rounding of its bound.
        lo, hi = 0, int(np.float64(1.0).view(np.int64))
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if scan(_bits_to_float(mid)) else (mid, hi)
        scales += [_bits_to_float(lo), _bits_to_float(hi)]
    for scale in scales:
        got, want = needs_dense(Line(p, SpectralTangent(scale * coeffs)), _TRIAL_STEPS), scan(scale)
        # needs_dense reads a subset of the scan's rows, so it never hands over
        # where the scan does not.  The converse rests on each spread bound
        # holding on an interval of steps from t = 0, which rounding can break
        # only by an ulp or two: an iterate lying on a bound, such as the
        # spread 1e-13 of [1, 1e13], may have smaller trials that rounding
        # puts across it.
        assert want or not got
        if not _near_a_bound(values):
            assert got == want, (values, scale * coeffs)


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
        # A trial, never negative, at or above the hand-over spread is finite.
        assert not manifold._spread(np.abs(x)) >= 1e-13 or finite
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
        assert p.spectral and p.spectrum is p.eigen.values
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
        assert p.spectral and step.spectral and p.dim == step.dim == 50 and drawn == []
        assert step.frame[1] is p.frame[1] and drawn == [(50, 50)]
        assert p._dense().eigen is p.eigen and drawn == [(50, 50)]

    def test_lazy_factorization_draws_only_for_its_vectors(self, monkeypatch):
        drawn = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: (drawn.append(a.shape), qr(a))[1])
        p = random_spd(50, 1.0, 10.0, seed=8)
        assert p.eigen.dim == 50 and np.array_equal(p.eigen.values, p.spectrum)
        assert p._dense().eigen is p.eigen and drawn == []
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

    def test_dense_view_shares_the_arrays_of_its_point(self):
        p = SpdPoint(random_spd(5, 1.0, 10.0, seed=2).matrix)
        back = p._dense()
        assert back.frame is None and not back.spectral
        assert back.matrix is p.matrix and back.eigen is p.eigen
        start = random_spd(5, 1.0, 10.0, seed=2)
        back = start._dense()
        assert back.eigen is start.eigen and np.array_equal(back.matrix, start.matrix)
        # A start's frame is its own factorization, not one rebuilt from the
        # frame: the basis copy that rebuild makes holds the same values in
        # another memory layout, and the dense route's products then round
        # differently (f2 0.01 n=100 damped seed 48453, start range 1,10, on
        # one OpenBLAS thread: GE 18 instead of 19).
        fresh = random_spd(5, 1.0, 10.0, seed=2)
        assert fresh._dense().eigen is fresh.eigen and fresh.frame[1] is fresh.eigen.vectors

    def test_matrix_is_formed_from_the_ascending_factorization(self):
        # A spectral step can reorder the frame; its matrix is still the one
        # its frameless view holds, so reading it first changes nothing.
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))[0]
        values = np.array([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
        read_first = SpdPoint.from_frame(values, basis)
        formed = read_first.matrix
        dense = SpdPoint.from_frame(values, basis)._dense()
        assert np.array_equal(formed, dense.matrix)
        assert read_first._dense().matrix is formed
