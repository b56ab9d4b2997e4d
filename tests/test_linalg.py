import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rdn.errors import DimMismatch, InvalidMatrix, SingularOperator, SpectrumDomainError
from rdn.linalg import lyapunov_solve, mat_func, sym_eigen, symmetrize
from rdn.manifold import random_spd


def random_symmetric(rng, n, scale=1.0):
    return symmetrize(scale * rng.standard_normal((n, n)))


class TestSymmetrize:
    def test_basic(self):
        out = symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        assert np.array_equal(out, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_symmetric_input_unchanged(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.array_equal(symmetrize(a), a)

    def test_zero(self):
        assert np.array_equal(symmetrize(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrix):
            symmetrize(np.zeros((2, 3)))

    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_output_bitwise_symmetric(self, seed, n):
        rng = np.random.default_rng(seed)
        out = symmetrize(rng.standard_normal((n, n)))
        assert np.array_equal(out, out.T)


class TestSymEigen:
    def test_identity(self):
        pair = sym_eigen(np.eye(2))
        assert np.allclose(pair.values, [1.0, 1.0])

    def test_already_diagonal(self):
        pair = sym_eigen(np.diag([1.0, 4.0]))
        assert np.allclose(pair.values, [1.0, 4.0])
        assert np.allclose(np.abs(pair.vectors), np.eye(2))

    def test_two_by_two(self):
        # characteristic polynomial (2 - x)^2 - 1 = 0 gives 1 and 3
        pair = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(pair.values, [1.0, 3.0], atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrix):
            sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(deadline=None)
    def test_reconstruction_and_orthogonality(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n, scale=3.0)
        pair = sym_eigen(a)
        assert np.all(np.diff(pair.values) >= 0.0)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(pair.reconstruct() - a) <= 1e-12 * scale
        q = pair.vectors
        assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-12

    def test_large_matrix_invariants(self):
        a = random_spd(60, 0.5, 8.0, seed=4).matrix
        pair = sym_eigen(a)
        assert np.linalg.norm(pair.reconstruct() - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(pair.vectors.T @ pair.vectors - np.eye(60)) <= 1e-12


class TestMatFunc:
    def test_exp_identity(self):
        assert np.allclose(mat_func(np.eye(3), np.exp), np.e * np.eye(3), rtol=1e-14)

    def test_sqrt_diagonal(self):
        assert np.allclose(mat_func(np.diag([1.0, 4.0]), np.sqrt), np.diag([1.0, 2.0]))

    def test_sqrt_squares_back(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = mat_func(a, np.sqrt)
        assert np.linalg.norm(r @ r - a) <= 1e-12

    def test_sqrt_of_indefinite_rejected(self):
        with pytest.raises(SpectrumDomainError):
            mat_func(np.diag([1.0, -1.0]), np.sqrt)

    def test_log_of_singular_rejected(self):
        with pytest.raises(SpectrumDomainError):
            mat_func(np.diag([0.0, 1.0]), np.log)

    def test_exp_overflow_rejected(self):
        with pytest.raises(SpectrumDomainError):
            mat_func(np.diag([800.0, 1.0]), np.exp)

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(deadline=None)
    def test_exp_log_inverse_on_spd(self, seed, n):
        a = random_spd(n, 0.1, 10.0, seed=seed).matrix
        back = mat_func(mat_func(a, np.log), np.exp)
        assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    @given(st.integers(0, 10**6), st.integers(1, 12))
    @settings(deadline=None)
    def test_sqrt_squared_on_spd(self, seed, n):
        a = random_spd(n, 0.1, 10.0, seed=seed).matrix
        r = mat_func(a, np.sqrt)
        assert np.linalg.norm(r @ r - a) <= 1e-10 * np.linalg.norm(a)

    def test_exp_log_inverse_large(self):
        a = random_spd(100, 0.1, 10.0, seed=11).matrix
        back = mat_func(mat_func(a, np.log), np.exp)
        assert np.linalg.norm(back - a) <= 1e-10 * np.linalg.norm(a)

    def test_output_bitwise_symmetric(self):
        a = random_spd(7, 0.5, 2.0, seed=3).matrix
        out = mat_func(a, np.sqrt)
        assert np.array_equal(out, out.T)


class TestLyapunovSolve:
    def test_identity_halves_rhs(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(rng, 4)
        v = lyapunov_solve(np.eye(4), 2.0 * m)
        assert np.allclose(v, m, atol=1e-14)

    def test_hand_checked_two_by_two(self):
        p = np.diag([1.0, 3.0])
        rhs = np.array([[2.0, 4.0], [4.0, 12.0]])
        v = lyapunov_solve(p, rhs)
        assert np.allclose(v, np.array([[1.0, 1.0], [1.0, 2.0]]), atol=1e-13)

    def test_scalar(self):
        v = lyapunov_solve(np.array([[2.0]]), np.array([[8.0]]))
        assert np.allclose(v, [[2.0]])

    def test_singular_guard(self):
        # eigenvalues 1 and -1 make a vanishing lambda_i + lambda_j sum
        with pytest.raises(SingularOperator):
            lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            lyapunov_solve(np.eye(3), np.eye(2))

    @given(
        st.integers(0, 10**6),
        st.integers(1, 12),
        st.floats(0.1, 1.0),
        st.floats(1.0, 100.0),
    )
    @settings(deadline=None)
    def test_residual_bound(self, seed, n, lo, spread):
        rng = np.random.default_rng(seed)
        p = random_spd(n, lo, lo * spread, seed=seed).matrix
        rhs = random_symmetric(rng, n, scale=5.0)
        v = lyapunov_solve(p, rhs)
        assert np.array_equal(v, v.T)
        resid = np.linalg.norm(p @ v + v @ p - rhs)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(rhs))

    @pytest.mark.parametrize("n", [25, 60, 100])
    def test_residual_bound_large(self, n):
        rng = np.random.default_rng(n)
        p = random_spd(n, 0.5, 20.0, seed=n).matrix
        rhs = random_symmetric(rng, n)
        v = lyapunov_solve(p, rhs)
        resid = np.linalg.norm(p @ v + v @ p - rhs)
        assert resid <= 1e-10 * max(1.0, np.linalg.norm(rhs))

