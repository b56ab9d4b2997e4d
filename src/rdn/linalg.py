"""Dense symmetric-matrix primitives.

Matrices are plain float ndarrays.  Products are symmetrized where they are
formed and inputs where they enter (``sym_eigen``, ``lyapunov_solve``'s rhs),
so the (i, j) and (j, i) entries of anything returned here are bitwise equal,
as are those of sums of such matrices, which need no further symmetrize.
Matrix functions go through the symmetric eigendecomposition: one
factorization of a point serves sqrt, exp, log and inverse powers alike.
"""

from __future__ import annotations

import functools
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimMismatch, InvalidMatrix, SingularOperator, SpectrumDomainError

__all__ = [
    "EigenPair",
    "symmetrize",
    "sym_eigen",
    "mat_func",
    "lyapunov_solve",
]

# Whether a ``quiet`` call is running in this thread or context.
_QUIET: ContextVar[bool] = ContextVar("rdn_quiet", default=False)


def quiet(fn):
    """Run ``fn`` with numpy's floating-point warnings off; the finiteness
    checks that follow report overflow and invalid values.  Only the
    outermost decorated call enters ``np.errstate``, and restores the
    caller's state on exit."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        if _QUIET.get():
            return fn(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return run


@quiet
def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2 as a new float array.

    Addition is commutative in IEEE arithmetic, so the result is exactly
    symmetric, not just up to rounding.  Sums beyond the float range come
    back as inf without a warning; callers that need finite entries check.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class EigenPair:
    """Spectral factorization A = Q diag(values) Q^T, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return symmetrize((self.vectors * self.values) @ self.vectors.T)


def sym_eigen(a: np.ndarray) -> EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    a = symmetrize(a)
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    values, vectors = np.linalg.eigh(a)
    return EigenPair(values=values, vectors=vectors)


@quiet
def mat_func(
    a: np.ndarray | None,
    f: Callable[[np.ndarray], np.ndarray],
    *,
    eigen: EigenPair | None = None,
) -> np.ndarray:
    """Apply the scalar function ``f`` to a symmetric matrix via its spectrum.

    Returns Q diag(f(lambda)) Q^T.  ``f`` must be defined (and finite) on
    every eigenvalue; sqrt/log of a non-positive eigenvalue, or overflow of
    exp, raise SpectrumDomainError.  A precomputed ``eigen`` of ``a`` may be
    supplied to reuse one factorization across several functions; ``a`` is
    then not read and may be None.
    """
    pair = sym_eigen(a) if eigen is None else eigen
    fvals = np.asarray(f(pair.values), dtype=float)
    if fvals.shape != pair.values.shape or not np.all(np.isfinite(fvals)):
        raise SpectrumDomainError(
            "scalar function is undefined or non-finite on part of the spectrum"
        )
    return symmetrize((pair.vectors * fvals) @ pair.vectors.T)


@quiet
def lyapunov_solve(
    p: np.ndarray | None,
    rhs: np.ndarray,
    *,
    eigen: EigenPair | None = None,
) -> np.ndarray:
    """Solve P V + V P = RHS for symmetric V, with P symmetric positive definite.

    In the eigenbasis P = Q diag(lambda) Q^T the equation decouples entrywise:
    the transformed unknown is (Q^T RHS Q)_ij / (lambda_i + lambda_j).  The
    solution is unique whenever no sum of two eigenvalues vanishes, which is
    automatic for positive definite P; the guard below protects generic
    callers that pass an indefinite P.  A precomputed ``eigen`` of P may be
    supplied; ``p`` is then not read and may be None.
    """
    pair = sym_eigen(p) if eigen is None else eigen
    rhs = symmetrize(rhs)
    if rhs.shape[0] != pair.dim:
        raise DimMismatch(
            f"rhs has dimension {rhs.shape[0]}, expected {pair.dim}"
        )
    lam = pair.values
    denom = lam[:, None] + lam[None, :]
    scale = float(np.max(np.abs(lam))) if pair.dim else 0.0
    if np.min(np.abs(denom)) <= 1e-14 * scale:
        raise SingularOperator("eigenvalue sum lambda_i + lambda_j vanishes")
    q = pair.vectors
    # An RHS beyond the float range gives non-finite entries.
    w = (q.T @ rhs @ q) / denom
    return symmetrize(q @ w @ q.T)

