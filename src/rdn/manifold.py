"""The cone of symmetric positive definite matrices as a Riemannian manifold.

The metric is the affine-invariant one,

    <U, V>_P = tr(V P^{-1} U P^{-1}),

under which the cone is complete and the exponential map

    exp_P(V) = P^{1/2} e^{P^{-1/2} V P^{-1/2}} P^{1/2}

is globally defined: every symmetric step lands back inside the cone, so no
projection is ever needed.  Geodesic distance is ||log(A^{-1/2} B A^{-1/2})||_F.

Points are immutable and carry an eigendecomposition (a point made from a
matrix is factored when it is made, and rejected unless its spectrum is
positive), from which each power P^t (P^{1/2}, P^{-1/2}, P^{-1}, ...) is
formed once, on first use, and kept read-only; no matrix is formed that no
formula reads.

Spectral seam.  Every point holds a frame (values, basis), with
P = basis diag(values) basis^T, on the eigendecomposition it was made with,
and a tangent that commutes with it is a SpectralTangent, the coefficients
of V in the same basis.  Along such tangents the metric, the norm and the
exponential map are O(n) functions of the eigenvalues (Higham, Functions of
Matrices, ch. 1):

    ||V||_P = ||c / lambda||,   exp_P(t V) = basis diag(lambda e^{t c / lambda}) basis^T,

so every iterate keeps the start's eigenbasis and no factorization is paid
after the start's.  Plain ndarray tangents take the dense route, each step
factoring its own whitened step P^{-1/2} t V P^{-1/2} (Pennec, Fillard &
Ayache, IJCV 66, 2006) and each result a point factored when it is made.
A spectral trial whose spread lambda_min / lambda_max falls below the 1e-17
rounding floor has no positive definite matrix form: ``exp_map`` rejects it
as unrepresentable, as it does a trial that is not finite.  A trial
eigenvalue lambda e^{t c / lambda} is unrepresentable only where it leaves
the float range itself, not where its factor e^{t c / lambda} alone does.

Lazy bases.  ``random_spd`` draws the spectrum at once but the basis (a QR
factorization) only when something reads it.  Its factorization is an
EigenPair whose ``vectors`` are drawn on first read, which is also the
start's frame: the matrix, ``eigen.vectors`` and ``frame`` draw it,
``eigen.values`` does not.  The hot paths read eigenvalues through
``spectrum``, which does not draw it, so a spectral run factorizes nothing.
``identity_eigen`` holds the identity basis of a diagonal matrix the same
way and forms the matrix as diag(values), so a point built on it from its
spectrum alone, such as the minimizer c I, forms no n x n array unless its
basis or matrix is read.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from .errors import (
    DimMismatch,
    InvalidMatrix,
    InvalidPoint,
    InvalidRange,
    SpectrumDomainError,
    StepOverflow,
)
from .linalg import EigenPair, mat_func, quiet, sym_eigen, symmetrize

__all__ = [
    "SpdPoint",
    "SpectralTangent",
    "inner",
    "norm",
    "exp_map",
    "distance",
    "random_spd",
]


# A spectral step below this spread, under the unit roundoff 2^-53, has no
# positive definite matrix form; exp_map rejects it as unrepresentable.
_ROUNDING_FLOOR = 1e-17
# from_frame accepts a basis Q whose every entry of Q^T Q - I is within
# _FRAME_TOLERANCE n eps of zero.  Sign-fixed QR bases, their products with
# other QR bases and eigh's bases measured at most 1.7 n eps for n = 2-1000
# (the larger figures at n <= 5, below 0.2 n eps from n = 100).
_FRAME_TOLERANCE = 16.0
_EPS = float(np.finfo(float).eps)
# The smallest normal double.  Below a Frobenius norm of _SQUARES_NORMAL the
# squares of the entries may be subnormal and lose bits.
_TINY = float(np.finfo(float).tiny)
_SQUARES_NORMAL = math.sqrt(_TINY / _EPS)


class _LazyPair(EigenPair):
    """EigenPair(values, basis) whose ``vectors`` are made on first read.

    ``make_basis`` runs once, under a lock, so a point shared between threads
    pays for its basis once; it must give the same bits whenever it runs
    (``random_spd`` draws from a copy of the generator's state).  Reading
    ``values`` draws nothing.
    """

    def __init__(self, values: np.ndarray, make_basis: Callable[[], np.ndarray]):
        object.__setattr__(self, "values", values)  # a frozen field
        self._make_basis = make_basis
        self._basis: np.ndarray | None = None
        self._lock = threading.Lock()

    @property
    def vectors(self) -> np.ndarray:
        if self._basis is None:
            with self._lock:
                if self._basis is None:
                    self._basis = self._make_basis()
        return self._basis


class SpdPoint:
    """A symmetric positive definite matrix as a point of the cone.

    Construction symmetrizes the input, verifies numerical positive
    definiteness by eigh, and keeps eigh's factorization as its ``frame``, so
    every point has a finite, strictly positive spectrum.  ``from_frame``
    builds a point from its eigenvalues and basis instead, forming the
    matrix only on first use; ``spectrum`` reads the frame's eigenvalues
    without drawing a lazy basis.  Every power P^t (``power``, ``sqrt``,
    ``inv_sqrt``, ``inv``) is formed from the eigenpair alone on first use
    and kept, read-only, so no matrix is formed that no formula reads.
    The matrix is frozen once formed; the caches are filled idempotently on
    first use, so points are safe to share between threads.
    """

    # _values/_basis: the frame, its basis held as the EigenPair it came
    # from (possibly a random start's, not drawn yet).
    # _powers: P^t by exponent t, once this object formed it.
    __slots__ = ("_matrix", "_eigen", "_values", "_basis", "_powers")

    def __init__(self, matrix: np.ndarray):
        m = symmetrize(matrix)
        if m.shape[0] < 1:
            raise DimMismatch("a point needs dimension n >= 1, got 0")
        if not np.all(np.isfinite(m)):
            a = np.asarray(matrix, dtype=float)
            if not np.isfinite(a).all():
                raise InvalidPoint("matrix has non-finite entries")
            # A + A^T overflows above half the float maximum; the sum of the
            # halves does not, and is as exactly symmetric.
            m = 0.5 * a + 0.5 * a.T
        m.flags.writeable = False
        pair = EigenPair(*np.linalg.eigh(m))
        if float(pair.values[0]) <= 0.0:
            raise InvalidPoint("matrix is not numerically positive definite")
        self._set(pair, pair.values, pair, m)

    def _set(self, eigen, values, basis, matrix=None) -> "SpdPoint":
        """Set the five slots; every point is made here."""
        self._matrix = matrix
        self._eigen = eigen
        self._values = values
        self._basis = basis
        self._powers = {}
        return self

    @classmethod
    def _from_spectrum(
        cls, values: np.ndarray, eigen: EigenPair | None, basis: EigenPair, *, checked: bool = False
    ) -> "SpdPoint":
        """A point on the frame (``values``, the vectors of ``basis``), with the
        (possibly lazy) ascending factorization ``eigen`` if known; its matrix
        unformed.  ``checked`` vouches that ``values`` are finite and strictly positive."""
        if not (checked or (np.isfinite(values).all() and values.min() > 0.0)):
            raise InvalidPoint("spectrum is not finite and strictly positive")
        return object.__new__(cls)._set(eigen, values, basis)

    @classmethod
    def from_frame(cls, values: np.ndarray, basis: np.ndarray) -> "SpdPoint":
        """Spectral point basis diag(values) basis^T, ``values`` finite and
        strictly positive in the order of the columns of ``basis``, a finite
        n x n matrix with every entry of basis^T basis - I within
        _FRAME_TOLERANCE n eps of zero (else DimMismatch or InvalidPoint)."""
        values, basis = np.asarray(values, dtype=float), np.asarray(basis, dtype=float)
        n = values.shape[0] if values.ndim == 1 else 0
        if n < 1 or basis.shape != (n, n):
            raise DimMismatch(f"a frame needs n >= 1 values and an n x n basis, got {values.shape}, {basis.shape}")
        if not np.isfinite(basis).all():
            raise InvalidPoint("basis has non-finite entries")
        if np.abs(basis.T @ basis - np.eye(n)).max() > _FRAME_TOLERANCE * n * _EPS:
            raise InvalidPoint("basis is not orthonormal")
        return cls._from_spectrum(values, None, EigenPair(values=values, vectors=basis))

    @property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, basis) with P = basis diag(values) basis^T.  Reading it
        draws a lazy basis."""
        return self._values, self._basis.vectors

    @property
    def matrix(self) -> np.ndarray:
        """The matrix; formed on first use from the ascending
        eigendecomposition, so its bits do not depend on the frame order."""
        if self._matrix is None:
            m = self.eigen.reconstruct()
            if not np.all(np.isfinite(m)):
                raise InvalidPoint("matrix has non-finite entries")
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    @property
    def eigen(self) -> EigenPair:
        """The ascending factorization: the one a point is made with, or its
        frame sorted on first read.  A random start's is lazy: reading its
        ``values`` draws no basis."""
        if self._eigen is None:
            values, basis = self.frame
            order = np.argsort(values, kind="stable")
            self._eigen = EigenPair(values=values[order], vectors=basis[:, order])
        return self._eigen

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues, in frame order; reading them draws no lazy basis."""
        return self._values

    def power(self, t: float) -> np.ndarray:
        """P^t (t = 0.5, -0.5, -1, 2, ...), formed from the eigenpair alone on
        first use and kept, read-only."""
        m = self._powers.get(t)
        if m is None:
            m = mat_func(None, lambda lam: lam**t, eigen=self.eigen)
            m.flags.writeable = False
            self._powers[t] = m
        return m

    def sqrt(self) -> np.ndarray:
        return self.power(0.5)

    def inv_sqrt(self) -> np.ndarray:
        return self.power(-0.5)

    def inv(self) -> np.ndarray:
        return self.power(-1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdPoint(dim={self.dim})"


class SpectralTangent:
    """Tangent V = basis diag(coeffs) basis^T in the frame of a point.

    Such a V commutes with its base point; scaling by a number is its only
    arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    def __mul__(self, t: float) -> "SpectralTangent":
        return SpectralTangent(t * self.coeffs)

    __rmul__ = __mul__


def _frame_values(p: SpdPoint, v: SpectralTangent) -> np.ndarray:
    """The eigenvalues of ``p`` in frame order, once ``v`` is checked to have
    one coefficient for each."""
    values = p._values
    if v.coeffs.shape != values.shape:
        raise DimMismatch(f"tangent has {v.coeffs.shape[0]} coefficients, point dimension {p.dim}")
    return values


def _spectral_trial(values: np.ndarray, coeffs: np.ndarray, t: float) -> tuple[np.ndarray, np.float64]:
    """lambda e^{t c / lambda}, exp_P(t V) in the frame, and its spread, for
    every spectral step and trial.  A trial whose spread is below the rounding
    floor forms again, as e^{log lambda + t c / lambda}, each entry whose
    factor e^{t c / lambda} overflowed or fell below the normal range, where
    the product itself may fit; no other trial changes by a bit.  A subnormal
    factor in a trial that passes the spread test keeps its lost bits."""
    x = (coeffs if t == 1.0 else t * coeffs) / values
    e = np.exp(x)
    trial = values * e
    spread = _spread(trial)
    if not spread >= _ROUNDING_FLOOR:
        off = (e < _TINY) | (e == math.inf)
        if off.any():
            trial = np.where(off, np.exp(np.log(values) + x), trial)
            spread = _spread(trial)
    return trial, spread


def _tangent_at(p: SpdPoint, v: np.ndarray) -> np.ndarray:
    """Symmetrize a tangent vector and check it lives at ``p``."""
    v = symmetrize(v)
    if v.shape[0] != p.dim:
        raise DimMismatch(f"tangent dimension {v.shape[0]} != point dimension {p.dim}")
    return v


@quiet
def inner(p: SpdPoint, u: np.ndarray, v: np.ndarray) -> float:
    """Affine-invariant metric <U, V>_P = tr(V P^{-1} U P^{-1}).

    U and V are both SpectralTangents in the frame of ``p`` or both matrices
    (DimMismatch otherwise)."""
    spectral = isinstance(u, SpectralTangent), isinstance(v, SpectralTangent)
    if all(spectral):
        values = _frame_values(p, u)
        return float(np.sum((u.coeffs / values) * (v.coeffs / _frame_values(p, v))))
    if any(spectral):
        raise DimMismatch("inner product of a spectral tangent and a matrix")
    u = _tangent_at(p, u)
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    return float(np.sum((s @ u @ s) * (s @ v @ s)))


def _frobenius(x: np.ndarray) -> float:
    """||x||_F.  Where the plain sum of squares overflows with finite entries,
    or lies below _SQUARES_NORMAL^2 with a nonzero entry, m ||x / m||_F with
    m = max|x| (Blue, ACM TOMS 4, 1978); the bits are the plain norm's
    everywhere else.  The plain norm is np.linalg.norm's own recipe, sqrt of
    the flattened x . x, without its Python-level dispatch."""
    flat = x.ravel(order="K")
    r = math.sqrt(flat.dot(flat))
    if (r == math.inf and np.isfinite(flat).all()) or (r < _SQUARES_NORMAL and flat.any()):
        m = float(np.abs(flat).max())
        r = m * float(np.linalg.norm(flat / m))
    return r


@quiet
def norm(p: SpdPoint, v: np.ndarray) -> float:
    """Metric norm ||V||_P = ||P^{-1/2} V P^{-1/2}||_F; zero iff V = 0, however tiny.

    Finite wherever the whitened V is, up to the float range itself."""
    if isinstance(v, SpectralTangent):
        w = v.coeffs / _frame_values(p, v)
        r = math.sqrt(w.dot(w))
        return r if _SQUARES_NORMAL <= r < math.inf else _frobenius(w)
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    return _frobenius(s @ v @ s)


# Whitened steps below this norm take the series route in exp_map: the
# truncation error ||M||^3/6 is then under 2e-19, beneath double rounding.
_EXP_SERIES_CUTOFF = 1e-6


@quiet
def exp_map(p: SpdPoint, v: np.ndarray | SpectralTangent, t: float = 1.0) -> SpdPoint:
    """Geodesic step exp_P(t V) = P^{1/2} e^{P^{-1/2} t V P^{-1/2}} P^{1/2}.

    Defined for every symmetric V; the result is positive definite without
    any projection.  Steps whose exponential overflows the floating-point
    range, or whose result rounds outside the representable cone, raise
    StepOverflow.  ``exp_map(p, v, t)`` is bit for bit ``exp_map(p, t * v)``.

    Conjugating P^{1/2} through the series of e^M collapses it to
    P + V + V P^{-1} V / 2 + O(||M||^3), so for whitened steps below the
    series cutoff that sum evaluates the exact exponential to full machine
    precision while skipping the factorization round-trip (whose rounding
    would otherwise dominate the distance between consecutive iterates near
    a singularity).

    A SpectralTangent steps in closed form on the point's frame (DimMismatch
    unless it has one coefficient per eigenvalue); a result whose spread
    lambda_min / lambda_max falls below 1e-17 has no positive definite
    matrix form and also raises StepOverflow.
    """
    if isinstance(v, SpectralTangent):
        values, spread = _spectral_trial(_frame_values(p, v), v.coeffs, t)
        if not spread >= _ROUNDING_FLOOR:
            raise StepOverflow("exponential-map result overflowed or rounded outside the cone")
        return SpdPoint._from_spectrum(values, None, p._basis, checked=True)
    step = _tangent_at(p, v if t == 1.0 else t * np.asarray(v, dtype=float))
    # ||V||_F / lambda_min bounds the whitened step's norm.
    if _frobenius(step) / float(p.eigen.values[0]) <= _EXP_SERIES_CUTOFF:
        out = symmetrize(p.matrix + step + 0.5 * (step @ p.inv() @ step))
    else:
        s, si = p.sqrt(), p.inv_sqrt()
        try:
            e = mat_func(si @ step @ si, np.exp)
        except (SpectrumDomainError, InvalidMatrix) as err:
            raise StepOverflow("exponential of the whitened step is not finite") from err
        # A + A^T overflows above half the float maximum: SpdPoint rejects it.
        out = symmetrize(s @ e @ s)
    try:
        return SpdPoint(out)
    except InvalidPoint as err:
        raise StepOverflow("exponential-map result overflowed or rounded outside the cone") from err


def _spread(values: np.ndarray) -> np.float64:
    """lambda_min / lambda_max of non-negative values (eigenvalues and
    trials, never below +0), read at argmin and argmax, which cost less
    than min() and max() on short arrays.  A spread of at least the rounding
    floor makes every value finite and positive: a nan gives a nan spread,
    an infinite value a spread of 0 or nan, and an underflowed one 0."""
    return values[values.argmin()] / values[values.argmax()]


def _scalar_coefficient(p: SpdPoint) -> float | None:
    """c if every eigenvalue of the point is exactly c, else None."""
    values = p.spectrum
    return float(values[0]) if np.all(values == values[0]) else None


def _log_ratio(x: np.ndarray | np.float64, c: float) -> np.ndarray | np.float64:
    """log(x / c) for positive finite x and c; where x / c is not a normal
    float (it overflows, or is subnormal or zero), log x - log c instead."""
    r = x / c
    if r.min() >= _TINY and r.max() < math.inf:
        return np.log(r)
    return np.where((r >= _TINY) & (r < math.inf), np.log(r), np.log(x) - np.log(c))


@quiet
def distance(a: SpdPoint, b: SpdPoint) -> float:
    """Geodesic distance ||log(A^{-1/2} B A^{-1/2})||_F.

    Symmetric in its arguments, zero iff A = B, and equal to ||V||_A whenever
    B = exp_A(V) (geodesics of this metric are globally minimizing).  When
    one argument is a multiple of the identity the distance is read off the
    other's spectrum, sqrt(sum of log^2(lambda_i / c)), which avoids the
    congruence round-trip and resolves distances down to a few ulps.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"points have dimensions {a.dim} and {b.dim}")
    ca = _scalar_coefficient(a)
    cb = _scalar_coefficient(b)
    if ca is not None and cb is not None:
        return abs(float(_log_ratio(np.float64(cb), ca))) * float(np.sqrt(a.dim))
    if ca is not None or cb is not None:
        lam, c = (b.spectrum, ca) if cb is None else (a.spectrum, cb)
        return float(np.sqrt(np.sum(_log_ratio(lam, c) ** 2)))
    s = a.inv_sqrt()
    pair = sym_eigen(s @ b.matrix @ s)
    if float(pair.values[0]) <= 0.0:
        raise InvalidPoint("relative matrix is not positive definite")
    return float(np.linalg.norm(np.log(pair.values)))


class _DiagonalPair(_LazyPair):
    """A _LazyPair (values, I) whose matrix is diag(values) itself."""

    def reconstruct(self) -> np.ndarray:
        return np.diag(self.values)


def identity_eigen(values: np.ndarray) -> EigenPair:
    """The factorization (values, I) of diag(values), ``values`` ascending,
    whose identity basis is formed only when first read; a point on it forms
    its matrix as diag(values), with no basis and no product."""
    return _DiagonalPair(values, lambda: np.eye(values.shape[0]))


def random_spd(dim: int, eig_low: float, eig_high: float, seed: int) -> SpdPoint:
    """Seeded random point with spectrum i.i.d. uniform in [eig_low, eig_high].

    The spectrum is drawn first, then an orthogonal frame from the sign-fixed
    QR factorization of a Gaussian matrix.  ``seed`` is an integer >= 0
    (a Python or numpy integer), and identical arguments give bitwise
    identical points.  The basis is drawn, from a copy of the generator's
    state, only when it is first read (``matrix``, ``eigen.vectors`` or
    ``frame``), so a spectral run never pays for the QR; the matrix is
    formed on first use.
    """
    if dim < 1:
        raise InvalidRange(f"dimension must be >= 1, got {dim}")
    if not (0.0 < eig_low <= eig_high < np.inf):
        raise InvalidRange(f"need 0 < eig_low <= eig_high, got [{eig_low}, {eig_high}]")
    # numpy would draw from fresh entropy for None.
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidRange(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(eig_low, eig_high, size=dim))
    state = rng.bit_generator.state

    def draw_basis() -> np.ndarray:
        gen = np.random.default_rng()
        gen.bit_generator.state = state
        q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
        return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)

    pair = _LazyPair(lam, draw_basis)
    return SpdPoint._from_spectrum(lam, pair, pair)
