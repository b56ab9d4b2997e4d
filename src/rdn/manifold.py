"""The cone of symmetric positive definite matrices as a Riemannian manifold.

The metric is the affine-invariant one,

    <U, V>_P = tr(V P^{-1} U P^{-1}),

under which the cone is complete and the exponential map

    exp_P(V) = P^{1/2} e^{P^{-1/2} V P^{-1/2}} P^{1/2}

is globally defined: every symmetric step lands back inside the cone, so no
projection is ever needed.  Geodesic distance is ||log(A^{-1/2} B A^{-1/2})||_F.

Points are immutable and carry a lazily computed eigendecomposition that is
reused by every operation needing P^{1/2}, P^{-1/2} or P^{-1}; a solver
iteration therefore pays for a single factorization per point.

Spectral seam.  A point may instead be held in spectral form, a frame
(values, basis) with P = basis diag(values) basis^T, and a tangent that
commutes with it as a SpectralTangent, the coefficients of V in the same
basis.  Along such tangents the metric, the norm and the exponential map are
O(n) functions of the eigenvalues (Higham, Functions of Matrices, ch. 1):

    ||V||_P = ||c / lambda||,   exp_P(t V) = basis diag(lambda e^{t c / lambda}) basis^T,

so every iterate keeps the start's eigenbasis and no factorization is paid
after the start's.  Plain ndarray tangents take the dense route unchanged.
Where the dense route's outcome is decided by rounding noise or by where its
intermediates overflow (spreads lambda_min / lambda_max below 1e-13, or
eigenvalues and coefficients beyond 1e100), ``needs_dense`` tells the solver
to run that iteration on the dense route from a materialized point
(``to_dense``); the solver then returns to the spectral route on the new
iterate's eigendecomposition (``to_spectral``, which keeps the matrix and
the factorization the dense route cached, and whose ``to_dense`` hands the
same arrays back).

Lazy bases.  ``random_spd`` draws the spectrum at once but the basis (a QR
factorization) only when something reads it: the matrix, the
eigendecomposition or a spectral point's ``frame``.  The hot paths read
eigenvalues through ``spectrum`` and test for the spectral form with
``spectral``, neither of which draws it, so a run that stays spectral
factorizes nothing.
"""

from __future__ import annotations

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
from .linalg import EigenPair, mat_func, sym_eigen, symmetrize

__all__ = [
    "SpdPoint",
    "SpectralTangent",
    "inner",
    "norm",
    "exp_map",
    "distance",
    "random_spd",
]


# The spectral route stays where the dense route's outcome does not hinge on
# rounding.  Below a spread lambda_min / lambda_max of _HANDOVER_SPREAD,
# Cholesky and eigh of the materialized matrix accept or reject it by rounding
# noise (random n = 100 frames: 2 of 40 accepted at 1e-18, none at 1e-19), and
# lyapunov_solve's singularity guard fires at a spread of 5e-15.  Outside
# [1 / _HANDOVER_SCALE, _HANDOVER_SCALE] the dense route's cubes and inverse
# squares of the eigenvalues leave the normal floating-point range (its
# Newton right-hand side 2 (lambda^2 - (a/b) lambda^3) overflows at lambda
# near 5.6e102, where the spectral coefficient lambda - (a/b) lambda^2 does
# not).  An iteration whose iterate, direction or any finite trial point
# leaves these bounds runs on the dense route instead (``needs_dense``).
_HANDOVER_SPREAD = 1e-13
_HANDOVER_SCALE = 1e100
# A spectral step below this spread, under the unit roundoff 2^-53, has no
# positive definite matrix form; exp_map rejects it as unrepresentable.
_ROUNDING_FLOOR = 1e-17


def _spread(values: np.ndarray) -> float:
    return float(np.min(values) / np.max(values))


class _LazyPair:
    """EigenPair(values, basis) whose basis is made on first use.

    ``make_basis`` runs once, under a lock, so a point shared between threads
    pays for its basis once; it must give the same bits whenever it runs
    (``random_spd`` draws from a copy of the generator's state).
    """

    __slots__ = ("values", "_make_basis", "_pair", "_lock")

    def __init__(self, values: np.ndarray, make_basis: Callable[[], np.ndarray]):
        self.values = values
        self._make_basis = make_basis
        self._pair: EigenPair | None = None
        self._lock = threading.Lock()

    def pair(self) -> EigenPair:
        if self._pair is None:
            with self._lock:
                if self._pair is None:
                    self._pair = EigenPair(values=self.values, vectors=self._make_basis())
        return self._pair


class SpdPoint:
    """A symmetric positive definite matrix as a point of the cone.

    Construction symmetrizes the input and verifies numerical positive
    definiteness (by Cholesky, or directly from a supplied eigendecomposition).
    ``from_frame`` builds a spectral point from its eigenvalues and basis
    instead, forming the matrix only on first use; ``frame`` is set only on
    spectral points (``from_frame``, ``to_spectral``, spectral steps), and
    ``spectral``/``spectrum`` read them without drawing a lazy basis.  The
    matrix is frozen once formed; the caches are filled idempotently on first
    use, so points are safe to share between threads.
    """

    # _values/_basis: the frame of a spectral point (the basis an ndarray, or
    # the _LazyPair of a random start whose basis is not drawn yet).
    __slots__ = ("_matrix", "_eigen", "_values", "_basis")

    def __init__(self, matrix: np.ndarray, *, eigen: EigenPair | None = None):
        m = symmetrize(matrix)
        if not np.all(np.isfinite(m)):
            raise InvalidPoint("matrix has non-finite entries")
        if eigen is not None:
            if float(eigen.values[0]) <= 0.0:
                raise InvalidPoint("spectrum is not strictly positive")
        else:
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError as err:
                raise InvalidPoint("matrix is not numerically positive definite") from err
        m.flags.writeable = False
        self._matrix = m
        self._eigen = eigen
        self._values = self._basis = None

    @classmethod
    def _from_spectrum(
        cls,
        values: np.ndarray,
        eigen: EigenPair | _LazyPair | None,
        basis: np.ndarray | _LazyPair | None,
    ) -> "SpdPoint":
        """A point without its matrix: spectral when ``basis`` is given, else
        dense with the (possibly lazy) factorization ``eigen``."""
        if not (np.all(np.isfinite(values)) and np.min(values) > 0.0):
            raise InvalidPoint("spectrum is not finite and strictly positive")
        point = object.__new__(cls)
        point._matrix = None
        point._eigen = eigen
        point._values = None if basis is None else values
        point._basis = basis
        return point

    @classmethod
    def from_frame(cls, values: np.ndarray, basis: np.ndarray) -> "SpdPoint":
        """Spectral point basis diag(values) basis^T, ``basis`` orthogonal and
        ``values`` in the order of its columns, finite and strictly positive."""
        return cls._from_spectrum(values, None, basis)

    @property
    def spectral(self) -> bool:
        """Whether the point is held in spectral form (``frame`` is set)."""
        return self._basis is not None

    @property
    def frame(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, basis) with P = basis diag(values) basis^T on spectral
        points, else None.  Reading it draws a lazy basis."""
        if self._basis is None:
            return None
        if isinstance(self._basis, _LazyPair):
            self._basis = self._basis.pair().vectors
        return self._values, self._basis

    @property
    def matrix(self) -> np.ndarray:
        """The matrix; formed on first use from the ascending
        eigendecomposition, so the dense and the spectral form of a point
        give the same bits whatever the frame order."""
        if self._matrix is None:
            m = self.eigen.reconstruct()
            if not np.all(np.isfinite(m)):
                raise InvalidPoint("matrix has non-finite entries")
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0] if self._matrix is not None else self.spectrum.shape[0]

    @property
    def eigen(self) -> EigenPair:
        """Cached spectral factorization; computed once, reused everywhere."""
        pair = self._eigen
        if not isinstance(pair, EigenPair):
            if pair is not None:
                pair = pair.pair()
            elif self._basis is not None:
                values, basis = self.frame
                order = np.argsort(values, kind="stable")
                pair = EigenPair(values=values[order], vectors=basis[:, order])
            else:
                pair = sym_eigen(self.matrix)
                if float(pair.values[0]) <= 0.0:
                    # Cholesky can accept matrices whose smallest eigenvalues sit
                    # below the rounding floor of the largest; reject them here.
                    raise InvalidPoint("matrix is not numerically positive definite")
            self._eigen = pair
        return pair

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues, in frame order for spectral points; reading them
        draws no lazy basis."""
        if self._values is not None:
            return self._values
        return (self._eigen if self._eigen is not None else self.eigen).values

    def to_spectral(self) -> "SpdPoint":
        """The same point in spectral form on its eigendecomposition, sharing
        its cached matrix and factorization (a random start's basis stays
        undrawn)."""
        if self._basis is not None:
            return self
        if isinstance(self._eigen, _LazyPair):
            pair, basis = self._eigen, self._eigen
        else:
            pair = self.eigen
            basis = pair.vectors
        point = SpdPoint._from_spectrum(pair.values, pair, basis)
        point._matrix = self._matrix
        return point

    def to_dense(self) -> "SpdPoint":
        """The same point held densely, on the cached matrix and ascending
        factorization: a point made by ``to_spectral`` gives back the arrays
        of the dense point it was made from."""
        if self._basis is None:
            return self
        pair = self.eigen
        point = SpdPoint._from_spectrum(pair.values, pair, None)
        point._matrix = self.matrix
        return point

    def power(self, t: float) -> np.ndarray:
        """P^t through the cached spectrum (t = 0.5, -0.5, -1, 2, ...)."""
        return mat_func(self.matrix, lambda lam: lam**t, eigen=self.eigen)

    def sqrt(self) -> np.ndarray:
        return self.power(0.5)

    def inv_sqrt(self) -> np.ndarray:
        return self.power(-0.5)

    def inv(self) -> np.ndarray:
        return self.power(-1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdPoint(dim={self.dim})"


class SpectralTangent:
    """Tangent V = basis diag(coeffs) basis^T in the frame of a spectral point.

    Such a V commutes with its base point.  Scaling by a number is the only
    arithmetic the solver needs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    def __mul__(self, t: float) -> "SpectralTangent":
        return SpectralTangent(t * self.coeffs)

    __rmul__ = __mul__


def _whitened(p: SpdPoint, v: SpectralTangent) -> np.ndarray:
    """Eigenvalues c / lambda of P^{-1/2} V P^{-1/2}, in frame order."""
    if not p.spectral:
        raise DimMismatch("spectral tangent at a point without a spectral frame")
    values = p.spectrum
    if v.coeffs.shape != values.shape:
        raise DimMismatch(f"tangent has {v.coeffs.shape[0]} coefficients, point dimension {p.dim}")
    with np.errstate(over="ignore"):
        return v.coeffs / values


def _tangent_at(p: SpdPoint, v: np.ndarray) -> np.ndarray:
    """Symmetrize a tangent vector and check it lives at ``p``."""
    v = symmetrize(v)
    if v.shape[0] != p.dim:
        raise DimMismatch(f"tangent dimension {v.shape[0]} != point dimension {p.dim}")
    return v


def inner(p: SpdPoint, u: np.ndarray, v: np.ndarray) -> float:
    """Affine-invariant metric <U, V>_P = tr(V P^{-1} U P^{-1})."""
    if isinstance(u, SpectralTangent) and isinstance(v, SpectralTangent):
        with np.errstate(over="ignore"):
            return float(np.sum(_whitened(p, u) * _whitened(p, v)))
    u = _tangent_at(p, u)
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    with np.errstate(over="ignore"):
        return float(np.sum((s @ u @ s) * (s @ v @ s)))


def norm(p: SpdPoint, v: np.ndarray) -> float:
    """Metric norm ||V||_P = ||P^{-1/2} V P^{-1/2}||_F; zero iff V = 0."""
    if isinstance(v, SpectralTangent):
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(_whitened(p, v)))
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(s @ v @ s, "fro"))


# Whitened steps below this norm take the series route in exp_map: the
# truncation error ||M||^3/6 is then under 2e-19, beneath double rounding.
_EXP_SERIES_CUTOFF = 1e-6


def exp_map(p: SpdPoint, v: np.ndarray) -> SpdPoint:
    """Geodesic step exp_P(V) = P^{1/2} e^{P^{-1/2} V P^{-1/2}} P^{1/2}.

    Defined for every symmetric V; the result is positive definite without
    any projection.  Steps whose exponential overflows the floating-point
    range, or whose result rounds outside the representable cone, raise
    StepOverflow.

    Conjugating P^{1/2} through the series of e^M collapses it to
    P + V + V P^{-1} V / 2 + O(||M||^3), so for whitened steps below the
    series cutoff that sum evaluates the exact exponential to full machine
    precision while skipping the factorization round-trip (whose rounding
    would otherwise dominate the distance between consecutive iterates near
    a singularity).

    A SpectralTangent steps in closed form on the point's frame; a result
    whose spread lambda_min / lambda_max falls below 1e-17 has no positive
    definite matrix form and also raises StepOverflow.
    """
    if isinstance(v, SpectralTangent):
        w = _whitened(p, v)
        with np.errstate(over="ignore"):
            values = p.spectrum * np.exp(w)
        if not np.all(np.isfinite(values)):
            raise StepOverflow("exponential-map result has non-finite entries")
        if not _spread(values) >= _ROUNDING_FLOOR:
            raise StepOverflow("exponential-map result rounded outside the cone")
        return SpdPoint._from_spectrum(values, None, p._basis)
    v = _tangent_at(p, v)
    lam = p.eigen.values
    whitened_bound = float(np.linalg.norm(v, "fro")) / float(lam[0])
    if whitened_bound <= _EXP_SERIES_CUTOFF:
        out = symmetrize(p.matrix + v + 0.5 * (v @ p.inv() @ v))
    else:
        s = p.sqrt()
        si = p.inv_sqrt()
        m = symmetrize(si @ v @ si)
        try:
            e = mat_func(m, np.exp)
        except (SpectrumDomainError, InvalidMatrix) as err:
            raise StepOverflow("exponential of the whitened step is not finite") from err
        out = symmetrize(s @ e @ s)
    if not np.all(np.isfinite(out)):
        raise StepOverflow("exponential-map result has non-finite entries")
    try:
        return SpdPoint(out)
    except InvalidPoint as err:
        raise StepOverflow("exponential-map result rounded outside the cone") from err


def needs_dense(p: SpdPoint, v: np.ndarray | SpectralTangent, steps: np.ndarray) -> bool:
    """Whether an iteration from ``p`` along ``v`` belongs on the dense route.

    True when ``v`` is a SpectralTangent and the iterate, the coefficients
    of ``v`` or any finite trial exp_P(t v) for t in ``steps`` leave the
    range in which the spectral route reproduces the dense one: a spread
    lambda_min / lambda_max below 1e-13, or eigenvalues or coefficients
    beyond 1e100 in magnitude (eigenvalues also below 1e-100).  The solver
    then continues from ``p.to_dense()``.  Non-finite trials need no
    hand-over: both routes reject them as overflowing.
    """
    if not isinstance(v, SpectralTangent):
        return False
    values = p.spectrum
    if np.max(np.abs(v.coeffs)) > _HANDOVER_SCALE:
        return True
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        trials = values * np.exp(np.multiply.outer(steps, v.coeffs) / values)
        points = np.vstack([values, trials])
        low, high = points.min(axis=1), points.max(axis=1)
        spread_ok = low / high >= _HANDOVER_SPREAD
        inside = spread_ok & (low >= 1.0 / _HANDOVER_SCALE) & (high <= _HANDOVER_SCALE)
    finite = np.all(np.isfinite(points), axis=1)
    return bool(np.any(finite & ~inside))


def _scalar_coefficient(p: SpdPoint) -> float | None:
    """c if the point is exactly c times the identity, else None."""
    if p.spectral:
        values = p.spectrum
        return float(values[0]) if np.all(values == values[0]) else None
    diag = np.diag(p.matrix)
    if np.all(diag == diag[0]) and np.count_nonzero(p.matrix) == p.dim:
        return float(diag[0])
    return None


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
        return abs(float(np.log(cb / ca))) * float(np.sqrt(a.dim))
    if ca is not None or cb is not None:
        lam, c = (b.spectrum, ca) if cb is None else (a.spectrum, cb)
        return float(np.sqrt(np.sum(np.log(lam / c) ** 2)))
    s = a.inv_sqrt()
    c = symmetrize(s @ b.matrix @ s)
    pair = sym_eigen(c)
    if float(pair.values[0]) <= 0.0:
        raise InvalidPoint("relative matrix is not positive definite")
    return float(np.linalg.norm(np.log(pair.values)))


def random_spd(dim: int, eig_low: float, eig_high: float, seed: int) -> SpdPoint:
    """Seeded random point with spectrum i.i.d. uniform in [eig_low, eig_high].

    The spectrum is drawn first, then an orthogonal frame from the sign-fixed
    QR factorization of a Gaussian matrix.  Identical arguments give bitwise
    identical points.  The frame is drawn, from a copy of the generator's
    state, only when the basis is first read (``matrix``, ``eigen`` or the
    ``frame`` of a spectral form), so a run that stays on the spectral route
    never pays for the QR; the matrix is formed on first use.
    """
    if dim < 1:
        raise InvalidRange(f"dimension must be >= 1, got {dim}")
    if not (0.0 < eig_low <= eig_high < np.inf):
        raise InvalidRange(f"need 0 < eig_low <= eig_high, got [{eig_low}, {eig_high}]")
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(eig_low, eig_high, size=dim))
    state = rng.bit_generator.state

    def draw_basis() -> np.ndarray:
        gen = np.random.default_rng()
        gen.bit_generator.state = state
        q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
        return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)

    return SpdPoint._from_spectrum(lam, _LazyPair(lam, draw_basis), None)
