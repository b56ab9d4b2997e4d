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
A damped iteration tries exp_P(2^-j V), j = 0, 1, ..., along one geodesic,
a Line, whose step t is ``exp_map(p, line, t)``.  A line factors its first
whitened dense step P^{-1/2} t V P^{-1/2} (Pennec, Fillard & Ayache, IJCV
66, 2006) and scales that eigenpair, bit for bit, for later steps; the
dense route runs only where a spectral iteration cannot.

Spectral seam.  A point may instead be held in spectral form, a frame
(values, basis) with P = basis diag(values) basis^T, and a tangent that
commutes with it as a SpectralTangent, the coefficients of V in the same
basis.  Along such tangents the metric, the norm and the exponential map are
O(n) functions of the eigenvalues (Higham, Functions of Matrices, ch. 1):

    ||V||_P = ||c / lambda||,   exp_P(t V) = basis diag(lambda e^{t c / lambda}) basis^T,

so every iterate keeps the start's eigenbasis and no factorization is paid
after the start's.  Plain ndarray tangents take the dense route unchanged.
Each spectral trial is formed and checked once: ``needs_dense`` forms the
first representable trial of an iteration and keeps it on the line, and
``exp_map`` returns it for that step of the line instead of forming it
again.
Where the dense route's outcome is decided by rounding noise (a spread
lambda_min / lambda_max below 1e-13 at the iterate or at its first trial
that can be formed), ``needs_dense`` tells the solver to run that
iteration on the dense route from a materialized point
(``to_dense``); the solver then returns to the spectral route on the new
iterate's eigendecomposition (``to_spectral``, which keeps the matrix and
the factorization it was made with, and whose ``to_dense`` hands the same
arrays back).  A trial that ``exp_map`` rejects as unrepresentable (not
finite, or a spread below the 1e-17 rounding floor) hands nothing over: the
line search backtracks past it on the spectral route.  A trial eigenvalue
lambda e^{t c / lambda} is unrepresentable only where it leaves the float
range itself, not where its factor e^{t c / lambda} alone does.

Lazy bases.  ``random_spd`` draws the spectrum at once but the basis (a QR
factorization) only when something reads it.  Its factorization is an
EigenPair whose ``vectors`` are drawn on first read, and its spectral form
holds that same pair as its frame's basis: the matrix, ``eigen.vectors`` and
a spectral point's ``frame`` draw it, ``eigen.values`` does not.  The hot
paths read eigenvalues through ``spectrum`` and test for the spectral form
with ``spectral``, neither of which draws it, so a run that stays spectral
factorizes nothing.  ``identity_eigen`` holds the identity basis of a
diagonal matrix the same way and forms the matrix as diag(values), so a
point built on it from its spectrum alone, such as the minimizer c I, forms
no n x n array unless its basis or its matrix is read.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable

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
    "Line",
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
# lyapunov_solve's singularity guard fires at a spread of 5e-15.  An iteration
# whose iterate, or first trial point that exp_map can form, has a spread
# below it runs on the dense route instead (``needs_dense``).
_HANDOVER_SPREAD = 1e-13
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
    definiteness by Cholesky and by eigh, and keeps eigh's factorization, so
    every point has a finite, strictly positive spectrum.  ``from_frame``
    builds a spectral point from its eigenvalues and basis instead, forming
    the matrix only on first use; ``frame`` is set only on spectral points
    (``from_frame``, ``to_spectral``, spectral steps), and
    ``spectral``/``spectrum`` read them without drawing a lazy basis.  Every
    power P^t (``power``, ``sqrt``, ``inv_sqrt``, ``inv``) is formed from
    the eigenpair alone on first use and kept, read-only, so no matrix is
    formed that no formula reads.  The dense and the spectral form of one
    point share the matrix and the eigenpair, so each forms the same bits of
    P^t.  The matrix is frozen once formed; the caches are filled
    idempotently on first use, so points are safe to share between threads.
    """

    # _values/_basis: the frame of a spectral point, its basis held as the
    # EigenPair it came from (possibly a random start's, not drawn yet).
    # _powers: P^t by exponent t, once this form of the point formed it.
    # _in_bounds: True only on a spectral step whose eigenvalues are the
    # very array needs_dense found at or above the hand-over spread (Line._trial).
    __slots__ = ("_matrix", "_eigen", "_values", "_basis", "_powers", "_in_bounds")

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
        # Cholesky is the dense route's acceptance test: eigh alone would
        # accept some trials near the rounding floor that it rejects.  eigh
        # rejects what Cholesky accepts with a spectrum reaching zero.
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as err:
            raise InvalidPoint("matrix is not numerically positive definite") from err
        m.flags.writeable = False
        pair = EigenPair(*np.linalg.eigh(m))
        if float(pair.values[0]) <= 0.0:
            raise InvalidPoint("matrix is not numerically positive definite")
        self._set(pair, None, None, m)

    def _set(self, eigen, values, basis, matrix=None, in_bounds=False) -> "SpdPoint":
        """Set the six slots; every point is made here."""
        self._matrix = matrix
        self._eigen = eigen
        self._values = values
        self._basis = basis
        self._powers = {}
        self._in_bounds = in_bounds
        return self

    @classmethod
    def _from_spectrum(
        cls, values: np.ndarray, eigen: EigenPair | None, basis: EigenPair | None, *, checked: bool = False,
        matrix: np.ndarray | None = None, in_bounds: bool = False,
    ) -> "SpdPoint":
        """A point spectral on the vectors of ``basis`` when given, else dense with
        the (possibly lazy) factorization ``eigen``; its matrix unformed unless given.
        ``checked`` vouches that ``values`` are finite and strictly positive."""
        if not (checked or (np.isfinite(values).all() and values.min() > 0.0)):
            raise InvalidPoint("spectrum is not finite and strictly positive")
        return object.__new__(cls)._set(eigen, None if basis is None else values, basis, matrix, in_bounds)

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
    def spectral(self) -> bool:
        """Whether the point is held in spectral form (``frame`` is set)."""
        return self._basis is not None

    @property
    def frame(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, basis) with P = basis diag(values) basis^T on spectral
        points, else None.  Reading it draws a lazy basis."""
        return None if self._basis is None else (self._values, self._basis.vectors)

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
        """The ascending factorization: a dense point's is made with it, a
        spectral point's is its frame sorted on first read.  A random start's
        is lazy: reading its ``values`` draws no basis."""
        if self._eigen is None:
            values, basis = self.frame
            order = np.argsort(values, kind="stable")
            self._eigen = EigenPair(values=values[order], vectors=basis[:, order])
        return self._eigen

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues, in frame order for spectral points; reading them
        draws no lazy basis."""
        return self._values if self._values is not None else self.eigen.values

    def to_spectral(self) -> "SpdPoint":
        """The same point in spectral form on its eigendecomposition, sharing
        its cached matrix and factorization (a random start's basis stays
        undrawn)."""
        return self if self.spectral else self._on_eigen(spectral=True)

    def to_dense(self) -> "SpdPoint":
        """The same point held densely, on the ascending factorization and
        the matrix if formed: a point made by ``to_spectral`` gives back the
        arrays of the dense point it was made from."""
        return self._on_eigen(spectral=False) if self.spectral else self

    def _on_eigen(self, spectral: bool) -> "SpdPoint":
        """The point rebuilt on ``eigen``, spectral with it as its frame or
        dense, sharing the matrix (which may still be unformed)."""
        pair = self.eigen
        return SpdPoint._from_spectrum(pair.values, pair, pair if spectral else None, matrix=self._matrix)

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
    """Tangent V = basis diag(coeffs) basis^T in the frame of a spectral point.

    Such a V commutes with its base point; scaling by a number is its only
    arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs

    def __mul__(self, t: float) -> "SpectralTangent":
        return SpectralTangent(t * self.coeffs)

    __rmul__ = __mul__


class Line:
    """The geodesic t -> exp_P(t V) that one iteration searches along.

    ``exp_map(point, line, t)`` is bit for bit ``exp_map(point, t * direction)``;
    the line holds the spectral trial ``needs_dense`` kept, which ``exp_map``
    returns for its own step, and the eigenpair of its first whitened dense
    step (``_whitened_eigen``).  A step at a point other than the line's
    raises DimMismatch.
    """

    # _trial: (t, eigenvalues) that needs_dense found at or above the hand-over spread.
    # _whitened: (t0, eigenpair of the whitened t0 V, floor of its magnitudes).
    __slots__ = ("point", "direction", "_trial", "_whitened")

    def __init__(self, point: SpdPoint, direction: np.ndarray | SpectralTangent):
        if isinstance(direction, SpectralTangent):
            _frame_values(point, direction)
        else:
            direction = np.asarray(direction, dtype=float)
        self.point, self.direction = point, direction
        self._trial = self._whitened = None


def _frame_values(p: SpdPoint, v: SpectralTangent) -> np.ndarray:
    """The eigenvalues of ``p`` in frame order, once ``v`` is checked to be in its frame."""
    values = p._values
    if values is None:
        raise DimMismatch("spectral tangent at a point without a spectral frame")
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
# The eigenpair (mu, Q) of the whitened step M0 = P^{-1/2} t0 V P^{-1/2}
# serves the step r t0, r = 2^-k <= 1, as (r mu, Q), bit for bit: scaling by
# a power of two commutes with rounding in the products and in eigh while
# nothing nears the subnormal range.  So min|t0 V| min(1, min|si|)^2, which
# bounds the products' nonzero terms, every nonzero entry of M0 and every
# nonzero eigenvalue, times r, must reach _SCALING_FLOOR, far above LAPACK's
# thresholds (2^-405 in dsteqr, 2^-511 in dlartg); and max|M0| < 2^480, as
# syevd rescales above 2^484.5 by a factor that is not a power of two.
_SCALING_FLOOR = 2.0**-300


def _whitened_eigen(line: Line, t: float, step: np.ndarray) -> EigenPair:
    """The eigenpair of P^{-1/2} step P^{-1/2}, step = sym(t V): the line's pair
    scaled where that gives the same bits, else factored and kept if first."""
    kept = line._whitened
    if kept is not None:
        t0, pair, floor = kept
        r = t / t0
        if r <= 1.0 and math.frexp(r)[0] == 0.5 and r * floor >= _SCALING_FLOOR:
            return EigenPair(r * pair.values, pair.vectors)
    si = line.point.inv_sqrt()
    m = si @ step @ si
    pair = sym_eigen(m)
    if kept is None:
        least = [float(np.abs(a[a != 0.0]).min(initial=math.inf)) for a in (step, si, m, pair.values)]
        floor = min(least[0] * min(1.0, least[1]) ** 2, *least[2:])
        line._whitened = (t, pair, floor if np.abs(m).max() < 2.0**480 and np.isfinite(pair.values).all() else 0.0)
    return pair


@quiet
def exp_map(p: SpdPoint, v: np.ndarray | SpectralTangent | Line, t: float = 1.0) -> SpdPoint:
    """Geodesic step exp_P(t V) = P^{1/2} e^{P^{-1/2} t V P^{-1/2}} P^{1/2}.

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
    definite matrix form and also raises StepOverflow.  A tangent V steps as
    Line(P, V).  The step t of a Line is taken from the line's point
    (DimMismatch elsewhere), bit for bit as the tangent t V: the trial
    ``needs_dense`` kept is returned as it is for its own step, and a dense
    step scales the eigenpair of the line's first whitened step where it can.
    """
    line = v if isinstance(v, Line) else Line(p, v)
    if line.point is not p:
        raise DimMismatch("a line steps only from its own point")
    v = line.direction
    if isinstance(v, SpectralTangent):
        kept = line._trial
        if kept is not None and kept[0] == t:
            return SpdPoint._from_spectrum(kept[1], None, p._basis, checked=True, in_bounds=True)
        values, spread = _spectral_trial(p._values, v.coeffs, t)
        if not spread >= _ROUNDING_FLOOR:
            raise StepOverflow("exponential-map result overflowed or rounded outside the cone")
        return SpdPoint._from_spectrum(values, None, p._basis, checked=True)
    step = _tangent_at(p, v if t == 1.0 else t * v)
    # ||V||_F / lambda_min bounds the whitened step's norm.
    if _frobenius(step) / float(p.eigen.values[0]) <= _EXP_SERIES_CUTOFF:
        out = symmetrize(p.matrix + step + 0.5 * (step @ p.inv() @ step))
    else:
        s = p.sqrt()
        try:
            e = mat_func(None, np.exp, eigen=_whitened_eigen(line, t, step))
        except (SpectrumDomainError, InvalidMatrix) as err:
            raise StepOverflow("exponential of the whitened step is not finite") from err
        # A + A^T overflows above half the float maximum: SpdPoint rejects it.
        out = symmetrize(s @ e @ s)
    try:
        return SpdPoint(out)
    except InvalidPoint as err:
        raise StepOverflow("exponential-map result overflowed or rounded outside the cone") from err


@quiet
def needs_dense(line: Line, steps: Iterable[float]) -> bool:
    """Whether an iteration along ``line`` belongs on the dense route.

    True when the line's direction is a SpectralTangent and its point or its
    first representable trial exp_P(t V), t in ``steps`` largest first, has
    a spread lambda_min / lambda_max below 1e-13, where the dense route's
    outcome is decided by rounding.  The solver then continues from
    ``line.point.to_dense()``.  A trial is representable if its spread is at
    least the rounding floor 1e-17; exp_map rejects any other as
    StepOverflow, so it needs no hand-over and the line search backtracks
    past it (the paper's step 2 skips a trial that cannot be formed).

    Only that first representable trial is formed: the log of a trial
    eigenvalue, log lambda + t c / lambda, is affine in t, so the log-spread
    is concave in t, and the spread bound, like representability, holds on
    an interval of steps starting at t = 0.  A trial at or above 1e-13
    therefore vouches for every smaller step.  It is formed by exp_map's
    formula and kept on the line, which returns it for
    ``exp_map(point, line, t)`` without forming it again.  A point that is
    such a kept trial is not checked again.
    """
    p, v = line.point, line.direction
    if not isinstance(v, SpectralTangent):
        return False
    values, c = p._values, v.coeffs
    if not (p._in_bounds or _spread(values) >= _HANDOVER_SPREAD):
        return True
    for t in steps:
        trial, spread = _spectral_trial(values, c, t)
        if spread >= _HANDOVER_SPREAD:
            line._trial = (t, trial)
            return False
        if spread >= _ROUNDING_FLOOR:
            return True
    return False


def _spread(values: np.ndarray) -> np.float64:
    """lambda_min / lambda_max of non-negative values (eigenvalues and
    trials, never below +0), read at argmin and argmax, which cost less
    than min() and max() on short arrays.  A spread of at least the rounding
    floor makes every value finite and positive: a nan gives a nan spread,
    an infinite value a spread of 0 or nan, and an underflowed one 0."""
    return values[values.argmin()] / values[values.argmax()]


def _scalar_coefficient(p: SpdPoint) -> float | None:
    """c if the point is exactly c times the identity, else None."""
    if p.spectral:
        values = p.spectrum
        return float(values[0]) if np.all(values == values[0]) else None
    diag = np.diag(p.matrix)
    if np.all(diag == diag[0]) and np.count_nonzero(p.matrix) == p.dim:
        return float(diag[0])
    return None


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
    identical points.  The frame is drawn, from a copy of the generator's
    state, only when the basis is first read (``matrix``, ``eigen.vectors`` or
    the ``frame`` of a spectral form), so a run that stays on the spectral route
    never pays for the QR; the matrix is formed on first use.
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

    return SpdPoint._from_spectrum(lam, _LazyPair(lam, draw_basis), None)
