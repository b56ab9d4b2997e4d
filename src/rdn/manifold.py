"""The cone of symmetric positive definite matrices as a Riemannian manifold.

The metric is the affine-invariant one,

    <U, V>_P = tr(V P^{-1} U P^{-1}),

under which the cone is complete and the exponential map

    exp_P(V) = P^{1/2} e^{P^{-1/2} V P^{-1/2}} P^{1/2}

is globally defined: every symmetric step lands back inside the cone, so no
projection is ever needed.  Geodesic distance is ||log(A^{-1/2} B A^{-1/2})||_F.

Points are immutable and carry a lazily computed eigendecomposition, from
which P^{1/2}, P^{-1/2} and P^{-1} are formed once, on first use, and kept.
Along one dense direction V, exp_P(t V) = P^{1/2} Q diag(e^{t w}) Q^T P^{1/2}
with (w, Q) the eigenpair of the whitened P^{-1/2} V P^{-1/2} (Pennec,
Fillard & Ayache, IJCV 66, 2006).  A DenseTangent shares that eigenpair
among its multiples, so a line search pays for one factorization of the
whitened direction and one per accepted or evaluated trial point, not one
per backtrack.

Spectral seam.  A point may instead be held in spectral form, a frame
(values, basis) with P = basis diag(values) basis^T, and a tangent that
commutes with it as a SpectralTangent, the coefficients of V in the same
basis.  Along such tangents the metric, the norm and the exponential map are
O(n) functions of the eigenvalues (Higham, Functions of Matrices, ch. 1):

    ||V||_P = ||c / lambda||,   exp_P(t V) = basis diag(lambda e^{t c / lambda}) basis^T,

so every iterate keeps the start's eigenbasis and no factorization is paid
after the start's.  Plain ndarray tangents take the dense route unchanged.
Each spectral trial is formed and checked once: ``needs_dense`` forms the
first finite trial of an iteration and keeps it for the multiples of its
tangent, and ``exp_map`` returns that trial for the same step at the same
point instead of forming it again.
Where the dense route's outcome is decided by rounding noise or by where its
intermediates overflow (spreads lambda_min / lambda_max below 1e-13, or
eigenvalues and coefficients beyond 1e100), ``needs_dense`` tells the solver
to run that iteration on the dense route from a materialized point
(``to_dense``); the solver then returns to the spectral route on the new
iterate's eigendecomposition (``to_spectral``, which keeps the matrix and
the factorization the dense route cached, and whose ``to_dense`` hands the
same arrays back).

Lazy bases.  ``random_spd`` draws the spectrum at once but the basis (a QR
factorization) only when something reads it.  Its factorization is an
EigenPair whose ``vectors`` are drawn on first read, and its spectral form
holds that same pair as its frame's basis: the matrix, ``eigen.vectors`` and
a spectral point's ``frame`` draw it, ``eigen.values`` does not.  The hot
paths read eigenvalues through ``spectrum`` and test for the spectral form
with ``spectral``, neither of which draws it, so a run that stays spectral
factorizes nothing.
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
    "DenseTangent",
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
    return float(values.min() / values.max())


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

    Construction symmetrizes the input and verifies numerical positive
    definiteness (by Cholesky, or directly from a supplied eigendecomposition).
    ``from_frame`` builds a spectral point from its eigenvalues and basis
    instead, forming the matrix only on first use; ``frame`` is set only on
    spectral points (``from_frame``, ``to_spectral``, spectral steps), and
    ``spectral``/``spectrum`` read them without drawing a lazy basis.  The
    matrix is frozen once formed; the caches are filled idempotently on first
    use, so points are safe to share between threads.
    """

    # _values/_basis: the frame of a spectral point, its basis held as the
    # EigenPair it came from (possibly a random start's, not drawn yet).
    # _powers: P^{1/2}, P^{-1/2} and P^{-1} by exponent, once formed; the
    # dense and the spectral form of one point share the dict.
    # _in_bounds: True only on a spectral step whose eigenvalues are the
    # very array needs_dense found inside the hand-over bounds.
    __slots__ = ("_matrix", "_eigen", "_values", "_basis", "_powers", "_in_bounds")

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
        self._powers = {}
        self._in_bounds = False

    @classmethod
    def _from_spectrum(
        cls,
        values: np.ndarray,
        eigen: EigenPair | None,
        basis: EigenPair | None,
        *,
        checked: bool = False,
    ) -> "SpdPoint":
        """A point without its matrix: spectral on the vectors of ``basis``
        when given, else dense with the (possibly lazy) factorization ``eigen``.
        ``checked`` vouches that ``values`` are finite and strictly positive."""
        if not (checked or (np.isfinite(values).all() and values.min() > 0.0)):
            raise InvalidPoint("spectrum is not finite and strictly positive")
        point = object.__new__(cls)
        point._matrix = None
        point._eigen = eigen
        point._values = None if basis is None else values
        point._basis = basis
        point._powers = {}
        point._in_bounds = False
        return point

    @classmethod
    def from_frame(cls, values: np.ndarray, basis: np.ndarray) -> "SpdPoint":
        """Spectral point basis diag(values) basis^T, ``basis`` orthogonal and
        ``values`` in the order of its columns, finite and strictly positive."""
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
        """Cached spectral factorization; computed once, reused everywhere.
        A random start's is lazy: reading its ``values`` draws no basis."""
        if self._eigen is None:
            if self._basis is not None:
                values, basis = self.frame
                order = np.argsort(values, kind="stable")
                self._eigen = EigenPair(values=values[order], vectors=basis[:, order])
            else:
                pair = sym_eigen(self.matrix)
                if float(pair.values[0]) <= 0.0:
                    # Cholesky can accept matrices whose smallest eigenvalues sit
                    # below the rounding floor of the largest; reject them here.
                    raise InvalidPoint("matrix is not numerically positive definite")
                self._eigen = pair
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
        point = SpdPoint._from_spectrum(pair.values, pair, pair if spectral else None)
        point._matrix = self._matrix
        point._powers = self._powers
        return point

    def power(self, t: float) -> np.ndarray:
        """P^t through the cached spectrum (t = 0.5, -0.5, -1, 2, ...)."""
        return mat_func(self.matrix, lambda lam: lam**t, eigen=self.eigen)

    def _kept_power(self, t: float) -> np.ndarray:
        """``power(t)``, formed on first use and kept, read-only."""
        m = self._powers.get(t)
        if m is None:
            m = self.power(t)
            m.flags.writeable = False
            self._powers[t] = m
        return m

    def sqrt(self) -> np.ndarray:
        return self._kept_power(0.5)

    def inv_sqrt(self) -> np.ndarray:
        return self._kept_power(-0.5)

    def inv(self) -> np.ndarray:
        return self._kept_power(-1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdPoint(dim={self.dim})"


class SpectralTangent:
    """Tangent V = basis diag(coeffs) basis^T in the frame of a spectral point.

    Such a V commutes with its base point.  Scaling by a number is the only
    arithmetic the solver needs.  The multiples t V share the trial point
    that ``needs_dense`` formed for the first finite step t at a point P:
    ``exp_map`` returns it for that step at P instead of forming it again.
    """

    # _scale: t on the multiple t * V of a tangent of scale 1, whose coeffs
    # are then bitwise t * V.coeffs; 1 on any other tangent.  _shared: a
    # one-element list the multiples hold, None until needs_dense stores
    # (point, t, trial eigenvalues) there in one assignment.
    __slots__ = ("coeffs", "_scale", "_shared")

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = coeffs
        self._scale = 1.0
        self._shared = [None]

    def __mul__(self, t: float) -> "SpectralTangent":
        step = SpectralTangent(t * self.coeffs)
        if self._scale == 1.0:
            step._scale = t
            step._shared = self._shared
        return step

    __rmul__ = __mul__


# A factorization (w, Q) of the whitened step t0 V serves the step t V as
# (r w, Q), r = t / t0 = 2^-k <= 1: scaling by a power of two commutes with
# rounding in the products, in eigh and in exp, bit for bit, while nothing
# nears the subnormal range.  Every nonzero intermediate of P^{-1/2} (t V)
# P^{-1/2} is at least t min|V| min(1, min|P^{-1/2}|)^2 2^-266, minima over
# nonzero entries (a product of floats, and a rounded sum of such products,
# stays on the grid of its smallest term), so the reuse requires that bound,
# and every nonzero entry and eigenvalue of the whitened step, to stay above
# _SCALING_FLOOR, far above the subnormal range.  It also requires the
# whitened step's largest entry below _EIGH_UNSCALED_MAX: beyond
# sqrt(eps / tiny) = 2^485 LAPACK's syevd rescales its input by a factor
# that is not a power of two (below 2^-485 as well, which the floor
# excludes).
_SCALING_FLOOR = 2.0**-450
_EIGH_UNSCALED_MAX = 2.0**480


def _smallest_magnitude(a: np.ndarray) -> float:
    """The smallest nonzero |entry| of ``a``, inf if there is none."""
    mags = np.abs(a[a != 0.0])
    return float(mags.min()) if mags.size else math.inf


class DenseTangent:
    """Tangent ``scale`` times the matrix ``matrix``, whose multiples share
    one factorization of the whitened direction.

    ``exp_map`` steps along it bit for bit as along the matrix scale * V, but
    factors P^{-1/2} (scale V) P^{-1/2} only for the first step that needs
    it and scales that eigenpair for the other multiples at the same point,
    where rounding allows (see _SCALING_FLOOR); elsewhere each step factors
    its own.  The line search wraps a dense direction in one, so that its
    backtracked trials share one factorization.
    """

    # _shared: a one-element list every multiple holds, None until a step
    # factors its whitened matrix, then (point, scale t0, eigenpair, floor),
    # floor bounding the step's nonzero magnitudes (zero where the eigenpair
    # may not be reused).  The tuple is stored in one assignment, so no
    # reader sees it half made.
    __slots__ = ("matrix", "scale", "_shared")

    def __init__(self, matrix: np.ndarray, scale: float = 1.0):
        self.matrix = np.asarray(matrix, dtype=float)
        self.scale = scale
        self._shared = [None]

    def __mul__(self, t: float) -> "DenseTangent":
        step = DenseTangent(self.matrix, t * self.scale)
        step._shared = self._shared
        return step

    __rmul__ = __mul__

    def _eigen_at(self, p: SpdPoint, step: np.ndarray) -> EigenPair:
        """The eigenpair of the whitened step, ``step`` being this tangent
        symmetrized: the shared one scaled where that gives the same bits,
        else factored, and shared if it is the first."""
        shared = self._shared[0]
        if shared is not None:
            point, base, pair, floor = shared
            r = self.scale / base
            if point is p and 0.0 < r <= 1.0 and math.frexp(r)[0] == 0.5 and r * floor >= _SCALING_FLOOR:
                return EigenPair(values=r * pair.values, vectors=pair.vectors)
        pair, whitened = _factor_whitened(p, step)
        if shared is None:
            floor = 0.0
            if float(np.max(np.abs(whitened))) < _EIGH_UNSCALED_MAX:
                si = p.inv_sqrt()
                floor = min(
                    self.scale * _smallest_magnitude(self.matrix) * min(1.0, _smallest_magnitude(si)) ** 2,
                    _smallest_magnitude(whitened),
                    _smallest_magnitude(pair.values),
                )
            self._shared[0] = (p, self.scale, pair, floor)
        return pair


def _whitened(p: SpdPoint, v: SpectralTangent) -> np.ndarray:
    """Eigenvalues c / lambda of P^{-1/2} V P^{-1/2}, in frame order."""
    if not p.spectral:
        raise DimMismatch("spectral tangent at a point without a spectral frame")
    values = p.spectrum
    if v.coeffs.shape != values.shape:
        raise DimMismatch(f"tangent has {v.coeffs.shape[0]} coefficients, point dimension {p.dim}")
    return v.coeffs / values


def _tangent_at(p: SpdPoint, v: np.ndarray | DenseTangent) -> np.ndarray:
    """Symmetrize a tangent vector and check it lives at ``p``."""
    if isinstance(v, DenseTangent):
        v = v.scale * v.matrix
    v = symmetrize(v)
    if v.shape[0] != p.dim:
        raise DimMismatch(f"tangent dimension {v.shape[0]} != point dimension {p.dim}")
    return v


@quiet
def inner(p: SpdPoint, u: np.ndarray, v: np.ndarray) -> float:
    """Affine-invariant metric <U, V>_P = tr(V P^{-1} U P^{-1})."""
    if isinstance(u, SpectralTangent) and isinstance(v, SpectralTangent):
        return float(np.sum(_whitened(p, u) * _whitened(p, v)))
    u = _tangent_at(p, u)
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    return float(np.sum((s @ u @ s) * (s @ v @ s)))


def _frobenius(x: np.ndarray) -> float:
    """||x||_F.  Where the plain sum of squares overflows but the entries are
    finite, m ||x / m||_F with m = max|x| (Blue, ACM TOMS 4, 1978); the bits
    are the plain norm's wherever that is finite.  The plain norm is
    np.linalg.norm's own recipe, sqrt of the flattened x . x, without its
    Python-level dispatch."""
    flat = x.ravel(order="K")
    r = math.sqrt(flat.dot(flat))
    if r == math.inf and np.all(np.isfinite(x)):
        m = float(np.max(np.abs(x)))
        r = m * float(np.linalg.norm(x / m))
    return r


@quiet
def norm(p: SpdPoint, v: np.ndarray) -> float:
    """Metric norm ||V||_P = ||P^{-1/2} V P^{-1/2}||_F; zero iff V = 0.

    Finite wherever the whitened V is, up to the float range itself."""
    if isinstance(v, SpectralTangent):
        return _frobenius(_whitened(p, v))
    v = _tangent_at(p, v)
    s = p.inv_sqrt()
    return _frobenius(s @ v @ s)


# Whitened steps below this norm take the series route in exp_map: the
# truncation error ||M||^3/6 is then under 2e-19, beneath double rounding.
_EXP_SERIES_CUTOFF = 1e-6
# The smallest normal double; a step norm below it has lost bits to underflow.
_TINY = float(np.finfo(float).tiny)


@quiet
def exp_map(p: SpdPoint, v: np.ndarray | SpectralTangent | DenseTangent) -> SpdPoint:
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
    definite matrix form and also raises StepOverflow.  The step at P that
    ``needs_dense`` already formed and checked for its multiples is returned
    as it is, the same bits.  A DenseTangent steps as its matrix does, on
    the eigenpair of the whitened step its multiples share where that gives
    the same bits.
    """
    if isinstance(v, SpectralTangent):
        shared = v._shared[0]
        if shared is not None and shared[0] is p and shared[1] == v._scale:
            point = SpdPoint._from_spectrum(shared[2], None, p._basis, checked=True)
            point._in_bounds = True
            return point
        values = p.spectrum * np.exp(_whitened(p, v))
        if not np.isfinite(values).all():
            raise StepOverflow("exponential-map result has non-finite entries")
        # A finite spread of at least the floor also makes every value positive.
        if not _spread(values) >= _ROUNDING_FLOOR:
            raise StepOverflow("exponential-map result rounded outside the cone")
        return SpdPoint._from_spectrum(values, None, p._basis, checked=True)
    step = _tangent_at(p, v)
    lam = p.eigen.values
    # Overflow here is reported by the finiteness check below.
    step_norm = float(np.linalg.norm(step, "fro"))
    if step_norm < _TINY and step.any():
        # The sum of squares underflowed: rescale by the largest entry.
        m = float(np.abs(step).max())
        whitened_bound = float(np.linalg.norm(step / m, "fro")) * (m / float(lam[0]))
    else:
        whitened_bound = step_norm / float(lam[0])
    if whitened_bound <= _EXP_SERIES_CUTOFF:
        out = symmetrize(p.matrix + step + 0.5 * (step @ p.inv() @ step))
    else:
        s = p.sqrt()
        try:
            pair = v._eigen_at(p, step) if isinstance(v, DenseTangent) else _factor_whitened(p, step)[0]
            e = mat_func(None, np.exp, eigen=pair)
        except (SpectrumDomainError, InvalidMatrix) as err:
            raise StepOverflow("exponential of the whitened step is not finite") from err
        out = symmetrize(s @ e @ s)
    if not np.all(np.isfinite(out)):
        raise StepOverflow("exponential-map result has non-finite entries")
    try:
        return SpdPoint(out)
    except InvalidPoint as err:
        raise StepOverflow("exponential-map result rounded outside the cone") from err


def _factor_whitened(p: SpdPoint, step: np.ndarray) -> tuple[EigenPair, np.ndarray]:
    """The eigenpair of the whitened step P^{-1/2} step P^{-1/2}, and that
    matrix."""
    si = p.inv_sqrt()
    m = symmetrize(si @ step @ si)
    return sym_eigen(m), m


@quiet
def needs_dense(p: SpdPoint, v: np.ndarray | SpectralTangent, steps: np.ndarray) -> bool:
    """Whether an iteration from ``p`` along ``v`` belongs on the dense route.

    True when ``v`` is a SpectralTangent and the iterate, the coefficients
    of ``v`` or any finite trial exp_P(t v) for t in ``steps`` leave the
    range in which the spectral route reproduces the dense one: a spread
    lambda_min / lambda_max below 1e-13, or eigenvalues or coefficients
    beyond 1e100 in magnitude (eigenvalues also below 1e-100).  The solver
    then continues from ``p.to_dense()``.  Non-finite trials need no
    hand-over: both routes reject them as overflowing.

    Only the first finite trial, largest step first, is formed: the log of
    a trial eigenvalue, log lambda + t c / lambda, is affine in t, so the
    log-spread is concave and log lambda_max convex in t, and each bound,
    like finiteness, holds on an interval of steps starting at t = 0.  A
    trial inside the bounds therefore vouches for every smaller step.  It is
    formed as exp_map forms exp_P(t v), bit for bit, and kept for the
    multiples of ``v``: exp_map(p, t * v) returns it without recomputing.
    An iterate that is such a kept trial is not checked again.
    """
    if not isinstance(v, SpectralTangent):
        return False
    values = p.spectrum
    if (not p._in_bounds and _outside_handover_range(values)) or np.abs(v.coeffs).max() > _HANDOVER_SCALE:
        return True
    for t in steps:
        trial = values * np.exp(t * v.coeffs / values)
        if np.isfinite(trial).all():
            if _outside_handover_range(trial):
                return True
            if v._scale == 1.0 and p.spectral and trial.shape == values.shape:
                v._shared[0] = (p, t, trial)
            return False
    return False


def _outside_handover_range(values: np.ndarray) -> bool:
    low, high = values.min(), values.max()
    return not (low / high >= _HANDOVER_SPREAD and low >= 1.0 / _HANDOVER_SCALE and high <= _HANDOVER_SCALE)


def _scalar_coefficient(p: SpdPoint) -> float | None:
    """c if the point is exactly c times the identity, else None."""
    if p.spectral:
        values = p.spectrum
        return float(values[0]) if np.all(values == values[0]) else None
    diag = np.diag(p.matrix)
    if np.all(diag == diag[0]) and np.count_nonzero(p.matrix) == p.dim:
        return float(diag[0])
    return None


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
    state, only when the basis is first read (``matrix``, ``eigen.vectors`` or
    the ``frame`` of a spectral form), so a run that stays on the spectral route
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
