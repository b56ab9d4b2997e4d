"""Two objective families on the SPD cone, posed as vector-field problems.

Family one:  f(P) = a ln det P + b tr P^{-1},   gradient field  a P - b I,
family two:  f(P) = a ln det P - b tr P,        gradient field  a P - b P^2,

with global minimizers (b/a) I and (a/b) I respectively.  The gradient and
Hessian conversions between Euclidean and Riemannian form are

    grad f(P) = P f'(P) P,
    Hess f(P)[V] = P f''(P)[V] P + (V f'(P) P + P f'(P) V) / 2,

and for both families the Newton system Hess f(P)[V] = -grad f(P) reduces to
a Lyapunov equation P V + V P = RHS with an RHS polynomial in P:

    family one:  P V + V P = 2 (P^2 - (a/b) P^3),
    family two:  P V + V P = 2 ((a/b) P - P^2).

The merit function is phi(P) = ||grad f(P)||_P^2 / 2, with closed-form
gradients  a b I - b^2 P^{-1}  and  b^2 P^3 - a b P^2.

All of these are spectral functions of P.  At every point GradientField
therefore returns the field and the Newton direction as SpectralTangents on
the point's frame, with eigenvalue coefficients

    field:   a lambda - b            (one),   a lambda - b lambda^2   (two),
    Newton:  lambda - (a/b) lambda^2 (one),   a/b - lambda            (two),

and the merit is read off the frame's eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import REAL, DimMismatch, SpectrumDomainError, require
from .linalg import lyapunov_solve, mat_func, quiet, symmetrize
from .manifold import SpdPoint, SpectralTangent, identity_eigen

__all__ = [
    "Family",
    "Objective",
    "value",
    "euclidean_grad",
    "euclidean_hess_apply",
    "riemannian_grad",
    "hess_apply",
    "newton_solve",
    "merit_value",
    "merit_gradient",
    "minimizer",
    "GradientField",
]


class Family(str, Enum):
    F1 = "f1"
    F2 = "f2"


@dataclass(frozen=True)
class Objective:
    """One member of a family, with positive coefficients a and b.

    Only the ratio b/a matters for the minimizer; both coefficients are kept
    so merit values and step sizes carry their natural scale.
    """

    family: Family
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        require(REAL, a=self.a, b=self.b)
        if not (0.0 < self.a < np.inf and 0.0 < self.b < np.inf):
            raise ValueError(f"coefficients must be finite and positive, got a={self.a}, b={self.b}")

    @property
    def ratio(self) -> float:
        return self.b / self.a


def value(obj: Objective, p: SpdPoint) -> float:
    """Objective value through the spectrum (ln det P = sum of ln lambda_i)."""
    lam = p.spectrum
    logdet = float(np.sum(np.log(lam)))
    if obj.family is Family.F1:
        return obj.a * logdet + obj.b * float(np.sum(1.0 / lam))
    return obj.a * logdet - obj.b * float(np.sum(lam))


@quiet
def euclidean_grad(obj: Objective, p: SpdPoint) -> np.ndarray:
    """f'(P): a P^{-1} - b P^{-2} for family one, a P^{-1} - b I for family two."""
    if obj.family is Family.F1:
        return obj.a * p.inv() - obj.b * p.power(-2.0)
    return obj.a * p.inv() - obj.b * np.eye(p.dim)


@quiet
def euclidean_hess_apply(obj: Objective, p: SpdPoint, v: np.ndarray) -> np.ndarray:
    """f''(P)[V] for the chosen family."""
    v = symmetrize(v)
    pinv = p.inv()
    if obj.family is Family.F1:
        pinv2 = p.power(-2.0)
        return symmetrize(
            obj.b * (pinv @ v @ pinv2 + pinv2 @ v @ pinv) - obj.a * pinv @ v @ pinv
        )
    return symmetrize(-obj.a * pinv @ v @ pinv)


@quiet
def riemannian_grad(obj: Objective, p: SpdPoint) -> np.ndarray:
    """Gradient field: a P - b I (family one) or a P - b P^2 (family two).

    Closed forms of P f'(P) P; they vanish exactly at the minimizer.
    """
    if obj.family is Family.F1:
        return obj.a * p.matrix - obj.b * np.eye(p.dim)
    return obj.a * p.matrix - obj.b * p.power(2.0)


@quiet
def hess_apply(obj: Objective, p: SpdPoint, v: np.ndarray) -> np.ndarray:
    """Hessian action by the general conversion formula.

    Computes P f''(P)[V] P + (V f'(P) P + P f'(P) V)/2; the per-family
    simplifications b (V P^{-1} + P^{-1} V)/2 and -b (V P + P V)/2 are left
    to the test suite as an independent check.
    """
    v = symmetrize(v)
    m = p.matrix
    fp = euclidean_grad(obj, p)
    fpp = euclidean_hess_apply(obj, p, v)
    return symmetrize(m @ fpp @ m + 0.5 * (v @ fp @ m + m @ fp @ v))


def _newton_rhs(obj: Objective, p: SpdPoint) -> np.ndarray:
    """Right-hand side of the reduced Newton system, polynomial in P."""
    ratio = obj.a / obj.b
    if obj.family is Family.F1:
        return mat_func(None, lambda lam: 2.0 * (lam**2 - ratio * lam**3), eigen=p.eigen)
    return mat_func(None, lambda lam: 2.0 * (ratio * lam - lam**2), eigen=p.eigen)


def newton_solve(obj: Objective, p: SpdPoint) -> np.ndarray:
    """Newton direction: the V with Hess f(P)[V] = -grad f(P).

    Solved as the Lyapunov equation P V + V P = RHS in the eigenbasis of P,
    which always has a unique solution on the cone.
    """
    return lyapunov_solve(None, _newton_rhs(obj, p), eigen=p.eigen)


@quiet
def merit_value(obj: Objective, p: SpdPoint) -> float:
    """phi(P) = ||grad f(P)||_P^2 / 2, evaluated through the spectrum: half the
    sum of squares of the eigenvalues r of P^{-1/2} grad f(P) P^{-1/2}."""
    lam = p.spectrum
    r = obj.a - obj.b / lam if obj.family is Family.F1 else obj.a - obj.b * lam
    return 0.5 * float(np.add.reduce(r * r))


@quiet
def merit_gradient(obj: Objective, p: SpdPoint) -> np.ndarray:
    """grad phi(P): a b I - b^2 P^{-1} (family one), b^2 P^3 - a b P^2 (family two).

    The coefficients are numpy floats, so b^2 beyond the float range gives
    inf entries (and the solver a failure status) instead of an OverflowError.
    """
    a, b = np.float64(obj.a), np.float64(obj.b)
    if obj.family is Family.F1:
        return a * b * np.eye(p.dim) - b**2 * p.inv()
    return b**2 * p.power(3.0) - a * b * p.power(2.0)


def minimizer(obj: Objective, dim: int) -> SpdPoint:
    """The global minimizer: (b/a) I for family one, (a/b) I for family two.

    Built from its spectrum alone, on the identity basis as its frame:
    ``distance`` reads it as c I off its spectrum, and neither the basis nor
    the matrix diag(c, ..., c) is formed unless read."""
    if dim < 1:
        raise DimMismatch(f"a point needs dimension n >= 1, got {dim}")
    c = obj.b / obj.a if obj.family is Family.F1 else obj.a / obj.b
    pair = identity_eigen(np.full(dim, c))
    return SpdPoint._from_spectrum(pair.values, pair, pair)


def _spectral(coeffs: np.ndarray) -> SpectralTangent:
    # A finite sum of squares has finite terms; only an infinite or nan one
    # needs the scan, since finite coefficients may overflow it.
    if not math.isfinite(coeffs.dot(coeffs)) and not np.isfinite(coeffs).all():
        raise SpectrumDomainError("spectral coefficients are not finite")
    return SpectralTangent(coeffs)


class GradientField:
    """The gradient vector field X = grad f of an objective, packaged with
    the four operations the damped Newton solver calls (``solver.Problem``).

    Any object with the same four methods can be handed to the solver; this
    class is the concrete instantiation for the two shipped families.  The
    field and the Newton direction are SpectralTangents in the point's
    frame, so the solver's steps stay O(n).
    """

    def __init__(self, objective: Objective):
        self.objective = objective

    @quiet
    def field_value(self, p: SpdPoint) -> SpectralTangent:
        obj, lam = self.objective, p.spectrum
        if obj.family is Family.F1:
            return _spectral(obj.a * lam - obj.b)
        return _spectral(obj.a * lam - obj.b * lam**2)

    @quiet
    def newton_solve(self, p: SpdPoint) -> SpectralTangent:
        obj, lam = self.objective, p.spectrum
        ratio = obj.a / obj.b
        if obj.family is Family.F1:
            return _spectral(lam - ratio * lam**2)
        return _spectral(ratio - lam)

    def merit_value(self, p: SpdPoint) -> float:
        return merit_value(self.objective, p)

    def fallback_direction(self, p: SpdPoint) -> np.ndarray:
        return -merit_gradient(self.objective, p)
