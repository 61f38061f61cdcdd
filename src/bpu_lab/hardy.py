"""Level-k equivariant function spaces on the unit 3-sphere.

Sections of the k-th power of the model line bundle are realized as
restrictions of degree-k holomorphic monomials z0^a z1^(k-a); they transform
with weight +k under the circle action (``EQUIVARIANCE_SIGN``).  The basis
is orthogonal for the bundle measure, with closed-form squared norms

    ||s_a||^2 = BUNDLE_VOLUME * a! (k-a)! / (k+1)!

stored in the log domain.  BUNDLE_VOLUME = sqrt(pi) is the single global
measure scale of the model; it is the unique choice for which the latitude
norm sweeps of the projection module reach the leading constant
sqrt(2/pi) * r^2 (see the bpu module and the acceptance suite).  Inner
products are conjugate-linear in the first slot.  A section with coefficients
v takes the values `monomial_values(b, x) @ v` at the points x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ContractViolation, DomainError
from .fourier import _powers
from .geometry import _inner, as_point_array

__all__ = [
    "BUNDLE_VOLUME",
    "EQUIVARIANCE_SIGN",
    "SectionBasis",
    "basis",
    "monomial_values",
    "monomial_derivatives",
    "norm_sq",
]

BUNDLE_VOLUME = math.sqrt(math.pi)
EQUIVARIANCE_SIGN = +1  # eval(e^{i theta} x) = e^{+i k theta} eval(x)


@dataclass(frozen=True, eq=False)
class SectionBasis:
    """Orthogonal monomial basis of the level-k space (dimension k+1)."""

    k: int
    log_norms: NDArray[np.float64]  # log ||s_a||^2

    @cached_property
    def norms_sq(self) -> NDArray[np.float64]:
        norms = np.exp(self.log_norms)
        norms.flags.writeable = False
        return norms


def basis(k: int) -> SectionBasis:
    """Monomial basis with log-domain norms, from a long-double table of log j!
    rounded once (`_log_norms`): within 6.3e-14 of the closed form to k = 1000,
    and bit for bit the norms the level-moment kernel reads.  The log norms hold
    for k up to thousands; `norms_sq` is subnormal from k = 1019 and 0 from 1072,
    and `bpu.bpu_map` states where the projections stay valid.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"level must be a positive integer, got {k!r}")
    return SectionBasis(k=int(k), log_norms=_log_norms(k)(k))


def _log_norms(k_max: int):
    """log ||s_a||^2, a = 0..k, as a function of the level k <= k_max, from one
    long-double table of log j! (within 4e-15 to j = 1100), rounded once."""
    log_fact = np.concatenate([[0], np.cumsum(np.log(np.arange(1, k_max + 2, dtype=np.longdouble)))])
    volume = np.log(np.longdouble(BUNDLE_VOLUME))
    return lambda k: (log_fact[:k + 1] + log_fact[k::-1] + (volume - log_fact[k + 1])).astype(np.float64)


def _monomials(pts: np.ndarray, k: int) -> NDArray[np.complex128]:
    """Monomials z0^a z1^(k-a), a = 0..k, at points (M, 2): an (M, k+1) matrix."""
    return np.multiply(_powers(pts[:, 0], k)[0].T, _powers(pts[:, 1], k)[0][::-1].T,
                       out=np.empty((len(pts), k + 1), dtype=np.complex128))


def monomial_values(b: SectionBasis, points: np.ndarray) -> NDArray[np.complex128]:
    """Matrix of monomial values z0^a z1^(k-a) at bundle points, shape (M, k+1)."""
    return _monomials(np.atleast_2d(as_point_array(points)), b.k)


def _require_sphere_tangent(pts: np.ndarray, w: np.ndarray) -> None:
    """Raise ContractViolation unless every vector w is tangent to the sphere at
    its point x: |Re<x, w>| <= 1e-10 |w|, as the rounding of that product grows with |w|."""
    radial = np.real(_inner(pts, w))
    if np.any(np.abs(radial) > 1e-10 * np.linalg.norm(w, axis=-1)):
        raise ContractViolation("direction is not tangent to the 3-sphere")


def monomial_derivatives(b: SectionBasis, points: np.ndarray,
                         vectors: np.ndarray) -> NDArray[np.complex128]:
    """Directional derivatives of each monomial along per-point C^2 vectors.

    The monomials extend holomorphically, so the derivative along a real
    tangent vector w is the complex-linear pairing dP(w) = w0 dP/dz0 + w1 dP/dz1,
    evaluated exactly.  Each w must be tangent to the 3-sphere at its point;
    along the circle generator w = i*x the derivative is
    i * k * EQUIVARIANCE_SIGN times the value.
    """
    pts = np.atleast_2d(as_point_array(points))
    w = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
    _require_sphere_tangent(pts, w)
    prod = _monomials(pts, b.k - 1)
    a = np.arange(b.k + 1)
    # Column a: w0 * a P[:, a-1] (a > 0) + w1 * (k-a) P[:, a] (a < k), P the level-(k-1) monomials.
    out = np.zeros((pts.shape[0], b.k + 1), dtype=np.complex128)
    out[:, 1:] = w[:, [0]] * (a[1:] * prod)
    out[:, :-1] += w[:, [1]] * ((b.k - a[:-1]) * prod)
    return out


def norm_sq(b: SectionBasis, coefficients: np.ndarray) -> float:
    return float(np.sum(np.abs(coefficients) ** 2 * b.norms_sq))
