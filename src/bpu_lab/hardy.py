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
products are conjugate-linear in the first slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import ContractViolation, DomainError
from .fourier import _powers
from .geometry import as_point_array

__all__ = [
    "BUNDLE_VOLUME",
    "EQUIVARIANCE_SIGN",
    "SectionBasis",
    "basis",
    "monomial_values",
    "monomial_derivatives",
    "eval_section",
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
    """Monomial basis with log-domain norms.

    Norms are accumulated in long double through the adjacent-ratio recurrence
    ||s_{a+1}||^2 / ||s_a||^2 = (a+1)/(k-a) from the closed-form anchor at
    a = 0 and rounded once: within 6e-14 of the closed form up to k = 1000.

    Valid range: the log norms hold for k up to thousands, but a
    projection's norm_sq is first non-finite at k = 1014 on the c = 1/2
    latitude (inf) and at k = 1023 on c = 1/3 (NaN), and `norms_sq` goes
    subnormal from k = 1019 (1.2e-308).  A lift quadrature over N base nodes
    needs the loop frequencies of the pairings it keeps below N (`bpu._band`).
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"level must be a positive integer, got {k!r}")
    steps = np.log(np.arange(1, k + 1, dtype=np.longdouble) / np.arange(k, 0, -1.0))
    log_norms = np.empty(k + 1, dtype=np.longdouble)
    log_norms[0] = np.log(np.longdouble(BUNDLE_VOLUME)) - np.log(np.longdouble(k + 1))
    np.cumsum(steps, out=log_norms[1:])
    log_norms[1:] += log_norms[0]
    return SectionBasis(k=int(k), log_norms=log_norms.astype(np.float64))


def _monomials(pts: np.ndarray, k: int) -> NDArray[np.complex128]:
    """Monomials z0^a z1^(k-a), a = 0..k, at points (M, 2): an (M, k+1) matrix."""
    mono = _powers(pts[:, 0], k)
    _powers(pts[:, 1], k, into=mono[:, ::-1])
    return mono


def monomial_values(b: SectionBasis, points: np.ndarray) -> NDArray[np.complex128]:
    """Matrix of monomial values z0^a z1^(k-a) at bundle points, shape (M, k+1)."""
    return _monomials(np.atleast_2d(as_point_array(points)), b.k)


def _require_sphere_tangent(pts: np.ndarray, w: np.ndarray) -> None:
    """Raise ContractViolation unless every vector w is tangent to the sphere at
    its point x: |Re<x, w>| <= 1e-10 |w|, as the rounding of that product grows with |w|."""
    radial = np.real(np.sum(np.conj(pts) * w, axis=-1))
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


def eval_section(b: SectionBasis, coefficients: np.ndarray, x) -> complex | NDArray[np.complex128]:
    """Value at bundle point(s) x of the level-b.k section with these
    coefficients in the monomial basis."""
    if np.shape(coefficients) != (b.k + 1,):
        raise ContractViolation(f"level-{b.k} basis needs {b.k + 1} coefficients, "
                                f"got shape {np.shape(coefficients)}")
    vals = monomial_values(b, x) @ coefficients
    if np.ndim(as_point_array(x)) == 1:
        return complex(vals[0])
    return vals


def norm_sq(b: SectionBasis, coefficients: np.ndarray) -> float:
    return float(np.sum(np.abs(coefficients) ** 2 * b.norms_sq))
