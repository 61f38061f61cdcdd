"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's spectral machinery: lengths come
from polygonal chord sums, bundle integrals from a dense product grid,
derivatives from central finite differences or exact per-entry monomial
arithmetic, basis norms and latitude norms from closed forms, and delta
pairings from a plain quadrature sum, so they can certify the closed-form /
spectral paths and the level-moment kernel.
"""

from __future__ import annotations

import math

import numpy as np

from bpu_lab.geometry import fs_distance
from bpu_lab.hardy import BUNDLE_VOLUME, monomial_values


def polygonal_length(point_fn, m: int = 20000) -> float:
    """Arc length of a closed curve by chordal geodesic distances."""
    phi = 2.0 * np.pi * np.arange(m) / m
    pts = point_fn(phi)
    nxt = np.roll(pts, -1, axis=0)
    return float(fs_distance(pts, nxt).sum())


def bundle_grid(n_c: int = 256, n_psi: int = 256, n_theta: int = 64):
    """Product quadrature grid over the unit 3-sphere.

    Points x = e^{i theta} (sqrt(c) e^{i psi}, sqrt(1-c)) with measure
    BUNDLE_VOLUME * (dc dpsi / 2pi) * (dtheta / 2pi); c uses Gauss-Legendre
    nodes, the angles use periodic trapezoid nodes.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_c)
    c = 0.5 * (nodes + 1.0)
    wc = 0.5 * wts
    psi = 2.0 * np.pi * np.arange(n_psi) / n_psi
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return c, wc, psi, theta


def bundle_integral_abs2(sec_basis, coefficients, n_c: int = 256, n_psi: int = 256,
                         n_theta: int = 64) -> float:
    """Integral of |sum_a v_a s_a|^2 over the bundle on the product grid."""
    c, wc, psi, theta = bundle_grid(n_c, n_psi, n_theta)
    total = 0.0
    cc, pp = np.meshgrid(c, psi, indexing="ij")
    base = np.stack([np.sqrt(cc) * np.exp(1j * pp), np.sqrt(1.0 - cc)], axis=-1)
    flat = base.reshape(-1, 2)
    w2 = (wc[:, None] * np.full(len(psi), 1.0 / len(psi))[None, :]).reshape(-1)
    for th in theta:
        vals = monomial_values(sec_basis, np.exp(1j * th) * flat) @ np.asarray(coefficients)
        total += float(np.sum(w2 * np.abs(vals) ** 2)) / len(theta)
    return BUNDLE_VOLUME * total


def bundle_gram(sec_basis, n_c: int = 256, n_psi: int = 256) -> np.ndarray:
    """Gram matrix of the monomial basis on the product grid (fiber dropped:
    all elements share the same equivariance weight)."""
    c, wc, psi, _ = bundle_grid(n_c, n_psi, 1)
    cc, pp = np.meshgrid(c, psi, indexing="ij")
    base = np.stack([np.sqrt(cc) * np.exp(1j * pp), np.sqrt(1.0 - cc)], axis=-1)
    flat = base.reshape(-1, 2)
    w2 = (wc[:, None] * np.full(len(psi), 1.0 / len(psi))[None, :]).reshape(-1)
    vals = monomial_values(sec_basis, flat)
    return BUNDLE_VOLUME * (np.conj(vals.T) * w2) @ vals


def log_map(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse of the geodesic exponential up to the fiber phase of w: a
    horizontal tangent at z whose C^2 length is the angle between the classes."""
    ov = np.sum(np.conj(z) * w, axis=-1)
    phase = np.where(np.abs(ov) < 1e-300, 1.0, ov / np.abs(ov))
    rho = np.clip(np.abs(ov), 0.0, 1.0)
    u = w / phase[..., None] - rho[..., None] * z
    un = np.linalg.norm(u, axis=-1)
    scale = np.where(un < 1e-300, 0.0, np.arccos(rho) / np.where(un < 1e-300, 1.0, un))
    return scale[..., None] * u


def great_circle_fd(fn, x: np.ndarray, w: np.ndarray, h: float = 1e-4) -> complex:
    """Central difference of fn along the unit-speed great circle through x."""
    wn = w / np.linalg.norm(w)
    plus = np.cos(h) * x + np.sin(h) * wn
    minus = np.cos(h) * x - np.sin(h) * wn
    return (fn(plus) - fn(minus)) / (2.0 * h) * np.linalg.norm(w)


def basis_norms_sq(k: int) -> np.ndarray:
    """Closed-form squared norms BUNDLE_VOLUME * a! (k-a)! / (k+1)!, a = 0..k."""
    f = math.factorial
    return np.array([BUNDLE_VOLUME * (f(a) * f(k - a) / f(k + 1)) for a in range(k + 1)])


def inner(sec_basis, u, v) -> complex:
    """L2 pairing of two coefficient vectors (arrays or SectionVectors) of the
    level of `sec_basis`, conjugate-linear in the first slot."""
    cu, cv = (np.asarray(getattr(x, "coefficients", x)) for x in (u, v))
    return complex(np.sum(np.conj(cu) * cv * basis_norms_sq(sec_basis.k)))


def lift_weights(lift, hw) -> np.ndarray:
    """Trapezoid weights S_lambda * speed * (2 pi / N) at the r * N lift nodes."""
    return np.tile(hw.s_lambda, lift.winding) * lift.speed * (2.0 * np.pi / lift.base.n)


def delta_pair(lift, hw, section_values):
    """Pairing of the half-weighted delta of the lift with a test section.

    `section_values` maps bundle points (M, 2) to complex values, (M,) for
    one section or (M, n) for n of them; the pairing is the
    periodic-trapezoid quadrature of S_lambda * values over the r-fold
    cover with its length density, a scalar or an (n,) vector.
    """
    return lift_weights(lift, hw) @ np.asarray(section_values(lift.points), dtype=np.complex128)


def latitude_norm_sq(lift, hw, c: float, k: int) -> float:
    """Exact squared norm of the level-k projection of a latitude at area c.

    On the latitude |z0|^2 = c with a constant half-weight the projection is
    the single monomial a = c*k, and

        norm_sq = P^2 c^a (1-c)^(k-a) (k+1)! / (BUNDLE_VOLUME a! (k-a)!),

    with P = sum of the lift weights, evaluated in the log domain with lgamma.
    """
    a = round(c * k)
    total = float(np.sum(lift_weights(lift, hw)))
    log_val = (2.0 * math.log(total) + a * math.log(c) + (k - a) * math.log1p(-c)
               + math.lgamma(k + 2) - math.log(BUNDLE_VOLUME)
               - math.lgamma(a + 1) - math.lgamma(k - a + 1))
    return math.exp(log_val)


def monomial_derivative_oracle(points, vectors, k: int) -> np.ndarray:
    """Derivatives of the level-k monomials along per-point C^2 vectors, shape (M, k+1).

    Column a is w0 a z0^(a-1) z1^(k-a) + w1 (k-a) z0^a z1^(k-a-1), with the
    powers built by repeated Python complex multiplication and the terms with
    a zero factor (a) or (k-a) left out, so poles need no special case.
    """
    out = np.zeros((len(points), k + 1), dtype=np.complex128)
    for m, ((z0, z1), (w0, w1)) in enumerate(zip(points, vectors)):
        p0, p1 = [1 + 0j], [1 + 0j]
        for _ in range(k):
            p0.append(p0[-1] * complex(z0))
            p1.append(p1[-1] * complex(z1))
        for a in range(k + 1):
            val = 0j
            if a > 0:
                val += complex(w0) * a * p0[a - 1] * p1[k - a]
            if a < k:
                val += complex(w1) * (k - a) * p0[a] * p1[k - a - 1]
            out[m, a] = val
    return out
