"""Spectral utilities on uniform periodic grids.

All loops, weights and tangent data in this package live on uniform nodes
phi_j = 2*pi*j/N of the circle.  Derivatives and off-node evaluations are
spectral (trigonometric), so analytic data is resolved to machine precision
long before quadrature error matters.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "grid_nodes",
    "mode_numbers",
    "spectral_derivative",
    "trapezoid",
    "tail_fraction",
    "TrigInterpolator",
]

TWO_PI = 2.0 * np.pi


def grid_nodes(n: int) -> NDArray[np.float64]:
    """Uniform periodic nodes phi_j = 2*pi*j/n."""
    return TWO_PI * np.arange(n) / n


def mode_numbers(n: int) -> NDArray[np.int64]:
    """Integer Fourier modes in FFT order: 0..n/2-1, -n/2..-1."""
    return (np.fft.fftfreq(n) * n).astype(np.int64)


def spectral_derivative(samples: np.ndarray, order: int = 1) -> np.ndarray:
    """Derivative d^order/dphi^order of periodic samples along axis 0.

    For even n the Nyquist mode is zeroed for odd orders (the standard
    symmetric convention); for analytic data its coefficient is negligible
    anyway.  Odd n has no Nyquist mode.
    """
    n = samples.shape[0]
    m = mode_numbers(n).astype(np.float64)
    factor = (1j * m) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[n // 2] = 0.0
    shape = (n,) + (1,) * (samples.ndim - 1)
    out = np.fft.ifft(np.fft.fft(samples, axis=0) * factor.reshape(shape), axis=0)
    return out.real if np.isrealobj(samples) else out


def _powers(z: np.ndarray, n: int, into: np.ndarray | None = None) -> NDArray[np.complex128]:
    """Powers z^j, j = 0..n, of a vector z as an (M, n+1) matrix, or multiplied
    in place into the (M, n+1) array `into`.

    Entry j = q*B + i is (z^i)(z^B)^q with B = floor(sqrt n) + 1; both factors
    come from short running products, so each entry costs one complex
    multiply.  0^0 = 1 and the other powers of 0 are exact zeros.
    """
    z = np.asarray(z, dtype=np.complex128)[:, None]
    block = int(n ** 0.5) + 1
    small = np.cumprod(np.hstack([np.ones_like(z), np.repeat(z, block - 1, axis=1)]), axis=1)
    step = small[:, -1:] * z  # z^B
    big = np.cumprod(np.hstack([np.ones_like(z), np.repeat(step, n // block, axis=1)]), axis=1)
    out = np.empty((z.shape[0], n + 1), dtype=np.complex128) if into is None else into
    for q in range(big.shape[1]):
        cols = out[:, q * block:(q + 1) * block]
        if into is None:
            np.multiply(small[:, :cols.shape[1]], big[:, q:q + 1], out=cols)
        else:
            cols *= small[:, :cols.shape[1]] * big[:, q:q + 1]
    return out


def trapezoid(values: np.ndarray, axis: int = 0) -> np.ndarray | float:
    """Periodic trapezoid rule over [0, 2*pi): sum * 2*pi/N.

    Spectrally accurate for smooth periodic integrands and exact (to
    rounding) for trigonometric polynomials of degree < N.
    """
    n = values.shape[axis]
    res = values.sum(axis=axis) * (TWO_PI / n)
    return res


def tail_fraction(samples: np.ndarray, band: float = 1.0 / 6.0) -> float:
    """Relative spectral energy in the top `band` fraction of modes.

    Used as a smoothness / periodicity residual: analytic periodic data on
    an adequate grid has a tail at rounding level.
    """
    coeffs = np.fft.fft(np.asarray(samples), axis=0)
    n = coeffs.shape[0]
    m = np.abs(mode_numbers(n))
    cutoff = (0.5 - band) * n
    energy = np.abs(coeffs) ** 2
    if energy.ndim > 1:
        energy = energy.sum(axis=tuple(range(1, energy.ndim)))
    total = float(energy.sum())
    if total == 0.0:
        return 0.0
    return float(np.sqrt(energy[m >= cutoff].sum() / total))


class TrigInterpolator:
    """Trigonometric interpolant of periodic samples (axis 0 is the node axis).

    Evaluation and derivatives at arbitrary angles use the full centered
    spectrum; the single unpaired Nyquist mode is realized as cos(N/2*phi)
    so real samples interpolate to real values.  One table of e^{i m phi},
    m = 0..N/2, serves every requested order: the negative modes are its
    conjugate, and derivatives scale the coefficients by (i m)^order.
    """

    def __init__(self, samples: np.ndarray):
        self._samples = samples = np.asarray(samples)
        self._real = np.isrealobj(samples)
        self.n = samples.shape[0]
        self._shape = samples.shape[1:]
        coeffs = np.fft.fft(samples, axis=0).reshape(self.n, -1) / self.n
        # Coefficients of e^{+i m phi} and of e^{-i m phi}, m = 0..N/2; the
        # constant and the Nyquist term cos(N/2 phi) go half to each.
        m = np.arange(self.n // 2 + 1)
        shared = np.where((m == 0) | (2 * m == self.n), 0.5, 1.0)[:, None]
        self._pos = shared * coeffs[m]
        self._neg = shared * coeffs[-m % self.n]

    @cached_property
    def node_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values and first two derivatives at grid_nodes(n), built once by FFT;
        its odd-order Nyquist zero is d/dphi cos(N/2*phi) = 0 at the nodes."""
        return (self._samples, *(spectral_derivative(self._samples, p) for p in (1, 2)))

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        return self._eval(phi, (0,))[0]

    def derivative(self, phi: np.ndarray, orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """d^p/dphi^p at phi for each p in `orders`, one array per order, all
        from one basis."""
        return self._eval(phi, orders)

    def _eval(self, phi: np.ndarray, orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        scalar = np.ndim(phi) == 0
        phi = np.ravel(np.asarray(phi, dtype=np.float64))
        basis = _powers(np.cos(phi) + 1j * np.sin(phi), self.n // 2)
        m = 1j * np.arange(self.n // 2 + 1)[:, None]
        coef = np.hstack([c for p in orders
                          for c in (self._pos * m ** p, np.conj(self._neg * (-m) ** p))])
        vals = (basis @ coef).reshape(phi.size, len(orders), 2, -1)
        vals = vals[:, :, 0] + np.conj(vals[:, :, 1])
        if self._real:
            vals = vals.real
        out = tuple(vals[:, i].reshape(phi.shape + self._shape) for i in range(len(orders)))
        return tuple(v[0] for v in out) if scalar else out
