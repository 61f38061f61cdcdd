"""Spectral utilities on uniform periodic grids.

All loops, weights and tangent data in this package live on uniform nodes
phi_j = 2*pi*j/N of the circle.  Derivatives and off-node evaluations are
spectral (trigonometric), so analytic data is resolved to machine precision
long before quadrature error matters.
"""

from __future__ import annotations

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


def _powers(z: np.ndarray, n: int) -> tuple[NDArray[np.complex128], ...]:
    """Powers z^j, j = 0..n, of a vector z (M,) as a row-contiguous (n+1, M) table.

    Row j = q*B + i is (z^i)(z^B)^q with B = floor(sqrt n) + 1; both factors
    come from short running products, so each entry costs one complex multiply,
    and return with the table: rows z^i (B, M) and rows (z^B)^q (n//B + 1, M).
    0^0 = 1 and the other powers of 0 are exact zeros.
    """
    z = np.asarray(z, dtype=np.complex128)
    block = int(n ** 0.5) + 1
    small = np.cumprod(np.vstack([np.ones_like(z), np.repeat(z[None], block - 1, axis=0)]), axis=0)
    step = small[-1] * z  # z^B
    big = np.cumprod(np.vstack([np.ones_like(z), np.repeat(step[None], n // block, axis=0)]), axis=0)
    out = np.empty((n + 1, len(z)), dtype=np.complex128)
    for q in range(big.shape[0]):
        rows = out[q * block:(q + 1) * block]
        np.multiply(small[:len(rows)], big[q], out=rows)
    return out, small, big


def trapezoid(values: np.ndarray, axis: int = 0) -> np.ndarray | float:
    """Periodic trapezoid rule over [0, 2*pi): sum * 2*pi/N.

    Spectrally accurate for smooth periodic integrands and exact (to
    rounding) for trigonometric polynomials of degree < N.
    """
    return values.sum(axis=axis) * (TWO_PI / values.shape[axis])


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

    Off the nodes every order is a Taylor series about the nearest node,
    f^(q)(phi_j + d) = sum_p d^p/p! f^(q+p)(phi_j), over one (orders, N, ...)
    table of node derivatives that grows, one `spectral_derivative` per new
    order, on first use.  Their odd-order Nyquist zero makes the single
    unpaired Nyquist mode cos(N/2*phi), so real samples interpolate to real
    values.  Since |d| <= pi/N, the terms past p are below (N/2*|d|)^p/p!
    times the spectrum's scale; the series stops once that falls below 1e-17,
    after about 23 terms at worst and one at the nodes.
    """

    def __init__(self, samples: np.ndarray):
        self._nodes = np.asarray(samples)[None]  # node derivatives by order
        self.n, self._shape = self._nodes.shape[1], self._nodes.shape[2:]

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        return self.derivative(phi, (0,))[0]

    def derivative(self, phi: np.ndarray, orders: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """d^p/dphi^p at phi for each p in `orders`, one array per order, all
        from one gather of node derivatives, summed in place by Horner's rule."""
        scalar = np.ndim(phi) == 0
        phi = np.ravel(np.asarray(phi, dtype=np.float64))
        j = np.rint(phi * (self.n / TWO_PI))
        delta = phi - TWO_PI * j / self.n
        x = 0.5 * self.n * float(np.max(np.abs(delta), initial=0.0))
        terms, bound = 1, x  # bound = x^terms / terms!, the first omitted term's
        while bound >= 1e-17:
            terms += 1
            bound *= x / terms
        grow = range(len(self._nodes), max(orders) + terms)  # orders the table lacks, one FFT each
        if grow:
            self._nodes = np.stack([*self._nodes, *(spectral_derivative(self._nodes[0], p) for p in grow)])
        table = self._nodes[:max(orders) + terms].take(j.astype(np.int64) % self.n, axis=1)
        delta = delta.reshape((-1,) + (1,) * len(self._shape))
        for q in sorted(set(orders), reverse=True):  # into row q + terms - 1, which lower orders never read
            acc = table[q + terms - 1]
            for p in range(terms - 2, -1, -1):
                acc *= delta / (p + 1)
                acc += table[q + p]
        out = table[np.add(orders, terms - 1)]  # a copy: no result holds the table
        return tuple(out[:, 0] if scalar else out)
