"""Concrete model geometry: the area-1 round sphere, its unit circle bundle,
closed loops, horizontal lifts and holonomy.

Model conventions (fixed once, validated by the test oracles):

* Points of the base M are classes [z0 : z1] of unit vectors z in C^2; the
  canonical representative has |z0|^2 + |z1|^2 = 1 (phase stays free).
* The Kahler form is normalized to total area 1.  Tangent vectors at [z] are
  represented by horizontal vectors v in C^2 with <z, v> = 0, and

      g(v, w) = Re<v, w> / pi,   omega(v, w) = Im<v, w> / pi,   J v = i v,

  where <a, b> = sum(conj(a) * b).  With this scale the equator of the
  sphere has length sqrt(pi) and the area coordinate c = |z0|^2 sweeps the
  total area fraction.
* The bundle X is the unit 3-sphere in C^2 with circle action
  e^{i theta} . x = e^{i theta} x.  The connection form is
  alpha = Im<x, dx> / (2 pi), so d alpha descends to the area-1 form and the
  fiber generator has alpha-pairing 1/(2 pi).  Horizontality of a curve x(t)
  is Im<x, x'> = 0.
* Holonomy of a closed base loop is exp(2 pi i * signed enclosed area); the
  loop is quantizable when that phase has finite order r, and its lift then
  closes after exactly r circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BohrSommerfeldError,
    ContractViolation,
    DomainError,
    TubeStepError,
)
from .fourier import TWO_PI, TrigInterpolator, grid_nodes, spectral_derivative, tail_fraction, trapezoid

__all__ = [
    "SQRT_PI",
    "MAX_HOLONOMY_ORDER",
    "PERIODICITY_TOL",
    "LagrangianLoop",
    "PlanckianLift",
    "HolonomyResult",
    "latitude_loop",
    "graph_loop",
    "holonomy",
    "horizontal_lift",
    "normal_frame",
    "fs_inner",
    "fs_norm",
    "project_tangent",
    "fs_distance",
    "foot_parameters",
]

SQRT_PI = math.sqrt(math.pi)

# The largest periodicity residual (spectral tail) of a loop the package
# accepts as resolved on its nodes.
PERIODICITY_TOL = 1e-6


# ---------------------------------------------------------------------------
# Pointwise kernels on C^2 representatives
# ---------------------------------------------------------------------------

def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian product conj(a) . b of C^2 vectors, over the last axis."""
    return np.conj(a[..., 0]) * b[..., 0] + np.conj(a[..., 1]) * b[..., 1]


def fs_inner(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Riemannian pairing of horizontal representatives (area-1 metric)."""
    return np.real(_inner(v, w)) / np.pi


def fs_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(fs_inner(v, v), 0.0))


def project_tangent(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Horizontal component of v at the unit representative z."""
    return v - _inner(z, v)[..., None] * z


def fs_distance(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Geodesic distance between projective classes of unit vectors."""
    ov = np.clip(np.abs(_inner(z, w)), 0.0, 1.0)
    return np.arccos(ov) / SQRT_PI


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def as_point_array(x) -> NDArray[np.complex128]:
    """Coerce points to a (..., 2) complex array of C^2 coordinates."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.shape[-1] != 2:
        raise DomainError("expected a (..., 2) complex array of C^2 coordinates")
    return arr


class LagrangianLoop:
    """Closed curve on the model sphere, sampled at uniform parameter nodes.

    ``points`` holds canonical unit representatives with a smooth phase
    gauge along the parameter (required for spectral differentiation).
    Derived per-node data: horizontal tangents dL/dphi, the metric speed
    (the length density coefficient against |dphi|), the phase rate
    m = Im<L, dL/dphi> of the representatives, and a trigonometric
    interpolator of the points for off-node evaluation.
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=np.complex128)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError("loop samples must form an (N, 2) complex array")
        if pts.shape[0] < 16 or pts.shape[0] % 2:
            raise DomainError("node count must be even and at least 16")
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0):
            raise DomainError("loop samples must be nonzero")
        self.points = pts / norms[:, None]
        self.n = pts.shape[0]

        raw = spectral_derivative(self.points)
        self.tangents = project_tangent(self.points, raw)
        self.phase_rate = np.imag(_inner(self.points, raw))
        self.speed = fs_norm(self.tangents)
        if np.any(self.speed < 1e-13):
            raise ContractViolation("loop tangent degenerates at a node")

        self._interp_points = TrigInterpolator(self.points)

    # -- basic quantities ---------------------------------------------------

    @property
    def phi(self) -> NDArray[np.float64]:
        return grid_nodes(self.n)

    @property
    def length(self) -> float:
        return float(trapezoid(self.speed))

    def unit_tangents(self) -> NDArray[np.complex128]:
        """Metric-unit tangents (C^2 magnitude sqrt(pi))."""
        return self.tangents / self.speed[:, None]

    def periodicity_residual(self) -> float:
        return tail_fraction(self.points)


class PlanckianLift:
    """Horizontal closed lift of a loop, winding r times over the base: the
    first circuit over the N base nodes, and circuit q the first turned by
    the deck phase exp(2*pi*i*q*turns/r), with gcd(turns, r) = 1."""

    def __init__(self, circuit: np.ndarray, base: LagrangianLoop, winding: int, turns: int):
        self.circuit = np.asarray(circuit, dtype=np.complex128)
        self.base, self.winding, self.turns = base, int(winding), int(turns)
        if self.circuit.shape != (base.n, 2):
            raise ContractViolation("the first circuit must hold one bundle sample per base node")
        if self.winding < 1 or math.gcd(self.turns, self.winding) != 1:
            raise ContractViolation(f"deck turns {turns} must be coprime to the winding {winding}")
        deck = np.exp(1j * TWO_PI * self.turns * np.arange(self.winding) / self.winding)
        self.points = (deck[:, None, None] * self.circuit).reshape(-1, 2)
        # Fiber offset of each first-circuit node over its base representative.
        self.phases = _inner(base.points, self.circuit)

    def legendrian_residual(self) -> float:
        """Largest per-node connection pairing of the curve tangent, relative
        to the tangent magnitude (parametrization-invariant)."""
        deriv = spectral_derivative(self.points)
        pairing = np.imag(_inner(self.points, deriv))
        return float(np.max(np.abs(pairing) / np.maximum(np.linalg.norm(deriv, axis=1), 1e-300)))


# ---------------------------------------------------------------------------
# Loop constructors
# ---------------------------------------------------------------------------

def graph_loop(area) -> LagrangianLoop:
    """Graph loop z = (sqrt(c(phi)), sqrt(1 - c(phi)) e^{i phi}) through the
    samples of the area coordinate c(phi) on grid_nodes(len(area)).

    It encloses area equal to the mean of c(phi), so its holonomy is that of
    the latitude at the mean.
    """
    cs = np.asarray(area, dtype=np.float64)
    if cs.min() <= 1e-3 or cs.max() >= 1.0 - 1e-3:
        raise DomainError("the area coordinate must stay 1e-3 clear of both poles")
    phi = grid_nodes(cs.size)
    pts = np.stack([np.sqrt(cs).astype(np.complex128),
                    np.sqrt(1.0 - cs) * np.exp(1j * phi)], axis=1)
    return LagrangianLoop(pts)


def latitude_loop(c: float, n: int) -> LagrangianLoop:
    """Latitude circle {|z0|^2 = c} with its FS-area coordinate.

    Parametrized so that the connection holonomy is exp(2*pi*i*c) and the
    signed enclosed area equals c.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"area fraction must lie in (0, 1), got {c}")
    phi = grid_nodes(n)
    pts = np.stack(
        [np.full_like(phi, math.sqrt(c), dtype=np.complex128),
         math.sqrt(1.0 - c) * np.exp(1j * phi)],
        axis=1,
    )
    return LagrangianLoop(pts)


# ---------------------------------------------------------------------------
# Holonomy and lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyResult:
    phase: complex
    order: int | None  # None encodes "infinite" (no order up to the search cap)


# Holonomy orders are searched up to this cap; phase^r must be 1 within
# _HOLONOMY_TOL.  Loops with no order up to the cap have no closed lift.
MAX_HOLONOMY_ORDER = 64
_HOLONOMY_TOL = 1e-9


def _phase_path(loop: LagrangianLoop) -> NDArray[np.float64]:
    """Lift phase chi at the N + 1 nodes of one circuit: chi' = -m with
    m = loop.phase_rate, integrated exactly for the trigonometric interpolant
    of m by dividing its spectrum by (i j).  The Nyquist term cos(N/2*phi)
    integrates to zero at the nodes, so chi(2*pi) = -trapezoid(m)."""
    spectrum = np.fft.rfft(loop.phase_rate)
    spectrum[1:-1] /= 1j * np.arange(1, spectrum.size - 1)
    spectrum[[0, -1]] = 0.0
    periodic = np.fft.irfft(spectrum, loop.n)
    periodic = np.append(periodic, periodic[0]) - periodic[0]
    return -(trapezoid(loop.phase_rate) * np.linspace(0.0, 1.0, loop.n + 1) + periodic)


def _phase_and_holonomy(loop: LagrangianLoop) -> tuple[NDArray[np.float64], HolonomyResult]:
    """The exact lift phase over one circuit (`_phase_path`) and the holonomy it ends at."""
    if loop.periodicity_residual() > PERIODICITY_TOL:
        raise ContractViolation("loop samples are not smoothly periodic")
    chi = _phase_path(loop)
    phase = complex(np.exp(1j * chi[-1]))
    order = next((r for r in range(1, MAX_HOLONOMY_ORDER + 1)
                  if abs(phase ** r - 1.0) <= _HOLONOMY_TOL), None)
    return chi, HolonomyResult(phase=phase, order=order)


def holonomy(loop: LagrangianLoop) -> HolonomyResult:
    """Connection holonomy around the loop and its order in the circle.

    The phase is exp(i*chi(2*pi)) with chi the horizontal phase transport;
    the order is the smallest r <= MAX_HOLONOMY_ORDER with phase^r = 1
    within _HOLONOMY_TOL, or None when no such r exists.
    """
    return _phase_and_holonomy(loop)[1]


def horizontal_lift(loop: LagrangianLoop) -> PlanckianLift:
    """Closed horizontal lift of the loop, winding `order` times.

    The alpha-annihilating phase transport over one circuit is the exact
    antiderivative of the trigonometric interpolant of -Im<L, dL/dphi>, by
    one FFT (`_phase_path`).  The first circuit absorbs the seam
    r*chi(2*pi) - 2*pi*turns, so it ends at the deck phase
    exp(2*pi*i*turns/r) that turns it into the others.  The holonomy search
    already bounds that seam by about _HOLONOMY_TOL.
    """
    chi, hol = _phase_and_holonomy(loop)
    if hol.order is None:
        raise BohrSommerfeldError(f"holonomy phase {hol.phase:.12f} has no order "
                                  f"<= {MAX_HOLONOMY_ORDER}; no closed lift exists")
    r = hol.order
    turns = round(r * chi[-1] / TWO_PI)
    defect = r * chi[-1] - TWO_PI * turns
    chi = chi[:-1] - (defect / r) * np.linspace(0.0, 1.0, loop.n + 1)[:-1]
    return PlanckianLift(np.exp(1j * chi)[:, None] * loop.points, loop, r, turns)


def normal_frame(loop: LagrangianLoop) -> NDArray[np.complex128]:
    """Per-node unit normal J * (unit tangent), as horizontal representatives."""
    return 1j * loop.unit_tangents()


# ---------------------------------------------------------------------------
# Nearest-point (tube) projection
# ---------------------------------------------------------------------------

# Newton iteration cap and step tolerance of the foot projection.
_FOOT_MAX_ITER = 40
_FOOT_TOL = 1e-13
# Newton accepts an iterate only where d^2|<L(phi), m>|^2/dphi^2 <= -_FOOT_CURVATURE,
# so it climbs to the maximum that is the foot, never to the antipodal minimum
# (curvature +2c(1-c) on a latitude).  At a foot the curvature is about
# -2*pi*speed^2 (-0.095 on the c = 0.05 latitude); its rounding grows like
# (N/2)^2 * eps (8.5e-11 at N = 1024).  1e-6 clears both by four orders.
_FOOT_CURVATURE = 1e-6


def _foot_newton(interp: TrigInterpolator, points: np.ndarray, seeds: np.ndarray):
    """Newton iteration for the feet of `points`, started at the node indices `seeds`.

    `interp` holds the loop samples in its first two columns; more columns
    ride along.  Each iterate is one `interp.derivative` call; at the seed
    nodes that reads the node derivatives alone.  Returns the feet, the
    values of `interp` and its first two derivatives at the last iterate,
    and u = <L, m>, u1 = <L', m> and the curvature of |u|^2 there.
    TubeStepError signals departure from the tube.
    """
    step_cap = TWO_PI / interp.n
    phi = grid_nodes(interp.n)[seeds]
    for _ in range(_FOOT_MAX_ITER):
        vals = interp.derivative(phi, (0, 1, 2))
        u, u1, u2 = (_inner(v[:, :2], points) for v in vals)
        grad = 2.0 * np.real(np.conj(u) * u1)
        curv = 2.0 * (np.abs(u1) ** 2 + np.real(np.conj(u) * u2))
        if np.any(curv > -_FOOT_CURVATURE):
            raise TubeStepError("nearest-point projection is not at a maximum; point left the tube")
        step = np.clip(-grad / curv, -step_cap, step_cap)
        phi = phi + step
        if np.max(np.abs(step)) < _FOOT_TOL:
            return phi, vals, u, u1, curv
    raise TubeStepError("nearest-point projection onto the loop did not converge")


# No module calls this: perfbench/tracer.py names it; the tests and tests/oracles.py use it.
def foot_parameters(loop: LagrangianLoop, points: np.ndarray) -> NDArray[np.float64]:
    """Parameters of the normal-geodesic feet of tube points on the loop.

    For each point m, finds phi maximizing |<L(phi), m>| (equivalently
    minimizing geodesic distance) by vectorized Newton iteration from the
    node of largest overlap, an O(M*N) search.  Raises
    if any point fails to converge to a maximum, which signals departure
    from the tube of unique projection.
    """
    pts = np.atleast_2d(as_point_array(points))
    seeds = np.argmax(np.abs(pts @ np.conj(loop.points).T), axis=1)  # over (M, N) overlaps
    return np.mod(_foot_newton(loop._interp_points, pts, seeds)[0], TWO_PI)
