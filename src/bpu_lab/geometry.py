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

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BohrSommerfeldError,
    ContractViolation,
    DomainError,
    IntegrationAccuracyError,
    TubeStepError,
)
from .fourier import TWO_PI, TrigInterpolator, grid_nodes, spectral_derivative, tail_fraction, trapezoid

__all__ = [
    "SQRT_PI",
    "MAX_HOLONOMY_ORDER",
    "SpherePoint",
    "BundlePoint",
    "LagrangianLoop",
    "PlanckianLift",
    "HolonomyResult",
    "latitude_loop",
    "perturbed_latitude",
    "holonomy",
    "horizontal_lift",
    "normal_frame",
    "signed_area",
    "fs_inner",
    "fs_norm",
    "project_tangent",
    "fs_distance",
    "exp_map",
    "foot_parameters",
    "pole_clearance",
]

SQRT_PI = math.sqrt(math.pi)

# Poles of the coordinate latitude family; normal geodesics of latitude-like
# loops focalize here, which bounds the usable tube width.
POLE_0 = np.array([1.0 + 0.0j, 0.0 + 0.0j])
POLE_1 = np.array([0.0 + 0.0j, 1.0 + 0.0j])


# ---------------------------------------------------------------------------
# Pointwise kernels on C^2 representatives
# ---------------------------------------------------------------------------

def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian product sum(conj(a) * b) over the last axis."""
    return np.sum(np.conj(a) * b, axis=-1)


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


def exp_map(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Geodesic exponential: v is a horizontal representative at z.

    The geodesic is the projected horizontal great circle; arc length is the
    area-1 metric norm of v.
    """
    amp = np.linalg.norm(v, axis=-1)          # C^2 magnitude = sqrt(pi) * |v|_g
    small = amp < 1e-300
    safe = np.where(small, 1.0, amp)
    vhat = v / safe[..., None]
    theta = amp  # C^2 angle equals sqrt(pi) * (g-distance)
    out = np.cos(theta)[..., None] * z + np.sin(theta)[..., None] * vhat
    return np.where(small[..., None], z, out)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """Projective point held as a canonical unit representative."""

    z0: complex
    z1: complex

    def __post_init__(self):
        n = math.sqrt(abs(self.z0) ** 2 + abs(self.z1) ** 2)
        if n == 0.0:
            raise DomainError("homogeneous pair must be nonzero")
        object.__setattr__(self, "z0", complex(self.z0) / n)
        object.__setattr__(self, "z1", complex(self.z1) / n)

    @property
    def vector(self) -> NDArray[np.complex128]:
        return np.array([self.z0, self.z1], dtype=np.complex128)

    def norm_defect(self) -> float:
        return abs(abs(self.z0) ** 2 + abs(self.z1) ** 2 - 1.0)


@dataclass(frozen=True)
class BundlePoint:
    """Point of the unit 3-sphere; the fiber phase is part of the data."""

    z0: complex
    z1: complex

    def __post_init__(self):
        n = math.sqrt(abs(self.z0) ** 2 + abs(self.z1) ** 2)
        if abs(n - 1.0) > _NORM_TOL:
            raise DomainError(f"bundle point must be a unit vector, |x| - 1 = {n - 1.0:.3e}")

    @property
    def vector(self) -> NDArray[np.complex128]:
        return np.array([self.z0, self.z1], dtype=np.complex128)

    def project(self) -> SpherePoint:
        return SpherePoint(self.z0, self.z1)


def as_point_array(x) -> NDArray[np.complex128]:
    """Coerce a point-like object (dataclass or array) to a (..., 2) array."""
    if isinstance(x, (SpherePoint, BundlePoint)):
        return x.vector
    arr = np.asarray(x, dtype=np.complex128)
    if arr.shape[-1] != 2:
        raise DomainError("expected a (..., 2) complex array of C^2 coordinates")
    return arr


class LagrangianLoop:
    """Closed curve on the model sphere, sampled at uniform parameter nodes.

    ``points`` holds canonical unit representatives with a smooth phase
    gauge along the parameter (required for spectral differentiation).
    Derived per-node data: horizontal tangents dL/dphi, the metric speed
    (the length density coefficient against |dphi|), and trigonometric
    interpolators for off-node evaluation.
    """

    def __init__(self, points: np.ndarray, area_coordinate: float | None = None):
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
        self.area_coordinate = area_coordinate

        raw = spectral_derivative(self.points)
        self.tangents = project_tangent(self.points, raw)
        self.speed = fs_norm(self.tangents)
        if np.any(self.speed < 1e-13):
            raise ContractViolation("loop tangent degenerates at a node")

        self._interp_points = TrigInterpolator(self.points)
        self._interp_speed = TrigInterpolator(self.speed)

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

    # -- off-node evaluation --------------------------------------------------

    def point_at(self, phi) -> NDArray[np.complex128]:
        p = self._interp_points(phi)
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    def tangent_at(self, phi) -> NDArray[np.complex128]:
        p, d = self._interp_points.derivative(phi, (0, 1))
        return project_tangent(p / np.linalg.norm(p, axis=-1, keepdims=True), d)

    def speed_at(self, phi) -> NDArray[np.float64]:
        return self._interp_speed(phi)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "metadata": {"N": self.n, "c": self.area_coordinate},
            "nodes": [[p[0].real, p[0].imag, p[1].real, p[1].imag] for p in self.points],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LagrangianLoop":
        payload = json.loads(text)
        nodes = np.asarray(payload["nodes"], dtype=np.float64)
        pts = nodes[:, 0] + 1j * nodes[:, 1], nodes[:, 2] + 1j * nodes[:, 3]
        return cls(np.stack(pts, axis=1), area_coordinate=payload["metadata"].get("c"))


class PlanckianLift:
    """Horizontal closed lift of a loop, winding r times over the base."""

    def __init__(self, points: np.ndarray, base: LagrangianLoop, winding: int,
                 holonomy_phase: complex):
        self.points = np.asarray(points, dtype=np.complex128)
        self.base = base
        self.winding = int(winding)
        self.holonomy_phase = complex(holonomy_phase)
        if self.points.shape != (winding * base.n, 2):
            raise ContractViolation("lift must hold winding * N bundle samples")
        self.n = self.points.shape[0]
        # Base quantities repeat along each circuit.
        self.speed = np.tile(base.speed, winding)
        # Fiber offset of each lift node over its base representative.
        self.phases = _inner(np.tile(base.points, (winding, 1)), self.points)

    def legendrian_residual(self) -> float:
        """Largest per-node connection pairing of the curve tangent, relative
        to the tangent magnitude (parametrization-invariant)."""
        deriv = spectral_derivative(self.points)
        pairing = np.imag(_inner(self.points, deriv))
        return float(np.max(np.abs(pairing) / np.maximum(np.linalg.norm(deriv, axis=1), 1e-300)))

    def to_json(self) -> str:
        payload = {
            "metadata": {"N": self.base.n, "r": self.winding, "c": self.base.area_coordinate},
            "nodes": [[p[0].real, p[0].imag, p[1].real, p[1].imag] for p in self.points],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, base: LagrangianLoop | None = None) -> "PlanckianLift":
        """Rebuild a lift from its serialized nodes.

        The base gauge is not stored in the wire format; when `base` is not
        supplied it is recovered by de-phasing the first circuit against
        the holonomy seam of the node sequence.
        """
        payload = json.loads(text)
        meta = payload["metadata"]
        nodes = np.asarray(payload["nodes"], dtype=np.float64)
        pts = np.stack([nodes[:, 0] + 1j * nodes[:, 1], nodes[:, 2] + 1j * nodes[:, 3]], axis=1)
        n, r = int(meta["N"]), int(meta["r"])
        if base is None:
            # circuit-to-circuit deck phase: constant along the fiber orbit
            deck = _inner(pts[:n], pts[n:2 * n]) if r > 1 else np.ones(n)
            deck_phase = np.angle(np.mean(deck)) if r > 1 else 0.0
            gauge = np.exp(-1j * deck_phase * np.arange(n) / n)
            base = LagrangianLoop(pts[:n] * gauge[:, None], area_coordinate=meta.get("c"))
        hol = holonomy(base)
        return cls(pts, base, r, hol.phase)


# ---------------------------------------------------------------------------
# Loop constructors
# ---------------------------------------------------------------------------

def perturbed_latitude(c: float, n: int = 256, amplitude: float = 0.05,
                       seed: int = 0, max_mode: int = 3) -> LagrangianLoop:
    """Smooth random graph-type perturbation of a latitude circle.

    The area coordinate is modulated by a few low Fourier modes drawn from
    the seed; amplitudes are kept small enough to stay clear of both poles.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"area fraction must lie in (0, 1), got {c}")
    rng = np.random.default_rng(seed)
    phi = grid_nodes(n)
    cs = np.full(n, float(c))
    for m in range(1, max_mode + 1):
        amp = amplitude * rng.uniform(0.3, 1.0) / m
        cs = cs + amp * np.cos(m * phi + rng.uniform(0.0, TWO_PI))
    if cs.min() <= 1e-3 or cs.max() >= 1.0 - 1e-3:
        raise DomainError("perturbation amplitude drives the loop into a pole")
    pts = np.stack([np.sqrt(cs).astype(np.complex128),
                    np.sqrt(1.0 - cs) * np.exp(1j * phi)], axis=1)
    return LagrangianLoop(pts)


def latitude_loop(c: float, n: int = 512) -> LagrangianLoop:
    """Latitude circle {|z0|^2 = c} with its FS-area coordinate.

    Parametrized so that the connection holonomy is exp(2*pi*i*c) and the
    signed enclosed area equals c.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"area fraction must lie in (0, 1), got {c}")
    if n < 16 or n % 2:
        raise DomainError("node count must be even and at least 16")
    phi = grid_nodes(n)
    pts = np.stack(
        [np.full(n, math.sqrt(c), dtype=np.complex128),
         math.sqrt(1.0 - c) * np.exp(1j * phi)],
        axis=1,
    )
    return LagrangianLoop(pts, area_coordinate=float(c))


# ---------------------------------------------------------------------------
# Holonomy and lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyResult:
    phase: complex
    order: int | None  # None encodes "infinite" (no order up to the search cap)


_CLOSURE_TOL = 1e-8

# Holonomy orders are searched up to this cap; phase^r must be 1 within
# _HOLONOMY_TOL.  Loops with no order up to the cap have no closed lift.
MAX_HOLONOMY_ORDER = 64
_HOLONOMY_TOL = 1e-9


def _connection_rate(loop: LagrangianLoop) -> TrigInterpolator:
    """Interpolator of m(phi) = Im<L, dL/dphi>, the phase rate of the lift."""
    raw = spectral_derivative(loop.points)
    return TrigInterpolator(np.imag(_inner(loop.points, raw)))


def _integrate_phase(rate: TrigInterpolator, n_steps: int, h: float) -> NDArray[np.float64]:
    """RK4 cumulative integral of chi' = -m(phi) from 0, returned at each node."""
    chi = np.empty(n_steps + 1)
    chi[0] = 0.0
    phi0 = h * np.arange(n_steps)
    k1 = -rate(phi0)
    kmid = -rate(phi0 + 0.5 * h)
    k4 = -rate(phi0 + h)
    increments = (h / 6.0) * (k1 + 4.0 * kmid + k4)
    np.cumsum(increments, out=chi[1:])
    return chi


def _phase_path(loop: LagrangianLoop, circuits: int) -> NDArray[np.float64]:
    """Richardson-refined lift phase chi at nodes spacing 2*pi/N over `circuits`."""
    rate = _connection_rate(loop)
    n = loop.n * circuits
    h = TWO_PI / loop.n
    coarse = _integrate_phase(rate, n, h)
    fine = _integrate_phase(rate, 2 * n, 0.5 * h)
    if abs(fine[-1] - coarse[-1]) > _CLOSURE_TOL:
        raise IntegrationAccuracyError(
            f"lift phase integration unstable: step-halving defect {abs(fine[-1] - coarse[-1]):.3e}")
    return (16.0 * fine[::2] - coarse) / 15.0


def holonomy(loop: LagrangianLoop) -> HolonomyResult:
    """Connection holonomy around the loop and its order in the circle.

    The phase is exp(i*chi(2*pi)) with chi the horizontal phase transport;
    the order is the smallest r <= MAX_HOLONOMY_ORDER with phase^r = 1
    within _HOLONOMY_TOL, or None when no such r exists.
    """
    if loop.periodicity_residual() > 1e-6:
        raise ContractViolation("loop samples are not smoothly periodic")
    chi = _phase_path(loop, 1)
    phase = complex(np.exp(1j * chi[-1]))
    for r in range(1, MAX_HOLONOMY_ORDER + 1):
        if abs(phase ** r - 1.0) <= _HOLONOMY_TOL:
            return HolonomyResult(phase=phase, order=r)
    return HolonomyResult(phase=phase, order=None)


def horizontal_lift(loop: LagrangianLoop,
                    start: BundlePoint | np.ndarray | None = None) -> PlanckianLift:
    """Closed horizontal lift of the loop, winding `order` times.

    Integrates the alpha-annihilating phase transport with a fixed-step
    4th-order method (one step per node, step-halving check), closes the
    residual seam exactly, and returns the sampled lift.
    """
    hol = holonomy(loop)
    if hol.order is None:
        raise BohrSommerfeldError(f"holonomy phase {hol.phase:.12f} has no order "
                                  f"<= {MAX_HOLONOMY_ORDER}; no closed lift exists")
    r = hol.order

    theta0 = 0.0
    if start is not None:
        svec = as_point_array(start)
        if fs_distance(svec, loop.points[0]) > 1e-9:
            raise ContractViolation("start point must project to loop sample 0")
        theta0 = float(np.angle(_inner(loop.points[0], svec)))

    chi = _phase_path(loop, r)
    defect = chi[-1] - TWO_PI * round(chi[-1] / TWO_PI)
    if abs(defect) > _CLOSURE_TOL:
        raise IntegrationAccuracyError(
            f"lift fails to close after {r} circuits: seam {abs(defect):.3e}")
    t = np.linspace(0.0, 1.0, loop.n * r + 1)
    chi = chi - defect * t  # redistribute the O(1e-12) seam; keeps samples periodic
    base = np.tile(loop.points, (r, 1))
    lift_pts = np.exp(1j * (chi[:-1] + theta0))[:, None] * base
    return PlanckianLift(lift_pts, loop, r, hol.phase)


def normal_frame(loop: LagrangianLoop) -> NDArray[np.complex128]:
    """Per-node unit normal J * (unit tangent), as horizontal representatives."""
    return 1j * loop.unit_tangents()


def signed_area(loop: LagrangianLoop) -> float:
    """Signed area enclosed by the loop, by flux of the area form.

    Uses the potential A = -c d(arg z1 - arg z0) / (2*pi) with c = |z0|^2,
    whose exterior derivative is the area-1 form; the loop must avoid both
    coordinate poles.  For a latitude circle the result is its area
    coordinate c, and exp(2*pi*i*signed_area) is the connection holonomy.
    """
    z0 = loop.points[:, 0]
    z1 = loop.points[:, 1]
    if np.min(np.abs(z0)) < 1e-8 or np.min(np.abs(z1)) < 1e-8:
        raise DomainError("signed_area requires the loop to avoid the coordinate poles")
    raw = spectral_derivative(loop.points)
    dpsi = np.imag(raw[:, 0] / z0) - np.imag(raw[:, 1] / z1)
    c = np.abs(z0) ** 2
    return float(-trapezoid(c * dpsi) / TWO_PI)


def pole_clearance(loop: LagrangianLoop) -> float:
    """Distance from the loop to the nearer coordinate pole.

    The normal geodesics of latitude-like loops focalize at the poles, so
    this bounds the usable width of the normal tube.
    """
    d0 = fs_distance(loop.points, POLE_0[None, :])
    d1 = fs_distance(loop.points, POLE_1[None, :])
    return float(min(d0.min(), d1.min()))


# ---------------------------------------------------------------------------
# Nearest-point (tube) projection
# ---------------------------------------------------------------------------

# Newton iteration cap and step tolerance of the foot projection.
_FOOT_MAX_ITER = 40
_FOOT_TOL = 1e-13


def foot_parameters(loop: LagrangianLoop, points: np.ndarray) -> NDArray[np.float64]:
    """Parameters of the normal-geodesic feet of tube points on the loop.

    For each point m, finds phi maximizing |<L(phi), m>| (equivalently
    minimizing geodesic distance) by vectorized Newton iteration seeded at
    the nearest sample node.  Raises if any point fails to converge, which
    signals departure from the tube of unique projection.
    """
    pts = np.atleast_2d(as_point_array(points))
    overlaps = np.abs(pts @ np.conj(loop.points).T)  # (M, N)
    phi = loop.phi[np.argmax(overlaps, axis=1)].astype(np.float64)

    interp = loop._interp_points
    step_cap = TWO_PI / loop.n
    for _ in range(_FOOT_MAX_ITER):
        L, L1, L2 = interp.derivative(phi, (0, 1, 2))
        u = _inner(L, pts)
        u1 = _inner(L1, pts)
        u2 = _inner(L2, pts)
        grad = 2.0 * np.real(np.conj(u) * u1)
        curv = 2.0 * (np.abs(u1) ** 2 + np.real(np.conj(u) * u2))
        if np.any(np.abs(curv) < 1e-14):
            raise TubeStepError("nearest-point projection onto the loop degenerated")
        step = -grad / curv
        step = np.clip(step, -step_cap, step_cap)
        phi = phi + step
        if np.max(np.abs(step)) < _FOOT_TOL:
            break
    else:
        raise TubeStepError("nearest-point projection onto the loop did not converge")
    return np.mod(phi, TWO_PI)
