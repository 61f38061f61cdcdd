"""Half-weighted loops and their deformation theory.

A half-weight on a loop L is lambda = S_lambda * dens_L^(1/2) with
integral(lambda * lambda) = 1; tangent data on the half-weighted leaf is a
pair (f, ell = S_ell * dens_L^(1/2)) subject to the two moment constraints.
This module provides the symplectic pairing, the metric, the compatible
almost complex structure, the pushforward to weighted pairs, and the
Hamiltonian flow machinery used both to transport loops and as the
finite-difference ground truth for the projection derivatives.

Normalization of the dynamics: the Hamiltonian field of f is

    upsilon_f = -(1/2pi) * J grad(f o beta)

with beta the normal-geodesic retraction onto L (f held constant along
normal geodesics).  The 1/(2pi) factor matches the connection convention
alpha(d/dtheta) = 1/(2pi): the induced contact transport then rotates the
fiber at angular rate exactly -f, which puts the function and half-density
legs of a tangent pair on equal footing in the pullback asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ContractViolation, NowhereVanishingError, TubeStepError
from .fourier import TWO_PI, spectral_derivative, trapezoid
from .geometry import (PERIODICITY_TOL, SQRT_PI, LagrangianLoop, PlanckianLift, _inner,
                       normal_frame)

__all__ = [
    "HAMILTONIAN_SCALE",
    "HalfWeight",
    "LeafTangent",
    "WeightedTangent",
    "project_constraints",
    "omega",
    "metric_g",
    "j_map",
    "psi_pushforward",
    "omega_weinstein",
    "hamiltonian_normal_components",
    "gamma_flow",
    "flow_state",
]

HAMILTONIAN_SCALE = 1.0 / TWO_PI


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _integrate_density(loop: LagrangianLoop, coeff: np.ndarray) -> float:
    """Integral over L of coeff * dens_L (coeff sampled at nodes)."""
    return float(trapezoid(np.asarray(coeff) * loop.speed))


@dataclass(frozen=True, eq=False)
class HalfWeight:
    """Half-density coefficient S_lambda with unit total weight."""

    loop: LagrangianLoop
    s_lambda: NDArray[np.float64]

    def __post_init__(self):
        s = np.asarray(self.s_lambda, dtype=np.float64)
        if s.shape != (self.loop.n,):
            raise ContractViolation("half-weight samples must match the loop nodes")
        object.__setattr__(self, "s_lambda", s)

    @classmethod
    def constant(cls, loop: LagrangianLoop) -> "HalfWeight":
        return cls(loop, np.full(loop.n, 1.0 / math.sqrt(loop.length)))

    @classmethod
    def from_samples(cls, loop: LagrangianLoop, raw: np.ndarray) -> "HalfWeight":
        mass = _integrate_density(loop, np.asarray(raw) ** 2)
        if mass <= 0.0:
            raise ContractViolation("half-weight samples must carry positive mass")
        return cls(loop, np.asarray(raw, dtype=np.float64) / math.sqrt(mass))

    def mass(self) -> float:
        return _integrate_density(self.loop, self.s_lambda ** 2)

    def is_nowhere_vanishing(self) -> bool:
        return bool(np.min(np.abs(self.s_lambda)) > 1e-9)


@dataclass(frozen=True, eq=False)
class LeafTangent:
    """Constrained tangent pair (f, ell = S_ell * dens^(1/2)) on a loop."""

    loop: LagrangianLoop
    f: NDArray[np.float64]
    s_ell: NDArray[np.float64]

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64)
        s = np.asarray(self.s_ell, dtype=np.float64)
        if f.shape != (self.loop.n,) or s.shape != (self.loop.n,):
            raise ContractViolation("tangent samples must match the loop nodes")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s_ell", s)

    def constraint_residuals(self, hw: HalfWeight) -> tuple[float, float]:
        loop = self.loop
        r1 = _integrate_density(loop, self.f * hw.s_lambda ** 2)
        r2 = _integrate_density(loop, self.s_ell * hw.s_lambda)
        return abs(r1), abs(r2)


@dataclass(frozen=True, eq=False)
class WeightedTangent:
    """Tangent pair (f, phi) on the weighted leaf; phi is a density sampled
    as a coefficient against |dphi| on the parameter circle."""

    loop: LagrangianLoop
    f: NDArray[np.float64]
    phi_density: NDArray[np.float64]


# ---------------------------------------------------------------------------
# Algebraic operations
# ---------------------------------------------------------------------------

def _same_loop(a, b):
    if a.loop is not b.loop:
        raise ContractViolation("tangents live on different loops")


def project_constraints(loop: LagrangianLoop, f_raw: np.ndarray, s_ell_raw: np.ndarray,
                        hw: HalfWeight) -> LeafTangent:
    """Project raw samples onto the constrained tangent space.

    Subtracts the lambda-weighted mean from f and the lambda-component from
    ell, so both moment integrals vanish to quadrature precision.
    """
    f_raw = np.asarray(f_raw, dtype=np.float64)
    s_ell_raw = np.asarray(s_ell_raw, dtype=np.float64)
    f = f_raw - _integrate_density(loop, f_raw * hw.s_lambda ** 2)
    s_ell = s_ell_raw - _integrate_density(loop, s_ell_raw * hw.s_lambda) * hw.s_lambda
    return LeafTangent(loop, f, s_ell)


def omega(w: LeafTangent, wp: LeafTangent, hw: HalfWeight) -> float:
    """Symplectic pairing 2 * integral of (f ell' - f' ell) . lambda."""
    _same_loop(w, wp)
    integrand = (w.f * wp.s_ell - wp.f * w.s_ell) * hw.s_lambda
    return 2.0 * _integrate_density(w.loop, integrand)


def metric_g(w: LeafTangent, wp: LeafTangent, hw: HalfWeight) -> float:
    """Riemannian pairing 2 * integral of (f f' lambda.lambda + ell . ell')."""
    _same_loop(w, wp)
    integrand = w.f * wp.f * hw.s_lambda ** 2 + w.s_ell * wp.s_ell
    return 2.0 * _integrate_density(w.loop, integrand)


def j_map(w: LeafTangent, hw: HalfWeight) -> LeafTangent:
    """Compatible almost complex structure (f, g*lambda) -> (-g, f*lambda).

    Requires lambda nowhere vanishing so g = S_ell / S_lambda is defined.
    """
    if not hw.is_nowhere_vanishing():
        raise NowhereVanishingError("half-weight vanishes; J is undefined outside the open leaf")
    g = w.s_ell / hw.s_lambda
    return LeafTangent(w.loop, -g, w.f * hw.s_lambda)


def psi_pushforward(w: LeafTangent, hw: HalfWeight) -> WeightedTangent:
    """Differential of (L, lambda) -> (L, lambda.lambda): (f, ell) -> (f, 2 ell.lambda)."""
    phi = 2.0 * w.s_ell * hw.s_lambda * w.loop.speed
    return WeightedTangent(w.loop, w.f.copy(), phi)


def omega_weinstein(v: WeightedTangent, vp: WeightedTangent) -> float:
    """Weighted-leaf pairing: integral of (f1 phi2 - f2 phi1)."""
    _same_loop(v, vp)
    return float(trapezoid(v.f * vp.phi_density - vp.f * v.phi_density))


# ---------------------------------------------------------------------------
# Hamiltonian machinery
# ---------------------------------------------------------------------------

def hamiltonian_normal_components(loop: LagrangianLoop, f: np.ndarray) -> NDArray[np.float64]:
    """Per-node coefficient a with upsilon_f = a * (unit normal) along the loop.

    The normal-geodesic extension of f has vanishing normal derivative, so
    on the loop the field is purely normal with a = -(1/2pi) df/ds, the
    arc-length derivative.  Validated against the flow displacement oracle
    in the tests.
    """
    f = np.asarray(f, dtype=np.float64)
    df = spectral_derivative(f)
    return -HAMILTONIAN_SCALE * df / loop.speed


def _jacobi_rate(loop: LagrangianLoop) -> tuple[NDArray[np.complex128], NDArray[np.float64]]:
    """Unit normals n (C^2 magnitude 1) and the rate B of the node circles.

    On the area-1 sphere (curvature 4*pi) the length density of the curves
    cos(theta) L + sin(theta) n, theta the C^2 angle along the normal
    geodesics, is exactly D(theta) = speed cos(2 theta) + B sin(2 theta).
    2B = Re<T, h> / (pi speed) is D'(0), with h the theta-derivative at 0 of
    the horizontal part of cos(theta) L' + sin(theta) n'.
    """
    pts = loop.points
    n = normal_frame(loop) / SQRT_PI
    dl, dn = spectral_derivative(pts), spectral_derivative(n)
    h = dn - (_inner(n, dl) + _inner(pts, dn))[:, None] * pts - _inner(pts, dl)[:, None] * n
    return n, np.real(_inner(loop.tangents, h)) / (TWO_PI * loop.speed)


def gamma_flow(loop: LagrangianLoop, f: np.ndarray) -> NDArray[np.float64]:
    """First-order change of the Riemannian half-density along the flow of f.

    The t-derivative of sqrt(speed_t / speed) as the loop moves with the
    normal Hamiltonian velocity a * (unit normal): Gamma = kappa * a / 2, with
    kappa = 2 sqrt(pi) B / speed = d log(speed)/ds along the unit normal and B
    the rate of `_jacobi_rate`.  On the latitude of area c it is
    -(1 - 2c) / (4c(1 - c)) * f'.
    """
    return SQRT_PI * _jacobi_rate(loop)[1] / loop.speed * hamiltonian_normal_components(loop, f)


# ---------------------------------------------------------------------------
# Isodrastic transport
# ---------------------------------------------------------------------------

def flow_state(lift: PlanckianLift, hw: HalfWeight, w: LeafTangent,
               ts: Sequence[float]) -> list[tuple[PlanckianLift, HalfWeight]]:
    """Transport (lift, half-weight) along the tangent (f, ell), one state per time in ts.

    The bundle samples follow the contact transport (horizontal Hamiltonian
    velocity plus fiber rate -f), so the transported lift stays Legendrian
    and depends smoothly on t; the half-weight follows the normal-geodesic
    pullback of lambda + t*ell.  The pair is the differentiable path with
    velocity (f, ell) used as the finite-difference ground truth.  The field
    is tangent to the normal geodesics, so node j stays on its own, with its
    foot at phi_j and f constant: it reaches the C^2 angle theta solving
    D(theta) theta' = sqrt(pi) a speed, D the Jacobi length of
    `_jacobi_rate`, so

        theta(t) = (delta + arcsin((2 sqrt(pi) a speed t - B) / R)) / 2

    with R = hypot(speed, B) and delta = atan2(B, speed), and the moved
    circuit is phases e^{-i f t} (cos(theta) L + sin(theta) n).  The
    half-weight is (S_lambda + t S_ell) sqrt(speed / speed_t), with
    speed_t = sqrt(D(theta)^2 + theta'^2 / pi).  f = 0 moves no lift point.
    That is the whole domain of the closed form: TubeStepError is raised
    where a node's normal geodesic reaches its focal point (|arcsin
    argument| >= 1), and where a moved loop is not resolved on the N nodes
    (its periodicity residual exceeds PERIODICITY_TOL, the bound every
    lifted loop meets).
    """
    loop = lift.base
    if hw.loop is not loop or w.loop is not loop:
        raise ContractViolation("lift, half-weight and tangent must share one loop")
    ts = np.asarray(ts, dtype=np.float64)
    if not np.any(w.f):
        return [(lift, HalfWeight(loop, hw.s_lambda + t * w.s_ell)) for t in ts]

    a = hamiltonian_normal_components(loop, w.f)
    n, b = _jacobi_rate(loop)
    speed = loop.speed
    arg = (2.0 * SQRT_PI * a * speed * ts[:, None] - b) / np.hypot(speed, b)
    if np.any(np.abs(arg) >= 1.0):
        raise TubeStepError(f"flow times {ts} carry a node to the focal point of its normal geodesic")
    theta = 0.5 * (np.arctan2(b, speed) + np.arcsin(arg))
    speed_t = np.hypot(speed * np.cos(2.0 * theta) + b * np.sin(2.0 * theta),
                       spectral_derivative(theta.T).T / SQRT_PI)
    points = np.exp(-1j * np.multiply.outer(ts, w.f))[..., None] * (
        np.cos(theta)[..., None] * loop.points + np.sin(theta)[..., None] * n)
    loops = [LagrangianLoop(p) for p in points]
    for t, lp in zip(ts, loops):
        if (tail := lp.periodicity_residual()) > PERIODICITY_TOL:
            raise TubeStepError(f"flow time {t} leaves the moved loop unresolved on {loop.n} nodes "
                                f"(periodicity residual {tail:.1e})")
    return [(PlanckianLift(lift.phases[:, None] * p, lp, lift.winding, lift.turns),
             HalfWeight(lp, (hw.s_lambda + t * w.s_ell) * np.sqrt(speed / st)))
            for t, p, lp, st in zip(ts, points, loops, speed_t)]
