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

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ContractViolation,
    IntegrationAccuracyError,
    NowhereVanishingError,
    TubeStepError,
)
from .fourier import TWO_PI, TrigInterpolator, spectral_derivative, trapezoid
from .geometry import (
    LagrangianLoop,
    PlanckianLift,
    exp_map,
    foot_parameters,
    normal_frame,
    pole_clearance,
    project_tangent,
)

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
    "hamiltonian_field",
    "gamma_flow",
    "flow_state",
    "tube_margin",
]

HAMILTONIAN_SCALE = 1.0 / TWO_PI


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _integrate_density(loop: LagrangianLoop, coeff: np.ndarray) -> float:
    """Integral over L of coeff * dens_L (coeff sampled at nodes)."""
    return float(trapezoid(np.asarray(coeff) * loop.speed))


@dataclass(frozen=True)
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

    def is_nowhere_vanishing(self, tol: float = 1e-9) -> bool:
        return bool(np.min(np.abs(self.s_lambda)) > tol)

    def to_json(self) -> str:
        return json.dumps({"n": self.loop.n, "s_lambda": self.s_lambda.tolist()},
                          sort_keys=True)

    @classmethod
    def from_json(cls, loop: LagrangianLoop, text: str) -> "HalfWeight":
        payload = json.loads(text)
        return cls(loop, np.asarray(payload["s_lambda"], dtype=np.float64))


@dataclass(frozen=True)
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

    def to_json(self) -> str:
        return json.dumps({"n": self.loop.n, "f": self.f.tolist(),
                           "s_ell": self.s_ell.tolist()}, sort_keys=True)

    @classmethod
    def from_json(cls, loop: LagrangianLoop, text: str) -> "LeafTangent":
        payload = json.loads(text)
        return cls(loop, np.asarray(payload["f"], dtype=np.float64),
                   np.asarray(payload["s_ell"], dtype=np.float64))


@dataclass(frozen=True)
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


def _implicit_foot_gradient(loop: LagrangianLoop, points: np.ndarray,
                            feet: np.ndarray) -> NDArray[np.complex128]:
    """Gradient of the foot parameter at tube points, as horizontal vectors.

    Differentiates the stationarity condition of |<L(phi), m>|^2 at the
    converged foot; exact to solve precision, covariant under fiber phase.
    """
    interp = loop._interp_points
    L, L1, L2 = interp.derivative(feet, (0, 1, 2))
    u = np.sum(np.conj(L) * points, axis=-1)
    u1 = np.sum(np.conj(L1) * points, axis=-1)
    u2 = np.sum(np.conj(L2) * points, axis=-1)
    curv = 2.0 * (np.abs(u1) ** 2 + np.real(np.conj(u) * u2))
    if np.any(np.abs(curv) < 1e-12):
        raise TubeStepError("foot projection degenerates; point left the tube")
    gvec = -(2.0 / curv)[:, None] * (u1[:, None] * L + u[:, None] * L1)
    return np.pi * project_tangent(points, gvec)


def hamiltonian_field(loop: LagrangianLoop, f: np.ndarray):
    """Tube vector field of the extension of f, as a batched callable.

    Returns a function mapping bundle/base representatives (M, 2) to the
    horizontal representatives of upsilon_f at those points, together with
    the extension values f(beta(m)) (needed by the contact transport).
    """
    f_interp = TrigInterpolator(np.asarray(f, dtype=np.float64))

    def field(points: np.ndarray):
        feet = foot_parameters(loop, points)
        grad_phi = _implicit_foot_gradient(loop, points, feet)
        fval, fprime = f_interp.derivative(feet, (0, 1))
        upsilon = -HAMILTONIAN_SCALE * fprime[:, None] * (1j * grad_phi)
        return upsilon, fval

    return field


_GAMMA_STEP = 1e-3
_GAMMA_REL_TOL = 1e-5


def gamma_flow(loop: LagrangianLoop, f: np.ndarray) -> NDArray[np.float64]:
    """First-order change of the Riemannian half-density along the flow of f.

    Realized as its defining t-derivative: displace the loop along the
    normal Hamiltonian velocity, pull the displaced half-density coefficient
    back through the flow parametrization, and differentiate at t = 0 by
    Richardson-refined central differences; the two refined estimates
    (from step pairs (t, t/2) and (t/2, t/4), t = _GAMMA_STEP) must agree to
    _GAMMA_REL_TOL.
    """
    f = np.asarray(f, dtype=np.float64)
    a = hamiltonian_normal_components(loop, f)
    nf = normal_frame(loop)

    def g_at(t: float) -> np.ndarray:
        moved = exp_map(loop.points, (t * a)[:, None] * nf)
        return np.sqrt(LagrangianLoop(moved).speed / loop.speed)

    step = _GAMMA_STEP
    central = {h: (g_at(h) - g_at(-h)) / (2.0 * h) for h in (step, 0.5 * step, 0.25 * step)}
    first = (4.0 * central[0.5 * step] - central[step]) / 3.0
    second = (4.0 * central[0.25 * step] - central[0.5 * step]) / 3.0
    # Geodesic loops have identically vanishing derivative; allow an
    # absolute floor tied to the flow amplitude besides the relative check.
    tol = _GAMMA_REL_TOL * float(np.max(np.abs(second))) + 1e-9 * (1.0 + float(np.max(np.abs(a))))
    if float(np.max(np.abs(second - first))) > tol:
        raise IntegrationAccuracyError("half-density derivative failed step-halving check")
    return second


# ---------------------------------------------------------------------------
# Isodrastic transport
# ---------------------------------------------------------------------------

def tube_margin(loop: LagrangianLoop) -> float:
    """Usable half-width of the normal tube (quarter of the focal clearance)."""
    return 0.25 * pole_clearance(loop)


def flow_state(lift: PlanckianLift, hw: HalfWeight, w: LeafTangent,
               t: float) -> tuple[PlanckianLift, HalfWeight]:
    """Transport (lift, half-weight) a time t along the tangent (f, ell).

    The bundle samples follow the contact transport (horizontal Hamiltonian
    velocity plus fiber rate -f), so the transported lift stays Legendrian
    and depends smoothly on t; the half-weight follows the normal-geodesic
    pullback of lambda + t*ell.  The pair is the differentiable path with
    velocity (f, ell) used as the finite-difference ground truth.
    """
    loop = lift.base
    if hw.loop is not loop or w.loop is not loop:
        raise ContractViolation("lift, half-weight and tangent must share one loop")

    a = hamiltonian_normal_components(loop, w.f)
    max_speed = float(np.max(np.abs(a)))
    if abs(t) * max_speed > tube_margin(loop):
        raise TubeStepError(
            f"flow step {t:g} displaces up to {abs(t) * max_speed:.3e}, "
            f"beyond the tube margin {tube_margin(loop):.3e}")

    field = hamiltonian_field(loop, w.f)

    def velocity(x: np.ndarray) -> np.ndarray:
        upsilon, fval = field(x)
        return upsilon - (fval[:, None] * 1j) * x

    steps = max(1, int(math.ceil(abs(t) / 2e-3)))  # RK4 steps of at most 2e-3
    h = t / steps
    x = lift.points.copy()
    for _ in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x /= np.linalg.norm(x, axis=1, keepdims=True)

    # The contact flow is fiber-equivariant, so each node keeps its phase
    # offset over the base; de-phasing the first circuit recovers a smooth
    # periodic gauge for the transported base loop.
    base_pts = x[: loop.n] * np.conj(lift.phases[: loop.n])[:, None]
    new_loop = LagrangianLoop(base_pts, area_coordinate=loop.area_coordinate)
    new_lift = PlanckianLift(x, new_loop, lift.winding, lift.holonomy_phase)

    # Half-weight transport: pull lambda + t*ell back through the
    # normal-geodesic retraction beta_t : L_t -> L.
    feet = foot_parameters(loop, new_loop.points)
    delta = np.mod(feet - loop.phi + np.pi, TWO_PI) - np.pi
    dfeet = 1.0 + spectral_derivative(delta)
    if np.any(dfeet <= 0.0):
        raise TubeStepError("retraction reversed orientation; step too large")
    eta = TrigInterpolator(hw.s_lambda + t * w.s_ell)
    s_new = eta(loop.phi + delta) * np.sqrt(
        loop.speed_at(loop.phi + delta) * dfeet / new_loop.speed)
    return new_lift, HalfWeight(new_loop, s_new)

