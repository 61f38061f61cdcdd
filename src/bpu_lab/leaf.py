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
from .fourier import TWO_PI, TrigInterpolator, spectral_derivative, trapezoid
from .geometry import (
    LagrangianLoop,
    PlanckianLift,
    _foot_newton,
    _inner,
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

    def is_nowhere_vanishing(self, tol: float = 1e-9) -> bool:
        return bool(np.min(np.abs(self.s_lambda)) > tol)


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


def hamiltonian_field(loop: LagrangianLoop, f: np.ndarray):
    """Tube vector field of the extension of f, on copies of one circuit of nodes.

    Returns a function mapping (M, 2) representatives, point i near the
    normal geodesic through node i mod N, to the horizontal representatives
    of upsilon_f there and the extension values f(beta(m)).  The field is
    tangent to the level sets of the foot parameter, so Newton starts at
    those nodes, on one interpolant of the columns [L, f]; its last
    iterate's values also give the foot gradient (the implicit derivative
    of the stationarity of |<L(phi), m>|^2), f and f'.
    """
    interp = TrigInterpolator(np.column_stack([loop.points, np.asarray(f, dtype=np.float64)]))

    def field(points: np.ndarray):
        seeds = np.arange(len(points)) % loop.n
        _, (v, v1, _), u, u1, curv = _foot_newton(interp, points, seeds)
        gvec = -(2.0 / curv)[:, None] * (u1[:, None] * v[:, :2] + u[:, None] * v1[:, :2])
        grad_phi = np.pi * project_tangent(points, gvec)
        upsilon = -HAMILTONIAN_SCALE * v1[:, 2:].real * (1j * grad_phi)
        return upsilon, v[:, 2].real

    return field


def gamma_flow(loop: LagrangianLoop, f: np.ndarray) -> NDArray[np.float64]:
    """First-order change of the Riemannian half-density along the flow of f.

    The t-derivative of sqrt(speed_t / speed) as the loop moves with the
    normal Hamiltonian velocity V = a * (unit normal), by the first variation
    of the length density: Gamma = (Re<T, V'> + m Im<T, V>) / (2|T|^2), with
    T the tangents, V' = dV/dphi and m = loop.phase_rate.  On the latitude of
    area c it is -(1 - 2c) / (4c(1 - c)) * f'.
    """
    v = hamiltonian_normal_components(loop, f)[:, None] * normal_frame(loop)
    tang = loop.tangents
    first = np.real(_inner(tang, spectral_derivative(v))) + loop.phase_rate * np.imag(_inner(tang, v))
    return first / (2.0 * np.real(_inner(tang, tang)))


# ---------------------------------------------------------------------------
# Isodrastic transport
# ---------------------------------------------------------------------------

def tube_margin(loop: LagrangianLoop) -> float:
    """Usable half-width of the normal tube (quarter of the focal clearance)."""
    return 0.25 * pole_clearance(loop)


def flow_state(lift: PlanckianLift, hw: HalfWeight, w: LeafTangent,
               ts: Sequence[float]) -> list[tuple[PlanckianLift, HalfWeight]]:
    """Transport (lift, half-weight) along the tangent (f, ell), one state per time in ts.

    The bundle samples follow the contact transport (horizontal Hamiltonian
    velocity plus fiber rate -f), so the transported lift stays Legendrian
    and depends smoothly on t; the half-weight follows the normal-geodesic
    pullback of lambda + t*ell.  The pair is the differentiable path with
    velocity (f, ell) used as the finite-difference ground truth.  The flow
    is fiber-equivariant, V(e^{ia} x) = e^{ia} V(x), so only the first
    circuit is integrated, for all times at once: ceil(max|t| / 2e-3) RK4
    steps of t/steps each on the stacked circuits.  Every foot projection
    starts at the nodes, where the transported nodes' feet stay; the
    retraction's last Newton iterate gives the pulled-back lambda, ell and
    speed.  f = 0 moves no lift point.
    """
    loop = lift.base
    if hw.loop is not loop or w.loop is not loop:
        raise ContractViolation("lift, half-weight and tangent must share one loop")
    ts = np.asarray(ts, dtype=np.float64)
    if not np.any(w.f):
        return [(lift, HalfWeight(loop, hw.s_lambda + t * w.s_ell)) for t in ts]

    t_max = float(np.max(np.abs(ts)))
    reach = t_max * float(np.max(np.abs(hamiltonian_normal_components(loop, w.f))))
    if reach > tube_margin(loop):
        raise TubeStepError(f"flow times {ts} displace up to {reach:.3e}, "
                            f"beyond the tube margin {tube_margin(loop):.3e}")

    field = hamiltonian_field(loop, w.f)

    def velocity(x: np.ndarray) -> np.ndarray:
        upsilon, fval = field(x)
        return upsilon - (fval[:, None] * 1j) * x

    steps = max(1, math.ceil(t_max / 2e-3))  # RK4 steps of at most 2e-3
    h = np.repeat(ts / steps, loop.n)[:, None]
    x = np.tile(lift.circuit, (len(ts), 1))
    for _ in range(steps):
        k1 = velocity(x)
        k2 = velocity(x + 0.5 * h * k1)
        k3 = velocity(x + 0.5 * h * k2)
        k4 = velocity(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x /= np.linalg.norm(x, axis=1, keepdims=True)

    # De-phasing the first circuit gives a smooth periodic gauge for the new
    # loop; the flow commutes with the deck phase, so the later circuits stay
    # the first one's deck turns.
    circuits = x.reshape(len(ts), loop.n, 2)
    loops = [LagrangianLoop(c * np.conj(lift.phases)[:, None]) for c in circuits]

    # Half-weight transport: pull lambda + t*ell back through the
    # normal-geodesic retraction beta_t : L_t -> L.
    pulled = TrigInterpolator(np.column_stack([loop.points, hw.s_lambda, w.s_ell, loop.speed]))
    feet, (v, _, _), *_ = _foot_newton(pulled, np.concatenate([lp.points for lp in loops]),
                                       np.tile(np.arange(loop.n), len(ts)))
    delta = np.mod(feet.reshape(len(ts), loop.n) - loop.phi + np.pi, TWO_PI) - np.pi
    dfeet = 1.0 + spectral_derivative(delta.T).T
    if np.any(dfeet <= 0.0):
        raise TubeStepError("retraction reversed orientation; step too large")
    v = v.real.reshape(len(ts), loop.n, 5)
    return [(PlanckianLift(c, new_loop, lift.winding, lift.turns),
             HalfWeight(new_loop, (vt[:, 2] + t * vt[:, 3]) * np.sqrt(vt[:, 4] * d / new_loop.speed)))
            for t, c, new_loop, vt, d in zip(ts, circuits, loops, v, dfeet)]
