"""Level-k projections of half-weighted loop distributions and their
derivatives, orthogonalization, and projective-space pullbacks.

A half-weighted closed lift (P, lambda) defines the distributional pairing

    <delta_(P,lambda), gamma> = integral over P of S_lambda * gamma * dens_P,

whose projection onto the level-k space has coefficients
c_a = <delta, conj(s_a)> / ||s_a||^2.  The projection vanishes identically
unless the winding number r divides k.

Two derivative routes are implemented and cross-checked: the analytic
pairing (function/half-density/transport/fiber terms, with the two
convention signs CONVENTION_SIGNS) and the geometric finite-difference
oracle built on the contact transport of `leaf.flow_state`.
Pullback values are Gram ratios of the orthogonalized derivatives and are
independent of the global bundle measure scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import asymptotics, hardy
from .errors import ContractViolation, DomainError, OutsideAdmissibleSetError
from .fourier import TWO_PI
from .geometry import (
    PlanckianLift,
    SQRT_PI,
    as_point_array,
    foot_parameters,
    fs_distance,
    normal_frame,
)
from .hardy import SectionBasis, SectionVector, _require_sphere_tangent, basis as hardy_basis, monomial_values
from .leaf import HalfWeight, LeafTangent, flow_state, gamma_flow, hamiltonian_normal_components

__all__ = [
    "TRANSVERSE_SCALE",
    "CONVENTION_SIGNS",
    "C_OMEGA",
    "C_G",
    "SPHERE_DIAMETER",
    "COEFF_FLOOR",
    "FD_STEP",
    "DECAY_MIN_DISTANCE",
    "BpuState",
    "ProfileTable",
    "bpu_map",
    "d_bpu",
    "sign_pair_derivatives",
    "fd_d_bpu",
    "zk_orthogonalize",
    "fs_pullback",
    "f_integrand",
    "norm_sweep",
    "pointwise_profile",
    "decay_check",
]

# Heisenberg transverse unit: the norm in which the leading transverse
# profile is the standard Gaussian exp(-|w|^2).  On this model it is
# sqrt(pi) times the area-1 FS norm (the C^2-horizontal norm).
TRANSVERSE_SCALE = SQRT_PI

# Signs (sigma_theta, sigma_p) of the fiber and normal terms of the analytic
# derivative pairing, and the constants of the pullback limits
# Im/k^2 -> C_OMEGA * Omega and Re/k^2 -> C_G * G.  These are fixed facts of
# the model; `calibration` re-measures them against ground truth.
CONVENTION_SIGNS = (-1, +1)
C_OMEGA = -0.5
C_G = +0.5

# Maximal base distance in the area-1 metric (pole to pole).
SPHERE_DIAMETER = SQRT_PI / 2.0

# Coefficients below this magnitude count as exactly zero (quadrature floor).
COEFF_FLOOR = 1e-11

# Flow time of the coarser central difference in fd_d_bpu, and the base
# distance below which an off-loop point gets no decay verdict.
FD_STEP = 1e-3
DECAY_MIN_DISTANCE = 0.2 * SPHERE_DIAMETER


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BpuState:
    """Level-k projection of the delta distribution of (P, lambda)."""

    k: int
    sec_basis: SectionBasis
    coefficients: NDArray[np.complex128]
    lift: PlanckianLift
    halfweight: HalfWeight

    @property
    def norm_sq(self) -> float:
        return hardy.norm_sq(self.sec_basis, self.coefficients)

    @property
    def is_admissible(self) -> bool:
        """Membership in the open set where the projectivized map is defined."""
        return bool(np.max(np.abs(self.coefficients)) > COEFF_FLOOR)

    def evaluate(self, points) -> complex | NDArray[np.complex128]:
        return hardy.eval_section(self.sec_basis, SectionVector(self.k, self.coefficients), points)


@dataclass(frozen=True)
class ProfileTable:
    """Transverse profile |u(x + w/sqrt(k))| / |u(x)| against the Gaussian."""

    w_norm: NDArray[np.float64]
    w_perp_norm: NDArray[np.float64]
    ratio: NDArray[np.float64]
    gaussian: NDArray[np.float64]

    def max_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.ratio - self.gaussian)))


# ---------------------------------------------------------------------------
# Level-moment kernel: projection and derivative pairings
# ---------------------------------------------------------------------------

def _level_moments(points: np.ndarray, amp: np.ndarray, normal: np.ndarray,
                   ks: Sequence[int]):
    """Level-moment kernel: for each k in ks, the basis, the projection's
    coefficients and the (T, k+1) blocks (base, fiber, normal) of d_bpu,
    which `_signed` combines.

    `points` (M, 2) carry real amplitudes `amp` (M, 1 + 3T): the delta
    weights s_w, then per tangent the transport, fiber (per unit k) and
    half-density ones; `normal` (M, 2, T) holds the fields ups_i times s_w.
    All pairings read one matrix P of level-(k-1) monomials:
    s_a = z1 P[:, a] (a < k), s_k = z0 P[:, k-1] and
    ds_a(ups) = a ups0 P[:, a-1] + (k-a) ups1 P[:, a].  So each is a row of
    conj(P)^T V, V = [conj(z1) amp, conj(ups0) s_w, conj(ups1) s_w] built
    once for all levels, but for the row a = k, which pairs conj(P[:, k-1])
    with conj(z0) amp.  Valid for k < r*N on an r-fold lift of an N-node
    loop (the trapezoid rule aliases above) and k < 1019 (see `hardy.basis`).
    """
    z0, z1 = points[:, 0], points[:, 1]
    t = normal.shape[2]
    head = np.hstack([z1[:, None] * amp, normal[:, 0], normal[:, 1]])  # conj(V)
    tail = z0[:, None] * amp
    reach = np.abs(z1) * np.abs(amp[:, 0]), np.abs(z0) * np.abs(amp[:, 0])
    for k in ks:
        b = hardy_basis(k)
        p = (monomial_values(hardy_basis(k - 1), points) if k > 1
             else np.ones((len(points), 1), dtype=np.complex128))
        g = np.conj(p.T @ head)
        values = np.vstack([g[:, :1 + 3 * t], np.conj(p[:, -1] @ tail)])
        # Snap pairings below the quadrature floor of their no-cancellation bound.
        bound = np.append(np.abs(p).T @ reach[0], np.abs(p[:, -1]) @ reach[1])
        values[np.abs(values[:, 0]) <= 1e-10 * bound, 0] = 0.0
        deriv = np.zeros((k + 1, t), dtype=np.complex128)
        deriv[1:] = np.arange(1, k + 1)[:, None] * g[:, 1 + 3 * t:1 + 4 * t]
        deriv[:-1] += np.arange(k, 0, -1)[:, None] * g[:, 1 + 4 * t:]
        coeffs = values.T / b.norms_sq
        transport, fiber, density = coeffs[1:].reshape(3, t, k + 1)
        # conj of the fiber derivative i*k*s_a is -i*k*conj(s_a).
        yield b, coeffs[0], (transport + k * density, -1j * k * fiber, deriv.T / b.norms_sq)


def _frame_moments(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
                   ks: Sequence[int]):
    """The level-moment kernel on a lift and a tangent frame."""
    if hw.loop is not lift.base:
        raise ContractViolation("half-weight and lift live on different loops")
    r, t = lift.winding, len(tangents)
    weights = lift.speed * (TWO_PI / lift.base.n)
    s_w = np.tile(hw.s_lambda, r) * weights
    amp = np.column_stack([s_w] + [np.tile(hw.s_lambda * gamma_flow(lift.base, w.f), r) * weights
                                   for w in tangents]
                          + [np.tile(w.f, r) * s_w for w in tangents]
                          + [np.tile(w.s_ell, r) * weights for w in tangents])
    # Horizontal lifts ups_i of the Hamiltonian fields of the f_i, times s_w.
    normal = np.zeros((len(s_w), 2, t), dtype=np.complex128)
    for i, w in enumerate(tangents):
        a = hamiltonian_normal_components(lift.base, w.f)
        field = np.tile(a[:, None] * normal_frame(lift.base), (r, 1))
        _require_sphere_tangent(lift.points, lift.phases[:, None] * field)
        normal[:, :, i] = (lift.phases * s_w)[:, None] * field
    return _level_moments(lift.points, amp, normal, ks)


def _signed(blocks, signs: tuple[int, int]) -> NDArray[np.complex128]:
    """d_bpu rows from the kernel's blocks under the signs (sigma_theta, sigma_p)."""
    return blocks[0] + signs[0] * blocks[1] + signs[1] * blocks[2]


def bpu_map(lift: PlanckianLift, hw: HalfWeight, k: int) -> BpuState:
    """Orthogonal projection of the half-weighted delta onto level k, the
    tangent-free case of the level-moment kernel.

    Pairings below the quadrature floor (relative to their no-cancellation
    bound) are exact zeros of the rotational selection rule: they are
    snapped to zero before dividing by the basis norms, which keeps the
    off-lattice vanishing exact.  The floor sits two orders above the lift
    seam noise; a pairing that small contributes less than 1e-19 to any norm
    or Gram quantity, while the mid-band basis norms are tiny enough that
    leaving such noise in place would masquerade as O(1e-3) coefficients.
    Valid for k < r*N on an r-fold lift of an N-node loop, above which the
    trapezoid rule aliases, and below k = 1019, where the basis norms go
    subnormal (norm_sq is NaN at k = 1024 on the c = 1/2 latitude).
    """
    b, coeffs, _ = next(_frame_moments(lift, hw, (), [k]))
    return BpuState(k, b, coeffs, lift, hw)


# ---------------------------------------------------------------------------
# Analytic derivative
# ---------------------------------------------------------------------------

def d_bpu(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
          ks: Sequence[int]) -> list[NDArray[np.complex128]]:
    """Coefficients of the projected derivatives along a frame of tangents.

    Returns one (len(tangents), k+1) array per level k in `ks`; row i is the
    derivative along (f_i, k*ell_i), the half-density leg amplified by
    linearity, the scaling under which the pullback expansions carry their
    k^2 leading term.  The fiber and normal terms carry the signs
    CONVENTION_SIGNS.  A level the winding does not divide gets zero rows
    and a warning.
    """
    r = lift.winding
    moments = _frame_moments(lift, hw, tangents, [k for k in ks if k % r == 0])
    out = []
    for k in ks:
        if k % r:
            warnings.warn(f"level {k} is not divisible by the winding {r}; "
                          "the projection is identically zero", stacklevel=2)
            out.append(np.zeros((len(tangents), k + 1), dtype=np.complex128))
            continue
        out.append(_signed(next(moments)[2], CONVENTION_SIGNS))
    return out


def sign_pair_derivatives(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
                          k: int) -> dict[tuple[int, int], NDArray[np.complex128]]:
    """The d_bpu rows at level k under each of the four sign pairs
    (sigma_theta, sigma_p), from one kernel pass: the derivative is affine
    in the signs.  The winding must divide k."""
    if k % lift.winding:
        raise DomainError(f"level {k} is not divisible by the winding {lift.winding}")
    _, _, blocks = next(_frame_moments(lift, hw, tangents, [k]))
    return {signs: _signed(blocks, signs) for signs in itertools.product((1, -1), repeat=2)}


def fd_d_bpu(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
             ks: Sequence[int]) -> list[NDArray[np.complex128]]:
    """Finite-difference ground truth for d_bpu via the contact transport.

    Each tangent's legs (f, 0) and (0, ell) are transported once, to +-FD_STEP
    and +-FD_STEP/2; at every level the central differences of the projected
    states are Richardson-combined into d_f and d_ell, and row i of the
    level-k array is d_f + k*d_ell, as in d_bpu.  A leg that is identically
    zero moves nothing and is skipped.
    """
    loop = lift.base
    zero = np.zeros(loop.n)
    steps = (FD_STEP, 0.5 * FD_STEP)
    out = [np.zeros((len(tangents), k + 1), dtype=np.complex128) for k in ks]
    for i, w in enumerate(tangents):
        for leg, rescaled in ((LeafTangent(loop, w.f, zero), False),
                              (LeafTangent(loop, zero, w.s_ell), True)):
            if not (np.any(leg.f) or np.any(leg.s_ell)):
                continue
            moved = [(flow_state(lift, hw, leg, +h), flow_state(lift, hw, leg, -h)) for h in steps]
            for k, rows in zip(ks, out):
                d1, d2 = ((bpu_map(*plus, k).coefficients - bpu_map(*minus, k).coefficients)
                          / (2.0 * h) for h, (plus, minus) in zip(steps, moved))
                rows[i] += (float(k) if rescaled else 1.0) * ((4.0 * d2 - d1) / 3.0)
    return out


# ---------------------------------------------------------------------------
# Orthogonalization and pullbacks
# ---------------------------------------------------------------------------

def zk_orthogonalize(u: BpuState, du: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Components of the coefficient rows du orthogonal to u (Gram-Schmidt step)."""
    if not u.is_admissible:
        raise OutsideAdmissibleSetError(
            "projection vanishes at this level; orthogonalization undefined")
    du = np.asarray(du, dtype=np.complex128)
    coeff = du @ (np.conj(u.coefficients) * u.sec_basis.norms_sq) / u.norm_sq
    return du - np.multiply.outer(coeff, u.coefficients)


def f_integrand(w: LeafTangent, wp: LeafTangent, hw: HalfWeight) -> complex:
    """Integral over L of the Hermitian pairing density

        F = (S_ell S_ell' + f f' S_lambda^2) + i (S_ell f' - f S_ell') S_lambda.
    """
    if w.loop is not wp.loop:
        raise ContractViolation("tangents live on different loops")
    s = hw.s_lambda
    real_part = w.s_ell * wp.s_ell + w.f * wp.f * s ** 2
    imag_part = (w.s_ell * wp.f - w.f * wp.s_ell) * s
    dens = hw.loop.speed * (TWO_PI / hw.loop.n)
    return complex(np.sum((real_part + 1j * imag_part) * dens))


def fs_pullback(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
                ks: Sequence[int]) -> NDArray[np.complex128]:
    """Level-k pullbacks of the Fubini-Study form over a frame of leaf tangents.

    At each level builds u and the orthogonal parts Z_i of the rescaled
    derivatives along the tangents, and returns the forms, shape
    (len(ks), T, T), with entries <Z_i, Z_j> / <u, u> made exactly
    Hermitian as (G + G^H) / 2.  Real parts are metric values, imaginary
    parts symplectic ones.  Independent of the bundle measure scale and of
    the lift's starting phase.  One pass of the level-moment kernel per
    level gives u and the derivatives together.
    """
    forms = np.empty((len(ks), len(tangents), len(tangents)), dtype=np.complex128)
    moments = _frame_moments(lift, hw, tangents, ks)
    for n, (k, (b, coeffs, blocks)) in enumerate(zip(ks, moments)):
        u = BpuState(k, b, coeffs, lift, hw)
        if not u.is_admissible:
            raise OutsideAdmissibleSetError(f"(L, lambda) lies outside the level-{k} domain")
        z = zk_orthogonalize(u, _signed(blocks, CONVENTION_SIGNS))
        gram = (np.conj(z) * b.norms_sq) @ z.T / u.norm_sq
        forms[n] = 0.5 * (gram + gram.conj().T)
    return forms


def norm_sweep(lift: PlanckianLift, hw: HalfWeight, ks: Sequence[int]) -> list[dict]:
    """Table of squared norms over levels, with admissibility records."""
    rows = []
    for k in ks:
        state = bpu_map(lift, hw, k)
        rows.append({
            "k": int(k),
            "l": int(k // lift.winding) if k % lift.winding == 0 else 0,
            "r": lift.winding,
            "norm_sq": state.norm_sq,
            "admissible": state.is_admissible,
        })
    return rows


# ---------------------------------------------------------------------------
# Pointwise structure
# ---------------------------------------------------------------------------

def pointwise_profile(state: BpuState, x, w_direction,
                      samples: np.ndarray | None = None) -> ProfileTable:
    """Modulus profile under transverse displacements x + w/sqrt(k).

    `x` must lie on the circle orbit of the lift; `w_direction` is a
    horizontal representative at the canonical loop representative of the
    foot of x.  Displacements are horizontal lifts of FS geodesics, with
    magnitudes tabulated in the Heisenberg transverse unit
    (TRANSVERSE_SCALE times the FS norm), the unit in which the predicted
    leading profile is exp(-|w_perp|^2).
    """
    if samples is None:
        samples = np.linspace(0.0, 1.5, 16)
    samples = np.asarray(samples, dtype=np.float64)
    xv = as_point_array(x)
    loop = state.lift.base
    foot = foot_parameters(loop, xv[None, :])[0]
    base_rep = loop.point_at(foot)
    if float(fs_distance(xv, base_rep)) > 1e-8:
        raise ContractViolation("profile point must lie on the orbit of the lift")

    wv = np.asarray(w_direction, dtype=np.complex128)
    wn = np.linalg.norm(wv)
    if wn < 1e-300:
        raise ContractViolation("direction must be nonzero")
    tangent_unit = loop.tangent_at(foot)
    tangent_unit = tangent_unit / np.linalg.norm(tangent_unit)
    w_unit = wv / wn
    # Perpendicular fraction of the direction in the real horizontal plane.
    par = np.real(np.vdot(tangent_unit, w_unit))
    skew = np.imag(np.vdot(tangent_unit, w_unit))  # component along J * tangent
    perp_fraction = abs(skew)
    if abs(par ** 2 + skew ** 2 - 1.0) > 1e-9:
        raise ContractViolation("direction must be horizontal at the foot of x")

    phase = np.vdot(base_rep, xv)  # unit: x = phase * base_rep
    w_at_x = phase * w_unit
    theta = samples / math.sqrt(state.k)  # C^2 angle = transverse unit / sqrt(k)
    displaced = (np.cos(theta)[:, None] * xv[None, :]
                 + np.sin(theta)[:, None] * w_at_x[None, :])
    base_val = abs(complex(state.evaluate(xv[None, :])[0]))
    if base_val == 0.0:
        raise OutsideAdmissibleSetError("projection vanishes at the profile point")
    vals = np.abs(state.evaluate(displaced)) / base_val
    w_perp = samples * perp_fraction
    return ProfileTable(w_norm=samples, w_perp_norm=w_perp, ratio=vals,
                        gaussian=np.exp(-w_perp ** 2))


def decay_check(lift: PlanckianLift, hw: HalfWeight, x,
                ks: Sequence[int]) -> asymptotics.DecayReport:
    """Super-polynomial decay report for |u_k(x)| at an off-loop point.

    Points closer than DECAY_MIN_DISTANCE to the loop yield an inconclusive
    report rather than a verdict.
    """
    xv = as_point_array(x)
    dist = float(np.min(fs_distance(xv[None, :], lift.base.points)))
    admissible = [k for k in ks if k % lift.winding == 0]
    values = []
    for k in admissible:
        state = bpu_map(lift, hw, k)
        values.append(abs(complex(state.evaluate(xv[None, :])[0])))
    report = asymptotics.superpoly_decay(list(zip(admissible, values)))
    if dist < DECAY_MIN_DISTANCE:
        return replace(report, passed=False, inconclusive=True)
    return report
