"""Level-k projections of half-weighted loop distributions and their
derivatives, orthogonalization, and projective-space pullbacks.

A half-weighted closed lift (P, lambda) defines the distributional pairing

    <delta_(P,lambda), gamma> = integral over P of S_lambda * gamma * dens_P,

whose projection onto the level-k space has coefficients
c_a = <delta, conj(s_a)> / ||s_a||^2: r times the first circuit's pairings
when the winding number r divides k, and exactly zero otherwise.

Two derivative routes are implemented and cross-checked: the analytic
pairing (function/half-density/transport/fiber terms, with the two
convention signs CONVENTION_SIGNS) and the geometric finite-difference
oracle built on the contact transport of `leaf.flow_state`.
Pullback values are Gram ratios of the orthogonalized derivatives and are
independent of the global bundle measure scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import asymptotics, hardy
from .errors import ContractViolation, DomainError, OutsideAdmissibleSetError
from .fourier import TWO_PI, _powers
from .geometry import (
    PlanckianLift,
    SQRT_PI,
    as_point_array,
    foot_parameters,
    fs_distance,
    normal_frame,
)
from .hardy import SectionBasis, _require_sphere_tangent, basis as hardy_basis
from .leaf import HalfWeight, LeafTangent, flow_state, gamma_flow, hamiltonian_normal_components

__all__ = [
    "TRANSVERSE_SCALE",
    "CONVENTION_SIGNS",
    "C_OMEGA",
    "C_G",
    "SPHERE_DIAMETER",
    "COEFF_FLOOR",
    "FAMILY_MARGIN",
    "BAND_EPS",
    "FD_STEP",
    "DECAY_MIN_DISTANCE",
    "BpuState",
    "ProfileTable",
    "bpu_map",
    "d_bpu",
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
# derivative pairing, which the kernel applies when it runs, and the constants
# of the pullback limits Im/k^2 -> C_OMEGA * Omega and Re/k^2 -> C_G * G:
# fixed facts of the model, checked by `calibration` and theorem-check verdicts.
CONVENTION_SIGNS = (-1, +1)
C_OMEGA = -0.5
C_G = +0.5

# Maximal base distance in the area-1 metric (pole to pole).
SPHERE_DIAMETER = SQRT_PI / 2.0

# Coefficients below this magnitude count as exactly zero (quadrature floor).
COEFF_FLOOR = 1e-11

# A node is in the kernel's second family where |z0| > |z1| (1 + FAMILY_MARGIN): far
# above rounding, so no latitude splits, and |rho|^a <= e^(FAMILY_MARGIN k) ~ 1.
# A level pairs the rows of its `_band`, leaving out under k BAND_EPS of a node's weights.
FAMILY_MARGIN = 1e-12
BAND_EPS = 1e-24

# Flow time of the coarser central difference in fd_d_bpu, and the base
# distance below which an off-loop point gets no decay verdict.
FD_STEP = 1e-3
DECAY_MIN_DISTANCE = 0.2 * SPHERE_DIAMETER


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BpuState:
    """Level-k projection of the delta distribution of (P, lambda)."""

    k: int
    sec_basis: SectionBasis
    coefficients: NDArray[np.complex128]
    lift: PlanckianLift

    @property
    def norm_sq(self) -> float:
        return hardy.norm_sq(self.sec_basis, self.coefficients)

    @property
    def is_admissible(self) -> bool:
        """Membership in the open set where the projectivized map is defined."""
        return bool(np.max(np.abs(self.coefficients)) > COEFF_FLOOR)

    def evaluate(self, points) -> complex | NDArray[np.complex128]:
        return hardy.eval_section(self.sec_basis, self.coefficients, points)


@dataclass(frozen=True, eq=False)
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

def _ratio_table(points: np.ndarray, rows: int):
    """Monomials z0^a z1^(d-a), a < rows, at points (M, 2) as rho^a lead^d: the
    row-contiguous (rows, M) table of rho^a (rows - 1 is the kernel's top band
    row), moduli factors (coarse, fine), the second family's mask, and lead.
    Nodes with |z0| <= |z1| (1 + FAMILY_MARGIN) have rho = z0/z1, lead = z1; the
    second family has rho = z1/z0, lead = z0 and reads the rows reversed.  rho
    is rounded once.  |rho|^(qB + i) = coarse[q] fine[:, i] for i < B =
    floor(sqrt(rows - 1)) + 1, the split of `_powers`, from long-double
    products of the unrounded |rho|."""
    second = np.abs(points[:, 0]) > np.abs(points[:, 1]) * (1.0 + FAMILY_MARGIN)
    lead = np.where(second, points[:, 0], points[:, 1])
    rho = np.where(second, points[:, 1], points[:, 0]).astype(np.clongdouble) / lead
    table = np.ones((rows, len(points)), dtype=np.complex128)
    _powers(rho.astype(np.complex128), rows - 1, into=table.T)
    block, mod = int((rows - 1) ** 0.5) + 1, np.abs(rho)[:, None]
    fine = np.cumprod(np.hstack([mod ** 0] + [mod] * (block - 1)), axis=1)
    coarse = np.cumprod(np.hstack([mod ** 0] + [fine[:, -1:] * mod] * ((rows - 1) // block)), axis=1)
    return table, (coarse.T.astype(np.float64, order="C"), fine.astype(np.float64)), second, lead


def _power(z: np.ndarray, n: int) -> NDArray[np.complex128]:
    """z^n elementwise for an integer n >= 0, by binary powering."""
    out = np.ones_like(z)
    for bit in bin(n)[2:]:
        out = out * out * z if bit == "1" else out * out
    return out


def _band(k: int, p_min: float, p_max: float) -> tuple[int, int]:
    """Rows lo..hi of the ratio table that level k pairs for nodes of one family
    with p = min(|z0|^2, |z1|^2) in [p_min, p_max]: within t = sqrt(d ln(2/BAND_EPS)/2),
    d = k-1, of [d p_min, d p_max].  By Hoeffding's inequality the rows outside carry
    under k BAND_EPS of a node's weights |P[a]|^2/||s_a||^2, k(k+1)/(k-a) binomial(d, p)."""
    d = k - 1
    t = math.sqrt(d * math.log(2.0 / BAND_EPS) / 2.0)
    return max(0, math.floor(d * p_min - t)), min(d, math.floor(d * p_max + t))


def _level_moments(points: np.ndarray, amp: np.ndarray, normal: np.ndarray,
                   ks: Sequence[int]):
    """Level-moment kernel: for each k in ks, the basis, the projection's
    coefficients and the (T, k+1) rows of d_bpu, the base terms plus the
    fiber and normal terms times the signs CONVENTION_SIGNS, read when the
    first level is computed.

    `points` (M, 2) on the sphere carry real amplitudes `amp` (M, 1 + 3T): the
    delta weights s_w, then per tangent the transport, fiber (per unit k) and
    half-density ones; `normal` (M, 2, T) holds the fields ups_i times s_w.
    All pairings read P[a] = z0^a z1^(k-1-a), a < k: s_a = z1 P[a] (a < k),
    s_k = z0 P[k-1] and ds_a(ups) = a ups0 P[a-1] + (k-a) ups1 P[a].  So
    each is a row of conj(P V), V = [conj(z1) amp, conj(ups0) s_w,
    conj(ups1) s_w] built once for all levels, but for the row a = k, which
    pairs conj(P[k-1]) with conj(z0) amp.  P is rows of one `_ratio_table`
    per pass, up to the top of the last level's band, times lead^(k-1): per
    node family, a level pairs the rows of its `_band` with its conj(V) times
    lead^(k-1) in one product, and the two moduli factors in one real product
    for the snapping bound; the other rows, P[k-1] of s_k included, are
    zeros.  Valid while the band's loop frequencies stay below N (on a
    latitude, t(k) < N) and norm_sq stays finite (see `bpu_map`).
    """
    t, (sigma_theta, sigma_p) = normal.shape[2], CONVENTION_SIGNS
    head = np.hstack([points[:, 1:] * amp, normal[:, 0], normal[:, 1]])  # conj(V)
    p = np.min(np.abs(points) ** 2, axis=1)
    top = _band(max([1, *ks]), 0.0, p.max())[1]  # the band top grows with k
    table, (coarse, fine), second, lead = _ratio_table(points, top + 1)
    families = [(flip, np.where(nodes[:, None], head, 0), p[nodes].min(), p[nodes].max(), nodes)
                for flip, nodes in ((False, ~second), (True, second)) if np.any(nodes)]
    for k in ks:
        b, d, scale = hardy_basis(k), k - 1, _power(lead, k - 1)
        g, bound, edge = np.zeros((k, head.shape[1]), complex), np.zeros(k + 1), np.zeros_like(lead)
        # One product per node family, summed over all N nodes of a row-contiguous
        # operand: BLAS sums a transposed view or a node subset in a thread-dependent order.
        for flip, part, p_min, p_max, nodes in families:  # part: conj(V) at the family's nodes
            lo, hi = _band(k, p_min, p_max)
            rows, step = (slice(d - hi, d - lo + 1), -1) if flip else (slice(lo, hi + 1), 1)
            g[rows] += (table[lo:hi + 1] @ (scale[:, None] * part))[::step]
            # Rows lo..hi of |table| @ w: rows a = qB + i of coarse @ (fine w).
            w, q = fine * np.abs(scale[:, None] * part[:, :1]), fine.shape[1]
            bound[rows] += (coarse[lo // q:hi // q + 1] @ w).ravel()[lo % q:][:hi + 1 - lo][::step]
            edge = np.where(nodes & ((lo if flip else d - hi) == 0), table[0 if flip else hi], edge)
        g, last = np.conj(g), edge * scale * points[:, 0]  # z0 P[k-1]
        values = np.vstack([g[:, :1 + 3 * t], np.conj(last @ amp)])
        # Snap pairings below the quadrature floor of their no-cancellation bound.
        bound[k] = np.abs(last) @ np.abs(amp[:, 0])
        values[np.abs(values[:, 0]) <= 1e-10 * bound, 0] = 0.0
        deriv = np.zeros((k + 1, t), dtype=np.complex128)
        deriv[1:] = np.arange(1, k + 1)[:, None] * g[:, 1 + 3 * t:1 + 4 * t]
        deriv[:-1] += np.arange(k, 0, -1)[:, None] * g[:, 1 + 4 * t:]
        coeffs = values.T / b.norms_sq
        transport, fiber, density = coeffs[1:].reshape(3, t, k + 1)
        # conj of the fiber derivative i*k*s_a is -i*k*conj(s_a).
        yield b, coeffs[0], (transport + k * density + sigma_theta * (-1j * k * fiber)
                             + sigma_p * (deriv.T / b.norms_sq))


def _frame_moments(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
                   ks: Sequence[int]):
    """The level-moment kernel on a lift and a tangent frame, over the first
    circuit's N nodes.  Circuit q pairs at level k as the first one times
    e^{-2 pi i q k turns/r}, so the weights carry the factor r, and the deck
    selection rule makes levels r does not divide exact zeros, never computed."""
    loop, t = lift.base, len(tangents)
    if hw.loop is not loop:
        raise ContractViolation("half-weight and lift live on different loops")
    weights = lift.winding * loop.speed * (TWO_PI / loop.n)
    s_w = hw.s_lambda * weights
    amp = np.column_stack([s_w] + [hw.s_lambda * gamma_flow(loop, w.f) * weights for w in tangents]
                          + [w.f * s_w for w in tangents] + [w.s_ell * weights for w in tangents])
    # Horizontal lifts ups_i of the Hamiltonian fields of the f_i, times s_w.
    normal = np.zeros((loop.n, 2, t), dtype=np.complex128)
    for i, w in enumerate(tangents):
        field = hamiltonian_normal_components(loop, w.f)[:, None] * normal_frame(loop)
        _require_sphere_tangent(lift.circuit, lift.phases[:, None] * field)
        normal[:, :, i] = (lift.phases * s_w)[:, None] * field
    lattice = _level_moments(lift.circuit, amp, normal, [k for k in ks if k % lift.winding == 0])
    for k in ks:
        if k % lift.winding:
            b, zero = hardy_basis(k), np.zeros((t + 1, k + 1), dtype=np.complex128)
        yield (b, zero[0], zero[1:]) if k % lift.winding else next(lattice)


def bpu_map(lift: PlanckianLift, hw: HalfWeight, k: int) -> BpuState:
    """Orthogonal projection of the half-weighted delta onto level k, the
    tangent-free case of the level-moment kernel.

    Levels the winding does not divide are exact zeros of the deck rule.
    Within a level, pairings below the quadrature floor (relative to their
    no-cancellation bound) are exact zeros of the rotational selection rule:
    they are snapped to zero before dividing by the basis norms.  The floor
    sits two orders above the lift seam noise; a pairing that small
    contributes less than 1e-19 to any norm or Gram quantity, while the
    mid-band basis norms are tiny enough that leaving such noise in place
    would masquerade as O(1e-3) coefficients.
    Valid while the loop frequencies of the rows in the kernel's `_band` stay
    below N, the first circuit's nodes, not r*N (a latitude is alias-free while
    t(k) < N, to k ~ 2300 at N = 256; a general loop aliases from its frequency
    bound), and while norm_sq stays finite: it is first inf at k = 1014 on
    c = 1/2 and NaN at k = 1023 on c = 1/3, as mid-band norms near 1e-307.
    """
    b, coeffs, _ = next(_frame_moments(lift, hw, (), [k]))
    return BpuState(k, b, coeffs, lift)


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
    CONVENTION_SIGNS as they stand when d_bpu is called; `fs_pullback`
    reads the same rows.  A level the winding does not divide gets zero
    rows and a warning.
    """
    for k in ks:
        if k % lift.winding:
            warnings.warn(f"level {k} is not divisible by the winding {lift.winding}; "
                          "the projection is identically zero", stacklevel=2)
    return [rows for _, _, rows in _frame_moments(lift, hw, tangents, ks)]


def fd_d_bpu(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
             ks: Sequence[int]) -> list[NDArray[np.complex128]]:
    """Finite-difference ground truth for d_bpu via the contact transport.

    Each tangent's legs (f, 0) and (0, ell) are transported by one
    `flow_state` call to +-FD_STEP and +-FD_STEP/2, and each transported
    state is projected at all levels in one kernel pass; at every level the
    central differences of the projected states are Richardson-combined
    into d_f and d_ell, and row i of the level-k array is d_f + k*d_ell, as
    in d_bpu.  A leg that is identically zero is skipped; the (0, ell) leg
    keeps the lift and moves only lambda.
    """
    loop = lift.base
    zero = np.zeros(loop.n)
    steps = (FD_STEP, 0.5 * FD_STEP)
    times = [t for h in steps for t in (h, -h)]
    out = [np.zeros((len(tangents), k + 1), dtype=np.complex128) for k in ks]
    for i, w in enumerate(tangents):
        for leg, rescaled in ((LeafTangent(loop, w.f, zero), False),
                              (LeafTangent(loop, zero, w.s_ell), True)):
            if not (np.any(leg.f) or np.any(leg.s_ell)):
                continue
            moved = [[c for _, c, _ in _frame_moments(*state, (), ks)]
                     for state in flow_state(lift, hw, leg, times)]
            for n, (k, rows) in enumerate(zip(ks, out)):
                d1, d2 = ((plus[n] - minus[n]) / (2.0 * h)
                          for h, plus, minus in zip(steps, moved[::2], moved[1::2]))
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
    the lift's starting phase.  One level-moment kernel pass over all the
    levels gives u and the derivatives together; a non-finite norm_sq raises DomainError.
    """
    forms = np.empty((len(ks), len(tangents), len(tangents)), dtype=np.complex128)
    moments = _frame_moments(lift, hw, tangents, ks)
    for n, (k, (b, coeffs, rows)) in enumerate(zip(ks, moments)):
        u = BpuState(k, b, coeffs, lift)
        if not math.isfinite(u.norm_sq):  # see `bpu_map`
            raise DomainError(f"level {k}: basis norms left the double range (norm_sq {u.norm_sq})")
        if not u.is_admissible:
            raise OutsideAdmissibleSetError(f"(L, lambda) lies outside the level-{k} domain")
        z = zk_orthogonalize(u, rows)
        gram = (np.conj(z) * b.norms_sq) @ z.T / u.norm_sq
        forms[n] = 0.5 * (gram + gram.conj().T)
    return forms


def norm_sweep(lift: PlanckianLift, hw: HalfWeight, ks: Sequence[int]) -> list[dict]:
    """Table of squared norms over levels, with admissibility records, from
    one kernel pass."""
    r, rows = lift.winding, []
    for k, (b, coeffs, _) in zip(ks, _frame_moments(lift, hw, (), ks)):
        state = BpuState(k, b, coeffs, lift)
        rows.append({"k": int(k), "l": int(k // r) if k % r == 0 else 0, "r": r,
                     "norm_sq": state.norm_sq, "admissible": state.is_admissible})
    return rows


# ---------------------------------------------------------------------------
# Pointwise structure
# ---------------------------------------------------------------------------

def pointwise_profile(state: BpuState, x, w_direction, samples: np.ndarray) -> ProfileTable:
    """Modulus profile under transverse displacements x + w/sqrt(k).

    `x` must lie on the circle orbit of the lift; `w_direction` is a
    horizontal representative at the canonical loop representative of the
    foot of x.  Displacements are horizontal lifts of FS geodesics, with
    magnitudes tabulated in the Heisenberg transverse unit
    (TRANSVERSE_SCALE times the FS norm), the unit in which the predicted
    leading profile is exp(-|w_perp|^2).
    """
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
    w_perp = samples * abs(skew)
    return ProfileTable(w_norm=samples, w_perp_norm=w_perp, ratio=vals,
                        gaussian=np.exp(-w_perp ** 2))


def decay_check(lift: PlanckianLift, hw: HalfWeight, x, ks: Sequence[int],
                threshold: float) -> asymptotics.DecayReport:
    """Super-polynomial decay report for |u_k(x)| at an off-loop point: it
    passes when the last dyad's log-log slope is below `threshold`.

    Points closer than DECAY_MIN_DISTANCE to the loop yield an inconclusive
    report rather than a verdict.
    """
    xv = as_point_array(x)
    dist = float(np.min(fs_distance(xv[None, :], lift.base.points)))
    admissible = [k for k in ks if k % lift.winding == 0]
    values = [abs(complex(BpuState(k, b, coeffs, lift).evaluate(xv[None, :])[0]))
              for k, (b, coeffs, _) in zip(admissible, _frame_moments(lift, hw, (), admissible))]
    report = asymptotics.superpoly_decay(list(zip(admissible, values)), threshold)
    if dist < DECAY_MIN_DISTANCE:
        return replace(report, passed=False, inconclusive=True)
    return report
