"""Level-k projections of half-weighted loop distributions and their
derivatives, orthogonalization, and projective-space pullbacks.

A half-weighted closed lift (P, lambda) defines the distributional pairing

    <delta_(P,lambda), gamma> = integral over P of S_lambda * gamma * dens_P,

whose projection onto the level-k space has coefficients
c_a = <delta, conj(s_a)> / ||s_a||^2: r times the first circuit's pairings
when the winding number r divides k, and exactly zero otherwise.

Each level is one `BpuState` from the kernel pass.  `pointwise_values`, the
one pointwise entry, evaluates u_k at points from its coefficients; the decay
and transverse-profile experiments read it and judge the values themselves.

Two derivative routes are cross-checked, both through the kernel: the
analytic pairing (function/half-density/transport/fiber terms, with the two
convention signs CONVENTION_SIGNS) and the geometric finite-difference
oracle, which pairs the Richardson-weighted states of `leaf.flow_state`.
Pullback forms are Schur complements of the Gram of u and its derivatives, over
||u||^2, and are independent of the global bundle measure scale.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import hardy
from .errors import ContractViolation, DomainError, OutsideAdmissibleSetError
from .fourier import TWO_PI, _powers
from .geometry import PlanckianLift, as_point_array, normal_frame
from .hardy import SectionBasis, _require_sphere_tangent
from .leaf import HalfWeight, LeafTangent, flow_state, gamma_flow, hamiltonian_normal_components

__all__ = [
    "CONVENTION_SIGNS",
    "C_OMEGA",
    "C_G",
    "FAMILY_MARGIN",
    "BAND_EPS",
    "FD_STEP",
    "BpuState",
    "bpu_map",
    "d_bpu",
    "fd_d_bpu",
    "fs_pullback",
    "f_integrand",
    "norm_sweep",
    "pointwise_values",
]

# Signs (sigma_theta, sigma_p) of the fiber and normal terms of the analytic
# derivative pairing, which the kernel applies when it runs, and the constants
# of the pullback limits Im/k^2 -> C_OMEGA * Omega and Re/k^2 -> C_G * G:
# fixed facts of the model, checked by `calibration` and theorem-check verdicts.
CONVENTION_SIGNS = (-1, +1)
C_OMEGA = -0.5
C_G = +0.5

# A node is in the kernel's second family where |z0| > |z1| (1 + FAMILY_MARGIN): far
# above rounding, so no latitude splits, and |rho|^a <= e^(FAMILY_MARGIN k) ~ 1.
# A level pairs the rows of its `_band`, leaving out under BAND_EPS of a node's weights.
FAMILY_MARGIN = 1e-12
BAND_EPS = 1e-24

# Flow time of the coarser central difference in fd_d_bpu.
FD_STEP = 1e-3


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BpuState:
    """Level-k projection u_k of the delta distribution of (P, lambda) in the
    monomial basis; only the kernel, `_level_moments`, builds one."""

    k: int
    sec_basis: SectionBasis
    coefficients: NDArray[np.complex128]

    @cached_property
    def norm_sq(self) -> float:
        """||u_k||^2; DomainError where the basis norms left the double range."""
        norm_sq = hardy.norm_sq(self.sec_basis, self.coefficients)
        if not math.isfinite(norm_sq):
            raise DomainError(f"level {self.k}: basis norms left the double range (norm_sq {norm_sq})")
        return norm_sq

    @cached_property
    def is_admissible(self) -> bool:
        """Where the projectivized map is defined: a coefficient survived the kernel's snap."""
        return bool(np.any(self.coefficients))


# ---------------------------------------------------------------------------
# Level-moment kernel: projection and derivative pairings
# ---------------------------------------------------------------------------

def _ratio_table(points: np.ndarray, rows: int):
    """Level-k monomials s_a = z0^a z1^(k-a) at points (M, 2) as o^b lead^(k-b) =
    rho^b lead^k: the row-contiguous (rows, M) table of rho^b, b < rows (rows - 1
    is the kernel's top band row), moduli factors (coarse, fine), the second
    family's mask, and lead.  Nodes with |z0| <= |z1| (1 + FAMILY_MARGIN) have
    lead = z1, o = z0 and b = a; the second family has lead = z0, o = z1 and
    b = k - a.  rho = o/lead is rounded once.  |rho|^(qB + i) = coarse[q] fine[:, i]
    for i < B = floor(sqrt(rows - 1)) + 1, the split of `_powers`, from
    long-double products of the unrounded |rho|."""
    second = np.abs(points[:, 0]) > np.abs(points[:, 1]) * (1.0 + FAMILY_MARGIN)
    lead = np.where(second, points[:, 0], points[:, 1])
    rho = np.where(second, points[:, 1], points[:, 0]).astype(np.clongdouble) / lead
    table = _powers(rho.astype(np.complex128), rows - 1)
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
    with p = min(|z0|^2, |z1|^2) in [p_min, p_max]: within t = sqrt(k ln(2/BAND_EPS)/2)
    of [k p_min, k p_max].  A node's weights |s_a|^2/||s_a||^2 are (k+1) binomial(k, p)
    in b over the bundle volume, so by Hoeffding's inequality the rows outside
    carry under BAND_EPS of them."""
    t = math.sqrt(k * math.log(2.0 / BAND_EPS) / 2.0)
    return max(0, math.floor(k * p_min - t)), min(k, math.floor(k * p_max + t))


def _level_moments(points: np.ndarray, amp: np.ndarray, normal: np.ndarray,
                   ks: Sequence[int], winding: int):
    """Level-moment kernel: for each k in ks, in order, the projection's
    `BpuState` and the (T, k+1) rows of d_bpu, the base terms plus the fiber
    and normal terms times the signs CONVENTION_SIGNS, read when the first
    level is computed; levels that `winding` does not divide get the deck
    rule's exact zeros, with no product.

    `points` (M, 2) on the sphere carry real amplitudes `amp` (M, 1 + 3T): the
    delta weights s_w, then per tangent the transport, fiber (per unit k) and
    half-density ones; `normal` (M, 2, T) holds the fields n_i = ups_i s_w, or
    is (M, 2, 0) for none.  Each pairing sums conj(s_a V / lead) over the nodes,
    with s_a = rho^b lead^k from one `_ratio_table` per pass.  By Euler's identity
    ds_a(n) = s_a (b n_o/o + (k - b) n_lead/lead), V is lead [s_w, transport +
    k (density + i sigma_theta fiber)] + k sigma_p [0, n_lead] and, per tangent,
    one column sigma_p (lead n_o/o - n_lead) whose product rows are multiplied
    by their index b and added to the tangent's column.  That column divides by
    o: a pass with normal fields raises DomainError at a node on a pole.
    lead^(k-1) is a running product along the sorted levels.  Per chunk of levels,
    whose blocks take an eighth of the table's bytes, and per node family, one
    product pairs the union of the levels' `_band` rows with all their V lead^(k-1);
    each level keeps its band, snapped against the moduli factors' bound (if it has
    delta weights), and divides only its nonzero pairings by its basis norms: valid
    in the range of `bpu_map`, and DomainError where derivative rows overflow.
    """
    if not all(isinstance(k, (int, np.integer)) and k > 0 for k in ks):
        raise DomainError(f"levels must be positive integers, got {list(ks)}")
    (m, t), (sigma_theta, sigma_p) = (len(points), (amp.shape[1] - 1) // 3), CONVENTION_SIGNS
    lattice, log_norms = [k for k in ks if k % winding == 0], hardy._log_norms(max([1, *ks]))
    p, k_max, snap = np.min(np.abs(points) ** 2, axis=1), max([1, *lattice]), np.any(amp[:, 0])
    table, (coarse, fine), second, lead = _ratio_table(points, _band(k_max, 0.0, p.max())[1] + 1)
    o = np.where(second, points[:, 1], points[:, 0])
    n_lead, n_o = (np.where(second[:, None], normal[:, j], normal[:, 1 - j]) for j in (0, 1))
    if n_lead.shape[1] and not np.all(o):
        raise DomainError("normal fields at a node on a pole: their pairing divides by min(|z0|, |z1|)")
    index = sigma_p * (lead[:, None] * n_o / o[:, None] - n_lead)
    head = np.hstack([lead[:, None] * amp[:, :1 + t], index])
    fiber = amp[:, 1 + 2 * t:] + 1j * sigma_theta * amp[:, 1 + t:1 + 2 * t]
    tail = np.hstack([0 * head[:, :1], lead[:, None] * fiber, 0 * index])  # V = head + k tail
    tail[:, 1:1 + index.shape[1]] += sigma_p * n_lead
    families = [(flip, nodes, p[nodes].min(), p[nodes].max())
                for flip, nodes in ((False, ~second), (True, second)) if np.any(nodes)]
    q, c, rest = fine.shape[1], head.shape[1], iter(ks)  # rest: ks, in step with the lattice levels
    at, scale, gap, power = 0, 1.0, 0, 1.0  # a running product: scale = lead^at, power = lead^gap

    def level(k, v=None, a_lo=0):  # v's nonzero pairings over the basis norms from row a_lo, else zeros
        b, rows = SectionBasis(int(k), log_norms(k)), np.zeros((1 + t, k + 1), dtype=complex)
        if v is not None:
            np.divide(v, b.norms_sq[a_lo:][:len(v[0])], out=rows[:, a_lo:a_lo + len(v[0])], where=v != 0)
            if t and not np.isfinite(rows[1:]).all():  # unsnapped, they overflow before u
                raise DomainError(f"level {k}: basis norms left the double range (derivative rows)")
        return BpuState(b.k, b, rows[0]), rows[1:]

    # A chunk's complex blocks, (N + 2 x table rows) x columns per level, take an eighth of the table.
    size = max(1, table.nbytes // (8 * 16 * c * (m + 2 * len(table))))
    for start in range(0, len(lattice), size):
        levels = sorted(set(lattice[start:start + size]))
        n, kk, ds = len(levels), np.array(levels)[:, None], [k - 1 for k in levels]
        scales = np.empty((n, m), dtype=complex)
        for i, d in enumerate(ds):
            at, scale = (at, scale) if d >= at else (0, 1.0)  # restarts below the held level
            gap, power = (gap, power) if d - at == gap else (d - at, _power(lead, d - at))
            at, scale = d, scale * power
            scales[i] = scale
        bands = [[_band(k, *f[2:]) for k in levels] for f in families]
        spans = [(k - hi, k - lo) if f[0] else (lo, hi)
                 for f, band in zip(families, bands) for (lo, hi), k in zip(band, levels)]
        a_lo = min(lo for lo, _ in spans)
        width = max(hi for _, hi in spans) + 1 - a_lo
        vals, bound = np.zeros((n, 1 + t, width), dtype=complex), np.zeros((n, width))
        for (flip, nodes, *_), band in zip(families, bands):
            lo_u, hi_u = min(lo for lo, _ in band), max(hi for _, hi in band)
            # One product per node family, summed over all N nodes of a row-contiguous
            # operand: BLAS sums a transposed view or a node subset in a thread-dependent order.
            w = head[:, None] + kk[None] * tail[:, None]  # V lead^(k-1) at the family's nodes
            w *= (scales.T * nodes[:, None])[:, :, None]
            g, w = (table[lo_u:hi_u + 1] @ w.reshape(m, -1)).reshape(-1, n, c), np.abs(w[:, :, 0])
            g[:, :, 1:1 + index.shape[1]] += np.arange(lo_u, hi_u + 1)[:, None, None] * g[:, :, 1 + t:]
            for i, ((lo, hi), k) in enumerate(zip(band, levels)):
                rows, step = (slice(k - hi - a_lo, k - lo + 1 - a_lo), -1) if flip else \
                    (slice(lo - a_lo, hi + 1 - a_lo), 1)
                vals[i, :, rows] += g[lo - lo_u:hi + 1 - lo_u, i, :1 + t][::step].T
                if snap:  # rows lo..hi of |table| @ w: rows b = qB + i of coarse @ (fine w)
                    bound[i, rows] += (coarse[lo // q:hi // q + 1] @ (fine * w[:, i:i + 1])).ravel()[
                        lo % q:][:hi + 1 - lo][::step]
            del g, w
        # Snap pairings below the quadrature floor of their no-cancellation bound.
        np.conjugate(vals, out=vals)
        vals[:, 0][np.abs(vals[:, 0]) <= 1e-10 * bound] = 0.0
        for k in lattice[start:start + size]:
            yield from map(level, itertools.takewhile(lambda j: j % winding, rest))  # consumes k
            yield level(k, vals[levels.index(k), :, :k + 1 - a_lo], a_lo)
        del vals  # no view of it outlives the chunk, so the next product reuses its memory
    yield from map(level, rest)


def _frame_moments(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
                   ks: Sequence[int]):
    """The level-moment kernel on a lift and a tangent frame, over the first
    circuit's N nodes: per k in ks, the `BpuState` and the (T, k+1) rows of d_bpu.
    Circuit q pairs at level k as the first one times e^{-2 pi i q k turns/r}, so
    the weights carry the factor r and the levels r does not divide are zeros."""
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
    yield from _level_moments(lift.circuit, amp, normal, ks, lift.winding)


def bpu_map(lift: PlanckianLift, hw: HalfWeight, k: int) -> BpuState:
    """Orthogonal projection of the half-weighted delta onto level k, the
    tangent-free case of the level-moment kernel.

    Levels the winding does not divide are exact zeros of the deck rule.
    Within a level, pairings below the quadrature floor (relative to their
    no-cancellation bound) are exact zeros of the rotational selection rule,
    snapped to zero and so never divided by the tiny mid-band basis norms,
    over which seam noise would masquerade as O(1e-3) coefficients.  The floor
    sits two orders above that noise: a pairing so small adds under 1e-19 to
    any norm or Gram quantity.
    Valid while the loop frequencies of the rows in the kernel's `_band` stay
    below N, the first circuit's nodes, not r*N (a latitude is alias-free while
    t(k) < N, to k ~ 2300 at N = 256; a general loop aliases from its frequency
    bound), and while norm_sq stays finite: a coefficient over a subnormal
    mid-band norm overflows, first at k = 1014 on c = 1/2 and 1104 on c = 1/3,
    and reading norm_sq there raises DomainError.
    """
    return next(_frame_moments(lift, hw, (), [k]))[0]


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
    rows and a warning; one whose rows overflow raises DomainError.
    """
    for k in ks:
        if k % lift.winding:
            warnings.warn(f"level {k} is not divisible by the winding {lift.winding}; "
                          "the projection is identically zero", stacklevel=2)
    return [rows for _, rows in _frame_moments(lift, hw, tangents, ks)]


def fd_d_bpu(lift: PlanckianLift, hw: HalfWeight, tangents: Sequence[LeafTangent],
             ks: Sequence[int]) -> list[NDArray[np.complex128]]:
    """Finite-difference ground truth for d_bpu via the contact transport.

    Each nonzero leg (f, 0), (0, ell) of a tangent is transported by one
    `flow_state` call to +-FD_STEP and +-FD_STEP/2.  One kernel pass per tangent
    pairs the states' delta weights times their Richardson coefficients
    (-1, 1, 8, -8)/(6 FD_STEP): the f leg's as transport weights on its circuits,
    the (0, ell) leg's, on the lift, summed as half-density weights that the
    kernel multiplies by k.  Row i at level k is d_f + k*d_ell, unsnapped and checked as in d_bpu.
    """
    loop, n, h, r_dphi = lift.base, lift.base.n, FD_STEP, lift.winding * TWO_PI / lift.base.n
    zero, times, coef = np.zeros(n), (h, -h, h / 2, -h / 2), np.array([-1.0, 1.0, 8.0, -8.0]) / (6 * h)
    out = [np.zeros((len(tangents), k + 1), dtype=np.complex128) for k in ks]
    for i, w in enumerate(tangents):
        moved, held = (flow_state(lift, hw, LeafTangent(loop, f, s), times) if np.any(f) or np.any(s) else []
                       for f, s in ((w.f, zero), (zero, w.s_ell)))
        if not (moved or held):
            continue
        # Each state's delta weights s_lambda speed r dphi, as in `_frame_moments`, times its coef.
        transport = [zero] + [c * s.s_lambda * m.base.speed * r_dphi for c, (m, s) in zip(coef, moved)]
        amp = np.zeros((n * len(transport), 4))  # delta, transport, fiber and half-density weights
        amp[:, 1] = np.concatenate(transport)
        amp[:n, 3] = r_dphi * loop.speed * sum(c * s.s_lambda for c, (_, s) in zip(coef, held))
        points, normal = np.vstack([lift.circuit] + [m.circuit for m, _ in moved]), np.zeros((len(amp), 2, 0))
        for rows, (_, du) in zip(out, _level_moments(points, amp, normal, ks, lift.winding)):
            rows[i] = du[0]
    return out


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------

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

    With u and the rescaled derivatives du_i of each level from one kernel pass,
    the Provost-Vallee form (<du_i, du_j> - <du_i, u><u, du_j>/<u, u>)/<u, u>:
    the Schur complement of M[0, 0] in the basis-norm Gram M of [u; du], over
    M[0, 0], made exactly Hermitian as (G + G^H)/2; shape (len(ks), T, T).  Real
    parts are metric values, imaginary parts symplectic ones; independent of the
    bundle measure scale and of the lift's starting phase.
    """
    forms = np.empty((len(ks), len(tangents), len(tangents)), dtype=np.complex128)
    for n, (u, rows) in enumerate(_frame_moments(lift, hw, tangents, ks)):
        if not u.is_admissible:
            raise OutsideAdmissibleSetError(
                f"projection vanishes at level {u.k}: (L, lambda) lies outside its domain")
        r = np.vstack([u.coefficients, rows])
        m = (np.conj(r) * u.sec_basis.norms_sq) @ r.T
        gram = (m[1:, 1:] - np.outer(m[1:, 0], m[0, 1:]) / m[0, 0]) / m[0, 0]
        forms[n] = 0.5 * (gram + gram.conj().T)
    return forms


def norm_sweep(lift: PlanckianLift, hw: HalfWeight, ks: Sequence[int]) -> list[dict]:
    """Table of squared norms over levels, with admissibility records, from
    one kernel pass; a non-finite norm_sq raises DomainError."""
    r = lift.winding
    return [{"k": int(u.k), "l": int(u.k // r) if u.k % r == 0 else 0, "r": r,
             "norm_sq": u.norm_sq, "admissible": u.is_admissible}
            for u, _ in _frame_moments(lift, hw, (), ks)]


def pointwise_values(lift: PlanckianLift, hw: HalfWeight, points,
                     ks: Sequence[int]) -> NDArray[np.complex128]:
    """Values u_k(x) of the level-k projections at the bundle points x, shape
    (len(ks), M) for M points: the monomials at x times the coefficients of
    each state from one kernel pass over all the levels.

    Rows of levels the winding does not divide are zeros.  Past the range of
    `bpu_map` the values are not finite: no norm is read, so none is named.
    """
    pts = np.atleast_2d(as_point_array(points))
    rows = [hardy.monomial_values(u.sec_basis, pts) @ u.coefficients
            for u, _ in _frame_moments(lift, hw, (), ks)]
    return np.array(rows, dtype=np.complex128).reshape(len(ks), len(pts))
