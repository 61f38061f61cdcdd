"""Least-squares extraction of leading coefficients from half-power ladders.

Sampled sequences F(k) are fit to truncated expansions

    F(k) ~ c0 * k^alpha + c1 * k^(alpha - 1/2) + ... + c_{m-1} * k^(alpha - (m-1)/2)

on the top half of the sampled range, where the asymptotic regime lives.
Columns are normalized by powers of k_max; raw power bases are
catastrophically conditioned otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DomainError, IllConditionedFitError

__all__ = [
    "ExpansionFit",
    "LadderReport",
    "DecayReport",
    "fit_leading",
    "ladder_residual_check",
    "superpoly_decay",
]

_CONDITION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class ExpansionFit:
    alpha: float
    m: int
    coefficients: NDArray[np.float64]
    residual_norm: float
    condition: float

    @property
    def leading(self) -> float:
        return float(self.coefficients[0])


@dataclass(frozen=True)
class LadderReport:
    slope: float | None     # None where the remainder supports no slope estimate
    predicted: float
    consistent: bool        # residual decays at least as fast as the ladder term
    matches: bool           # |slope - predicted| within the band
    inconclusive: bool
    residual_scale: float


@dataclass(frozen=True, eq=False)
class DecayReport:
    ks: NDArray[np.float64]
    values: NDArray[np.float64]
    dyad_ks: NDArray[np.float64]
    slopes: NDArray[np.float64]
    passed: bool
    threshold: float
    inconclusive: bool


def _as_arrays(samples) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    pairs = list(samples)
    ks = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if np.any(np.diff(ks) <= 0.0):
        raise DomainError("sample abscissae must be distinct and increasing")
    return ks, ys


def _window_mask(ks: np.ndarray, needed: int) -> NDArray[np.bool_]:
    """Samples in the top half of the k-range, or all when too few are there."""
    mask = ks >= 0.5 * (ks[0] + ks[-1])
    if mask.sum() < needed:
        mask = np.ones(ks.size, dtype=bool)
    return mask


def fit_leading(samples, alpha: float, m: int) -> ExpansionFit:
    """Least squares on the half-power basis {k^(alpha - h/2)}, h < m.

    Returns the coefficients together with the actual misfit of those
    coefficients on the fitted samples and the basis condition estimate.
    """
    if m < 1:
        raise DomainError("need at least one expansion term")
    ks, ys = _as_arrays(samples)
    if ks.size < m + 2:
        raise DomainError(f"need at least {m + 2} samples for an {m}-term fit")
    mask = _window_mask(ks, m + 2)
    kw, yw = ks[mask], ys[mask]
    kmax = kw[-1]
    design = np.stack([(kw / kmax) ** (alpha - 0.5 * h) for h in range(m)], axis=1)
    condition = float(np.linalg.cond(design))
    if condition > _CONDITION_CAP:
        raise IllConditionedFitError(
            f"fit basis condition {condition:.3e}; enlarge the sampled k-range")
    beta, *_ = np.linalg.lstsq(design, yw, rcond=None)
    coefficients = beta * kmax ** -(alpha - 0.5 * np.arange(m))
    residual = float(np.linalg.norm(design @ beta - yw))
    return ExpansionFit(alpha=float(alpha), m=int(m), coefficients=coefficients,
                        residual_norm=residual, condition=condition)


def ladder_residual_check(samples, alpha: float, m: int,
                          band: float = 0.25, floor: float | None = None) -> LadderReport:
    """Check that the residual after m ladder terms shrinks like k^(alpha - m/2).

    The first m coefficients are estimated with four extra guard terms (the
    guards absorb the projection bias that a bare m-term fit would fold into
    the leading coefficients); the remainder is then examined over the top
    sampled dyad.  `consistent` certifies decay at least as fast as the
    predicted ladder term; `matches` additionally requires the two-sided
    band (individual ladder terms may vanish by symmetry, making the
    remainder decay faster than the generic prediction).
    """
    ks, ys = _as_arrays(samples)
    m_ref = min(m + 4, ks.size - 2)
    if m_ref < m:
        raise DomainError("not enough samples to stabilize the ladder fit")
    ref = fit_leading(samples, alpha, m_ref)
    partial = np.stack([ks ** (alpha - 0.5 * h) for h in range(m)], axis=1)
    residual = ys - partial @ ref.coefficients[:m]

    predicted = alpha - 0.5 * m
    dyad = ks >= 0.5 * ks[-1]
    # Anything at the level of the reference fit's own misfit per point is
    # numerical floor, not ladder structure.
    floor_eff = max(1e-11 * float(np.max(np.abs(ys))),
                    3.0 * ref.residual_norm / math.sqrt(max(ks.size, 1)),
                    floor if floor is not None else 0.0)
    usable = dyad & (np.abs(residual) > floor_eff)
    scale = float(np.max(np.abs(residual[dyad]))) if dyad.any() else 0.0
    # A genuine ladder term keeps one sign across the asymptotic dyad; an
    # oscillating remainder is projection noise (the expansion is already
    # exact at this depth), which supports no slope estimate.
    res_signs = np.sign(residual[usable])
    if usable.sum() < 2 or np.any(res_signs != res_signs[0]):
        return LadderReport(slope=None, predicted=predicted, consistent=True,
                            matches=False, inconclusive=True, residual_scale=scale)
    logk = np.log(ks[usable])
    logr = np.log(np.abs(residual[usable]))
    slope = float(np.polyfit(logk, logr, 1)[0])
    return LadderReport(
        slope=slope,
        predicted=predicted,
        consistent=bool(slope <= predicted + band),
        matches=bool(abs(slope - predicted) <= band),
        inconclusive=False,
        residual_scale=scale,
    )


def superpoly_decay(samples, threshold: float) -> DecayReport:
    """Per-dyad log-log slopes of a positive sequence; passes when the final
    dyad slope has dropped below the threshold."""
    ks, ys = _as_arrays(samples)
    if np.any(ys < 0.0):
        raise DomainError("decay samples must be nonnegative")
    dyad_ks, slopes = [], []
    for i, k in enumerate(ks):
        j = np.nonzero(np.isclose(ks, 2.0 * k, rtol=1e-9))[0]
        if j.size == 0 or ys[i] <= 0.0:
            continue
        dyad_ks.append(2.0 * k)
        slopes.append(math.log2(max(ys[j[0]], 1e-300) / ys[i]))
    if not slopes:
        return DecayReport(ks=ks, values=ys, dyad_ks=np.array([]), slopes=np.array([]),
                           passed=False, threshold=threshold, inconclusive=True)
    slopes_arr = np.asarray(slopes)
    return DecayReport(
        ks=ks,
        values=ys,
        dyad_ks=np.asarray(dyad_ks),
        slopes=slopes_arr,
        passed=bool(slopes_arr[-1] < threshold),
        threshold=threshold,
        inconclusive=False,
    )
