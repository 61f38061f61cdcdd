"""Checks of the pinned convention constants.

The two signs of the analytic derivative pairing (`bpu.CONVENTION_SIGNS`)
and the constants of the pullback limits (`bpu.C_OMEGA`, `bpu.C_G`) are
fixed facts of the model.  The checks here test them on a fixed reference
leaf against ground truth and raise IntegrationAccuracyError when a
measurement disagrees with the pinned value.  Every run makes the sign
check once and records it in its manifest; results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics, bpu
from .errors import IntegrationAccuracyError
from .geometry import horizontal_lift, latitude_loop
from .leaf import HalfWeight, metric_g, omega, project_constraints

__all__ = [
    "Calibration",
    "MeasuredConstants",
    "calibrated_signs",
    "measured_constants",
]

# The pinned sign pair must reproduce the finite-difference derivative to
# this relative error; every other pair is off by O(1).
SIGN_REL_TOL = 1e-6

# Reference leaf of both checks (the c = 1/2 latitude, winding 2); the signs
# are checked at level SIGN_LEVEL, the constants at k = 2, 4, ..., 2 * CONSTANT_L_MAX.
REFERENCE_C = 0.5
REFERENCE_N = 256
SIGN_LEVEL = 8
CONSTANT_L_MAX = 24

# Allowed relative distance of a measured pullback constant from its pinned
# value: the per-pair tolerance of the theorem check.
CONSTANT_REL_TOL = 0.03


@dataclass(frozen=True)
class Calibration:
    sigma_theta: int
    sigma_p: int
    fd_relative_error: float


@dataclass(frozen=True)
class MeasuredConstants:
    c_omega_raw: float
    c_g_raw: float


def _reference_leaf():
    """Half-area latitude with constant half-weight, the reference of both checks."""
    loop = latitude_loop(REFERENCE_C, REFERENCE_N)
    return loop, horizontal_lift(loop), HalfWeight.constant(loop)


def calibrated_signs() -> Calibration:
    """Check of the convention signs on the fixed reference experiment.

    Reference: the reference leaf at level SIGN_LEVEL with the function-only
    tangent f = cos(2*phi).  `bpu.d_bpu`, under the pinned signs, must match
    the Richardson-refined finite-difference derivative to relative error
    SIGN_REL_TOL; each of the other three sign pairs misses it by O(1).
    """
    loop, lift, hw = _reference_leaf()
    phi = loop.phi
    w = project_constraints(loop, np.cos(2.0 * phi), np.zeros(loop.n), hw)

    oracle = bpu.fd_d_bpu(lift, hw, [w], [SIGN_LEVEL])[0][0]
    scale = float(np.linalg.norm(oracle))
    if scale == 0.0:
        raise IntegrationAccuracyError("degenerate sign-calibration experiment")

    signs = bpu.CONVENTION_SIGNS
    err = float(np.linalg.norm(bpu.d_bpu(lift, hw, [w], [SIGN_LEVEL])[0][0] - oracle)) / scale
    if not err <= SIGN_REL_TOL:
        raise IntegrationAccuracyError(
            f"sign calibration: the pinned CONVENTION_SIGNS {signs} miss the "
            f"finite-difference derivative by {err:.3e} relative, above {SIGN_REL_TOL:g}")
    return Calibration(sigma_theta=signs[0], sigma_p=signs[1], fd_relative_error=err)


# No run calls this check: theorem-check judges its own fits against C_OMEGA
# and C_G.  It stays here while perfbench/tracer.py names it.
def measured_constants() -> MeasuredConstants:
    """Check of the leading constants of the pullback asymptotics.

    Fits Im(raw)/k^2 against the symplectic pairing and Re(raw)/k^2 against
    the metric pairing on reference mixed tangents of the reference leaf,
    over the levels k = 2, 4, ..., 2 * CONSTANT_L_MAX.  Each measured ratio
    must lie within CONSTANT_REL_TOL (relative) of its pinned value
    `bpu.C_OMEGA` or `bpu.C_G`.
    """
    loop, lift, hw = _reference_leaf()
    phi = loop.phi
    w = project_constraints(loop, np.cos(phi), np.cos(phi) * hw.s_lambda, hw)
    wp = project_constraints(loop, np.sin(phi), np.cos(phi) * hw.s_lambda, hw)

    omega_val = omega(w, wp, hw)
    g_val = metric_g(w, wp, hw)
    ks = [2 * l for l in range(1, CONSTANT_L_MAX + 1)]
    values = bpu.fs_pullback(lift, hw, [w, wp], ks)[:, 0, 1]
    im_fit = asymptotics.fit_leading(list(zip(ks, values.imag)), alpha=2.0, m=3)
    re_fit = asymptotics.fit_leading(list(zip(ks, values.real)), alpha=2.0, m=3)

    result = MeasuredConstants(c_omega_raw=im_fit.leading / omega_val,
                               c_g_raw=re_fit.leading / g_val)
    for name, raw, pinned in (("C_OMEGA", result.c_omega_raw, bpu.C_OMEGA),
                              ("C_G", result.c_g_raw, bpu.C_G)):
        if not abs(raw - pinned) <= CONSTANT_REL_TOL * abs(pinned):
            raise IntegrationAccuracyError(
                f"constant calibration: measured {raw!r} does not confirm the pinned "
                f"{name} = {pinned!r} within {CONSTANT_REL_TOL:g} relative")
    return result
