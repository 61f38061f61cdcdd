"""Acceptance suite: the package's exit criteria at desk scale.

Each test realizes one criterion at its stated tolerance and prints a
single PASS/FAIL line (run pytest with -s to see them inline).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from bpu_lab import asymptotics, bpu, hardy, leaf
from bpu_lab.experiments import TOLERANCES, ExperimentConfig, run_experiment
from bpu_lab.geometry import (
    fs_distance,
    holonomy,
    horizontal_lift,
    latitude_loop,
    normal_frame,
)
from bpu_lab.leaf import HalfWeight, flow_state, project_constraints

from conftest import wavy_loop
from oracles import delta_pair

N = 256
L_MAX = 40
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Admissible half-integer constants; the fitted pullback constant is snapped
# to the nearest one and must equal the value pinned in bpu.
SNAP_CANDIDATES = (1.0, -1.0, 0.5, -0.5, 2.0, -2.0)

# One line per criterion; echoed in the terminal summary by the conftest
# hook so the verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def report(name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def leaves():
    out = {}
    for c, r in ((0.5, 2), (1.0 / 3.0, 3)):
        loop = latitude_loop(c, N)
        lift = horizontal_lift(loop)
        hw = HalfWeight.constant(loop)
        assert lift.winding == r
        out[r] = (loop, lift, hw)
    return out


def spanning_pairs(loop, hw):
    """Five tangent pairs spanning function-only, half-density-only and
    mixed directions; returns (w, w', label) triples."""
    phi = loop.phi
    z = np.zeros(loop.n)

    def mk(f, s_rel):
        return project_constraints(loop, f, s_rel * hw.s_lambda, hw)

    a = mk(np.cos(2 * phi), z)
    b = mk(z, np.cos(phi))
    c1 = mk(np.cos(phi), np.cos(phi))
    c2 = mk(np.sin(phi), np.cos(phi))
    d1 = mk(np.cos(phi), z)
    d2 = mk(z, np.cos(phi))
    e1 = mk(np.cos(2 * phi), np.sin(phi))
    e2 = mk(np.sin(2 * phi), np.sin(phi))
    return [
        (a, a, "f-only"),
        (b, b, "ell-only"),
        (c1, c2, "mixed"),
        (d1, d2, "mixed f x ell"),
        (e1, e2, "mixed zero-omega"),
    ]


def pair_deviation(fitted: float, constant: float, target: float, scale: float) -> float:
    return abs(fitted - constant * target) / (abs(constant) * max(abs(target), 0.1 * scale))


# ---------------------------------------------------------------------------
# Criterion 1: norm expansion leading coefficient
# ---------------------------------------------------------------------------

def test_norm_expansion_leading_coefficient(leaves):
    worst = 0.0
    for r, (loop, lift, hw) in leaves.items():
        ks = [r * l for l in range(1, L_MAX + 1)]
        rows = bpu.norm_sweep(lift, hw, ks)
        fit = asymptotics.fit_leading([(row["k"], row["norm_sq"]) for row in rows],
                                      alpha=0.5, m=3)
        target = math.sqrt(2.0 / math.pi) * r * r
        worst = max(worst, abs(fit.leading / target - 1.0))
    ok = worst < 0.01
    assert report("norm-expansion", ok, f"max relative deviation {worst:.2e} < 1e-2")


# ---------------------------------------------------------------------------
# Criterion 2: vanishing off the divisibility lattice
# ---------------------------------------------------------------------------

def test_vanishing_off_lattice(leaves):
    # The kernel returns exact zeros off the lattice by the deck selection
    # rule; the all-node quadrature measures the cancellation behind it.
    worst, largest = 0.0, 0.0
    for r, (loop, lift, hw) in leaves.items():
        for k in range(1, 61):
            if k % r == 0:
                continue
            b = hardy.basis(k)
            pairings = delta_pair(lift, hw, lambda pts: np.conj(hardy.monomial_values(b, pts)))
            bound = delta_pair(lift, hw, lambda pts: np.abs(hardy.monomial_values(b, pts))).real
            worst = max(worst, float(np.max(np.abs(pairings) / bound)))
            largest = max(largest, float(np.abs(bpu.bpu_map(lift, hw, k).coefficients).max()))
    ok = worst <= 1e-10 and largest == 0.0
    assert report("lattice-vanishing", ok,
                  f"max off-lattice pairing {worst:.2e} of its bound <= 1e-10, "
                  f"largest coefficient {largest:.1e} == 0")


# ---------------------------------------------------------------------------
# Criterion 3: off-locus rapid decay
# ---------------------------------------------------------------------------

def test_rapid_decay_off_locus(leaves):
    loop, lift, hw = leaves[2]
    ks = list(range(2, 81, 2))
    points = [latitude_loop(0.90, 64).points[0],
              latitude_loop(0.88, 64).points[7],
              latitude_loop(0.92, 64).points[13]]
    final_slopes = []
    for x, values in zip(points, np.abs(bpu.pointwise_values(lift, hw, points, ks)).T):
        assert float(np.min(fs_distance(x[None, :], loop.points))) >= 0.2
        rep = asymptotics.superpoly_decay(list(zip(ks, values)), -10.0)
        assert rep.passed and not rep.inconclusive
        final_slopes.append(float(rep.slopes[-1]))
    ok = all(s < -10.0 for s in final_slopes)
    assert report("rapid-decay", ok,
                  f"final dyad slopes {[round(s, 1) for s in final_slopes]} all < -10 by k=80")


# ---------------------------------------------------------------------------
# Criterion 4: Gaussian transverse profile
# ---------------------------------------------------------------------------

def test_gaussian_transverse_profile(leaves):
    # |u_k| at the C^2 angle w/sqrt(k) from node 0 of the lift along the unit
    # normal turned by the node's fiber phase, against exp(-w^2).
    loop, lift, hw = leaves[2]
    w = np.linspace(0.0, 1.5, 16)
    normal = lift.phases[0] * normal_frame(loop)[0] / math.sqrt(math.pi)
    theta = w[:, None] / math.sqrt(80)
    values = np.abs(bpu.pointwise_values(lift, hw, np.cos(theta) * lift.points[0]
                                         + np.sin(theta) * normal, [80])[0])
    deviation = float(np.max(np.abs(values / values[0] - np.exp(-w ** 2))))
    ok = deviation < 0.02
    assert report("gaussian-profile", ok, f"max |ratio - exp(-w^2)| = {deviation:.2e} < 0.02")


# ---------------------------------------------------------------------------
# Criterion 5: derivative cross-check
# ---------------------------------------------------------------------------

def test_derivative_crosscheck(leaves):
    loop, lift, hw = leaves[2]
    phi = loop.phi
    rng = np.random.default_rng(2024)
    frame = []
    for _ in range(5):
        f = sum(rng.uniform(0.5, 1.5) * np.cos(m * phi + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 4, size=2))
        s = sum(rng.uniform(0.5, 1.5) * np.cos(m * phi + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 4, size=2))
        frame.append(project_constraints(loop, f, s * hw.s_lambda, hw))
    ks = (8, 16, 32)
    analytic = bpu.d_bpu(lift, hw, frame, ks)
    oracle = bpu.fd_d_bpu(lift, hw, frame, ks)
    worst = max(float(np.linalg.norm(a - o) / np.linalg.norm(o))
                for ana, fd in zip(analytic, oracle) for a, o in zip(ana, fd))
    ok = worst < 1e-3
    assert report("derivative-crosscheck", ok, f"worst relative vector error {worst:.2e} < 1e-3")


# ---------------------------------------------------------------------------
# Criteria 6 and 7: main asymptotic relation, symplectic and metric parts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pullback_data(leaves):
    data = []
    for r, (loop, lift, hw) in leaves.items():
        ks = [r * l for l in range(1, L_MAX + 1)]
        for w, wp, label in spanning_pairs(loop, hw):
            omega_target = leaf.omega(w, wp, hw)
            g_target = leaf.metric_g(w, wp, hw)
            scale = math.sqrt(leaf.metric_g(w, w, hw) * leaf.metric_g(wp, wp, hw))
            values = bpu.fs_pullback(lift, hw, [w, wp], ks)[:, 0, 1]
            data.append({
                "r": r, "label": label, "omega": omega_target, "g": g_target,
                "scale": scale,
                "im": list(zip(ks, values.imag)),
                "re": list(zip(ks, values.real)),
            })
    return data


def _constant_estimates(data, value_key, target_key):
    estimates = []
    for row in data:
        if abs(row[target_key]) > 0.5:
            fit = asymptotics.fit_leading(row[value_key], alpha=2.0, m=3)
            estimates.append(fit.leading / row[target_key])
    return estimates


def test_symplectic_part(pullback_data):
    estimates = _constant_estimates(pullback_data, "im", "omega")
    c_omega = min(SNAP_CANDIDATES, key=lambda c: abs(c - np.mean(estimates)))
    ok = c_omega == bpu.C_OMEGA
    worst_dev = 0.0
    ladder_ok = True
    for row in pullback_data:
        fit = asymptotics.fit_leading(row["im"], alpha=2.0, m=3)
        worst_dev = max(worst_dev, pair_deviation(fit.leading, c_omega,
                                                  row["omega"], row["scale"]))
        floor = 1e-10 * row["scale"] * max(k for k, _ in row["im"]) ** 2
        rep = asymptotics.ladder_residual_check(row["im"], alpha=2.0, m=1, floor=floor)
        ladder_ok = ladder_ok and (rep.consistent or rep.inconclusive)
    ok = ok and worst_dev < 0.03 and ladder_ok
    assert report("symplectic-part", ok,
                  f"c_omega={c_omega}, max pair deviation {worst_dev:.2e} < 3e-2, "
                  f"ladder {'ok' if ladder_ok else 'violated'}")


def test_metric_part(pullback_data):
    estimates = _constant_estimates(pullback_data, "re", "g")
    c_g = min(SNAP_CANDIDATES, key=lambda c: abs(c - np.mean(estimates)))
    ok = c_g == bpu.C_G
    worst_dev = 0.0
    ladder_ok = True
    for row in pullback_data:
        fit = asymptotics.fit_leading(row["re"], alpha=2.0, m=3)
        worst_dev = max(worst_dev, pair_deviation(fit.leading, c_g,
                                                  row["g"], row["scale"]))
        floor = 1e-10 * row["scale"] * max(k for k, _ in row["re"]) ** 2
        rep = asymptotics.ladder_residual_check(row["re"], alpha=2.0, m=1, floor=floor)
        ladder_ok = ladder_ok and (rep.consistent or rep.inconclusive)
    ok = ok and worst_dev < 0.03 and ladder_ok
    assert report("metric-part", ok,
                  f"c_g={c_g}, max pair deviation {worst_dev:.2e} < 3e-2, "
                  f"ladder {'ok' if ladder_ok else 'violated'}")


# ---------------------------------------------------------------------------
# Criterion 8: algebraic identity suite
# ---------------------------------------------------------------------------

def test_algebraic_identity_suite():
    tol = 1e-9
    rng = np.random.default_rng(99)
    worst = 0.0
    for loop in (latitude_loop(0.5, N), wavy_loop(0.5, N, seed=3, amplitude=0.04)):
        hw = HalfWeight.constant(loop)
        phi = loop.phi
        for _ in range(10):
            def draw():
                f = sum(rng.uniform(0.5, 1.5) * np.cos(m * phi + rng.uniform(0, 2 * np.pi))
                        for m in rng.integers(1, 4, size=2))
                s = sum(rng.uniform(0.5, 1.5) * np.cos(m * phi + rng.uniform(0, 2 * np.pi))
                        for m in rng.integers(1, 4, size=2))
                return project_constraints(loop, f, s * hw.s_lambda, hw)

            w, wp = draw(), draw()
            jw, jwp = leaf.j_map(w, hw), leaf.j_map(wp, hw)
            jjw = leaf.j_map(jw, hw)
            checks = [
                float(np.max(np.abs(jjw.f + w.f))),
                float(np.max(np.abs(jjw.s_ell + w.s_ell))),
                abs(leaf.omega(w, jwp, hw) - leaf.metric_g(w, wp, hw)),
                abs(leaf.omega(w, wp, hw)
                    - leaf.omega_weinstein(leaf.psi_pushforward(w, hw),
                                           leaf.psi_pushforward(wp, hw))),
                abs(leaf.omega(w, wp, hw) + leaf.omega(wp, w, hw)),
                abs(leaf.metric_g(w, wp, hw) - leaf.metric_g(wp, w, hw)),
                max(w.constraint_residuals(hw)),
                max(jw.constraint_residuals(hw)),
                abs(bpu.f_integrand(w, wp, hw) - np.conj(bpu.f_integrand(wp, w, hw))),
            ]
            worst = max(worst, max(checks))
    ok = worst < tol
    assert report("identity-suite", ok, f"worst identity defect {worst:.2e} < 1e-9")


# ---------------------------------------------------------------------------
# Criterion 9: isodrastic invariance of the holonomy order
# ---------------------------------------------------------------------------

def test_isodrastic_invariance_of_order():
    loop = latitude_loop(0.5, N)
    hw = HalfWeight.constant(loop)
    lift = horizontal_lift(loop)
    orders = []
    for _ in range(10):
        w = project_constraints(loop, np.cos(2 * loop.phi), np.zeros(loop.n), hw)
        lift, hw = flow_state(lift, hw, w, [1e-3])[0]
        loop = lift.base
        orders.append(holonomy(loop).order)
    ok = orders == [2] * 10
    assert report("isodrastic-invariance", ok, f"orders along 10 flow steps: {orders}")


# ---------------------------------------------------------------------------
# Criteria 10 and 11: shipped runs on c = 1/3 with a varying half-weight
# ---------------------------------------------------------------------------

def shipped_run(name: str):
    return run_experiment(ExperimentConfig.from_json((CONFIG_DIR / name).read_bytes()))


def test_theorem_check_off_the_equator_with_a_varying_halfweight():
    result = shipped_run("theorem_check_r3.json")
    worst = max(value for pair in result.fits["pairs"] for key, value in pair.items()
                if key.endswith("_deviation"))
    passed = sum(result.verdicts.values())
    ok = result.passed and worst < TOLERANCES["pair_rel"]
    assert report("theorem-check-r3", ok, f"{passed} of {len(result.verdicts)} verdicts pass, "
                  f"max pair deviation {worst:.2e} < {TOLERANCES['pair_rel']:.0e}")


def test_derivative_crosscheck_off_the_equator_with_a_varying_halfweight():
    result = shipped_run("derivative_crosscheck_r3.json")
    worst = result.fits["worst"]
    ok = result.passed and worst < TOLERANCES["fd_rel"]
    assert report("derivative-crosscheck-r3", ok,
                  f"worst relative vector error {worst:.2e} < {TOLERANCES['fd_rel']:.0e}")
