from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpu_lab import leaf
from bpu_lab.errors import NowhereVanishingError, TubeStepError
from bpu_lab.fourier import grid_nodes, trapezoid
from bpu_lab.geometry import fs_inner, holonomy, horizontal_lift, latitude_loop, normal_frame
from bpu_lab.leaf import (
    HalfWeight,
    LeafTangent,
    WeightedTangent,
    flow_state,
    gamma_flow,
    hamiltonian_normal_components,
    j_map,
    metric_g,
    omega,
    omega_weinstein,
    project_constraints,
    psi_pushforward,
)

from oracles import log_map


N = 256
PHI = grid_nodes(N)


@pytest.fixture(scope="module")
def equator_setup():
    loop = latitude_loop(0.5, N)
    return loop, HalfWeight.constant(loop)


def random_tangent(loop, hw, seed):
    rng = np.random.default_rng(seed)
    f = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
            for m in rng.integers(1, 4, size=2))
    s = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
            for m in rng.integers(1, 4, size=2))
    return project_constraints(loop, f, s * hw.s_lambda, hw)


# ---------------------------------------------------------------------------
# Half-weights and constraints
# ---------------------------------------------------------------------------

def test_constant_halfweight_is_normalized(equator_setup):
    _, hw = equator_setup
    assert abs(hw.mass() - 1.0) < 1e-12
    assert hw.is_nowhere_vanishing()


def test_from_samples_normalizes(equator_setup):
    loop, _ = equator_setup
    hw = HalfWeight.from_samples(loop, 1.0 + 0.3 * np.cos(PHI))
    assert abs(hw.mass() - 1.0) < 1e-12


def test_project_constraints_leaves_pure_modes(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(PHI), np.sin(PHI) * hw.s_lambda, hw)
    assert np.abs(w.f - np.cos(PHI)).max() < 1e-12
    assert np.abs(w.s_ell - np.sin(PHI) * hw.s_lambda).max() < 1e-12


def test_project_constraints_removes_mean_and_lambda_part(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, 1.0 + np.cos(PHI), hw.s_lambda.copy(), hw)
    assert np.abs(w.f - np.cos(PHI)).max() < 1e-12
    assert np.abs(w.s_ell).max() < 1e-12
    assert max(w.constraint_residuals(hw)) < 1e-10


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------

def test_omega_reference_value(equator_setup):
    loop, hw = equator_setup
    w1 = LeafTangent(loop, np.cos(PHI), np.zeros(N))
    w2 = LeafTangent(loop, np.zeros(N), np.cos(PHI) * hw.s_lambda)
    assert omega(w1, w2, hw) == pytest.approx(1.0, abs=1e-12)


def test_metric_reference_value(equator_setup):
    loop, hw = equator_setup
    w = LeafTangent(loop, np.cos(PHI), np.zeros(N))
    assert metric_g(w, w, hw) == pytest.approx(1.0, abs=1e-12)


def test_omega_antisymmetric_g_symmetric(equator_setup):
    loop, hw = equator_setup
    for seed in range(5):
        w, wp = random_tangent(loop, hw, seed), random_tangent(loop, hw, seed + 100)
        assert omega(w, wp, hw) == pytest.approx(-omega(wp, w, hw), abs=1e-12)
        assert omega(w, w, hw) == pytest.approx(0.0, abs=1e-12)
        assert metric_g(w, wp, hw) == pytest.approx(metric_g(wp, w, hw), abs=1e-12)
        assert metric_g(w, w, hw) >= 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_omega_bilinear_under_scaling(scale):
    loop = latitude_loop(0.5, 64)
    hw = HalfWeight.constant(loop)
    phi = grid_nodes(64)
    w1 = LeafTangent(loop, np.cos(phi), np.zeros(64))
    w2 = LeafTangent(loop, np.zeros(64), np.cos(phi) * hw.s_lambda)
    scaled = LeafTangent(loop, scale * w1.f, scale * w1.s_ell)
    assert omega(scaled, w2, hw) == pytest.approx(scale * omega(w1, w2, hw), abs=1e-12)


def test_metric_vanishes_only_at_zero(equator_setup):
    loop, hw = equator_setup
    zero = LeafTangent(loop, np.zeros(N), np.zeros(N))
    assert metric_g(zero, zero, hw) == 0.0
    tiny = LeafTangent(loop, np.zeros(N), 1e-8 * hw.s_lambda * np.cos(PHI))
    assert metric_g(tiny, tiny, hw) > 0.0


# ---------------------------------------------------------------------------
# Almost complex structure and pushforward
# ---------------------------------------------------------------------------

def test_j_squares_to_minus_one(equator_setup):
    loop, hw = equator_setup
    for seed in range(5):
        w = random_tangent(loop, hw, seed)
        jjw = j_map(j_map(w, hw), hw)
        assert np.abs(jjw.f + w.f).max() < 1e-12
        assert np.abs(jjw.s_ell + w.s_ell).max() < 1e-12


def test_j_compatibility_links_omega_and_metric(equator_setup):
    loop, hw = equator_setup
    for seed in range(20):
        w, wp = random_tangent(loop, hw, seed), random_tangent(loop, hw, 1000 + seed)
        assert omega(w, j_map(wp, hw), hw) == pytest.approx(
            metric_g(w, wp, hw), abs=1e-9)


def test_j_preserves_constraints(equator_setup):
    loop, hw = equator_setup
    w = random_tangent(loop, hw, 3)
    assert max(j_map(w, hw).constraint_residuals(hw)) < 1e-10


def test_j_requires_nowhere_vanishing_weight(equator_setup):
    loop, _ = equator_setup
    vanishing = HalfWeight.from_samples(loop, np.cos(PHI))
    w = LeafTangent(loop, np.cos(PHI), np.zeros(N))
    with pytest.raises(NowhereVanishingError):
        j_map(w, vanishing)


def test_psi_pushforward_and_naturality(equator_setup):
    loop, hw = equator_setup
    w = random_tangent(loop, hw, 11)
    v = psi_pushforward(w, hw)
    assert abs(trapezoid(v.phi_density)) < 1e-10
    zero_ell = psi_pushforward(LeafTangent(loop, w.f, np.zeros(N)), hw)
    assert np.abs(zero_ell.phi_density).max() == 0.0
    for seed in range(5):
        a, b = random_tangent(loop, hw, seed), random_tangent(loop, hw, 50 + seed)
        assert omega(a, b, hw) == pytest.approx(
            omega_weinstein(psi_pushforward(a, hw), psi_pushforward(b, hw)), abs=1e-12)


def test_omega_weinstein_reference_value(equator_setup):
    loop, _ = equator_setup
    v1 = WeightedTangent(loop, np.cos(PHI), np.zeros(N))
    v2 = WeightedTangent(loop, np.zeros(N), 2.0 * np.cos(PHI) / (2.0 * np.pi))
    assert omega_weinstein(v1, v2) == pytest.approx(1.0, abs=1e-12)
    assert omega_weinstein(v1, v1) == 0.0


# ---------------------------------------------------------------------------
# Hamiltonian machinery
# ---------------------------------------------------------------------------

def test_normal_components_vanish_for_constant(equator_setup):
    loop, _ = equator_setup
    assert np.abs(hamiltonian_normal_components(loop, np.full(N, 2.7))).max() < 1e-12


def test_normal_components_mode_structure(equator_setup):
    loop, _ = equator_setup
    for m in (1, 2, 3):
        a = hamiltonian_normal_components(loop, np.cos(m * PHI))
        expected = m * np.sin(m * PHI) / (2.0 * np.pi * loop.speed)
        assert np.abs(a - expected).max() < 1e-10


def test_normal_components_linear(equator_setup):
    loop, _ = equator_setup
    f1, f2 = np.cos(PHI), np.sin(2 * PHI)
    combined = hamiltonian_normal_components(loop, f1 + f2)
    assert np.abs(combined - hamiltonian_normal_components(loop, f1)
                  - hamiltonian_normal_components(loop, f2)).max() < 1e-12


def test_normal_components_match_flow_displacement_oracle(equator_setup):
    loop, hw = equator_setup
    f = np.cos(2 * PHI)
    lift = horizontal_lift(loop)
    w = LeafTangent(loop, f, np.zeros(N))
    t = 1e-4
    moved, _ = flow_state(lift, hw, w, t)
    rate = fs_inner(log_map(loop.points, moved.base.points), normal_frame(loop)) / t
    a = hamiltonian_normal_components(loop, f)
    assert np.abs(rate - a).max() / np.abs(a).max() < 1e-6


def test_gamma_vanishes_for_zero_function(equator_setup):
    loop, _ = equator_setup
    assert np.abs(gamma_flow(loop, np.zeros(N))).max() < 1e-10


def test_gamma_vanishes_on_geodesic_equator(equator_setup):
    # The equator is a geodesic: its length density is stationary under any
    # normal displacement, so the derivative vanishes identically.
    loop, _ = equator_setup
    assert np.abs(gamma_flow(loop, np.cos(PHI))).max() < 1e-8


def test_gamma_nonzero_zero_mean_off_geodesic():
    loop = latitude_loop(1.0 / 3.0, N)
    gam = gamma_flow(loop, np.cos(PHI))
    mass = float(np.sum(gam * loop.speed)) * 2 * np.pi / N
    assert np.abs(gam).max() > 0.1
    assert abs(mass) < 1e-8


def test_gamma_linear():
    loop = latitude_loop(1.0 / 3.0, N)
    f1, f2 = np.cos(PHI), np.sin(2 * PHI)
    lin = gamma_flow(loop, 2.0 * f1 + 0.5 * f2)
    direct = 2.0 * gamma_flow(loop, f1) + 0.5 * gamma_flow(loop, f2)
    assert np.abs(lin - direct).max() < 1e-6


# ---------------------------------------------------------------------------
# Isodrastic transport
# ---------------------------------------------------------------------------

def test_flow_path_identity_at_zero(equator_setup):
    loop, hw = equator_setup
    w = random_tangent(loop, hw, 4)
    new_lift, new_hw = flow_state(horizontal_lift(loop), hw, w, 0.0)
    assert np.abs(new_lift.base.points - loop.points).max() < 1e-12
    assert np.abs(new_hw.s_lambda - hw.s_lambda).max() < 1e-10


def test_flow_preserves_holonomy_order(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(2 * PHI), np.zeros(N), hw)
    new_lift, _ = flow_state(horizontal_lift(loop), hw, w, 1e-3)
    res = holonomy(new_lift.base)
    assert res.order == 2


def test_flow_mass_defect_is_quadratic(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(2 * PHI), np.cos(PHI) * hw.s_lambda, hw)
    lift = horizontal_lift(loop)
    defects = {}
    for t in (1e-3, 5e-4):
        _, hw_t = flow_state(lift, hw, w, t)
        defects[t] = abs(hw_t.mass() - 1.0)
        _, hw_m = flow_state(lift, hw, w, -t)
        # quadratic defect: same sign and size under t -> -t
        assert abs(hw_m.mass() - 1.0) == pytest.approx(defects[t], rel=1e-2)
    assert defects[1e-3] / defects[5e-4] == pytest.approx(4.0, rel=5e-2)
    # and the magnitude matches the exact second-order coefficient
    ell_mass = float(np.sum(w.s_ell ** 2 * loop.speed)) * 2 * np.pi / N
    assert defects[1e-3] == pytest.approx(1e-6 * ell_mass, rel=1e-2)


def test_flow_rejects_large_steps(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(2 * PHI), np.zeros(N), hw)
    with pytest.raises(TubeStepError):
        flow_state(horizontal_lift(loop), hw, w, 5.0)


def test_halfweight_and_tangent_json_roundtrip(equator_setup):
    loop, hw = equator_setup
    # plain sample lists, the wire format of loops and section vectors
    assert json.loads(hw.to_json())["s_lambda"] == hw.s_lambda.tolist()
    back = HalfWeight.from_json(loop, hw.to_json())
    assert np.abs(back.s_lambda - hw.s_lambda).max() < 1e-15
    w = random_tangent(loop, hw, 17)
    back_w = LeafTangent.from_json(loop, w.to_json())
    assert np.abs(back_w.f - w.f).max() < 1e-15
    assert np.abs(back_w.s_ell - w.s_ell).max() < 1e-15
