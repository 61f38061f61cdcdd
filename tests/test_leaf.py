from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpu_lab import geometry, leaf
from bpu_lab.errors import NowhereVanishingError, TubeStepError
from bpu_lab.fourier import grid_nodes, trapezoid
from bpu_lab.geometry import (
    foot_parameters,
    fs_inner,
    graph_loop,
    holonomy,
    horizontal_lift,
    latitude_loop,
    normal_frame,
)
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

from conftest import wavy_loop
from oracles import flow_all_circuits, gamma_fd, log_map


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
    moved, _ = flow_state(lift, hw, w, [t])[0]
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
    assert np.abs(lin - direct).max() < 1e-11


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("c", [0.05, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9])
def test_gamma_is_exact_on_latitudes(c, n):
    # A latitude moved normally stays a latitude: its half-density changes at
    # rate -(1 - 2c) / (4c(1 - c)) * f'.
    phi = grid_nodes(n)
    f = np.cos(2 * phi) + 0.4 * np.sin(3 * phi)
    df = -2.0 * np.sin(2 * phi) + 1.2 * np.cos(3 * phi)
    scale = 1.0 / (4.0 * c * (1.0 - c))
    gam = gamma_flow(latitude_loop(c, n), f)
    assert np.abs(gam + (1.0 - 2.0 * c) * scale * df).max() <= 1e-10 * scale * np.abs(df).max()


def test_gamma_matches_finite_difference_oracle_off_latitudes():
    f = np.cos(2 * PHI) + 0.4 * np.sin(3 * PHI)
    loops = [wavy_loop(0.3, N, seed=11, amplitude=0.08)]
    loops += [wavy_loop(c0=0.4 + 0.05 * seed, n=N, seed=seed) for seed in range(5)]
    for loop in loops:
        oracle = gamma_fd(loop, f)
        assert np.abs(gamma_flow(loop, f) - oracle).max() <= 1e-8 * np.abs(oracle).max()


# ---------------------------------------------------------------------------
# Isodrastic transport
# ---------------------------------------------------------------------------

def test_flow_path_identity_at_zero(equator_setup):
    loop, hw = equator_setup
    w = random_tangent(loop, hw, 4)
    new_lift, new_hw = flow_state(horizontal_lift(loop), hw, w, [0.0])[0]
    assert np.abs(new_lift.base.points - loop.points).max() < 1e-12
    assert np.abs(new_hw.s_lambda - hw.s_lambda).max() < 1e-10


def test_flow_preserves_holonomy_order(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(2 * PHI), np.zeros(N), hw)
    new_lift, _ = flow_state(horizontal_lift(loop), hw, w, [1e-3])[0]
    res = holonomy(new_lift.base)
    assert res.order == 2


def test_flow_mass_defect_is_quadratic(equator_setup):
    loop, hw = equator_setup
    w = project_constraints(loop, np.cos(2 * PHI), np.cos(PHI) * hw.s_lambda, hw)
    lift = horizontal_lift(loop)
    defects = {}
    for t in (1e-3, 5e-4):
        _, hw_t = flow_state(lift, hw, w, [t])[0]
        defects[t] = abs(hw_t.mass() - 1.0)
        _, hw_m = flow_state(lift, hw, w, [-t])[0]
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
        flow_state(horizontal_lift(loop), hw, w, [5.0])


def test_flow_stops_where_the_moved_loop_is_unresolved_or_a_node_focalizes():
    # The normal geodesics of a loop this curved focalize as near as 0.077.
    # Under sin(6 phi) the first nodes reach their focal points at
    # t = 0.011442, where the length D(theta) of the moved node circles
    # vanishes.  Before that the moved loop's spectral tail passes the bound
    # every lifted loop meets: 4e-10 at t = 1e-3, 1.1e-7 at 5e-3, 2.8e-6 at
    # 8e-3 and 2.0e-4 at 0.011.
    loop = graph_loop(0.5 + 0.05 * np.cos(6 * PHI))
    hw = HalfWeight.constant(loop)
    w = project_constraints(loop, np.sin(6 * PHI), np.zeros(N), hw)
    lift = horizontal_lift(loop)
    (near, _), = flow_state(lift, hw, w, [5e-3])
    assert 1e-8 < near.base.periodicity_residual() <= geometry.PERIODICITY_TOL
    for t in (8e-3, 0.011):
        with pytest.raises(TubeStepError, match=f"flow time {t} .* unresolved on {N} nodes"):
            flow_state(lift, hw, w, [5e-3, t])
    with pytest.raises(TubeStepError, match="focal point of its normal geodesic"):
        flow_state(lift, hw, w, [0.011, 0.0115])


@pytest.mark.parametrize("c", [0.5, 1 / 3])
def test_latitude_flow_stays_exact_far_past_the_pole_distance_quarter(c):
    # Out to half the distance to the nearer pole over max |a| (twice the
    # reach a quarter of that distance allowed), the moved latitude stays
    # resolved, Legendrian and of the same holonomy order.
    loop = latitude_loop(c, N)
    hw = HalfWeight.constant(loop)
    w = project_constraints(loop, np.cos(2 * PHI), np.zeros(N), hw)
    lift = horizontal_lift(loop)
    pole = np.arccos(np.sqrt(max(c, 1 - c))) / geometry.SQRT_PI
    t = 0.5 * pole / np.abs(hamiltonian_normal_components(loop, w.f)).max()
    for new_lift, _ in flow_state(lift, hw, w, [t, -t]):
        assert np.abs(new_lift.base.points - loop.points).max() > 0.1
        assert new_lift.base.periodicity_residual() <= 1e-12
        assert new_lift.legendrian_residual() <= 1e-11
        assert holonomy(new_lift.base).order == lift.winding


@pytest.mark.parametrize("c, r", [(1 / 3, 3), (3 / 7, 7)])
def test_moved_lift_is_legendrian_on_every_node_count(c, r):
    # r * N = 768 and 1792 nodes: with truncated mode numbers the moved
    # c = 1/3 lift read 1.2e-4, though node by node it is Legendrian to 7e-14.
    lift, hw, w = _latitude_state(c)
    new_lift, _ = flow_state(lift, hw, w, [1e-3])[0]
    assert new_lift.points.shape == (r * N, 2)
    assert new_lift.legendrian_residual() <= 1e-11


def _latitude_state(c):
    loop = latitude_loop(c, N)
    hw = HalfWeight.constant(loop)
    w = project_constraints(loop, np.cos(2 * PHI) + 0.3 * np.sin(PHI), np.cos(PHI) * hw.s_lambda, hw)
    return horizontal_lift(loop), hw, w


@pytest.mark.parametrize("c, r, t, tol", [(0.5, 2, 1e-3, 1e-13), (1 / 3, 3, 1e-3, 1e-13),
                                          (1 / 3, 3, 0.025, 1e-10)])
def test_flow_of_one_circuit_matches_all_circuit_oracle(c, r, t, tol):
    # One circuit moved in closed form and turned by the deck phases: the
    # same state as integrating all r*N nodes by RK4 and searching their feet
    # from scratch.  t = 0.025 takes 13 RK4 steps, off by their 2e-12
    # truncation error.
    lift, hw, w = _latitude_state(c)
    assert lift.winding == r
    new_lift, new_hw = flow_state(lift, hw, w, [t])[0]
    points, s_lambda = flow_all_circuits(lift, hw, w, t)
    assert np.abs(new_lift.points - points).max() <= tol
    assert np.abs(new_hw.s_lambda - s_lambda).max() <= tol


@pytest.mark.parametrize("c, t", [(0.5, 1e-3), (1 / 3, -1e-3), (1 / 3, 0.025)])
def test_flow_of_zero_f_moves_only_the_half_weight(c, t):
    # f = 0 has no Hamiltonian field and no fiber rate: the lift stays, and
    # the half-weight is lambda + t*ell on the same loop, as the oracle's is
    # to 1e-14.
    lift, hw, w = _latitude_state(c)
    w = LeafTangent(lift.base, np.zeros(N), w.s_ell)
    new_lift, new_hw = flow_state(lift, hw, w, [t])[0]
    assert new_lift is lift and new_hw.loop is lift.base
    assert np.array_equal(new_hw.s_lambda, hw.s_lambda + t * w.s_ell)
    points, s_lambda = flow_all_circuits(lift, hw, w, t)
    assert np.abs(new_lift.points - points).max() <= 1e-13
    assert np.abs(new_hw.s_lambda - s_lambda).max() <= 1e-13


def _varying_weight_state(loop):
    hw = HalfWeight.from_samples(loop, 1.0 + 0.3 * np.cos(loop.phi) + 0.1 * np.sin(3 * loop.phi))
    w = project_constraints(loop, np.cos(2 * loop.phi) + 0.3 * np.sin(loop.phi),
                            np.cos(loop.phi) * hw.s_lambda, hw)
    return horizontal_lift(loop), hw, w


FLOW_LOOPS = {"c=1/2": lambda n: latitude_loop(0.5, n), "c=1/3": lambda n: latitude_loop(1 / 3, n),
              "wavy": lambda n: wavy_loop(0.5, n, seed=1, amplitude=0.04)}


@pytest.mark.parametrize("name", sorted(FLOW_LOOPS))
def test_flow_returns_the_half_weight_at_time_zero(name):
    lift, hw, w = _varying_weight_state(FLOW_LOOPS[name](N))
    new_lift, new_hw = flow_state(lift, hw, w, [0.0])[0]
    assert np.abs(new_lift.points - lift.points).max() <= 1e-15
    assert np.abs(new_hw.s_lambda / hw.s_lambda - 1.0).max() <= 1e-14


@pytest.mark.parametrize("n, t", [(N, 1e-3), (N, -1e-3), (64, 0.025)])
@pytest.mark.parametrize("name", sorted(FLOW_LOOPS))
def test_flow_points_match_the_rk4_oracle(name, n, t):
    # The closed-form normal geodesics against RK4 on the Newton-projected
    # tube field, in steps of at most 5e-4.  The oracle's field carries the
    # (N/2)^2 eps rounding of its spectral L'' (7e-12 relative at N = 256),
    # which moves its nodes by 3e-13 at t = 0.025 however fine its steps, so
    # that time runs on 64 nodes.
    lift, hw, w = _varying_weight_state(FLOW_LOOPS[name](n))
    new_lift, _ = flow_state(lift, hw, w, [t])[0]
    points, _ = flow_all_circuits(lift, hw, w, t, max_step=5e-4)
    assert np.abs(new_lift.points - points).max() <= 1e-13


@pytest.mark.parametrize("c", [0.5, 1 / 3])
def test_flow_of_several_times_matches_one_time_each(c):
    # Each time moves the nodes by its own closed form, so the states of
    # several times agree with separate transports to rounding, in order.
    lift, hw, w = _latitude_state(c)
    ts = [1e-3, -1e-3, 5e-4, -5e-4]
    for (new_lift, new_hw), t in zip(flow_state(lift, hw, w, ts), ts, strict=True):
        one_lift, one_hw = flow_state(lift, hw, w, [t])[0]
        assert np.abs(new_lift.points - one_lift.points).max() <= 1e-14
        assert np.abs(new_hw.s_lambda - one_hw.s_lambda).max() <= 1e-12


@pytest.mark.parametrize("c", [0.5, 1 / 3])
def test_flow_keeps_the_deck_turns(c):
    lift, hw, w = _latitude_state(c)
    new_lift, _ = flow_state(lift, hw, w, [1e-3])[0]
    assert (new_lift.winding, new_lift.turns) == (lift.winding, lift.turns)
    assert np.array_equal(new_lift.points[:N], new_lift.circuit)
    assert np.abs(new_lift.circuit - lift.circuit).max() > 1e-4


def test_flow_keeps_each_node_foot_at_its_node():
    # The closed form's premise: the field is tangent to the level sets of
    # the foot parameter.  The flow of a non-latitude state leaves node j's
    # foot at phi_j, found here from the node of largest overlap.
    lift, hw, w = _latitude_state(1 / 3)
    lift, hw = flow_state(lift, hw, w, [1e-3])[0]
    loop = lift.base
    w = project_constraints(loop, np.cos(3 * PHI), np.sin(2 * PHI) * hw.s_lambda, hw)
    new_lift, _ = flow_state(lift, hw, w, [0.025])[0]
    assert np.abs(new_lift.base.points - loop.points).max() > 1e-3
    feet = foot_parameters(loop, new_lift.base.points)
    assert np.abs(np.angle(np.exp(1j * (feet - loop.phi)))).max() <= 1e-10


def test_foot_newton_refuses_the_antipodal_minimum(monkeypatch):
    # On a latitude phi_j + pi is stationary for |<L(phi), L(phi_j)>|^2 with
    # curvature +2c(1-c); seeded at that node, Newton must raise, not return it.
    loop = latitude_loop(1 / 3, N)
    seeds = (np.arange(N) + N // 2) % N
    with pytest.raises(TubeStepError, match="not at a maximum"):
        geometry._foot_newton(loop._interp_points, loop.points, seeds)
    monkeypatch.setattr(geometry, "_FOOT_CURVATURE", -np.inf)
    feet = geometry._foot_newton(loop._interp_points, loop.points, seeds)[0]
    assert np.abs(np.exp(1j * feet) + np.exp(1j * loop.phi)).max() < 1e-12
