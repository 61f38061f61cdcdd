from __future__ import annotations

import math

import numpy as np
import pytest

from bpu_lab.errors import BohrSommerfeldError, ContractViolation, DomainError
from bpu_lab.fourier import TrigInterpolator, grid_nodes, spectral_derivative, trapezoid
from bpu_lab.geometry import (
    BundlePoint,
    SpherePoint,
    fs_distance,
    fs_inner,
    fs_norm,
    holonomy,
    horizontal_lift,
    latitude_loop,
    normal_frame,
    rotate_fiber,
    signed_area,
)

from conftest import wavy_loop
from oracles import polygonal_length


# ---------------------------------------------------------------------------
# Spectral utilities
# ---------------------------------------------------------------------------

def test_spectral_derivative_exact_on_trig():
    n = 64
    phi = grid_nodes(n)
    f = np.cos(5 * phi) + 0.3 * np.sin(11 * phi)
    df = -5 * np.sin(5 * phi) + 3.3 * np.cos(11 * phi)
    assert np.abs(spectral_derivative(f) - df).max() < 1e-12


def test_trig_interpolator_matches_off_grid():
    n = 64
    phi = grid_nodes(n)
    f = np.exp(np.cos(phi))  # analytic, spectrally resolved at n=64
    interp = TrigInterpolator(f)
    xs = np.linspace(0.1, 6.2, 17)
    assert np.abs(interp(xs) - np.exp(np.cos(xs))).max() < 1e-12
    assert np.abs(interp.derivative(xs) + np.sin(xs) * np.exp(np.cos(xs))).max() < 1e-10


def test_quadrature_grid_kills_pure_modes():
    phi = grid_nodes(64)
    for m in range(1, 32):
        assert abs(trapezoid(np.cos(m * phi))) < 1e-12


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def test_sphere_point_canonicalizes():
    p = SpherePoint(3.0, 4.0j)
    assert p.norm_defect() < 1e-12


def test_bundle_point_requires_unit_norm():
    with pytest.raises(DomainError):
        BundlePoint(1.0, 1.0)
    x = BundlePoint(1 / math.sqrt(2), 1j / math.sqrt(2))
    assert x.project().norm_defect() < 1e-12


# ---------------------------------------------------------------------------
# Latitude loops
# ---------------------------------------------------------------------------

def test_equator_length_matches_closed_form_and_polygonal_oracle():
    loop = latitude_loop(0.5, 64)
    closed_form = 2.0 * math.sqrt(math.pi) * math.sqrt(0.25)  # area-1 normalization
    assert loop.length == pytest.approx(closed_form, rel=1e-12)
    assert loop.length == pytest.approx(polygonal_length(loop.point_at), rel=1e-7)


def test_latitude_length_shrinks_toward_pole():
    lengths = [latitude_loop(c, 64).length for c in (0.5, 0.4, 0.25, 0.1, 0.02)]
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def test_equator_invariant_under_coordinate_swap():
    loop = latitude_loop(0.5, 64)
    swapped = loop.points[:, ::-1]
    # Same point set up to reparametrization: every swapped sample lies on the loop.
    d = fs_distance(swapped[:, None, :], loop.points[None, :, :])
    assert d.min(axis=1).max() < 1e-9


def test_latitude_domain_errors():
    with pytest.raises(DomainError):
        latitude_loop(0.0, 64)
    with pytest.raises(DomainError):
        latitude_loop(1.2, 64)
    with pytest.raises(DomainError):
        latitude_loop(0.5, 15)


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

def test_holonomy_of_half_latitude():
    res = holonomy(latitude_loop(0.5, 128))
    assert res.order == 2
    assert abs(res.phase - np.exp(1j * np.pi)) < 1e-10


def test_holonomy_of_third_latitude():
    res = holonomy(latitude_loop(1.0 / 3.0, 96))
    assert res.order == 3
    assert abs(res.phase - np.exp(2j * np.pi / 3.0)) < 1e-10


def test_holonomy_phase_equals_area_exponential_on_latitudes():
    for c in (0.2, 1.0 / 3.0, 0.71):
        res = holonomy(latitude_loop(c, 128))
        assert abs(res.phase - np.exp(2j * np.pi * c)) < 1e-10


def test_irrational_latitude_has_no_finite_order():
    res = holonomy(latitude_loop(1.0 / math.sqrt(2.0), 128))
    assert res.order is None


def test_holonomy_area_relation_on_random_loops():
    for seed in range(10):
        loop = wavy_loop(c0=0.45 + 0.02 * (seed % 3), n=256, seed=seed)
        area = signed_area(loop)
        res = holonomy(loop)
        assert abs(res.phase - np.exp(2j * np.pi * area)) < 1e-8


def test_signed_area_of_latitude_is_area_coordinate():
    for c in (0.3, 0.5, 0.8):
        assert signed_area(latitude_loop(c, 128)) == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# Horizontal lifts
# ---------------------------------------------------------------------------

def test_lift_of_equator_closes_after_two_circuits():
    loop = latitude_loop(0.5, 128)
    lift = horizontal_lift(loop)
    assert lift.winding == 2
    assert lift.legendrian_residual() < 1e-8
    # closure: node sequence is exactly periodic by construction; check the
    # wrap against one more integration step being the start point.
    assert np.linalg.norm(lift.points[0] - loop.points[0]) < 1e-12


def test_lift_equivariance_under_fiber_rotation():
    loop = latitude_loop(0.5, 64)
    base = horizontal_lift(loop)
    rotated_start = rotate_fiber(loop.points[0], 0.9)
    shifted = horizontal_lift(loop, start=rotated_start)
    assert np.abs(shifted.points - rotate_fiber(base.points, 0.9)).max() < 1e-9


def test_lift_rejects_infinite_holonomy():
    with pytest.raises(BohrSommerfeldError):
        horizontal_lift(latitude_loop(1.0 / math.sqrt(2.0), 64))


def test_lift_rejects_bad_start():
    loop = latitude_loop(0.5, 64)
    with pytest.raises(ContractViolation):
        horizontal_lift(loop, start=np.array([0.0 + 0j, 1.0 + 0j]))


def test_wavy_loop_lift_is_legendrian():
    loop = wavy_loop(c0=0.5, n=256, seed=3)
    lift = horizontal_lift(loop)
    assert lift.legendrian_residual() < 1e-8


# ---------------------------------------------------------------------------
# Normal frame
# ---------------------------------------------------------------------------

def test_normal_frame_orthonormal(equator):
    nf = normal_frame(equator)
    ut = equator.unit_tangents()
    assert np.abs(fs_inner(nf, ut)).max() < 1e-10
    assert np.abs(fs_norm(nf) - 1.0).max() < 1e-10


def test_equator_normal_points_along_latitude_gradient(equator):
    # Moving along the normal changes the area coordinate c = |z0|^2, not psi.
    from bpu_lab.geometry import exp_map
    nf = normal_frame(equator)
    moved = exp_map(equator.points, 0.05 * nf)
    dc = np.abs(moved[:, 0]) ** 2 - np.abs(equator.points[:, 0]) ** 2
    assert np.abs(dc).min() > 1e-4
    dpsi = np.angle(moved[:, 0] * np.conj(moved[:, 1])) - np.angle(
        equator.points[:, 0] * np.conj(equator.points[:, 1]))
    assert np.abs((dpsi + np.pi) % (2 * np.pi) - np.pi).max() < 1e-10


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_loop_json_roundtrip():
    from bpu_lab.geometry import LagrangianLoop
    loop = latitude_loop(0.25, 64)
    back = LagrangianLoop.from_json(loop.to_json())
    assert np.abs(back.points - loop.points).max() < 1e-15
    assert back.area_coordinate == 0.25


def test_lift_json_roundtrip():
    from bpu_lab.geometry import PlanckianLift
    loop = latitude_loop(1.0 / 3.0, 64)
    lift = horizontal_lift(loop)
    back = PlanckianLift.from_json(lift.to_json())
    assert back.winding == 3
    assert np.abs(back.points - lift.points).max() < 1e-15
    assert back.legendrian_residual() < 1e-8
    assert abs(back.holonomy_phase ** back.winding - 1.0) < 1e-10


def test_lift_holonomy_power_closes():
    for c, r in ((0.5, 2), (0.25, 4), (0.2, 5)):
        lift = horizontal_lift(latitude_loop(c, 128))
        assert lift.winding == r
        assert abs(lift.holonomy_phase ** r - 1.0) < 1e-10
