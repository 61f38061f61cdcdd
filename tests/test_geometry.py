from __future__ import annotations

import math

import numpy as np
import pytest

from bpu_lab import fourier, geometry
from bpu_lab.errors import BohrSommerfeldError, ContractViolation, DomainError, TubeStepError
from bpu_lab.fourier import TrigInterpolator, grid_nodes, spectral_derivative, trapezoid
from bpu_lab.geometry import (
    BundlePoint,
    SpherePoint,
    foot_parameters,
    fs_distance,
    fs_inner,
    fs_norm,
    holonomy,
    horizontal_lift,
    latitude_loop,
    normal_frame,
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


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_keeps_top_mode_on_odd_grids(n, order):
    phi = grid_nodes(n)
    # Mode 3 is the top mode of both grids; cos 4phi is the Nyquist mode of n = 8.
    f = np.sin(3 * phi) + 0.5 * np.cos(2 * phi) + (0.25 * np.cos(4 * phi) if n == 8 else 0.0)
    df = (3.0 ** order * np.sin(3 * phi + order * np.pi / 2)
          + 0.5 * 2.0 ** order * np.cos(2 * phi + order * np.pi / 2))
    if n == 8:
        df = df + 0.25 * 4.0 ** order * np.cos(4 * phi + order * np.pi / 2)
    assert np.abs(spectral_derivative(f, order) - df).max() < 1e-12 * 4.0 ** order


def _trig_polynomial(n: int, real: bool, seed: int):
    """Samples of a trig polynomial with every mode of an n-node grid (for even
    n the Nyquist term b cos(n/2 phi)) and its long-double closed form."""
    rng = np.random.default_rng(seed)
    top = (n - 1) // 2
    modes = np.arange(-top, top + 1)
    shape = (modes.size,) if real else (modes.size, 2)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = rng.normal(size=shape[1:]) + (0.0 if real else 1j * rng.normal(size=shape[1:]))
    if real:
        a = 0.5 * (a + np.conj(a[::-1]))  # a_{-m} = conj(a_m)
    b = b * (n % 2 == 0)  # odd grids have no Nyquist term

    def closed_form(phi: np.ndarray, order: int) -> np.ndarray:
        phi = phi.astype(np.longdouble)[:, None]
        shift = order * np.arccos(np.longdouble(0.0))  # (i m)^p = |m|^p e^{i sgn(m) p pi/2}
        ang = phi * modes + np.sign(modes) * shift
        wave = np.abs(modes).astype(np.longdouble) ** order * (np.cos(ang) + 1j * np.sin(ang))
        nyq = (n / 2) ** order * np.cos(phi * (n / 2) + shift)
        return (wave @ a.reshape(modes.size, -1) + nyq * b.reshape(1, -1)).reshape(
            (-1,) + a.shape[1:]).astype(np.complex128)

    phi = grid_nodes(n)
    samples = closed_form(phi, 0)
    if real:
        samples = samples.real
    scale = [float(np.sum(np.abs(a)) * top ** p + np.sum(np.abs(b)) * (n / 2) ** p) for p in range(4)]
    return samples, closed_form, scale


@pytest.mark.parametrize("n", [7, 8, 256])
@pytest.mark.parametrize("real", [True, False])
def test_trig_interpolator_orders_match_closed_form(n, real):
    samples, closed_form, scale = _trig_polynomial(n, real, seed=n)
    interp = TrigInterpolator(samples)
    xs = np.concatenate([np.linspace(-9.0, -0.1, 13), np.linspace(2 * np.pi, 20.0, 13)])
    values = interp.derivative(xs, (0, 1, 2, 3))
    for order, got in enumerate(values):
        want = closed_form(xs, order)
        if real:
            assert np.isrealobj(got)
            want = want.real
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * scale[order]
        single = interp(xs) if order == 0 else interp.derivative(xs, order)
        assert np.abs(single - got).max() <= 1e-14 * scale[order]
    assert np.abs(interp(xs[3]) - values[0][3]).max() <= 1e-14 * scale[0]


def test_foot_projection_builds_one_basis_per_newton_step(monkeypatch):
    loop = latitude_loop(0.5, 64)
    off_node = loop.point_at(loop.phi + 0.3 * (2 * np.pi / loop.n))
    builds = []
    real_powers = fourier._powers
    monkeypatch.setattr(fourier, "_powers", lambda z, n: builds.append(n) or real_powers(z, n))
    # On the nodes the nearest-node seed is already the foot: one step.
    feet = foot_parameters(loop, loop.points)
    assert np.abs(np.exp(1j * feet) - np.exp(1j * loop.phi)).max() < 1e-12
    assert len(builds) == 1
    for steps in (1, 2):
        builds.clear()
        monkeypatch.setattr(geometry, "_FOOT_MAX_ITER", steps)
        with pytest.raises(TubeStepError):
            foot_parameters(loop, off_node)
        assert len(builds) == steps


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
    rotated_start = np.exp(0.9j) * loop.points[0]
    shifted = horizontal_lift(loop, start=rotated_start)
    assert np.abs(shifted.points - np.exp(0.9j) * base.points).max() < 1e-9


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
