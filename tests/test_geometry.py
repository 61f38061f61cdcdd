from __future__ import annotations

import math

import numpy as np
import pytest

from bpu_lab import fourier, geometry, leaf
from bpu_lab.errors import BohrSommerfeldError, ContractViolation, DomainError, TubeStepError
from bpu_lab.fourier import TrigInterpolator, grid_nodes, spectral_derivative, trapezoid
from bpu_lab.geometry import (
    PlanckianLift,
    foot_parameters,
    fs_distance,
    fs_inner,
    fs_norm,
    graph_loop,
    holonomy,
    horizontal_lift,
    latitude_loop,
    normal_frame,
)

from conftest import wavy_loop
from oracles import exp_map, phase_path_rk4, point_at, polygonal_length, signed_area, trig_dense


# ---------------------------------------------------------------------------
# Spectral utilities
# ---------------------------------------------------------------------------

def test_spectral_derivative_exact_on_trig():
    n = 64
    phi = grid_nodes(n)
    f = np.cos(5 * phi) + 0.3 * np.sin(11 * phi)
    df = -5 * np.sin(5 * phi) + 3.3 * np.cos(11 * phi)
    assert np.abs(spectral_derivative(f) - df).max() < 1e-12


@pytest.mark.parametrize("n", [96, 384, 768])
def test_spectral_derivative_is_exact_for_every_mode_off_powers_of_two(n):
    # fftfreq(n) * n lands one ulp below some integers when n is not a power
    # of two; truncated, cos(7 phi) on 96 nodes differentiated as mode 6.
    phi = grid_nodes(n)
    m = np.arange(1, n // 2)
    got = spectral_derivative(np.cos(np.outer(phi, m)))
    assert np.array_equal(fourier.mode_numbers(n), np.rint(np.fft.fftfreq(n) * n))
    assert np.all(np.abs(got + m * np.sin(np.outer(phi, m))).max(axis=0) <= 1e-12 * m)


def test_trig_interpolator_matches_off_grid():
    n = 64
    phi = grid_nodes(n)
    f = np.exp(np.cos(phi))  # analytic, spectrally resolved at n=64
    interp = TrigInterpolator(f)
    xs = np.linspace(0.1, 6.2, 17)
    assert np.abs(interp(xs) - np.exp(np.cos(xs))).max() < 1e-12
    assert np.abs(interp.derivative(xs, (1,))[0] + np.sin(xs) * np.exp(np.cos(xs))).max() < 1e-10


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
        single = interp(xs) if order == 0 else interp.derivative(xs, (order,))[0]
        assert np.abs(single - got).max() <= 1e-14 * scale[order]
    assert np.abs(interp(xs[3]) - values[0][3]).max() <= 1e-14 * scale[0]


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("real", [True, False])
def test_node_table_matches_basis_evaluation_at_the_nodes(n, real):
    # At the nodes the series is its first term, the FFT node derivatives.
    # The samples carry every mode of the grid, the Nyquist term cos(n/2 phi)
    # included, whose odd derivatives vanish at the nodes.
    samples, _, _ = _trig_polynomial(n, real, seed=n + 1)
    interp = TrigInterpolator(samples)
    got_all = interp.derivative(grid_nodes(n), (0, 1, 2))
    # One table of orders 0..2, which no returned array aliases.
    assert interp._nodes.shape == (3,) + samples.shape
    assert not any(np.shares_memory(got, interp._nodes) for got in got_all)
    for got, want in zip(got_all, trig_dense(samples, grid_nodes(n), (0, 1, 2))):
        assert np.isrealobj(got) == real and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("reach", [5.3e-6, np.pi])
def test_taylor_series_matches_the_dense_sum(n, real, reach):
    # Offsets up to 5.3e-6 rad are where Newton's feet sit (t = 2e-2); up to
    # pi/N is the farthest any angle lies from its nearest node.  Smooth loop
    # samples are compared relative to the values; random node samples, whose
    # interpolant carries every mode of the grid (Nyquist included), relative
    # to their spectral scale sum |c_m| |m|^order.
    rng = np.random.default_rng(n)
    offsets = rng.uniform(-1.0, 1.0, 64) * (reach / n if reach == np.pi else reach)
    phi = grid_nodes(n)[rng.integers(0, n, 64)] + offsets
    points = wavy_loop(c0=0.5, n=n, seed=n).points
    smooth = (points[:, 1] * points[:, 0].conj()).real if real else points
    full = rng.normal(size=smooth.shape) + (0.0 if real else 1j * rng.normal(size=smooth.shape))
    spectrum = np.abs(np.fft.fft(full, axis=0)).T / n
    for samples, scale in ((smooth, None), (full, [spectrum @ np.abs(fourier.mode_numbers(n)) ** p
                                                   for p in range(4)])):
        got = TrigInterpolator(samples).derivative(phi, (0, 1, 2, 3))
        want = trig_dense(samples, phi, (0, 1, 2, 3))
        for order, (g, v) in enumerate(zip(got, want)):
            assert np.isrealobj(g) == real and g.shape == v.shape
            ref = np.abs(v).max() if scale is None else np.max(scale[order])
            assert np.abs(g - v).max() <= 1e-13 * ref


def _count_derivative_calls(monkeypatch) -> list:
    calls = []
    original = TrigInterpolator.derivative
    monkeypatch.setattr(TrigInterpolator, "derivative",
                        lambda self, phi, orders: calls.append(orders) or original(self, phi, orders))
    return calls


def test_foot_projection_builds_one_basis_per_newton_step(monkeypatch):
    # One interpolant evaluation per Newton step, of the orders (0, 1, 2).
    loop = latitude_loop(0.5, 64)
    off_node = point_at(loop, loop.phi + 0.3 * (2 * np.pi / loop.n))
    calls = _count_derivative_calls(monkeypatch)
    # On the nodes the nearest-node seed is already the foot: one step.
    feet = foot_parameters(loop, loop.points)
    assert np.abs(np.exp(1j * feet) - np.exp(1j * loop.phi)).max() < 1e-12
    assert calls == [(0, 1, 2)]
    for steps in (1, 2):
        calls.clear()
        monkeypatch.setattr(geometry, "_FOOT_MAX_ITER", steps)
        with pytest.raises(TubeStepError):
            foot_parameters(loop, off_node)
        assert calls == [(0, 1, 2)] * steps


def test_flow_state_runs_no_foot_newton_and_no_interpolant(monkeypatch):
    # Each node moves along its own normal geodesic in closed form, its foot
    # staying at its node: no Newton run and no off-node evaluation.
    loop = latitude_loop(1 / 3, 64)
    hw = leaf.HalfWeight.constant(loop)
    w = leaf.project_constraints(loop, np.cos(2 * loop.phi), np.sin(loop.phi) * hw.s_lambda, hw)
    lift = horizontal_lift(loop)
    runs = []
    real_newton = geometry._foot_newton
    monkeypatch.setattr(geometry, "_foot_newton", lambda *args: runs.append(args) or real_newton(*args))
    calls = _count_derivative_calls(monkeypatch)
    states = leaf.flow_state(lift, hw, w, [1e-3, -5e-4])
    assert all(np.abs(moved.circuit - lift.circuit).max() > 1e-5 for moved, _ in states)
    assert runs == [] and calls == []
    # The counters see a foot projection.
    foot_parameters(states[0][0].base, loop.points)
    assert len(runs) == 1 and calls


def test_quadrature_grid_kills_pure_modes():
    phi = grid_nodes(64)
    for m in range(1, 32):
        assert abs(trapezoid(np.cos(m * phi))) < 1e-12


# ---------------------------------------------------------------------------
# Latitude loops
# ---------------------------------------------------------------------------

def test_equator_length_matches_closed_form_and_polygonal_oracle():
    loop = latitude_loop(0.5, 64)
    closed_form = 2.0 * math.sqrt(math.pi) * math.sqrt(0.25)  # area-1 normalization
    assert loop.length == pytest.approx(closed_form, rel=1e-12)
    assert loop.length == pytest.approx(polygonal_length(lambda phi: point_at(loop, phi)), rel=1e-7)


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
    phi = grid_nodes(64)
    for area in (0.5 + 0.4995 * np.cos(phi), np.full(64, 5e-4)):
        with pytest.raises(DomainError, match="poles"):
            graph_loop(area)


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
        assert abs(res.phase - np.exp(2j * np.pi * area)) < 1e-12


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("c", [0.05, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9])
def test_latitude_phase_is_exact(c, n):
    # On |z0|^2 = c the connection rate Im<L, L'> is the constant 1 - c.
    chi = geometry._phase_path(latitude_loop(c, n))
    assert np.abs(chi + (1.0 - c) * np.linspace(0.0, 2.0 * np.pi, n + 1)).max() < 1e-14


def test_phase_matches_rk4_oracle_on_wavy_loops():
    for seed in range(5):
        loop = wavy_loop(c0=0.4 + 0.05 * seed, n=256, seed=seed)
        assert np.abs(geometry._phase_path(loop) - phase_path_rk4(loop)).max() < 1e-12


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


def test_lift_rejects_infinite_holonomy():
    with pytest.raises(BohrSommerfeldError):
        horizontal_lift(latitude_loop(1.0 / math.sqrt(2.0), 64))


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
    nf = normal_frame(equator)
    moved = exp_map(equator.points, 0.05 * nf)
    dc = np.abs(moved[:, 0]) ** 2 - np.abs(equator.points[:, 0]) ** 2
    assert np.abs(dc).min() > 1e-4
    dpsi = np.angle(moved[:, 0] * np.conj(moved[:, 1])) - np.angle(
        equator.points[:, 0] * np.conj(equator.points[:, 1]))
    assert np.abs((dpsi + np.pi) % (2 * np.pi) - np.pi).max() < 1e-10


def test_lift_holonomy_power_closes():
    for c, r in ((0.5, 2), (0.25, 4), (0.2, 5)):
        loop = latitude_loop(c, 128)
        assert horizontal_lift(loop).winding == r
        assert abs(holonomy(loop).phase ** r - 1.0) < 1e-10


@pytest.mark.parametrize("c, r", [(0.5, 2), (1.0 / 3.0, 3), (0.2, 5)])
def test_lift_circuits_are_deck_turns_of_the_first(c, r):
    loop = latitude_loop(c, 128)
    lift = horizontal_lift(loop)
    assert lift.winding == r and math.gcd(lift.turns, r) == 1
    deck = np.exp(2j * np.pi * lift.turns / r)
    assert abs(deck - holonomy(loop).phase) < 1e-10
    assert lift.points.shape == (r * 128, 2)
    for q in range(r):
        circuit = lift.points[q * 128:(q + 1) * 128]
        assert np.abs(circuit - deck ** q * lift.circuit).max() <= 8 * np.finfo(float).eps
    # The first circuit ends at the deck phase, so the r-fold samples stay
    # smooth across every seam.
    assert fourier.tail_fraction(lift.points) < 1e-12
    assert lift.legendrian_residual() < 1e-8


def test_lift_rejects_turns_that_do_not_close_after_the_winding():
    loop = latitude_loop(0.25, 64)
    lift = horizontal_lift(loop)
    assert (lift.winding, lift.turns % 4) in ((4, 1), (4, 3))
    for winding, turns in ((4, 2), (4, 0), (2, 4), (0, 1)):
        with pytest.raises(ContractViolation, match="coprime"):
            PlanckianLift(lift.circuit, loop, winding, turns)
    with pytest.raises(ContractViolation, match="first circuit"):
        PlanckianLift(lift.points, loop, 4, lift.turns)
