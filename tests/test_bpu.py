from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bpu_lab import asymptotics, bpu, hardy, leaf
from bpu_lab.bpu import (
    bpu_map,
    d_bpu,
    decay_check,
    f_integrand,
    fd_d_bpu,
    fs_pullback,
    norm_sweep,
    pointwise_profile,
    zk_orthogonalize,
)
from bpu_lab.errors import ContractViolation, DomainError, OutsideAdmissibleSetError
from bpu_lab.fourier import grid_nodes
from bpu_lab.geometry import PlanckianLift, horizontal_lift, latitude_loop, normal_frame
from bpu_lab.hardy import basis, monomial_values
from bpu_lab.leaf import HalfWeight, LeafTangent, flow_state, project_constraints

from conftest import wavy_loop
from oracles import (
    delta_pair,
    inner,
    latitude_norm_sq,
    lift_weights,
    monomial_derivative_oracle,
    polar_monomials,
)

N = 256
PHI = grid_nodes(N)


@pytest.fixture(scope="module")
def half_setup():
    loop = latitude_loop(0.5, N)
    lift = horizontal_lift(loop)
    return loop, lift, HalfWeight.constant(loop)


def constrained(loop, hw, f, s_rel):
    return project_constraints(loop, f, s_rel * hw.s_lambda, hw)


def conj_monomial(b, a):
    """Test section conj(s_a), as a function of bundle points."""
    return lambda pts: np.conj(monomial_values(b, pts)[:, a])


def d_pair(lift, hw, w, b, a):
    """Derivative of the delta pairing with conj(s_a) along (f, ell): by
    linearity, column a of the projected derivative along (f, ell/k), which
    d_bpu rescales to (f, ell), times ||s_a||^2."""
    w_k = LeafTangent(w.loop, w.f, w.s_ell / b.k)
    return complex(d_bpu(lift, hw, [w_k], [b.k])[0][0, a] * b.norms_sq[a])


def rows_in_every_band(pts, k):
    """Mask of the rows P[a], a < k, that every node family of the kernel pairs at level k."""
    second, p = bpu._ratio_table(pts, 1)[2], np.min(np.abs(pts) ** 2, axis=1)
    inside = np.ones(k, dtype=bool)
    for nodes, flip in ((~second, False), (second, True)):
        if np.any(nodes):
            lo, hi = bpu._band(k, p[nodes].min(), p[nodes].max())
            rows = (np.arange(k) >= lo) & (np.arange(k) <= hi)
            inside &= rows[::-1] if flip else rows
    return inside


def bundle_norm_sq(pairings, norms_sq):
    """Squared bundle norm of the section whose pairings with the s_a are these."""
    return float(np.sum(np.abs(pairings) ** 2 / norms_sq))


# ---------------------------------------------------------------------------
# Delta pairing and projection
# ---------------------------------------------------------------------------

def test_delta_pair_rotational_selection(half_setup):
    _, lift, hw = half_setup
    b = basis(2)
    vals = [abs(delta_pair(lift, hw, conj_monomial(b, a))) for a in range(3)]
    assert vals[1] > 0.1
    assert vals[0] < 1e-12 and vals[2] < 1e-12


def test_delta_pair_zero_section_and_linearity(half_setup):
    _, lift, hw = half_setup
    assert delta_pair(lift, hw, lambda pts: np.zeros(len(pts))) == 0.0
    b = basis(4)
    s2 = conj_monomial(b, 2)
    combo = delta_pair(lift, hw, lambda pts: 2.0 * s2(pts) + 3j * s2(pts))
    assert combo == pytest.approx((2.0 + 3j) * delta_pair(lift, hw, s2), rel=1e-12)


def test_bpu_vanishes_off_divisibility_lattice(half_setup):
    _, lift, hw = half_setup
    for k in (1, 3, 7, 15):
        state = bpu_map(lift, hw, k)
        assert np.abs(state.coefficients).max() < 1e-11
        assert not state.is_admissible


def test_array_holding_states_compare_and_hash_by_identity(half_setup):
    # A field-wise == would compare arrays (ValueError) and a field-wise
    # hash would hash them (TypeError); both classes use object identity.
    loop, lift, hw = half_setup
    state = bpu_map(lift, hw, 4)
    for obj, twin in ((hw, HalfWeight(loop, hw.s_lambda)),
                      (state, bpu.BpuState(state.k, state.sec_basis, state.coefficients, lift))):
        assert obj == obj and obj != twin
        assert hash(obj) == object.__hash__(obj)
        assert len({obj, twin}) == 2


def test_bpu_single_coefficient_at_matching_weight(half_setup):
    _, lift, hw = half_setup
    state = bpu_map(lift, hw, 4)
    mags = np.abs(state.coefficients)
    assert mags[2] > 1.0  # index equals k * c = 2
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert mags[mask].max() < 1e-12


@pytest.mark.parametrize("setup, c", [("half_setup", 0.5), ("third_setup", 1.0 / 3.0)])
def test_single_coefficient_below_the_alias_bound(request, setup, c):
    # The r-fold lift repeats the N base nodes, so the trapezoid rule aliases
    # once a frequency a - c*k of a paired row reaches N in modulus.  The
    # kernel pairs only the rows of its band, |a - c*k| <= t(k) + 1, so the
    # bound t(k) = N lies far above the last finite level (k = 1012 at
    # c = 1/2, 1020 at c = 1/3), and far above k*max(c, 1-c) = N.
    _, lift, hw = request.getfixturevalue(setup)
    top = {0.5: 1012, 1.0 / 3.0: 1020}[c]  # the last finite levels
    ks = list(range(lift.winding, top + 1, lift.winding))
    for k, (_, coeffs, _) in zip(ks, bpu._frame_moments(lift, hw, (), ks)):
        assert np.flatnonzero(coeffs).tolist() == [round(c * k)], k


def test_projectivization_phase_invariance(half_setup):
    _, lift, hw = half_setup
    state = bpu_map(lift, hw, 8)
    turned = PlanckianLift(np.exp(0.37j) * lift.circuit, lift.base, lift.winding, lift.turns)
    rotated = bpu_map(turned, hw, 8)
    b = state.sec_basis
    overlap = abs(inner(b, state.coefficients, rotated.coefficients))
    assert overlap / math.sqrt(state.norm_sq * rotated.norm_sq) == pytest.approx(1.0, abs=1e-10)


def test_norm_sweep_positive_and_admissible(half_setup):
    _, lift, hw = half_setup
    rows = norm_sweep(lift, hw, [2, 4, 8, 16])
    assert all(row["norm_sq"] > 0 for row in rows)
    assert all(row["admissible"] for row in rows)


@pytest.fixture(scope="module")
def third_setup():
    loop = latitude_loop(1.0 / 3.0, N)
    lift = horizontal_lift(loop)
    assert lift.winding == 3
    return loop, lift, HalfWeight.constant(loop)


@pytest.fixture(scope="module")
def two_thirds_setup():
    # Every node has |z0| > |z1|: the kernel reads only the second node family.
    loop = latitude_loop(2.0 / 3.0, N)
    lift = horizontal_lift(loop)
    assert lift.winding == 3
    return loop, lift, HalfWeight.constant(loop)


@pytest.mark.parametrize("setup, ks", [("half_setup", (2, 8, 40, 160)),
                                       ("third_setup", (3, 9, 60, 300))])
def test_projection_pairings_match_delta_pair_quadrature(request, setup, ks):
    # The kept pairing is r times the first circuit's sum, here with
    # long-double monomials: the stored later circuits carry the deck
    # phase's rounding, which the degree-k monomials multiply by k.
    _, lift, hw = request.getfixturevalue(setup)
    r, weights = lift.winding, lift_weights(lift, hw)[:N].astype(np.longdouble)
    for k in ks:
        state = bpu_map(lift, hw, k)
        pairings = state.coefficients * state.sec_basis.norms_sq
        b = basis(k)
        re, im = (r * (weights @ part) for part in polar_monomials(lift.circuit, k))
        kept = pairings != 0.0
        assert np.count_nonzero(kept) == 1
        gap = np.hypot(pairings[kept].real - re[kept], pairings[kept].imag + im[kept])
        assert float(gap[0]) <= 1e-13 * float(np.hypot(re[kept], im[kept])[0]), k
        # The snapped pairings are seam noise under the floor of the selection rule.
        quadrature = delta_pair(lift, hw, lambda pts: np.conj(monomial_values(b, pts)))
        bound = delta_pair(lift, hw, lambda pts: np.abs(monomial_values(b, pts))).real
        assert np.all(np.abs(quadrature[~kept]) <= 1e-10 * bound[~kept])


@pytest.mark.parametrize("setup, c", [("half_setup", 0.5), ("third_setup", 1.0 / 3.0),
                                      ("two_thirds_setup", 2.0 / 3.0)])
def test_latitude_norm_matches_exact_oracle_up_to_k600(request, setup, c):
    _, lift, hw = request.getfixturevalue(setup)
    r = lift.winding
    ks = sorted({r * round(x) for x in np.geomspace(1, 600 // r, 24)})
    assert ks[-1] == 600
    for k in ks:
        exact = latitude_norm_sq(lift, hw, c, k)
        assert bpu_map(lift, hw, k).norm_sq == pytest.approx(exact, rel=1e-11), k


def test_norm_sweep_over_the_ladder_matches_exact_oracle(third_setup):
    _, lift, hw = third_setup
    ks = list(range(3, 601, 3))
    rows = norm_sweep(lift, hw, ks)
    assert [row["k"] for row in rows] == ks
    for row in rows:
        exact = latitude_norm_sq(lift, hw, 1.0 / 3.0, row["k"])
        assert row["norm_sq"] == pytest.approx(exact, rel=1e-11), row["k"]
    # The sweep's ratio table times lead^599 gives the monomials of degree 599
    # that level 600 reads, and the products of its two moduli factors their moduli.
    table, (coarse, fine), second, lead = bpu._ratio_table(lift.points, ks[-1])
    m = len(lift.points)
    assert coarse.shape == (599 // 25 + 1, m) and fine.shape == (m, 25)
    mods = (coarse[:, None, :] * fine.T[None, :, :]).reshape(-1, m)[:600]
    rows, scale = np.where(second, table[::-1], table), bpu._power(lead, 599)
    re, im = (part.T for part in polar_monomials(lift.points, 599))
    mag = np.hypot(re, im)
    assert np.all(np.hypot((rows * scale).real - re, (rows * scale).imag - im) <= 1e-13 * mag)
    mods = np.where(second, mods[::-1], mods) * np.abs(scale)
    assert np.all(np.abs(mods - mag) <= 1e-13 * mag)


def test_mixed_node_families_match_long_double_quadrature():
    # The perturbed loop crosses |z0| = |z1|: every level's product holds both
    # node families, and the second one reads the table's rows reversed.
    loop = wavy_loop(0.5, N, seed=1, amplitude=0.04)
    lift = horizontal_lift(loop)
    hw = HalfWeight.constant(loop)
    second = bpu._ratio_table(lift.circuit, 1)[2]
    assert sorted([np.count_nonzero(second), np.count_nonzero(~second)]) == [115, 141]
    r, weights = lift.winding, lift_weights(lift, hw)[:N].astype(np.longdouble)
    for k in (2, 40, 160, 300):
        state = bpu_map(lift, hw, k)
        pairings = state.coefficients * state.sec_basis.norms_sq
        re, im = (r * (weights @ part) for part in polar_monomials(lift.circuit, k))
        bound = r * (weights @ np.hypot(*polar_monomials(lift.circuit, k)))
        rows = rows_in_every_band(lift.circuit, k)
        inside = np.append(rows, rows[-1])  # s_k = z0 P[k-1]
        kept = pairings != 0.0
        gap = np.hypot(pairings.real - re, pairings.imag + im)
        assert np.all(gap[kept & inside] <= 1e-14 * bound[kept & inside]), k
        # High levels snap the pairings far out in the band, under their floor.
        assert np.all(np.hypot(re, im)[~kept & inside] <= 1e-10 * bound[~kept & inside]), k
        # A row outside some family's band drops that family's share: tiny in the bundle norm.
        exact, norms_sq = (re - 1j * im).astype(np.complex128), state.sec_basis.norms_sq
        outside = bundle_norm_sq((pairings - exact)[~inside], norms_sq[~inside])
        assert outside <= 1e-13 ** 2 * bundle_norm_sq(exact, norms_sq), k
        assert k < 160 or not inside.all()


@pytest.mark.parametrize("c, ks", [(None, (2, 40, 160, 300)), (1.0 / 3.0, (600,))])
def test_snap_bound_factors_match_the_dense_moduli_bound(monkeypatch, c, ks):
    # c = None is the wavy loop, whose nodes fall in both families.
    loop = wavy_loop(0.5, N, seed=1, amplitude=0.04) if c is None else latitude_loop(c, N)
    lift = horizontal_lift(loop)
    hw = HalfWeight.constant(loop)
    table, (coarse, fine), second, lead = bpu._ratio_table(lift.circuit, max(ks))
    s_w = lift_weights(lift, hw)[:N] * lift.winding
    for k in ks:
        for family in (second, ~second):
            w = np.where(family, np.abs(bpu._power(lead, k - 1) * s_w), 0.0)
            dense = np.abs(table[:k]) @ w
            factored = (coarse[:-(-k // fine.shape[1])] @ (fine * w[:, None])).ravel()[:k]
            assert np.all(np.abs(factored - dense) <= 1e-13 * dense), k
    # With the dense moduli as its one factor the kernel returns the same coefficients.
    states = [bpu_map(lift, hw, k) for k in ks]
    real_table = bpu._ratio_table

    def dense_moduli(pts, rows):
        table, _, second, lead = real_table(pts, rows)
        return table, (np.abs(table), np.ones((len(pts), 1))), second, lead

    monkeypatch.setattr(bpu, "_ratio_table", dense_moduli)
    for k, state in zip(ks, states):
        assert np.array_equal(bpu_map(lift, hw, k).coefficients, state.coefficients), k


def test_latitude_nodes_fall_in_one_family(half_setup, two_thirds_setup):
    # On c = 1/2 rounding alone puts 45 nodes on the far side of |z0| = |z1|;
    # FAMILY_MARGIN keeps them all in the first family.
    circuit = half_setup[1].circuit
    assert np.count_nonzero(np.abs(circuit[:, 0]) > np.abs(circuit[:, 1])) == 45
    assert not np.any(bpu._ratio_table(circuit, 1)[2])
    assert np.all(bpu._ratio_table(two_thirds_setup[1].circuit, 1)[2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("setup, ks, kinds", [
    ("half_setup", [1012, 1014, 1024], ["finite", "inf", "nan"]),
    ("third_setup", [1020, 1023], ["finite", "nan"])])
def test_first_non_finite_norm_levels(request, setup, ks, kinds):
    # The mid-band basis norms near the subnormal range (see `bpu_map`).
    _, lift, hw = request.getfixturevalue(setup)
    values = [row["norm_sq"] for row in norm_sweep(lift, hw, ks)]
    assert ["nan" if np.isnan(x) else "inf" if np.isinf(x) else "finite" for x in values] == kinds


def test_norm_sweep_over_the_ladder_stays_near_the_ratio_table(third_setup):
    # The benchmark's ladder: the (600, N) complex table of rho^a is the
    # kernel's one large array; its moduli come from two short tables.
    _, lift, hw = third_setup
    tracemalloc.start()
    try:
        norm_sweep(lift, hw, list(range(3, 601, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 600 * N * 16


def test_kernel_restarts_below_the_held_level(half_setup):
    loop, lift, hw = half_setup
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(2 * PHI), np.zeros(N))]
    ks = [32, 8, 8, 2, 16]
    for rows, k in zip(d_bpu(lift, hw, frame, ks), ks):
        single = d_bpu(lift, hw, frame, [k])[0]
        assert np.linalg.norm(rows - single) <= 1e-13 * np.linalg.norm(single), k
    sweep = norm_sweep(lift, hw, ks)
    assert [row["norm_sq"] for row in sweep] == pytest.approx(
        [bpu_map(lift, hw, k).norm_sq for k in ks], rel=1e-13)
    # An empty level list never reaches max([]).
    amp = np.ones((N, 1 + 3 * len(frame)))
    assert list(bpu._level_moments(lift.circuit, amp, np.zeros((N, 2, len(frame))), [])) == []
    assert d_bpu(lift, hw, frame, []) == [] and norm_sweep(lift, hw, []) == []


# ---------------------------------------------------------------------------
# Pointwise structure
# ---------------------------------------------------------------------------

def test_profile_at_origin_and_tangent(half_setup):
    loop, lift, hw = half_setup
    state = bpu_map(lift, hw, 80)
    x = lift.points[0]
    table = pointwise_profile(state, x, normal_frame(loop)[0], samples=np.array([0.0, 1.0]))
    assert table.ratio[0] == pytest.approx(1.0, abs=1e-12)
    assert table.ratio[1] == pytest.approx(math.exp(-1.0), rel=2e-2)
    tangent = pointwise_profile(state, x, loop.unit_tangents()[0],
                                samples=np.array([0.0, 1.0, 1.5]))
    assert np.abs(tangent.ratio - 1.0).max() < 1e-10
    assert np.abs(tangent.w_perp_norm).max() < 1e-10


def test_profile_rejects_off_locus_point(half_setup):
    loop, lift, hw = half_setup
    state = bpu_map(lift, hw, 20)
    far = latitude_loop(0.9, 64).points[0]
    with pytest.raises(ContractViolation):
        pointwise_profile(state, far, normal_frame(loop)[0], samples=np.array([0.0, 1.0]))


def test_decay_far_point_passes_and_near_point_inconclusive(half_setup):
    loop, lift, hw = half_setup
    ks = list(range(2, 81, 2))
    far = latitude_loop(0.9, 64).points[3]
    report = decay_check(lift, hw, far, ks, -10.0)
    assert report.passed and not report.inconclusive
    # The verdict reads the threshold it is given.
    strict = decay_check(lift, hw, far, ks, -1000.0)
    assert not strict.passed and strict.threshold == -1000.0
    sl = report.slopes
    assert np.all(np.diff(sl[len(sl) // 2:]) < 0)  # slopes keep decreasing
    near = latitude_loop(0.52, 64).points[0]
    near_report = decay_check(lift, hw, near, ks, -10.0)
    assert near_report.inconclusive


def test_off_loop_decay_rate_above_the_old_alias_bound(half_setup):
    # u_k on the c = 1/2 latitude is the one monomial a = k/2, so with y on the
    # lift, R(k) = |u_k(x)|/|u_k(y)| decays at the rate -KL(1/2 || |x0|^2)/2 per
    # level.  k = 640 lies past k*max(c, 1-c) = N, where alias coefficients at
    # a = k/2 +- N from the rows outside the band would set the off-loop value.
    _, lift, hw = half_setup
    x = np.array([math.sqrt(0.9), math.sqrt(0.1)])
    rate = -0.5 * (0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1))
    assert rate == pytest.approx(-0.2554128, abs=1e-7)
    log_r = {k: math.log(abs(state.evaluate(x)) / abs(state.evaluate(lift.points[0])))
             for k, state in ((k, bpu_map(lift, hw, k)) for k in (160, 320, 640))}
    for k in (160, 320):
        assert (log_r[2 * k] - log_r[k]) / k == pytest.approx(rate, abs=1e-6), k


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def test_d_delta_pair_zero_tangent(half_setup):
    loop, lift, hw = half_setup
    w = LeafTangent(loop, np.zeros(N), np.zeros(N))
    assert d_pair(lift, hw, w, basis(8), 4) == 0.0


def test_d_delta_pair_reduces_to_delta_pair_when_f_zero(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.zeros(N), np.cos(PHI))
    b = basis(8)
    # with f = 0 the pairing is the plain delta pairing with S_ell as weight
    expected = delta_pair(lift, HalfWeight(loop, w.s_ell), conj_monomial(b, 3))
    assert d_pair(lift, hw, w, b, 3) == pytest.approx(expected, rel=1e-12)


def test_d_delta_pair_matches_fd_oracle(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(2 * PHI), np.cos(PHI))
    b = basis(8)
    analytic = d_pair(lift, hw, w, b, 3)

    def pairing_at(t):
        lift_t, hw_t = flow_state(lift, hw, w, [t])[0]
        return delta_pair(lift_t, hw_t, conj_monomial(b, 3))

    vals = {h: (pairing_at(h) - pairing_at(-h)) / (2 * h) for h in (1e-3, 5e-4)}
    oracle = (4.0 * vals[5e-4] - vals[1e-3]) / 3.0
    assert abs(analytic - oracle) / abs(oracle) < 1e-4


def test_d_bpu_zero_tangent_and_linearity(half_setup):
    loop, lift, hw = half_setup
    zero = LeafTangent(loop, np.zeros(N), np.zeros(N))
    assert np.abs(d_bpu(lift, hw, [zero], [8])[0]).max() == 0.0
    w1 = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    w2 = constrained(loop, hw, np.zeros(N), np.cos(2 * PHI))
    both = LeafTangent(loop, w1.f + w2.f, w1.s_ell + w2.s_ell)
    lhs, d1, d2 = d_bpu(lift, hw, [both, w1, w2], [8])[0]
    rhs = d1 + d2
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_d_bpu_matches_fd_for_reference_tangent(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(2 * PHI), np.cos(PHI))
    ana = d_bpu(lift, hw, [w], [8])[0][0]
    fd = fd_d_bpu(lift, hw, [w], [8])[0][0]
    assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < 1e-4


def test_d_bpu_matches_fd_for_a_pure_half_weight_tangent(half_setup):
    # With f = 0 the transport is lambda + t*ell on the fixed lift, so the
    # finite differences of the projection leave only rounding.
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.zeros(N), np.cos(PHI) + 0.5 * np.sin(3 * PHI))
    ks = [4, 8, 16]
    for k, ana, fd in zip(ks, d_bpu(lift, hw, [w], ks), fd_d_bpu(lift, hw, [w], ks)):
        assert np.linalg.norm(ana - fd) <= 1e-8 * np.linalg.norm(fd), k


@pytest.mark.parametrize("c, ks", [(1.0 / 3.0, [9, 18, 36]), (0.2, [10, 20, 40])])
def test_d_bpu_matches_fd_off_the_equator(c, ks):
    # Off the geodesic equator the half-density derivative Gamma is nonzero,
    # so this checks the term that the c = 1/2 cross-checks cannot see.
    loop = latitude_loop(c, N)
    lift = horizontal_lift(loop)
    hw = HalfWeight.from_samples(loop, 1.0 + 0.3 * np.cos(PHI) + 0.1 * np.sin(3 * PHI))
    frame = [constrained(loop, hw, np.cos(2 * PHI) + 0.5 * np.sin(3 * PHI), np.cos(PHI)),
             constrained(loop, hw, np.sin(PHI), np.zeros(N))]
    ana, fd = d_bpu(lift, hw, frame, ks), fd_d_bpu(lift, hw, frame, ks)
    worst = max(np.linalg.norm(a - d) / np.linalg.norm(d)
                for rows_a, rows_d in zip(ana, fd) for a, d in zip(rows_a, rows_d))
    assert worst <= 1e-6


@pytest.mark.parametrize("k", [2, 4, 8])
def test_d_bpu_matches_fd_across_levels(half_setup, k):
    loop, lift, hw = half_setup
    rng = np.random.default_rng(k)
    frame = []
    for trial in range(5):
        f = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 3, size=2))
        s = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 3, size=2))
        frame.append(constrained(loop, hw, f, s))
    ana = d_bpu(lift, hw, frame, [k])[0]
    fd = fd_d_bpu(lift, hw, frame, [k])[0]
    worst = max(np.linalg.norm(a - d) / np.linalg.norm(d) for a, d in zip(ana, fd))
    assert worst < 1e-3


def test_d_bpu_warns_off_lattice(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = d_bpu(lift, hw, [w], [5])[0]
    assert out.shape == (1, 6) and np.abs(out).max() == 0.0
    assert any("divisible" in str(c.message) for c in caught)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_off_lattice_levels_are_exact_zeros_where_coefficients_would_overflow(third_setup):
    # At k = 1021 and 1022 on c = 1/3 the mid-band basis norms near the
    # subnormal range, so a computed coefficient can be inf; the deck rule's
    # zeros must not be formed as 0 * inf.
    loop, lift, hw = third_setup
    w = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    for k in (1021, 1022):
        state = bpu_map(lift, hw, k)
        assert state.coefficients.shape == (k + 1,)
        assert not np.any(state.coefficients) and state.norm_sq == 0.0
        with pytest.warns(UserWarning, match="divisible"):
            rows = d_bpu(lift, hw, [w], [k])[0]
        assert rows.shape == (1, k + 1) and not np.any(rows)


def test_d_bpu_frame_rows_match_single_tangent_calls(half_setup):
    loop, lift, hw = half_setup
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(2 * PHI), np.zeros(N)),
             constrained(loop, hw, np.sin(PHI), np.cos(PHI) + np.sin(2 * PHI))]
    ks = [8, 16, 32]
    batched = d_bpu(lift, hw, frame, ks)
    assert [arr.shape for arr in batched] == [(3, k + 1) for k in ks]
    for i, w in enumerate(frame):
        for arr, single in zip(batched, d_bpu(lift, hw, [w], ks)):
            assert np.linalg.norm(arr[i] - single[0]) <= 1e-14 * np.linalg.norm(single[0])


def test_fd_d_bpu_transports_each_leg_once(monkeypatch):
    loop = latitude_loop(0.5, 64)
    lift = horizontal_lift(loop)
    hw = HalfWeight.constant(loop)
    phi = grid_nodes(64)
    both = constrained(loop, hw, np.cos(phi), np.cos(phi))
    f_only = constrained(loop, hw, np.cos(2 * phi), np.zeros(64))
    calls = []

    def counting(lift_, hw_, w, ts):
        calls.append((w, list(ts)))
        return flow_state(lift_, hw_, w, ts)

    monkeypatch.setattr(bpu, "flow_state", counting)
    out = fd_d_bpu(lift, hw, [both, f_only], [4, 8, 16])
    assert [arr.shape for arr in out] == [(2, 5), (2, 9), (2, 17)]
    # Both legs of `both` and the f-leg of `f_only`, each once, at
    # +-FD_STEP and +-FD_STEP/2.
    assert len(calls) == 2 + 1
    h = bpu.FD_STEP
    assert all(sorted(ts) == [-h, -h / 2, h / 2, h] for _, ts in calls)
    assert np.array_equal(calls[2][0].f, f_only.f)


# ---------------------------------------------------------------------------
# Level-moment kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 8, 160])
def test_kernel_normal_block_matches_exact_derivative_oracle(k):
    rng = np.random.default_rng(k)
    pts = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    pts = np.vstack([pts / np.linalg.norm(pts, axis=1, keepdims=True),
                     [[1.0, 0.0], [0.0, 1.0], [0.0, 1j], [np.exp(0.3j), 0.0]]])
    s_w = rng.uniform(0.5, 1.5, size=len(pts))
    ups = rng.normal(size=(len(pts), 2, 2)) + 1j * rng.normal(size=(len(pts), 2, 2))
    amp = np.hstack([s_w[:, None], np.zeros((len(pts), 6))])
    b, coeffs, signed = next(bpu._level_moments(pts, amp, ups * s_w[:, None, None], [k]))
    assert coeffs.shape == (k + 1,) and signed.shape == (2, k + 1)
    # With zero transport, fiber and half-density amplitudes the d_bpu rows are
    # the normal term alone, times sigma_p.
    deriv = bpu.CONVENTION_SIGNS[1] * signed * b.norms_sq
    # Row a reads P[a-1] (a > 0) and P[a] (a < k).
    rows = np.concatenate([[True], rows_in_every_band(pts, k), [True]])
    inside = rows[:-1] & rows[1:]
    for i in range(2):
        exact = np.conj(monomial_derivative_oracle(pts, ups[:, :, i], k)).T @ s_w
        scale = monomial_derivative_oracle(np.abs(pts), np.abs(ups[:, :, i]), k).real.T @ s_w
        assert np.all(np.abs(deriv[i] - exact)[inside] <= 1e-13 * scale[inside])
        outside = bundle_norm_sq((deriv[i] - exact)[~inside], b.norms_sq[~inside])
        assert outside <= 1e-13 ** 2 * bundle_norm_sq(exact, b.norms_sq)
    assert k < 160 or not inside.all()


def test_pullback_builds_one_monomial_matrix_per_level(monkeypatch):
    loop = latitude_loop(0.5, 64)
    lift = horizontal_lift(loop)
    hw = HalfWeight.constant(loop)
    phi = grid_nodes(64)
    frame = [constrained(loop, hw, np.cos(phi), np.cos(phi)),
             constrained(loop, hw, np.sin(phi), np.cos(phi)),
             constrained(loop, hw, np.cos(2 * phi), np.zeros(64))]
    builds, gammas = [], []
    real_powers, real_gamma = bpu._powers, bpu.gamma_flow
    monkeypatch.setattr(bpu, "_powers",
                        lambda z, n, into=None: builds.append(n) or real_powers(z, n, into))
    monkeypatch.setattr(bpu, "gamma_flow", lambda lp, f: gammas.append(1) or real_gamma(lp, f))

    def no_monomial_matrix(*args):
        raise AssertionError("a monomial matrix was built")

    for name in ("_monomials", "monomial_values", "monomial_derivatives"):
        monkeypatch.setattr(hardy, name, no_monomial_matrix)
        assert not hasattr(bpu, name)
    # One ratio table per kernel pass, of max(ks) rows, however many levels it serves.
    for ks in ([2, 4, 8, 16], [16, 2], [8]):
        forms = fs_pullback(lift, hw, frame, ks)
        assert forms.shape == (len(ks), 3, 3)
        d_bpu(lift, hw, frame, ks)
        assert builds == [max(ks) - 1] * 2
        assert len(gammas) == 2 * len(frame)
        builds.clear()
        gammas.clear()


@pytest.mark.parametrize("radial", [1.0, 1e-8])
def test_kernel_rejects_a_normal_field_off_the_sphere(half_setup, monkeypatch, radial):
    # The limit applies to the fields themselves, not to the fields times the
    # quadrature weights (about 0.02 here), which would let 1e-8 through.
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    monkeypatch.setattr(bpu, "normal_frame", lambda lp: normal_frame(lp) + radial * lp.points)
    with pytest.raises(ContractViolation, match="tangent"):
        d_bpu(lift, hw, [w], [8])


def test_derivative_signs_come_from_one_place(half_setup, monkeypatch):
    loop, lift, hw = half_setup
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(2 * PHI), np.zeros(N))]
    pinned, pinned_rows = bpu.CONVENTION_SIGNS, d_bpu(lift, hw, frame, [8])[0]
    u = bpu_map(lift, hw, 8)
    rows = {}
    # d_bpu and fs_pullback read the pinned signs when called.
    for signs in itertools.product((1, -1), repeat=2):
        monkeypatch.setattr(bpu, "CONVENTION_SIGNS", signs)
        rows[signs] = d_bpu(lift, hw, frame, [8])[0]
        z = zk_orthogonalize(u, rows[signs])
        gram = (np.conj(z) * u.sec_basis.norms_sq) @ z.T / u.norm_sq
        assert np.allclose(fs_pullback(lift, hw, frame, [8])[0], 0.5 * (gram + gram.conj().T),
                           rtol=1e-13, atol=0.0), signs
    assert np.array_equal(rows[pinned], pinned_rows)
    # Both signed terms are nonzero, so each pair gives its own rows, affine in the signs.
    for a, b in itertools.combinations(rows, 2):
        assert np.linalg.norm(rows[a] - rows[b]) > 0.1 * np.linalg.norm(pinned_rows), (a, b)
    assert np.allclose(rows[1, 1] + rows[-1, -1], rows[1, -1] + rows[-1, 1],
                       rtol=0.0, atol=1e-13 * np.linalg.norm(pinned_rows))


# ---------------------------------------------------------------------------
# Orthogonalization and pullback
# ---------------------------------------------------------------------------

def test_zk_orthogonalize_cases(half_setup):
    loop, lift, hw = half_setup
    u = bpu_map(lift, hw, 8)
    b = u.sec_basis
    z = zk_orthogonalize(u, u.coefficients)
    assert np.abs(z).max() < 1e-12 * np.abs(u.coefficients).max()
    rng = np.random.default_rng(0)
    du = rng.normal(size=9) + 1j * rng.normal(size=9)
    z = zk_orthogonalize(u, du)
    rel = abs(inner(b, z, u.coefficients))
    rel /= math.sqrt(hardy.norm_sq(b, z) * u.norm_sq)
    assert rel < 1e-10
    already = zk_orthogonalize(u, z)
    assert np.abs(already - z).max() < 1e-12 * np.abs(z).max()
    # A stack of rows is orthogonalized row by row.
    rows = zk_orthogonalize(u, np.array([du, u.coefficients, z]))
    assert rows.shape == (3, 9)
    assert np.abs(rows[0] - z).max() <= 1e-14 * np.abs(z).max()
    assert np.abs(rows[1]).max() < 1e-12 * np.abs(u.coefficients).max()


def test_zk_requires_admissible_state(half_setup):
    _, lift, hw = half_setup
    u = bpu_map(lift, hw, 5)  # odd level: projection vanishes
    with pytest.raises(OutsideAdmissibleSetError):
        zk_orthogonalize(u, u.coefficients)


def test_fs_pullback_diagonal_and_antisymmetry(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    wp = constrained(loop, hw, np.sin(PHI), np.cos(PHI))
    forms = fs_pullback(lift, hw, [w, wp], [8])
    assert forms.shape == (1, 2, 2)
    h = forms[0]
    assert np.array_equal(h, h.conj().T)
    assert h[0, 0].imag == 0.0 and h[1, 1].imag == 0.0
    assert h[0, 0].real >= 0.0 and h[1, 1].real >= 0.0
    assert h[0, 1].imag != 0.0
    # Reordering the frame permutes the form.
    swapped = fs_pullback(lift, hw, [wp, w], [8])[0]
    assert swapped[0, 1] == pytest.approx(h[1, 0], rel=1e-10)


def test_fs_pullback_outside_domain(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    with pytest.raises(OutsideAdmissibleSetError):
        fs_pullback(lift, hw, [w], [5])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fs_pullback_names_the_norm_overflow(third_setup):
    # At k = 1023 on c = 1/3 norm_sq is NaN (see test_first_non_finite_norm_levels);
    # the loop is admissible, so the error names the basis norms, not the domain.
    loop, lift, hw = third_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    assert np.all(np.isfinite(fs_pullback(lift, hw, [w], [1020])))
    with pytest.raises(DomainError, match="level 1023: basis norms left the double range"):
        fs_pullback(lift, hw, [w], [1020, 1023])


def test_fs_pullback_entries_are_gram_ratios_of_orthogonal_parts(half_setup):
    loop, lift, hw = half_setup
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.sin(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(PHI) + np.cos(2 * PHI), np.cos(PHI) + np.sin(PHI))]
    ks = [8, 16]
    forms = fs_pullback(lift, hw, frame, ks)
    assert forms.shape == (2, 3, 3)
    for n, k in enumerate(ks):
        u = bpu_map(lift, hw, k)
        z = [zk_orthogonalize(u, d_bpu(lift, hw, [w], [k])[0][0]) for w in frame]
        for i in range(3):
            for j in range(3):
                expect = inner(u.sec_basis, z[i], z[j]) / u.norm_sq
                assert abs(forms[n, i, j] - expect) <= 1e-12 * abs(expect)


# ---------------------------------------------------------------------------
# F integrand
# ---------------------------------------------------------------------------

def test_f_integrand_reference_value(half_setup):
    loop, _, hw = half_setup
    w = LeafTangent(loop, np.cos(PHI), np.zeros(N))
    wp = LeafTangent(loop, np.zeros(N), np.cos(PHI) * hw.s_lambda)
    val = f_integrand(w, wp, hw)
    assert val == pytest.approx(-0.5j, abs=1e-12)
    # recorded empirical constant: Im(F integral) = -Omega/2 on this model
    assert val.imag / leaf.omega(w, wp, hw) == pytest.approx(-0.5, abs=1e-12)


def test_f_integrand_symmetries(half_setup):
    loop, _, hw = half_setup
    w = LeafTangent(loop, np.cos(PHI), np.sin(PHI) * hw.s_lambda)
    assert f_integrand(w, w, hw).imag == pytest.approx(0.0, abs=1e-14)
    wp = LeafTangent(loop, np.sin(2 * PHI), np.cos(2 * PHI) * hw.s_lambda)
    assert f_integrand(w, wp, hw) == pytest.approx(np.conj(f_integrand(wp, w, hw)), abs=1e-14)


# ---------------------------------------------------------------------------
# Asymptotic structure invariants
# ---------------------------------------------------------------------------

def test_u_du_pairing_growth_bound(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    ks = (16, 32, 64)
    ratios = []
    for k, du in zip(ks, d_bpu(lift, hw, [w], ks)):
        u = bpu_map(lift, hw, k)
        ratios.append(abs(inner(u.sec_basis, u.coefficients, du[0])) / (u.norm_sq * k))
    # admissible growth is k^(-1/2) relative; check the bound with margin
    assert all(r < 2.0 / math.sqrt(k) for r, k in zip(ratios, ks))


def test_hermitian_product_reproduces_f_integral(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    wp = constrained(loop, hw, np.sin(PHI), np.cos(PHI))
    target = f_integrand(w, wp, hw)
    k = 96
    u = bpu_map(lift, hw, k)
    du, dup = d_bpu(lift, hw, [w, wp], [k])[0]
    herm = inner(u.sec_basis, du, dup) / u.norm_sq / k ** 2
    assert herm.real == pytest.approx(target.real, rel=3e-2)
    assert herm.imag == pytest.approx(target.imag, rel=3e-2)


def test_norm_sweep_constant_scales_with_winding_squared(half_setup):
    _, lift2, hw2 = half_setup
    loop4 = latitude_loop(0.25, N)
    lift4 = horizontal_lift(loop4)
    assert lift4.winding == 4
    hw4 = HalfWeight.constant(loop4)
    fits = {}
    for r, lift, hw in ((2, lift2, hw2), (4, lift4, hw4)):
        ks = [r * l for l in range(1, 21)]
        rows = norm_sweep(lift, hw, ks)
        fits[r] = asymptotics.fit_leading([(row["k"], row["norm_sq"]) for row in rows],
                                          alpha=0.5, m=3).leading
    assert fits[4] / fits[2] == pytest.approx(4.0, rel=2e-2)


def test_norm_sweep_ladder_slope_is_minus_half(half_setup):
    # frozen from the sweep: the first correction term sits at k^0... k^(-1/2)
    # relative, i.e. the residual after the leading term decays like k^(-1/2)
    _, lift, hw = half_setup
    rows = norm_sweep(lift, hw, [2 * l for l in range(1, 41)])
    rep = asymptotics.ladder_residual_check([(r["k"], r["norm_sq"]) for r in rows],
                                            alpha=0.5, m=1)
    assert rep.consistent
    assert rep.slope == pytest.approx(-0.5, abs=0.15)
