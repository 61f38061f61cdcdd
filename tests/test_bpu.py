from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bpu_lab import asymptotics, bpu, experiments, hardy, leaf
from bpu_lab.bpu import (
    bpu_map,
    d_bpu,
    f_integrand,
    fd_d_bpu,
    fs_pullback,
    norm_sweep,
    pointwise_values,
)
from bpu_lab.errors import ContractViolation, DomainError, OutsideAdmissibleSetError
from bpu_lab.fourier import grid_nodes
from bpu_lab.geometry import (
    PlanckianLift,
    fs_distance,
    horizontal_lift,
    latitude_loop,
    normal_frame,
)
from bpu_lab.hardy import basis, monomial_values
from bpu_lab.leaf import HalfWeight, LeafTangent, flow_state, project_constraints

from conftest import Drawn, wavy_loop
from oracles import (
    delta_pair,
    fd_d_bpu_per_state,
    inner,
    latitude_norm_sq,
    lift_weights,
    monomial_derivative_oracle,
    polar_monomials,
    pullback_form,
    rotated,
    su2_rows,
    zk_orthogonalize,
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
    """Mask of the rows s_a, a <= k, that every node family of the kernel pairs at level k."""
    second, p = bpu._ratio_table(pts, 1)[2], np.min(np.abs(pts) ** 2, axis=1)
    inside = np.ones(k + 1, dtype=bool)
    for nodes, flip in ((~second, False), (second, True)):
        if np.any(nodes):
            lo, hi = bpu._band(k, p[nodes].min(), p[nodes].max())
            rows = (np.arange(k + 1) >= lo) & (np.arange(k + 1) <= hi)
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
                      (state, bpu.BpuState(state.k, state.sec_basis, state.coefficients))):
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
    # bound t(k) = N lies far above the first non-finite level (k = 1014 at
    # c = 1/2, 1104 at c = 1/3), and far above k*max(c, 1-c) = N.
    _, lift, hw = request.getfixturevalue(setup)
    top = {0.5: 1012, 1.0 / 3.0: 1020}[c]  # below the first non-finite levels
    ks = list(range(lift.winding, top + 1, lift.winding))
    for k, (u, _) in zip(ks, bpu._frame_moments(lift, hw, (), ks)):
        assert np.flatnonzero(u.coefficients).tolist() == [round(c * k)], k


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
    # The sweep's ratio table times lead^600 gives the monomials that level 600
    # reads, and the products of its two moduli factors their moduli.
    table, (coarse, fine), second, lead = bpu._ratio_table(lift.points, ks[-1] + 1)
    m = len(lift.points)
    assert coarse.shape == (600 // 25 + 1, m) and fine.shape == (m, 25)
    mods = (coarse[:, None, :] * fine.T[None, :, :]).reshape(-1, m)[:601]
    rows, scale = np.where(second, table[::-1], table), bpu._power(lead, 600)
    re, im = (part.T for part in polar_monomials(lift.points, 600))
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
        inside = rows_in_every_band(lift.circuit, k)
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


@pytest.mark.filterwarnings("ignore:overflow encountered in:RuntimeWarning")
@pytest.mark.parametrize("setup, ks, kinds", [
    ("half_setup", [1012, 1014, 1024], ["finite", "inf", "inf"]),
    ("third_setup", [1101, 1104], ["finite", "inf"])])
def test_first_non_finite_norm_levels(request, setup, ks, kinds):
    # The mid-band basis norms near the subnormal range (see `bpu_map`);
    # a state's norm_sq and norm_sweep name the first level where it is not finite.
    # Only nonzero pairings are divided by the norms, so no level reads 0/0 = NaN.
    _, lift, hw = request.getfixturevalue(setup)
    states = [bpu_map(lift, hw, k) for k in ks]
    values = [hardy.norm_sq(u.sec_basis, u.coefficients) for u in states]
    assert ["nan" if np.isnan(x) else "inf" if np.isinf(x) else "finite" for x in values] == kinds
    with pytest.raises(DomainError, match=f"level {ks[1]}: basis norms left the double range"):
        states[1].norm_sq
    with pytest.raises(DomainError, match=f"level {ks[1]}: basis norms left the double range"):
        norm_sweep(lift, hw, ks)


def test_a_level_does_not_depend_on_the_level_list():
    # Each level divides only its own nonzero pairings by its own basis norms,
    # so the zeros of the other levels' bands in its chunk never meet an
    # underflowing norm: k = 1070 reads the same alone and in a long sweep,
    # and the sweep past it names the level where the norms really leave the range.
    loop = latitude_loop(0.2, 1024)
    lift, hw = horizontal_lift(loop), HalfWeight.constant(loop)
    ks = list(range(5, 1396, 5))
    alone = norm_sweep(lift, hw, [1070])[0]["norm_sq"]
    assert norm_sweep(lift, hw, ks)[ks.index(1070)]["norm_sq"] == pytest.approx(alone, rel=1e-13, abs=0.0)
    longer = (u for u, _ in bpu._frame_moments(lift, hw, (), list(range(5, 1596, 5))) if u.k == 1070)
    assert next(longer).norm_sq == pytest.approx(alone, rel=1e-13, abs=0.0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "overflow encountered in", RuntimeWarning)
        with pytest.raises(DomainError, match="level 1400: basis norms left the double range"):
            norm_sweep(lift, hw, list(range(5, 1596, 5)))


def test_norms_stay_exact_up_to_the_first_non_finite_level(third_setup):
    # On c = 1/3 the norms below k = 1104 are subnormal or zero off the band,
    # where the pairings are exact zeros; no level below 1104 warns.
    _, lift, hw = third_setup
    for row in norm_sweep(lift, hw, list(range(3, 1102, 3))):
        exact = latitude_norm_sq(lift, hw, 1.0 / 3.0, row["k"])
        assert row["norm_sq"] == pytest.approx(exact, rel=5e-12, abs=0.0), row["k"]
    assert np.all(np.isfinite(pointwise_values(lift, hw, lift.points[::17], [1023, 1050, 1101])))


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
    amp, normal = np.ones((N, 1 + 3 * len(frame))), np.zeros((N, 2, len(frame)))
    assert list(bpu._level_moments(lift.circuit, amp, normal, [], lift.winding)) == []
    # Levels the winding does not divide, unsorted and repeated, come out as
    # zero rows and leave every lattice level's rows as they were.
    mixed = [5, 32, 8, 33, 8, 5, 2, 16, 1]
    lattice = bpu._level_moments(lift.circuit, amp, normal, ks, lift.winding)
    for k, (u, du) in zip(mixed, bpu._level_moments(lift.circuit, amp, normal, mixed, lift.winding),
                          strict=True):
        assert u.k == k and u.coefficients.shape == (k + 1,) and du.shape == (len(frame), k + 1), k
        if k % lift.winding:
            assert not np.any(u.coefficients) and not np.any(du), k
        else:
            alone, du_alone = next(lattice)
            assert np.array_equal(u.coefficients, alone.coefficients) and np.array_equal(du, du_alone), k
    assert next(lattice, None) is None
    assert d_bpu(lift, hw, frame, []) == [] and norm_sweep(lift, hw, []) == []


@pytest.mark.parametrize("ks", [[0], [4, -2], [4.0]])
def test_kernel_rejects_a_level_that_is_not_a_positive_integer(half_setup, ks):
    _, lift, hw = half_setup
    with pytest.raises(DomainError, match="positive integers"):
        norm_sweep(lift, hw, ks)


@pytest.fixture(scope="module")
def wavy():
    # A graph loop whose nodes fall in both node families.
    loop = wavy_loop(0.5, N, seed=1, amplitude=0.04)
    return loop, horizontal_lift(loop), HalfWeight.constant(loop)


def chunk_spanning_levels(r):
    """40 lattice levels up to 300, unsorted, then six of them again.  A chunk
    of the kernel holds fewer than N/16 levels, so they span several chunks,
    and the running product of lead^(k-1) restarts at every chunk that starts
    below the one before."""
    ks = [int(k) for k in np.random.default_rng(3).permutation(np.arange(r, 301, r))[:40]]
    return ks + ks[5:11]


@pytest.mark.parametrize("setup", ["wavy", "third_setup"])
def test_chunked_passes_match_one_level_passes(request, setup):
    loop, lift, hw = request.getfixturevalue(setup)
    ks = chunk_spanning_levels(lift.winding)
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(2 * PHI), np.zeros(N))]
    points = np.vstack([lift.points[::37], latitude_loop(0.4, 64).points[::9]])
    sweep, rows = norm_sweep(lift, hw, ks), d_bpu(lift, hw, frame, ks)
    forms, values = fs_pullback(lift, hw, frame, ks), pointwise_values(lift, hw, points, ks)
    for n, k in enumerate(ks):
        assert sweep[n]["norm_sq"] == pytest.approx(norm_sweep(lift, hw, [k])[0]["norm_sq"],
                                                    rel=1e-13, abs=0.0), k
        # d_bpu rows compared in the bundle norm of the level: coefficient by
        # coefficient, mid-band rows hold seam noise over norms far below 1.
        norms_sq, single = basis(k).norms_sq, d_bpu(lift, hw, frame, [k])[0]
        assert (bundle_norm_sq((rows[n] - single) * norms_sq, norms_sq)
                <= 1e-13 ** 2 * bundle_norm_sq(single * norms_sq, norms_sq)), k
        single = fs_pullback(lift, hw, frame, [k])[0]
        assert np.linalg.norm(forms[n] - single) <= 1e-13 * np.linalg.norm(single), k
        single = pointwise_values(lift, hw, points, [k])[0]
        assert np.linalg.norm(values[n] - single) <= 1e-13 * np.linalg.norm(single), k


def test_fs_pullback_over_the_pullback_frame_stays_near_the_per_level_peak():
    # The benchmark's pullback workload: theorem_check_r2's four tangents on
    # c = 1/2 at k = 2..160.  Level by level, one product per level, the pass
    # peaked at 1,344,384 B; chunks may add at most 5%, so they cannot raise
    # the workload's peak RSS.
    path = Path(__file__).resolve().parents[1] / "configs" / "theorem_check_r2.json"
    config = experiments.ExperimentConfig.from_json(path.read_bytes())
    loop, lift, hw = experiments._setup(config)
    frame = [experiments._build_tangent(loop, hw, d, i) for i, d in enumerate(config.tangents)]
    tracemalloc.start()
    try:
        fs_pullback(lift, hw, frame, list(range(2, 161, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.05 * 1_344_384


# ---------------------------------------------------------------------------
# Pointwise structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("setup", ["half_setup", "third_setup"])
def test_pointwise_values_are_the_projections_at_the_points(request, setup):
    loop, lift, hw = request.getfixturevalue(setup)
    r = lift.winding
    points = np.vstack([lift.points[::37], latitude_loop(0.9, 64).points[::9],
                        latitude_loop(0.1, 64).points[5]])
    ks = [r, 7 * r + 1, 12 * r, 5 * r, 7]
    values = pointwise_values(lift, hw, points, ks)
    assert values.shape == (len(ks), len(points))
    for k, row in zip(ks, values):
        if k % r:
            assert not np.any(row), k
        else:
            expected = monomial_values(basis(k), points) @ bpu_map(lift, hw, k).coefficients
            assert np.all(np.abs(row - expected) <= 1e-14 * np.abs(expected)), k
    assert pointwise_values(lift, hw, points[0], [12 * r]).shape == (1, 1)
    assert pointwise_values(lift, hw, points, []).shape == (0, len(points))


def test_profile_at_origin_and_tangent(half_setup):
    # From node 0 of the lift by the C^2 angle s/sqrt(k), along the unit normal
    # and the unit tangent of the base, each turned by the node's fiber phase.
    loop, lift, hw = half_setup
    x, theta = lift.points[0], np.array([0.0, 1.0, 1.5])[:, None] / math.sqrt(80)
    base = abs(pointwise_values(lift, hw, x, [80])[0, 0])

    def ratios(v):
        u = lift.phases[0] * v / np.linalg.norm(v)
        points = np.cos(theta) * x + np.sin(theta) * u
        return np.abs(pointwise_values(lift, hw, points, [80])[0]) / base

    normal, tangent = ratios(normal_frame(loop)[0]), ratios(loop.unit_tangents()[0])
    assert normal[0] == pytest.approx(1.0, abs=1e-12)
    assert normal[1] == pytest.approx(math.exp(-1.0), rel=2e-2)
    assert np.abs(tangent - 1.0).max() < 1e-10


def test_decay_far_point_passes_and_near_point_inconclusive(half_setup):
    loop, lift, hw = half_setup
    ks = list(range(2, 81, 2))
    points = np.array([latitude_loop(0.9, 64).points[3], latitude_loop(0.52, 64).points[0]])
    far = np.abs(pointwise_values(lift, hw, points, ks)[:, 0])
    report = asymptotics.superpoly_decay(list(zip(ks, far)), -10.0)
    assert report.passed and not report.inconclusive
    # The verdict reads the threshold it is given.
    strict = asymptotics.superpoly_decay(list(zip(ks, far)), -1000.0)
    assert not strict.passed and strict.threshold == -1000.0
    sl = report.slopes
    assert np.all(np.diff(sl[len(sl) // 2:]) < 0)  # slopes keep decreasing
    # A decay run gives the near point no verdict.
    distance = fs_distance(points[:, None, :], loop.points[None, :, :]).min(axis=1)
    assert distance[1] < experiments.DECAY_MIN_DISTANCE <= distance[0]


def test_off_loop_decay_rate_above_the_old_alias_bound(half_setup):
    # u_k on the c = 1/2 latitude is the one monomial a = k/2, so with y on the
    # lift, R(k) = |u_k(x)|/|u_k(y)| decays at the rate -KL(1/2 || |x0|^2)/2 per
    # level.  k = 640 lies past k*max(c, 1-c) = N, where alias coefficients at
    # a = k/2 +- N from the rows outside the band would set the off-loop value.
    _, lift, hw = half_setup
    x = np.array([math.sqrt(0.9), math.sqrt(0.1)])
    rate = -0.5 * (0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1))
    assert rate == pytest.approx(-0.2554128, abs=1e-7)
    ks = (160, 320, 640)
    values = np.abs(pointwise_values(lift, hw, np.array([x, lift.points[0]]), ks))
    log_r = {k: math.log(far / near) for k, (far, near) in zip(ks, values)}
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


def off_equator_frame(c):
    """Lift, Fourier half-weight and two-tangent frame on the latitude of area c."""
    loop = latitude_loop(c, N)
    lift = horizontal_lift(loop)
    hw = HalfWeight.from_samples(loop, 1.0 + 0.3 * np.cos(PHI) + 0.1 * np.sin(3 * PHI))
    frame = [constrained(loop, hw, np.cos(2 * PHI) + 0.5 * np.sin(3 * PHI), np.cos(PHI)),
             constrained(loop, hw, np.sin(PHI), np.zeros(N))]
    return lift, hw, frame


@pytest.mark.parametrize("c, ks", [(1.0 / 3.0, [9, 18, 36]), (0.2, [10, 20, 40])])
def test_d_bpu_matches_fd_off_the_equator(c, ks):
    # Off the geodesic equator the half-density derivative Gamma is nonzero,
    # so this checks the term that the c = 1/2 cross-checks cannot see.
    lift, hw, frame = off_equator_frame(c)
    ana, fd = d_bpu(lift, hw, frame, ks), fd_d_bpu(lift, hw, frame, ks)
    worst = max(np.linalg.norm(a - d) / np.linalg.norm(d)
                for rows_a, rows_d in zip(ana, fd) for a, d in zip(rows_a, rows_d))
    assert worst <= 1e-6


@pytest.mark.parametrize("c", [0.5, 1.0 / 3.0])
@pytest.mark.parametrize("a, b", [(0.9, 0.3 + 0.2j), (0.6, 0.7j), (0.3, 0.9)])
def test_rotated_latitudes_keep_the_latitude_values(c, a, b):
    # The rotated latitude's |z0|^2 sweeps an interval, so both node families
    # and wide bands run, yet its values are exactly the latitude's.
    a, b = np.array([a, b]) / math.hypot(abs(a), abs(b))
    g = np.array([[a, -np.conj(b)], [b, np.conj(a)]])
    lift, hw, frame = off_equator_frame(c)
    loop = rotated(lift.base, g)
    turned, r = horizontal_lift(loop), lift.winding
    assert turned.winding == r and 0 < np.count_nonzero(bpu._ratio_table(turned.circuit, 1)[2]) < N
    # Constant half-weight: every lattice level below 1000 against the exact oracle.
    flat, ks = HalfWeight.constant(lift.base), list(range(r, 1000, r))
    exact = np.array([latitude_norm_sq(lift, flat, c, k) for k in ks])
    norms = [np.array([row["norm_sq"] for row in norm_sweep(each, HalfWeight(each.base, flat.s_lambda), ks)])
             for each in (lift, turned)]
    assert np.abs(norms[1] / norms[0] - 1.0).max() <= 1e-12
    assert np.abs(norms[1] / exact - 1.0).max() <= 5e-12
    # Fourier half-weight and a three-tangent frame.
    frame.append(constrained(lift.base, hw, np.cos(3 * PHI), 0.5 * np.sin(2 * PHI)))
    turned_hw = HalfWeight(loop, hw.s_lambda)
    turned_frame = [LeafTangent(loop, w.f, w.s_ell) for w in frame]
    ks = list(range(r, 301, r))
    forms = fs_pullback(lift, hw, frame, ks)
    gap = np.linalg.norm(fs_pullback(turned, turned_hw, turned_frame, ks) - forms, axis=(1, 2))
    assert np.all(gap <= 1e-12 * np.linalg.norm(forms, axis=(1, 2)))
    # |u_k| at the lift nodes and up to 1.5/sqrt(k) along the normal.
    nodes, normal = lift.circuit[::16], lift.phases[::16, None] * normal_frame(lift.base)[::16]
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    for k in (r, 5 * r, 20 * r, r * (160 // r)):
        theta = np.array([0.0, 0.5, 1.0, 1.5])[:, None, None] / math.sqrt(k)
        points = (np.cos(theta) * nodes + np.sin(theta) * normal).reshape(-1, 2)
        u = np.abs(pointwise_values(lift, hw, points, [k])[0])
        turned_u = np.abs(pointwise_values(turned, turned_hw, points @ g.T, [k])[0])
        assert np.abs(turned_u - u).max() <= 1e-12 * u.max(), k


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
    still = LeafTangent(loop, np.zeros(64), np.zeros(64))
    calls, passes = [], []
    kernel = bpu._level_moments

    def counting(lift_, hw_, w, ts):
        calls.append((w, list(ts)))
        return flow_state(lift_, hw_, w, ts)

    def counted(points, amp, normal, ks, winding):
        passes.append(len(points))
        return kernel(points, amp, normal, ks, winding)

    monkeypatch.setattr(bpu, "flow_state", counting)
    monkeypatch.setattr(bpu, "_level_moments", counted)
    out = fd_d_bpu(lift, hw, [both, still, f_only], [4, 5, 8, 16])
    assert [arr.shape for arr in out] == [(3, 5), (3, 6), (3, 9), (3, 17)]
    # The zero tangent and the level 5, which the winding 2 does not divide, get zeros.
    assert not np.any(out[1]) and not any(np.any(arr[1]) for arr in out)
    assert all(np.any(out[n][i]) for n in (0, 2, 3) for i in (0, 2))
    # Both legs of `both` and the f-leg of `f_only`, each once, at
    # +-FD_STEP and +-FD_STEP/2.
    assert len(calls) == 2 + 1
    h = bpu.FD_STEP
    assert all(sorted(ts) == [-h, -h / 2, h / 2, h] for _, ts in calls)
    assert np.array_equal(calls[2][0].f, f_only.f)
    # One kernel pass per tangent with a nonzero leg, over the lift's nodes
    # and those of the f-leg's four transported circuits.
    assert passes == [5 * 64, 5 * 64]


def shipped_crosscheck(monkeypatch):
    """Lift, half-weight, tangents and levels of the shipped derivative-crosscheck."""
    def capture(*args):
        raise Drawn(args)

    monkeypatch.setattr(bpu, "d_bpu", capture)
    config = experiments.ExperimentConfig.from_json(
        (Path(__file__).resolve().parents[1] / "configs" / "derivative_crosscheck.json").read_bytes())
    with pytest.raises(Drawn) as caught:
        experiments.run_experiment(config)
    return caught.value.args[0]


@pytest.mark.parametrize("frame, ks", [("seed 7", [8, 16, 32, 64, 128]), (1.0 / 3.0, [9, 18, 36, 96]),
                                       (0.2, [10, 20, 40])], ids=["seed7", "c1/3", "c1/5"])
def test_fd_d_bpu_matches_the_per_state_oracle(monkeypatch, frame, ks):
    # One pass over the Richardson-weighted states against a pass per state.
    # The reference snaps each state's projection at 1e-10 of its bound, which
    # moves its rows by up to 1.5e-9 at k = 64 on seed 7 and by 1.3e-8 at k = 80
    # on c = 1/5; the levels stop below that.  Both oracles carry rounding near
    # 1e-12 of the row norm, which a gap to d_bpu of 2.4e-11 (seed 7, k = 8)
    # shows at 2%; the gaps are compared to 1% above that floor.
    if frame == "seed 7":
        lift, hw, tangents, _ = shipped_crosscheck(monkeypatch)
    else:
        lift, hw, tangents = off_equator_frame(frame)
    ana, fd = d_bpu(lift, hw, tangents, ks), fd_d_bpu(lift, hw, tangents, ks)
    for k, rows_a, rows_d, rows_ref in zip(ks, ana, fd, fd_d_bpu_per_state(lift, hw, tangents, ks)):
        for a, d, ref in zip(rows_a, rows_d, rows_ref):
            assert np.linalg.norm(d - ref) <= 2e-9 * np.linalg.norm(ref), k
            gap, ref_gap = (np.linalg.norm(a - x) / np.linalg.norm(x) for x in (d, ref))
            assert abs(gap - ref_gap) <= 0.01 * ref_gap + 1e-12, (k, gap, ref_gap)


# ---------------------------------------------------------------------------
# Level-moment kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 8, 160])
def test_kernel_normal_block_matches_exact_derivative_oracle(k):
    # Random nodes of both families, and four near the poles, where the normal
    # column divides by a smaller coordinate o of 1e-3 or 1e-2.
    rng = np.random.default_rng(k)
    near = [(1e-3, 1.0), (1e-2j, np.exp(0.7j)), (1.0, 1e-3 * np.exp(2j)), (np.exp(0.3j), 1e-2)]
    pts = np.vstack([rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)), near])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    s_w = rng.uniform(0.5, 1.5, size=len(pts))
    ups = rng.normal(size=(len(pts), 2, 2)) + 1j * rng.normal(size=(len(pts), 2, 2))
    amp = np.hstack([s_w[:, None], np.zeros((len(pts), 6))])
    u, signed = next(bpu._level_moments(pts, amp, ups * s_w[:, None, None], [k], 1))
    b, coeffs = u.sec_basis, u.coefficients
    assert coeffs.shape == (k + 1,) and signed.shape == (2, k + 1)
    # With zero transport, fiber and half-density amplitudes the d_bpu rows are
    # the normal term alone, times sigma_p.
    deriv = bpu.CONVENTION_SIGNS[1] * signed * b.norms_sq
    inside = rows_in_every_band(pts, k)
    for i in range(2):
        exact = np.conj(monomial_derivative_oracle(pts, ups[:, :, i], k)).T @ s_w
        scale = monomial_derivative_oracle(np.abs(pts), np.abs(ups[:, :, i]), k).real.T @ s_w
        assert np.all(np.abs(deriv[i] - exact)[inside] <= 1e-13 * scale[inside])
        outside = bundle_norm_sq((deriv[i] - exact)[~inside], b.norms_sq[~inside])
        assert outside <= 1e-13 ** 2 * bundle_norm_sq(exact, b.norms_sq)
    assert k < 160 or not inside.all()


@pytest.mark.parametrize("pole", [[1.0, 0.0], [0.0, 1.0], [0.0, 1j], [np.exp(0.3j), 0.0]])
def test_kernel_normal_block_refuses_a_node_on_a_pole(pole):
    # The normal column divides by the node's smaller coordinate; a pass
    # without normal fields keeps the pole, and pairs it exactly.
    pts, s_w = np.array([[0.6, 0.8j], pole]), np.array([1.0, 0.5])
    amp = np.hstack([s_w[:, None], np.ones((2, 3))])
    with pytest.raises(DomainError, match="pole"):
        next(bpu._level_moments(pts, amp, np.ones((2, 2, 1), dtype=complex), [8], 1))
    u, rows = next(bpu._level_moments(pts, amp, np.zeros((2, 2, 0)), [8], 1))
    exact = np.conj(monomial_values(u.sec_basis, pts)).T @ s_w / u.sec_basis.norms_sq
    assert rows.shape == (1, 9) and np.allclose(u.coefficients, exact, rtol=1e-13, atol=0.0)


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
    monkeypatch.setattr(bpu, "_powers", lambda z, n: builds.append(n) or real_powers(z, n))
    monkeypatch.setattr(bpu, "gamma_flow", lambda lp, f: gammas.append(1) or real_gamma(lp, f))

    def no_monomial_matrix(*args):
        raise AssertionError("a monomial matrix was built")

    for name in ("_monomials", "monomial_values", "monomial_derivatives"):
        monkeypatch.setattr(hardy, name, no_monomial_matrix)
        assert not hasattr(bpu, name)
    # One ratio table per kernel pass, of max(ks) + 1 rows, however many levels it serves.
    for ks in ([2, 4, 8, 16], [16, 2], [8]):
        forms = fs_pullback(lift, hw, frame, ks)
        assert forms.shape == (len(ks), 3, 3)
        d_bpu(lift, hw, frame, ks)
        assert builds == [max(ks)] * 2
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


def test_kernel_accepts_a_large_tangent_field():
    # On the c = 1/64 latitude, f = 1000 cos(30 phi) has fields up to 1.2e5 in
    # size; their radial parts, up to 4.6e-10, are rounding (3.8e-15 relative).
    loop = latitude_loop(1.0 / 64.0, N)
    lift, hw = horizontal_lift(loop), HalfWeight.constant(loop)
    w = constrained(loop, hw, 1000.0 * np.cos(30 * PHI), np.zeros(N))
    field = ((lift.phases * leaf.hamiltonian_normal_components(loop, w.f))[:, None]
             * normal_frame(loop))
    radial = np.abs(np.real(np.sum(np.conj(lift.circuit) * field, axis=1)))
    assert np.max(np.abs(field)) > 1e5 and radial.max() > 1e-10
    rows = d_bpu(lift, hw, [w], [64, 128])
    assert all(np.all(np.isfinite(r)) and np.any(r) for r in rows)
    assert np.all(np.isfinite(fs_pullback(lift, hw, [w], [64, 128])))


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
        assert np.allclose(fs_pullback(lift, hw, frame, [8])[0], pullback_form(u, rows[signs]),
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


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
def test_fs_pullback_names_the_norm_overflow(third_setup):
    # On c = 1/3 norm_sq stays finite to k = 1101 (see test_first_non_finite_norm_levels),
    # but the derivative rows pair wider bands, whose norms overflow their
    # coefficients from k = 1023; the loop is admissible, so the error names
    # the basis norms, not the domain, and no NaN form comes back.
    loop, lift, hw = third_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    assert np.all(np.isfinite(fs_pullback(lift, hw, [w], [1020])))
    with pytest.raises(DomainError, match="level 1023: basis norms left the double range"):
        fs_pullback(lift, hw, [w], [1020, 1023])


@pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("derivative", [d_bpu, fd_d_bpu], ids=["d_bpu", "fd_d_bpu"])
def test_derivative_rows_name_their_overflow(third_setup, derivative):
    # The kernel checks every pass with tangent columns, so the analytic rows
    # and the finite-difference oracle name the level where fs_pullback does,
    # instead of returning inf and NaN entries.
    loop, lift, hw = third_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    assert np.all(np.isfinite(derivative(lift, hw, [w], [1020])[0]))
    with pytest.raises(DomainError, match=r"level 1023: .* double range \(derivative rows\)"):
        derivative(lift, hw, [w], [1020, 1023])


@pytest.mark.parametrize("setup", ["wavy", "third_setup"])
def test_fs_pullback_entries_are_gram_ratios_of_orthogonal_parts(request, setup):
    # The Schur complement of <u, u> in the Gram of [u; du] against the Gram of
    # the rows orthogonalized against u, level by level, across chunks and node families.
    loop, lift, hw = request.getfixturevalue(setup)
    ks = chunk_spanning_levels(lift.winding)
    frame = [constrained(loop, hw, np.cos(PHI), np.cos(PHI)),
             constrained(loop, hw, np.sin(PHI), np.cos(PHI)),
             constrained(loop, hw, np.cos(PHI) + np.cos(2 * PHI), np.cos(PHI) + np.sin(PHI))]
    forms = fs_pullback(lift, hw, frame, ks)
    assert forms.shape == (len(ks), 3, 3)
    for n, k in enumerate(ks):
        expect = pullback_form(bpu_map(lift, hw, k), d_bpu(lift, hw, frame, [k])[0])
        assert np.all(np.abs(forms[n] - expect) <= 1e-12 * np.abs(expect)), k


def su2_miss(lift, hw, frame, k):
    """Largest relative miss, in the basis-norm metric and modulo u_k, of the
    d_bpu rows of the equator's tangents (cos phi, 0) and (sin phi, 0) from
    i (up + dn) u_k and -(up - dn) u_k."""
    u = bpu_map(lift, hw, k)
    up, dn = su2_rows(u)
    got = zk_orthogonalize(u, d_bpu(lift, hw, frame, [k])[0])
    want = zk_orthogonalize(u, np.array([1j * (up + dn), -(up - dn)]))
    return math.sqrt(max(hardy.norm_sq(u.sec_basis, g - w) / hardy.norm_sq(u.sec_basis, w)
                         for g, w in zip(got, want)))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("weight", ["constant", "fourier"])
def test_equator_rotation_rows_are_su2_actions(monkeypatch, n, weight):
    # On the c = 1/2 latitude the tangents (cos phi, 0) and (sin phi, 0) are
    # infinitesimal rotations of the sphere, so their rows are the su(2) action
    # on u_k whatever the half-weight: an exact reference that pins the signs.
    loop = latitude_loop(0.5, n)
    lift, phi = horizontal_lift(loop), grid_nodes(n)
    hw = (HalfWeight.constant(loop) if weight == "constant"
          else HalfWeight.from_samples(loop, 1.0 + 0.3 * np.cos(phi) + 0.1 * np.sin(3 * phi)))
    frame = [constrained(loop, hw, f, np.zeros(n)) for f in (np.cos(phi), np.sin(phi))]
    even = np.arange(2, n + 1 if n == 64 else 601, 2)
    ks = even if n == 64 else [2, 8, 600, *np.random.default_rng(5).choice(even, 40, replace=False)]
    for k in ks:
        assert su2_miss(lift, hw, frame, int(k)) <= 1e-12, k
    for signs in set(itertools.product((1, -1), repeat=2)) - {bpu.CONVENTION_SIGNS}:
        monkeypatch.setattr(bpu, "CONVENTION_SIGNS", signs)
        assert su2_miss(lift, hw, frame, 8) > 0.1, signs


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
