from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from bpu_lab import bpu, hardy, leaf
from bpu_lab.bpu import (
    bpu_map,
    d_bpu,
    decay_check,
    delta_pair,
    f_integrand,
    fd_d_bpu,
    fs_pullback,
    norm_sweep,
    pointwise_profile,
    zk_orthogonalize,
)
from bpu_lab.errors import ContractViolation, OutsideAdmissibleSetError
from bpu_lab.fourier import grid_nodes
from bpu_lab.geometry import horizontal_lift, latitude_loop, normal_frame
from bpu_lab.hardy import SectionVector, basis, monomial_values
from bpu_lab.leaf import HalfWeight, LeafTangent, flow_state, project_constraints

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
    """Derivative of the delta pairing with conj(s_a): column a of the
    unrescaled projected derivative times ||s_a||^2."""
    return complex(d_bpu(lift, hw, w, b.k, rescale=False).coefficients[a]
                   * b.norms_sq[a])


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


def test_bpu_single_coefficient_at_matching_weight(half_setup):
    _, lift, hw = half_setup
    state = bpu_map(lift, hw, 4)
    mags = np.abs(state.coefficients)
    assert mags[2] > 1.0  # index equals k * c = 2
    mask = np.ones(5, dtype=bool)
    mask[2] = False
    assert mags[mask].max() < 1e-12


def test_projectivization_phase_invariance(half_setup):
    _, lift, hw = half_setup
    state = bpu_map(lift, hw, 8)
    rotated = bpu_map(lift.rotated(0.37), hw, 8)
    b = state.sec_basis
    overlap = abs(hardy.inner(b, state.coefficients, rotated.coefficients))
    assert overlap / math.sqrt(state.norm_sq * rotated.norm_sq) == pytest.approx(1.0, abs=1e-10)


def test_norm_sweep_positive_and_admissible(half_setup):
    _, lift, hw = half_setup
    rows = norm_sweep(lift, hw, [2, 4, 8, 16])
    assert all(row["norm_sq"] > 0 for row in rows)
    assert all(row["admissible"] for row in rows)


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
        pointwise_profile(state, far, normal_frame(loop)[0])


def test_decay_far_point_passes_and_near_point_inconclusive(half_setup):
    loop, lift, hw = half_setup
    ks = list(range(2, 81, 2))
    far = latitude_loop(0.9, 64).points[3]
    report = decay_check(lift, hw, far, ks)
    assert report.passed and not report.inconclusive
    sl = report.slopes
    assert np.all(np.diff(sl[len(sl) // 2:]) < 0)  # slopes keep decreasing
    near = latitude_loop(0.52, 64).points[0]
    near_report = decay_check(lift, hw, near, ks)
    assert near_report.inconclusive


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
        lift_t, hw_t = flow_state(lift, hw, w, t)
        return delta_pair(lift_t, hw_t, conj_monomial(b, 3))

    vals = {h: (pairing_at(h) - pairing_at(-h)) / (2 * h) for h in (1e-3, 5e-4)}
    oracle = (4.0 * vals[5e-4] - vals[1e-3]) / 3.0
    assert abs(analytic - oracle) / abs(oracle) < 1e-4


def test_d_bpu_zero_tangent_and_linearity(half_setup):
    loop, lift, hw = half_setup
    zero = LeafTangent(loop, np.zeros(N), np.zeros(N))
    assert np.abs(d_bpu(lift, hw, zero, 8).coefficients).max() == 0.0
    w1 = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    w2 = constrained(loop, hw, np.zeros(N), np.cos(2 * PHI))
    both = LeafTangent(loop, w1.f + w2.f, w1.s_ell + w2.s_ell)
    lhs = d_bpu(lift, hw, both, 8).coefficients
    rhs = d_bpu(lift, hw, w1, 8).coefficients + d_bpu(lift, hw, w2, 8).coefficients
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_d_bpu_matches_fd_for_reference_tangent(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(2 * PHI), np.cos(PHI))
    ana = d_bpu(lift, hw, w, 8, rescale=True).coefficients
    fd = fd_d_bpu(lift, hw, w, 8, rescale=True).coefficients
    assert np.linalg.norm(ana - fd) / np.linalg.norm(fd) < 1e-4


@pytest.mark.parametrize("k", [2, 4, 8])
def test_d_bpu_matches_fd_across_levels(half_setup, k):
    loop, lift, hw = half_setup
    rng = np.random.default_rng(k)
    worst = 0.0
    for trial in range(5):
        f = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 3, size=2))
        s = sum(rng.uniform(0.5, 1.5) * np.cos(m * PHI + rng.uniform(0, 2 * np.pi))
                for m in rng.integers(1, 3, size=2))
        w = constrained(loop, hw, f, s)
        ana = d_bpu(lift, hw, w, k, rescale=True).coefficients
        fd = fd_d_bpu(lift, hw, w, k, rescale=True).coefficients
        worst = max(worst, np.linalg.norm(ana - fd) / np.linalg.norm(fd))
    assert worst < 1e-3


def test_d_bpu_warns_off_lattice(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.zeros(N))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = d_bpu(lift, hw, w, 5)
    assert np.abs(out.coefficients).max() == 0.0
    assert any("divisible" in str(c.message) for c in caught)


# ---------------------------------------------------------------------------
# Orthogonalization and pullback
# ---------------------------------------------------------------------------

def test_zk_orthogonalize_cases(half_setup):
    loop, lift, hw = half_setup
    u = bpu_map(lift, hw, 8)
    b = u.sec_basis
    z = zk_orthogonalize(u, u.vector)
    assert np.abs(z.coefficients).max() < 1e-12 * np.abs(u.coefficients).max()
    rng = np.random.default_rng(0)
    du = SectionVector(8, rng.normal(size=9) + 1j * rng.normal(size=9))
    z = zk_orthogonalize(u, du)
    rel = abs(hardy.inner(b, z.coefficients, u.coefficients))
    rel /= math.sqrt(hardy.norm_sq(b, z.coefficients) * u.norm_sq)
    assert rel < 1e-10
    perp = SectionVector(8, du.coefficients - 0 * du.coefficients)
    already = zk_orthogonalize(u, z)
    assert np.abs(already.coefficients - z.coefficients).max() < 1e-12 * np.abs(z.coefficients).max()


def test_zk_requires_admissible_state(half_setup):
    _, lift, hw = half_setup
    u = bpu_map(lift, hw, 5)  # odd level: projection vanishes
    with pytest.raises(OutsideAdmissibleSetError):
        zk_orthogonalize(u, u.vector)


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
        z = [zk_orthogonalize(u, d_bpu(lift, hw, w, k)) for w in frame]
        for i in range(3):
            for j in range(3):
                expect = hardy.inner(u.sec_basis, z[i], z[j]) / u.norm_sq
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
    gamma = leaf.gamma_flow(loop, w.f)
    ratios = []
    for k in (16, 32, 64):
        u = bpu_map(lift, hw, k)
        du = d_bpu(lift, hw, w, k, rescale=True, gamma=gamma)
        ratios.append(abs(hardy.inner(u.sec_basis, u.coefficients, du.coefficients))
                      / (u.norm_sq * k))
    # admissible growth is k^(-1/2) relative; check the bound with margin
    assert all(r < 2.0 / math.sqrt(k) for r, k in zip(ratios, (16, 32, 64)))


def test_hermitian_product_reproduces_f_integral(half_setup):
    loop, lift, hw = half_setup
    w = constrained(loop, hw, np.cos(PHI), np.cos(PHI))
    wp = constrained(loop, hw, np.sin(PHI), np.cos(PHI))
    target = f_integrand(w, wp, hw)
    k = 96
    gamma_w = leaf.gamma_flow(loop, w.f)
    gamma_wp = leaf.gamma_flow(loop, wp.f)
    u = bpu_map(lift, hw, k)
    du = d_bpu(lift, hw, w, k, rescale=True, gamma=gamma_w)
    dup = d_bpu(lift, hw, wp, k, rescale=True, gamma=gamma_wp)
    herm = hardy.inner(u.sec_basis, du.coefficients, dup.coefficients) / u.norm_sq / k ** 2
    assert herm.real == pytest.approx(target.real, rel=3e-2)
    assert herm.imag == pytest.approx(target.imag, rel=3e-2)


def test_norm_sweep_constant_scales_with_winding_squared(half_setup):
    _, lift2, hw2 = half_setup
    from bpu_lab import asymptotics as asym
    loop4 = latitude_loop(0.25, N)
    lift4 = horizontal_lift(loop4)
    assert lift4.winding == 4
    hw4 = HalfWeight.constant(loop4)
    fits = {}
    for r, lift, hw in ((2, lift2, hw2), (4, lift4, hw4)):
        ks = [r * l for l in range(1, 21)]
        rows = norm_sweep(lift, hw, ks)
        fits[r] = asym.fit_leading([(row["k"], row["norm_sq"]) for row in rows],
                                   alpha=0.5, m=3).leading
    assert fits[4] / fits[2] == pytest.approx(4.0, rel=2e-2)


def test_norm_sweep_ladder_slope_is_minus_half(half_setup):
    # frozen from the sweep: the first correction term sits at k^0... k^(-1/2)
    # relative, i.e. the residual after the leading term decays like k^(-1/2)
    _, lift, hw = half_setup
    from bpu_lab import asymptotics as asym
    rows = norm_sweep(lift, hw, [2 * l for l in range(1, 41)])
    rep = asym.ladder_residual_check([(r["k"], r["norm_sq"]) for r in rows],
                                     alpha=0.5, m=1)
    assert rep.consistent
    assert rep.slope == pytest.approx(-0.5, abs=0.15)
