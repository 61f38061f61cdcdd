from __future__ import annotations

import math

import numpy as np
import pytest

from bpu_lab import hardy
from bpu_lab.errors import ContractViolation, DomainError
from bpu_lab.geometry import horizontal_lift, latitude_loop
from bpu_lab.hardy import (
    EQUIVARIANCE_SIGN,
    SectionBasis,
    basis,
    eval_section,
    monomial_derivatives,
    norm_sq,
)

from oracles import (
    bundle_gram,
    bundle_integral_abs2,
    great_circle_fd,
    inner,
    monomial_derivative_oracle,
    polar_monomials,
)


def random_vector(k: int, seed: int = 0) -> np.ndarray:
    """Random coefficients of a level-k section."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)


def random_bundle_point(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    return x / np.linalg.norm(x)


def directional(b: SectionBasis, v: np.ndarray, x: np.ndarray, w: np.ndarray) -> complex:
    """Derivative of the section with coefficients v at the point x along w."""
    return complex((monomial_derivatives(b, x, w) @ v)[0])


# ---------------------------------------------------------------------------
# Basis and norms
# ---------------------------------------------------------------------------

def test_level_one_has_two_equal_norms():
    b = basis(1)
    assert b.log_norms.shape == (2,)
    assert b.log_norms[0] == pytest.approx(b.log_norms[1], abs=1e-14)


def test_norms_positive_and_closed_form():
    b = basis(7)
    assert np.all(np.isfinite(b.log_norms))
    for a in range(8):
        expect = hardy.BUNDLE_VOLUME * math.factorial(a) * math.factorial(7 - a) / math.factorial(8)
        assert b.norms_sq[a] == pytest.approx(expect, rel=1e-13)
    # Exponentiated once per basis, read-only, and bit for bit np.exp(log_norms).
    assert b.norms_sq is b.norms_sq and not b.norms_sq.flags.writeable
    assert b.norms_sq.tobytes() == np.exp(b.log_norms).tobytes()


def test_level_two_norms_against_quadrature_oracle():
    b = basis(2)
    gram = bundle_gram(b)
    # diagonal matches the closed form ...
    assert np.abs(np.diag(gram).real - b.norms_sq).max() < 1e-9
    # ... the a=1 element is smaller than a=0 exactly as the ratio predicts ...
    assert (b.norms_sq[1] < b.norms_sq[0]) == (gram[1, 1].real < gram[0, 0].real)
    # ... and off-diagonal mass is relatively negligible.
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() / np.abs(np.diag(gram)).min() < 1e-9


def test_basis_rejects_bad_level():
    with pytest.raises(DomainError):
        basis(0)
    with pytest.raises(DomainError):
        basis(-3)


def test_log_domain_stability_at_large_level():
    b = basis(2048)
    assert np.all(np.isfinite(b.log_norms))
    a = np.arange(2048)
    ratio = np.exp(np.diff(b.log_norms))
    recurrence = (a + 1.0) / (2048.0 - a)
    assert np.abs(ratio / recurrence - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_monomial_value_at_poles():
    b = basis(3)
    top = np.eye(4)[3]     # z0^3
    bottom = np.eye(4)[0]  # z1^3
    assert eval_section(b, top, np.array([1.0 + 0j, 0j])) == pytest.approx(1.0)
    assert eval_section(b, bottom, np.array([0j, 1.0 + 0j])) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 3, 600, 767])
def test_monomial_values_match_long_double_reference(k):
    lift = horizontal_lift(latitude_loop(1.0 / 3.0, 256))
    poles = np.array([[1.0, 0.0], [np.exp(0.3j), 0.0], [0.0, 1.0], [0.0, np.exp(-2.1j)]])
    pts = np.vstack([lift.points, poles])
    vals = hardy.monomial_values(basis(k), pts)
    re, im = polar_monomials(pts, k)
    zero = (re == 0) & (im == 0)
    assert np.all(vals[zero] == 0)
    # 0^0 = 1: at the poles only the pure power of the nonzero coordinate survives.
    assert np.count_nonzero(~zero[-4:]) == 4 and np.all(~zero[:-4])
    err = np.hypot(vals.real - re, vals.imag - im)[~zero] / np.hypot(re, im)[~zero]
    assert float(err.max()) <= 1e-13


def test_eval_modulus_is_circle_invariant():
    b = basis(5)
    v = random_vector(5, seed=1)
    x = random_bundle_point(seed=2)
    for theta in (0.3, 1.1, 4.0):
        assert abs(eval_section(b, v, np.exp(1j * theta) * x)) == pytest.approx(
            abs(eval_section(b, v, x)), rel=1e-12)


def test_equivariance_phase_and_recorded_sign():
    b = basis(4)
    v = random_vector(4, seed=3)
    x = random_bundle_point(seed=4)
    ratio = eval_section(b, v, np.exp(1j * np.pi / 3) * x) / eval_section(b, v, x)
    assert ratio == pytest.approx(np.exp(EQUIVARIANCE_SIGN * 1j * 4 * np.pi / 3), rel=1e-12)


def test_equivariance_winding_along_fiber_orbit():
    b = basis(6)
    v = random_vector(6, seed=5)
    x = random_bundle_point(seed=6)
    theta = np.linspace(0.0, 2.0 * np.pi, 257)
    vals = eval_section(b, v, np.exp(1j * theta)[:, None] * x[None, :])
    winding = (np.unwrap(np.angle(vals))[-1] - np.angle(vals[0])) / (2.0 * np.pi)
    assert round(winding) == EQUIVARIANCE_SIGN * 6
    assert winding == pytest.approx(EQUIVARIANCE_SIGN * 6, abs=1e-9)


def test_eval_level_mismatch():
    with pytest.raises(ContractViolation):
        eval_section(basis(3), random_vector(4), random_bundle_point())


def test_monomial_values_reject_points_not_in_c2():
    with pytest.raises(DomainError):
        hardy.monomial_values(basis(2), np.ones((4, 3)))


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def test_vertical_derivative_is_ik_times_value():
    poles = (np.array([1.0 + 0j, 0.0]), np.array([0.0 + 0j, 1.0]))
    for k in (5, 1):
        b = basis(k)
        v = random_vector(k, seed=7)
        for x in (random_bundle_point(seed=8), *poles):
            row = monomial_derivatives(b, x, 1j * x)
            assert np.all(np.isfinite(row))
            assert directional(b, v, x, 1j * x) == pytest.approx(
                1j * k * eval_section(b, v, x), rel=1e-12)


def test_directional_derivative_linear_in_direction():
    b = basis(4)
    v = random_vector(4, seed=9)
    x = random_bundle_point(seed=10)
    rng = np.random.default_rng(11)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w -= np.real(np.vdot(x, w)) * x  # make sphere-tangent
    assert directional(b, v, x, 2.5 * w) == pytest.approx(
        2.5 * directional(b, v, x, w), rel=1e-12)


def test_directional_derivative_matches_great_circle_fd():
    b = basis(6)
    v = random_vector(6, seed=12)
    x = random_bundle_point(seed=13)
    rng = np.random.default_rng(14)
    w = rng.normal(size=2) + 1j * rng.normal(size=2)
    w -= np.real(np.vdot(x, w)) * x
    exact = directional(b, v, x, w)
    fd = great_circle_fd(lambda p: eval_section(b, v, p), x, w, h=1e-4)
    assert abs(fd - exact) / abs(exact) < 1e-6


@pytest.mark.parametrize("k", [1, 2, 8, 160])
def test_monomial_derivatives_match_exact_oracle(k):
    rng = np.random.default_rng(50 + k)
    pts = np.vstack([[random_bundle_point(seed=60 + i) for i in range(6)],
                     [[1.0, 0.0], [0.0, 1.0], [0.0, 1j], [np.exp(0.3j), 0.0]]])
    w = rng.normal(size=pts.shape) + 1j * rng.normal(size=pts.shape)
    w -= np.real(np.sum(np.conj(pts) * w, axis=1))[:, None] * pts  # sphere-tangent
    exact = monomial_derivative_oracle(pts, w, k)
    scale = monomial_derivative_oracle(np.abs(pts), np.abs(w), k).real
    assert np.all(np.abs(monomial_derivatives(basis(k), pts, w) - exact) <= 1e-13 * scale)


def test_directional_derivative_rejects_non_tangent():
    b = basis(3)
    v = random_vector(3)
    x = random_bundle_point()
    with pytest.raises(ContractViolation):
        directional(b, v, x, x)
    # one non-tangent vector in a batch is enough
    pts = np.stack([x, random_bundle_point(seed=1)])
    with pytest.raises(ContractViolation):
        monomial_derivatives(b, pts, np.stack([1j * pts[0], pts[1]]))


# ---------------------------------------------------------------------------
# Inner products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [4, 16, 64])
def test_parseval_against_bundle_quadrature(k):
    b = basis(k)
    v = random_vector(k, seed=k)
    from_coeffs = norm_sq(b, v)
    from_grid = bundle_integral_abs2(b, v, n_theta=4)
    assert from_grid == pytest.approx(from_coeffs, rel=1e-8)


def test_inner_is_conjugate_linear_in_first_slot():
    b = basis(5)
    u, v = random_vector(5, 20), random_vector(5, 21)
    assert inner(b, 1j * u, v) == pytest.approx(
        -1j * inner(b, u, v), rel=1e-12)
    assert inner(b, u, v) == pytest.approx(np.conj(inner(b, v, u)), rel=1e-12)


def test_every_basis_element_winds_exactly_k():
    k = 5
    b = basis(k)
    theta = np.linspace(0.0, 2.0 * np.pi, 129)
    x = random_bundle_point(seed=40)
    orbit = np.exp(1j * theta)[:, None] * x[None, :]
    vals = hardy.monomial_values(b, orbit)
    for a in range(k + 1):
        winding = (np.unwrap(np.angle(vals[:, a]))[-1] - np.angle(vals[0, a])) / (2 * np.pi)
        assert round(winding) == EQUIVARIANCE_SIGN * k
