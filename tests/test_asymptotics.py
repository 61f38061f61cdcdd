from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpu_lab.asymptotics import fit_leading, ladder_residual_check, superpoly_decay
from bpu_lab.errors import DomainError, IllConditionedFitError

KS = list(range(2, 82, 2))


def test_exact_single_term_recovery():
    fit = fit_leading([(k, 3.0 * k ** 2) for k in KS], alpha=2.0, m=3)
    assert fit.leading == pytest.approx(3.0, abs=1e-10)
    scale = np.linalg.norm([3.0 * k ** 2 for k in KS])
    assert fit.residual_norm / scale < 1e-12


def test_exact_two_term_recovery():
    fit = fit_leading([(k, 3.0 * k ** 2 - 5.0 * k ** 1.5) for k in KS], alpha=2.0, m=2)
    assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-10)
    assert fit.coefficients[1] == pytest.approx(-5.0, abs=1e-10)


def test_noisy_leading_recovery():
    rng = np.random.default_rng(42)
    samples = [(k, 3.0 * k ** 2 + 1e-6 * rng.normal()) for k in KS]
    fit = fit_leading(samples, alpha=2.0, m=3)
    assert fit.leading == pytest.approx(3.0, abs=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-20, max_value=20))
def test_fit_scale_equivariant_exactly_for_binary_scales(j):
    # Scaling by a power of two rescales every IEEE operation exactly, so
    # the least-squares coefficients scale exactly too.
    scale = 2.0 ** j
    base = fit_leading([(k, 2.0 * k ** 2 + k) for k in KS], alpha=2.0, m=3)
    scaled = fit_leading([(k, scale * (2.0 * k ** 2 + k)) for k in KS], alpha=2.0, m=3)
    assert np.array_equal(scaled.coefficients, scale * base.coefficients)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(lambda s: abs(s) > 1e-6))
def test_fit_scale_equivariant_generally(scale):
    base = fit_leading([(k, 2.0 * k ** 2 + k) for k in KS], alpha=2.0, m=3)
    scaled = fit_leading([(k, scale * (2.0 * k ** 2 + k)) for k in KS], alpha=2.0, m=3)
    tol = 1e-9 * abs(scale) * float(np.abs(base.coefficients).max())
    assert np.allclose(scaled.coefficients, scale * base.coefficients,
                       rtol=1e-9, atol=tol)


def test_extra_term_never_increases_residual():
    rng = np.random.default_rng(3)
    samples = [(k, 2.0 * k ** 2 - k ** 1.5 + 0.1 * rng.normal()) for k in KS]
    res = [fit_leading(samples, alpha=2.0, m=m).residual_norm for m in (1, 2, 3, 4)]
    for lo, hi in zip(res[1:], res[:-1]):
        assert lo <= hi + 1e-12


def test_random_exact_ladder_recovery():
    rng = np.random.default_rng(11)
    for _ in range(5):
        coeffs = rng.uniform(-4, 4, size=3)
        samples = [(k, sum(c * k ** (2.0 - 0.5 * h) for h, c in enumerate(coeffs)))
                   for k in KS]
        fit = fit_leading(samples, alpha=2.0, m=3)
        assert np.abs(fit.coefficients - coeffs).max() < 1e-9


def test_fit_validation_errors():
    with pytest.raises(DomainError):
        fit_leading([(2, 1.0), (4, 2.0)], alpha=2.0, m=1)
    with pytest.raises(DomainError):
        fit_leading([(2, 1.0), (2, 2.0), (4, 1.0), (8, 1.0)], alpha=2.0, m=1)


def test_ill_conditioned_basis_raises():
    # A tiny relative k-range cannot separate ten half-power columns.
    ks = np.linspace(1000.0, 1000.9, 14)
    samples = [(k, k ** 2) for k in ks]
    with pytest.raises(IllConditionedFitError):
        fit_leading(samples, alpha=2.0, m=10)


# ---------------------------------------------------------------------------
# Ladder residual
# ---------------------------------------------------------------------------

def test_ladder_slope_for_two_term_data():
    rep = ladder_residual_check([(k, 3 * k ** 2 - 5 * k ** 1.5) for k in KS], alpha=2.0, m=1)
    assert rep.matches and rep.consistent
    assert rep.slope == pytest.approx(1.5, abs=1e-6)


def test_ladder_inconclusive_at_floor():
    rep = ladder_residual_check([(k, 3.0 * k ** 2) for k in KS], alpha=2.0, m=1)
    assert rep.inconclusive and rep.slope is None


def test_ladder_band_controls_consistency():
    # an off-ladder k^1.9 contaminant leaves a measured slope near 1.7; the
    # band parameter decides whether that counts as consistent with k^1.5
    samples = [(k, 3 * k ** 2 + 2 * k ** 1.9) for k in KS]
    strict = ladder_residual_check(samples, alpha=2.0, m=1, band=0.1)
    loose = ladder_residual_check(samples, alpha=2.0, m=1, band=0.4)
    assert not strict.inconclusive
    assert not strict.consistent
    assert loose.consistent


def test_ladder_reports_off_prediction_but_consistent_slope():
    # a pure k^1 correction is faster than the generic k^1.5 prediction:
    # consistent one-sidedly, but not a two-sided match
    rep = ladder_residual_check([(k, 3 * k ** 2 + 5.0 * k) for k in KS], alpha=2.0, m=1)
    assert rep.consistent
    assert not rep.matches
    assert rep.slope == pytest.approx(1.0, abs=0.1)


# ---------------------------------------------------------------------------
# Super-polynomial decay
# ---------------------------------------------------------------------------

def test_decay_exponential_passes():
    rep = superpoly_decay([(k, np.exp(-k)) for k in KS], -10.0)
    assert rep.passed
    assert np.all(np.diff(rep.slopes) < 0)


def test_decay_power_law_fails():
    rep = superpoly_decay([(k, k ** -3.0) for k in KS], -10.0)
    assert not rep.passed
    assert np.abs(rep.slopes + 3.0).max() < 1e-9


def test_decay_requires_nonnegative():
    with pytest.raises(DomainError):
        superpoly_decay([(2, 1.0), (4, -1.0)], -10.0)
