"""Checks for the logistic criterion kernel and the scale calibration map.

Closed-form values below were computed by hand from f(x) = e^{-x}/(1+e^{-x})^2
and h(x) = x tanh(x/2).  The calibration constants were frozen from a separate
high-precision quadrature run and are pinned at 1e-6, the solver's own
tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqmle import (
    calibrate_scale,
    kernel,
    kernel_expectation,
    logistic_cdf,
    logistic_logpdf,
    logistic_pdf,
    scale_kernel,
)
from lqmle.distributions import logistic, normal, student_t, uniform
from lqmle.errors import NonIntegrableError
from lqmle.kernel import calibrate_stable_index, stable_kernel_expectation


def test_pdf_closed_form_values():
    assert logistic_pdf(0.0) == 0.25
    assert logistic_pdf(2.0) == pytest.approx(
        math.exp(-2) / (1 + math.exp(-2)) ** 2, abs=1e-15
    )
    assert logistic_cdf(0.0) == 0.5
    assert logistic_cdf(1.0) == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-15)


def test_pdf_is_derivative_of_cdf():
    x = np.linspace(-20.0, 20.0, 401)
    h = 1e-6
    fd = (logistic_cdf(x + h) - logistic_cdf(x - h)) / (2 * h)
    assert np.max(np.abs(fd - logistic_pdf(x))) < 1e-6


def test_logpdf_curvature_identity():
    # (log f)'' = -2 f, the inequality behind global concavity of the criterion
    x = np.linspace(-30.0, 30.0, 241)
    h = 1e-4
    curv = (logistic_logpdf(x + h) - 2 * logistic_logpdf(x) + logistic_logpdf(x - h)) / h**2
    assert np.max(np.abs(curv + 2 * logistic_pdf(x))) < 1e-5


def test_logpdf_safe_in_far_tails():
    # naive log(exp(-x)/(1+exp(-x))^2) overflows near +-750
    assert logistic_logpdf(800.0) == -800.0
    assert logistic_logpdf(-800.0) == -800.0
    assert np.isfinite(logistic_logpdf(np.array([-5000.0, 5000.0]))).all()


def test_scale_kernel_values():
    assert scale_kernel(0.0) == 0.0
    assert scale_kernel(1.0) == pytest.approx(math.tanh(0.5), abs=1e-15)
    # h(x) ~ |x| in the tails
    assert 0.999 < scale_kernel(50.0) / 50.0 <= 1.0


@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_kernel_symmetries(x):
    assert logistic_pdf(x) == pytest.approx(logistic_pdf(-x), rel=1e-12)
    assert logistic_cdf(x) + logistic_cdf(-x) == pytest.approx(1.0, abs=1e-12)
    assert scale_kernel(x) == pytest.approx(scale_kernel(-x), rel=1e-12)
    assert scale_kernel(x) >= 0.0


@given(
    st.floats(min_value=0.01, max_value=80, allow_nan=False),
    st.floats(min_value=0.01, max_value=80, allow_nan=False),
)
def test_scale_kernel_monotone_on_positive_axis(a, b):
    lo, hi = sorted((a, b))
    assert scale_kernel(lo) <= scale_kernel(hi) + 1e-12


def test_identification_holds_for_logistic_innovations():
    assert kernel_expectation(logistic()) == pytest.approx(1.0, abs=1e-10)


# Frozen outputs of calibrate_scale at tol=1e-6.  A change here means the
# quadrature or the root bracketing changed, not a cosmetic refactor.
CALIBRATED = {
    ("normal", None): 1.7488009631633759,
    ("uniform", None): 2.8494132459163666,
    ("student_t", 3.0): 1.2454147040843964,
    ("student_t", 2.0): 0.9585596024990082,
}


@pytest.mark.parametrize("family,shape", sorted(CALIBRATED, key=str))
def test_calibrated_scales_frozen(family, shape):
    got = calibrate_scale(family, shape=shape)
    assert got == pytest.approx(CALIBRATED[(family, shape)], abs=1e-6)


@pytest.mark.parametrize("family,shape", sorted(CALIBRATED, key=str))
def test_calibration_round_trip(family, shape):
    scale = calibrate_scale(family, shape=shape)
    if family == "normal":
        dist = normal(scale)
    elif family == "uniform":
        dist = uniform(scale)
    else:
        dist = student_t(shape, scale)
    assert abs(kernel_expectation(dist) - 1.0) < 5e-6


def test_calibrate_rejects_stable_family():
    # no closed quadrature for stable laws, the MC helper handles them
    with pytest.raises(ValueError):
        calibrate_scale("stable")


def test_student_t_needs_finite_mean():
    with pytest.raises(NonIntegrableError):
        student_t(1.0)
    with pytest.raises(NonIntegrableError):
        student_t(0.5)


def test_stable_index_two_matches_gaussian():
    # index 2 with unit scale is N(0, 2), so psi must agree with the
    # quadrature value for a normal at sd sqrt(2)
    val, se = stable_kernel_expectation(2.0, scale=1.0, draws=200_000, seed=11)
    ref = kernel_expectation(normal(math.sqrt(2.0)))
    assert abs(val - ref) < 3 * se


def test_stable_kernel_expectation_reproducible():
    a = stable_kernel_expectation(1.7, draws=50_000, seed=5)
    b = stable_kernel_expectation(1.7, draws=50_000, seed=5)
    assert a == b


def test_stable_calibration_small_draw_budget():
    # with 10^6 draws the root lands near the production value 1.69;
    # the full-budget check lives in the acceptance gate
    idx = calibrate_stable_index(tol=2e-3, draws=10**6, seed=20240817)
    assert 1.6 < idx < 1.78


def test_stable_index_out_of_range():
    with pytest.raises(NonIntegrableError):
        stable_kernel_expectation(1.0, draws=1000, seed=0)
    with pytest.raises(NonIntegrableError):
        stable_kernel_expectation(2.3, draws=1000, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0))
def test_expectation_increases_with_scale(scale):
    # psi is strictly increasing in the scale of the innovation law,
    # which is what makes the calibration root unique
    lo = kernel_expectation(normal(scale))
    hi = kernel_expectation(normal(scale * 1.1))
    assert hi > lo


def test_empirical_distribution_expectation():
    vals = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    from lqmle.distributions import empirical

    got = kernel_expectation(empirical(vals))
    want = np.mean(vals * np.tanh(vals / 2))
    assert got == pytest.approx(want, abs=1e-12)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(kernel, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel, name, counting)
    return calls


@pytest.mark.parametrize(
    "family,shape", sorted(CALIBRATED, key=str) + [("student_t", 1.05)]
)
def test_calibration_needs_few_quadratures(monkeypatch, family, shape):
    # brentq reuses the two bracket values and converges superlinearly;
    # t(1.05) has its root below the first bracket, which must grow
    tight = calibrate_scale(family, shape=shape, tol=1e-12)
    calls = _count_calls(monkeypatch, "kernel_expectation")
    got = calibrate_scale(family, shape=shape)
    assert len(calls) <= 10
    assert abs(got - tight) <= 0.5e-6


def test_stable_calibration_needs_few_passes(monkeypatch):
    # each pass runs the whole Monte Carlo sum; the bracket ends come first
    # and every later pass lies inside them
    tight = calibrate_stable_index(tol=1e-9, draws=10**6)
    calls = _count_calls(monkeypatch, "stable_kernel_expectation")
    got = calibrate_stable_index(tol=2e-3, draws=10**6)
    assert len(calls) <= 8
    assert [c[0] for c in calls[:2]] == [1.05, 2.0]
    assert all(1.05 < c[0] < 2.0 for c in calls[2:])
    assert abs(got - tight) <= 1e-3
