"""Checks for the logistic criterion kernel and the scale calibration map.

Closed-form values below were computed by hand from f(x) = e^{-x}/(1+e^{-x})^2
and h(x) = x tanh(x/2).  The calibration constants were frozen from a separate
high-precision quadrature run and are pinned at 1e-6, the solver's own
tolerance.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqmle
from lqmle import (
    calibrate_scale,
    kernel,
    kernel_expectation,
    logistic_cdf,
    logistic_logpdf,
    logistic_pdf,
    scale_kernel,
)
from lqmle.distributions import InnovationDist, logistic, normal, sample_symmetric_stable, stable, student_t, uniform
from lqmle.errors import BracketFailure, NonIntegrableError
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


def test_logistic_psi_pair_is_the_score_of_the_log_density():
    # psi = -(log f)' = 2 F - 1 and psi' = 2 f
    x = np.linspace(-30.0, 30.0, 241)
    psi, dpsi = kernel.logistic_psi(x)
    h = 1e-5
    fd = -(logistic_logpdf(x + h) - logistic_logpdf(x - h)) / (2 * h)
    assert np.max(np.abs(psi - fd)) < 1e-9
    np.testing.assert_allclose(psi, 2 * logistic_cdf(x) - 1, atol=1e-15)
    np.testing.assert_allclose(dpsi, 2 * logistic_pdf(x), rtol=1e-12, atol=1e-15)


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
    # the stable law is calibrated in its index, by calibrate_stable_index
    with pytest.raises(ValueError):
        calibrate_scale("stable")


def test_student_t_needs_finite_mean():
    with pytest.raises(NonIntegrableError):
        student_t(1.0)
    with pytest.raises(NonIntegrableError):
        student_t(0.5)


def test_stable_index_two_matches_gaussian():
    # index 2 with unit scale is N(0, 2), so psi must agree with the
    # density quadrature for a normal at sd sqrt(2)
    ref = kernel_expectation(normal(math.sqrt(2.0)))
    assert abs(stable_kernel_expectation(2.0) - ref) < 1e-10


@pytest.mark.parametrize("index,scale", [(1.69, 1.0), (1.5, 0.7), (1.9, 1.3)])
def test_stable_kernel_expectation_matches_sampled_mean(index, scale):
    # an independent estimate of the same expectation: the kernel mean
    # over Chambers-Mallows-Stuck draws, within 4 standard errors
    x = sample_symmetric_stable(np.random.default_rng(20240817), index, 2_000_000)
    vals = scale_kernel(scale * x)
    se = vals.std() / math.sqrt(vals.size)
    assert abs(stable_kernel_expectation(index, scale) - vals.mean()) < 4 * se


def test_stable_calibrated_index():
    assert 1.68 <= calibrate_stable_index() <= 1.70


def test_stable_index_out_of_range():
    with pytest.raises(NonIntegrableError):
        stable_kernel_expectation(1.0)
    with pytest.raises(NonIntegrableError):
        stable_kernel_expectation(2.3)


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
    # the bracket ends come first and every later quadrature lies inside them
    tight = calibrate_stable_index(tol=1e-12)
    calls = _count_calls(monkeypatch, "stable_kernel_expectation")
    got = calibrate_stable_index()
    assert len(calls) <= 8
    assert [c[0] for c in calls[:2]] == [1.05, 2.0]
    assert all(1.05 < c[0] < 2.0 for c in calls[2:])
    assert abs(got - tight) <= 0.5e-6


@pytest.mark.parametrize(
    "kwargs,error,message",
    [
        (dict(family="cauchy"), ValueError, "unknown family 'cauchy'"),
        (dict(family="normal", scale=0.0), ValueError, "scale must be positive and finite"),
        (dict(family="normal", scale=-1.0), ValueError, "scale must be positive and finite"),
        (dict(family="normal", scale=math.nan), ValueError, "scale must be positive and finite"),
        (dict(family="normal", scale=math.inf), ValueError, "scale must be positive and finite"),
        (dict(family="stable"), NonIntegrableError, "stable index must lie in"),
        (dict(family="stable", shape=1.0), NonIntegrableError, "stable index must lie in"),
        (dict(family="stable", shape=2.5), NonIntegrableError, "stable index must lie in"),
        (dict(family="empirical"), ValueError, "needs at least one sample value"),
        (dict(family="empirical", data=(1.0, math.nan)), ValueError, "sample values must be finite"),
    ],
    ids=["unknown-family", "zero-scale", "negative-scale", "nan-scale", "inf-scale",
         "stable-no-index", "stable-index-1", "stable-index-2.5", "empirical-empty", "empirical-nan"],
)
def test_innovation_dist_refuses_a_bad_law(kwargs, error, message):
    with pytest.raises(error, match=message):
        InnovationDist(**kwargs)


@pytest.mark.parametrize("index,scale", [(1.3, 1.0), (1.6885, 0.8), (2.0, 1.0), (2.0, 2.5)])
def test_kernel_expectation_of_a_stable_law_is_the_characteristic_function_route(index, scale):
    dist = stable(index, scale)
    assert (dist.family, dist.shape, dist.scale) == ("stable", index, scale)
    assert kernel_expectation(dist) == stable_kernel_expectation(index, scale)


@pytest.mark.parametrize(
    "objective,lo,hi,grow,root",
    [
        (lambda x: x - 100.0, 0.25, 4.0, True, 100.0),  # the upper end widens 4 -> 256
        (lambda x: x - 0.01, 0.25, 4.0, True, 0.01),  # the lower end narrows 0.25 -> 1/256
        (lambda x: x - 10.0, 1.0, 2.0, False, None),  # no widening without grow
        (lambda x: -1.0, 0.25, 4.0, True, None),  # no sign change anywhere
    ],
    ids=["widen-upper", "widen-lower", "fixed-bracket", "never-brackets"],
)
def test_find_root_widens_its_bracket_or_refuses(objective, lo, hi, grow, root):
    if root is None:
        with pytest.raises(BracketFailure, match="could not bracket the unit expectation"):
            kernel._find_root(objective, lo, hi, 1e-12, grow=grow)
    else:
        assert kernel._find_root(objective, lo, hi, 1e-12, grow=grow) == pytest.approx(root, abs=1e-10)


def test_distributions_only_draws_and_kernel_owns_the_closed_forms():
    # distributions validates and draws; the base-law density, E|X| and
    # support end that the scale functional integrates live in kernel
    root = Path(lqmle.__file__).parent
    dist_tree = ast.parse((root / "distributions.py").read_text())
    imported = [a.name for n in ast.walk(dist_tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module or "" for n in ast.walk(dist_tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "scipy"], imported
    (cls,) = [n for n in dist_tree.body if isinstance(n, ast.ClassDef) and n.name == "InnovationDist"]
    members = [n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    members += [t.id for n in cls.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)]
    members += [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    assert "sample" in members and not [m for m in members if m.startswith("base_")], members
    kernel_tree = ast.parse((root / "kernel.py").read_text())
    top_level = [n for n in kernel_tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    built = [
        node.lineno
        for stmt in top_level
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "InnovationDist"
    ]
    assert not built, f"kernel.py builds an InnovationDist at module level, line(s) {built}"
