"""Filter recursions, simulation paths, and stability diagnostics.

The frozen triples were recomputed by hand from the zero-initialized
recursions before being pinned here.
"""

import ast
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.signal import lfilter

import lqmle
from lqmle import estimation
from lqmle.distributions import empirical, logistic, normal, student_t
from lqmle.errors import InvertibilityError, NonFiniteObjective, NonstationaryRegionWarning, ShapeMismatch
from lqmle.estimation import fit
from lqmle.kernel import scale_kernel
from lqmle.models import MODEL_REGISTRY, lagged, make_model, simulate
from lqmle.models import expar as expar_module
from lqmle.models.base import FilterOutput, _adjoint, _all_pole, _band, _floor_sigma2, _seeded_path
from lqmle.models.stationarity import lyapunov_exponent

Y3 = np.array([1.0, 2.0, 3.0])


def test_registry_contents():
    assert list(MODEL_REGISTRY) == ["dar", "garch", "arma_garch", "expar"]
    assert all(cls.name == key for key, cls in MODEL_REGISTRY.items())
    with pytest.raises(ValueError):
        make_model("arch")


def test_lagged_zero_fills():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(lagged(x, 1), [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_array_equal(lagged(x, 3), [0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(lagged(x, 0), x)


def test_garch_filter_hand_recursion():
    # sigma2_1 = 0.2
    # sigma2_2 = 0.2 + 0.1 * 1^2 + 0.3 * 0.2   = 0.36
    # sigma2_3 = 0.2 + 0.1 * 2^2 + 0.3 * 0.36  = 0.708
    m = make_model("garch", p=1, q=1)
    out = m.filter(Y3, np.array([0.2, 0.1, 0.3]))
    np.testing.assert_allclose(out.sigma2, [0.2, 0.36, 0.708], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(out.mean, np.zeros(3))


def test_garch_reduces_to_arch_when_beta_zero():
    m = make_model("garch", p=1, q=1)
    out = m.filter(Y3, np.array([0.5, 0.2, 0.0]))
    want = 0.5 + 0.2 * lagged(Y3, 1) ** 2
    np.testing.assert_allclose(out.sigma2, want, atol=1e-15)


def test_garch_zero_data_closed_form():
    # with y identically zero the recursion is sigma2_t = a0 (1 - b^t) / (1 - b)
    m = make_model("garch", p=1, q=1)
    a0, b = 0.7, 0.4
    n = 12
    out = m.filter(np.zeros(n), np.array([a0, 0.1, b]))
    t = np.arange(1, n + 1)
    want = a0 * (1 - b**t) / (1 - b)
    np.testing.assert_allclose(out.sigma2, want, atol=1e-14)


def test_dar_filter_hand_recursion():
    m = make_model("dar", p=1, q=1)
    out = m.filter(Y3, np.array([0.5, 0.3, 1.0, 0.25]))
    np.testing.assert_allclose(out.mean, [0.5, 0.8, 1.1], atol=1e-15)
    np.testing.assert_allclose(out.sigma2, [1.0, 1.25, 2.0], atol=1e-15)


def test_expar_filter_hand_values():
    m = make_model("expar", p=1)
    out = m.filter(Y3, np.array([0.4, 0.8, 2.0]))
    ylag = lagged(Y3, 1)
    want = (0.4 + 0.8 * np.exp(-2.0 * ylag**2)) * ylag
    np.testing.assert_allclose(out.mean, want, atol=1e-15)
    np.testing.assert_array_equal(out.sigma, np.ones(3))


def test_arma_garch_filter_hand_recursion():
    # g_1 = 0.1,            e_1 = 0.9
    # g_2 = 0.1 + 0.3 + 0.2 * 0.9 = 0.58,  e_2 = 1.42
    # g_3 = 0.1 + 0.6 + 0.2 * 1.42 = 0.984
    # s_1 = 0.2
    # s_2 = 0.2 + 0.1 * 0.9^2 + 0.3 * 0.2 = 0.341
    # s_3 = 0.2 + 0.1 * 1.42^2 + 0.3 * 0.341 = 0.50394
    m = make_model("arma_garch")
    out = m.filter(Y3, np.array([0.1, 0.3, 0.2, 0.2, 0.1, 0.3]))
    np.testing.assert_allclose(out.mean, [0.1, 0.58, 0.984], atol=1e-15)
    np.testing.assert_allclose(out.sigma2, [0.2, 0.341, 0.50394], atol=1e-15)


def test_arma_garch_mean_matches_dar_when_ma_zero():
    # with the MA weight off, the conditional mean recursion is the
    # same first order autoregression the DAR model uses
    y = np.linspace(-2, 2, 40)
    ag = make_model("arma_garch")
    dar = make_model("dar", p=1, q=1)
    m_ag = ag.filter(y, np.array([0.3, 0.5, 0.0, 1.0, 0.1, 0.2])).mean
    m_dar = dar.filter(y, np.array([0.3, 0.5, 1.0, 0.1])).mean
    np.testing.assert_allclose(m_ag, m_dar, rtol=0, atol=1e-14)


def test_param_vector_wrap_and_names():
    m = make_model("dar", p=1, q=1)
    assert m.param_names == ("const", "ar1", "alpha0", "alpha1")
    pv = m.wrap(np.array([0.0, 0.1, 1.0, 0.2]))
    assert pv.as_dict()["alpha0"] == 1.0
    assert pv.dim == 4


def test_filter_rejects_wrong_theta_length():
    m = make_model("garch", p=1, q=1)
    with pytest.raises(ShapeMismatch):
        m.filter(Y3, np.array([0.2, 0.1]))


def _dense(block, n, d):
    # None is the filters' mark for a derivative block that is identically zero
    return np.zeros((n, d)) if block is None else block


def test_filter_derivatives_match_finite_differences():
    rng = np.random.default_rng(42)
    cases = [
        ("dar", dict(p=1, q=1), np.array([0.3, 0.4, 0.8, 0.3])),
        ("garch", dict(p=1, q=1), np.array([0.6, 0.15, 0.45])),
        ("expar", dict(p=1), np.array([0.3, 0.6, 1.2])),
        ("arma_garch", dict(), np.array([0.2, 0.3, 0.25, 0.7, 0.1, 0.35])),
    ]
    for name, kw, theta in cases:
        m = make_model(name, **kw)
        y = rng.standard_normal(25)
        out = m.filter(y, theta, order=1)
        h = 1e-6
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            dmean = (m.filter(y, tp).mean - m.filter(y, tm).mean) / (2 * h)
            dsig2 = (m.filter(y, tp).sigma2 - m.filter(y, tm).sigma2) / (2 * h)
            got_mean = _dense(out.dmean, y.size, m.dim)[:, j]
            got_sig2 = _dense(out.dsigma2, y.size, m.dim)[:, j]
            np.testing.assert_allclose(got_mean, dmean, atol=1e-6, err_msg=f"{name} dmean[{j}]")
            np.testing.assert_allclose(got_sig2, dsig2, atol=1e-6, err_msg=f"{name} dsigma2[{j}]")


def test_filter_second_derivatives_match_finite_differences():
    # curvature(wg, ws) = sum_t (wg_t d2 g_t + ws_t d2 sigma2_t); its column j
    # is the central difference in theta_j of the weighted order-1 blocks
    rng = np.random.default_rng(3)
    cases = [
        ("dar", dict(p=1, q=1), [0.3, 0.4, 0.8, 0.3]),
        ("dar", dict(p=2, q=2), [0.3, 0.4, -0.2, 0.8, 0.3, 0.2]),
        ("garch", dict(p=1, q=1), [0.6, 0.15, 0.45]),
        ("garch", dict(p=1, q=2), [0.6, 0.15, 0.3, 0.2]),
        ("garch", dict(p=2, q=1), [0.6, 0.1, 0.1, 0.45]),
        ("expar", dict(p=1), [0.3, 0.6, 1.2]),
        ("expar", dict(p=2), [0.3, -0.2, 0.6, 0.4, 1.2]),
        ("arma_garch", dict(), [0.2, 0.3, 0.25, 0.7, 0.1, 0.35]),
        ("arma_garch", dict(include_intercept=False), [0.3, 0.25, 0.7, 0.1, 0.35]),
    ]
    h = 1e-5
    for name, kw, theta in cases:
        m = make_model(name, **kw)
        theta = np.array(theta)
        y = rng.standard_normal(40)
        wg, ws = rng.standard_normal((2, y.size))
        curvature = m.filter(y, theta, order=2).curvature
        got = np.zeros((m.dim, m.dim)) if curvature is None else curvature(wg, ws)
        fd = np.empty_like(got)
        for j in range(m.dim):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            up, dn = m.filter(y, tp, order=1), m.filter(y, tm, order=1)
            dg = _dense(up.dmean, y.size, m.dim) - _dense(dn.dmean, y.size, m.dim)
            ds2 = _dense(up.dsigma2, y.size, m.dim) - _dense(dn.dsigma2, y.size, m.dim)
            fd[:, j] = (wg @ dg + ws @ ds2) / (2 * h)
        assert curvature is not None or name == "dar"
        tol = 1e-6 * (1.0 + np.max(np.abs(fd)))
        np.testing.assert_allclose(got, fd, rtol=0, atol=tol, err_msg=name)
        np.testing.assert_array_equal(got, got.T)


LAYOUT_CASES = [
    ("dar", dict(p=1, q=1), [0.3, 0.4, 0.8, 0.3]),
    ("dar", dict(p=2, q=2), [0.3, 0.4, -0.2, 0.8, 0.3, 0.2]),
    ("garch", dict(p=1, q=1), [0.6, 0.15, 0.45]),
    ("garch", dict(p=1, q=2), [0.6, 0.15, 0.3, 0.2]),
    ("garch", dict(p=2, q=1), [0.6, 0.1, 0.1, 0.45]),
    ("expar", dict(p=1), [0.3, 0.6, 1.2]),
    ("expar", dict(p=2), [0.3, -0.2, 0.6, 0.4, 1.2]),
    ("arma_garch", dict(), [0.2, 0.3, 0.25, 0.7, 0.1, 0.35]),
    ("arma_garch", dict(include_intercept=False), [0.3, 0.25, 0.7, 0.1, 0.35]),
]
LAYOUT_IDS = ["dar11", "dar22", "garch11", "garch12", "garch21", "expar1", "expar2",
              "arma_garch", "arma_garch-no-intercept"]
# the blocks a filter leaves None because they vanish identically
ZERO_BLOCKS = {"garch": "dmean", "expar": "dsigma2"}
ZERO_BLOCK_CASES = [
    pytest.param(*case, id=i) for case, i in zip(LAYOUT_CASES, LAYOUT_IDS) if case[0] in ZERO_BLOCKS
]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name,kw,theta", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_derivative_blocks_are_column_major(name, kw, theta, order):
    # every depth runs one pass: order 0 derived later gives order 2's
    # bits, and order 1 gives its first-order bits without curvature
    m = make_model(name, **kw)
    y = np.random.default_rng(8).standard_normal(50)
    out = m.filter(y, np.array(theta), order=order)
    if order == 0:
        assert out.dmean is out.dsigma2 is out.curvature is None
        out = out.derive()
    two = m.filter(y, np.array(theta), order=2)
    for field in ("mean", "sigma2", "sigma"):
        assert getattr(out, field).tobytes() == getattr(two, field).tobytes(), field
    for field in ("dmean", "dsigma2"):
        block = getattr(out, field)
        if ZERO_BLOCKS.get(name) == field:
            assert block is None, field
        else:
            assert block.shape == (y.size, m.dim), field
            assert block.flags.f_contiguous, field
            assert block.tobytes() == getattr(two, field).tobytes(), field
    if order == 1 or two.curvature is None:
        assert out.curvature is None
    else:
        w = np.random.default_rng(9).standard_normal((2, y.size))
        assert out.curvature(*w).tobytes() == two.curvature(*w).tobytes()


@pytest.mark.parametrize("name,kw,theta", ZERO_BLOCK_CASES)
def test_none_blocks_have_zero_finite_differences(name, kw, theta):
    # None promises an identically zero block: moving any parameter
    # leaves that moment exactly where it was
    moment = {"dmean": "mean", "dsigma2": "sigma2"}[ZERO_BLOCKS[name]]
    m = make_model(name, **kw)
    y = np.random.default_rng(9).standard_normal(50)
    theta = np.array(theta)
    for j in range(m.dim):
        for h in (1e-6, 1e-2):
            step = np.zeros(m.dim)
            step[j] = h
            up = getattr(m.filter(y, theta + step), moment)
            dn = getattr(m.filter(y, theta - step), moment)
            assert np.array_equal(up - dn, np.zeros(y.size)), (moment, j, h)


def test_simulate_is_seed_deterministic():
    m = make_model("dar", p=1, q=1)
    th = np.array([0.5, 0.3, 1.0, 0.2])
    a = simulate(m, th, 100, logistic(), seed=9)
    b = simulate(m, th, 100, logistic(), seed=9)
    c = simulate(m, th, 100, logistic(), seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_path_with_zero_innovations_is_the_skeleton():
    # zero innovations turn the path into the deterministic skeleton
    m = make_model("dar", p=1, q=1)
    th = np.array([1.0, 0.5, 1.0, 0.2])
    y = m.path(th, np.zeros(50))
    # y_t = 1 + 0.5 y_{t-1} converges to 2
    assert abs(y[-1] - 2.0) < 1e-4
    assert y[0] == 1.0


def test_simulate_long_run_mean():
    m = make_model("dar", p=1, q=0)
    th = np.array([1.0, 0.5, 1.0])
    y = simulate(m, th, 200_000, logistic(), seed=123, burn=500)
    # stationary mean c / (1 - ar1) = 2; path se roughly accounts for
    # the AR autocorrelation via the factor (1+phi)/(1-phi)
    sd = y.std(ddof=1)
    se = sd / np.sqrt(len(y)) * np.sqrt((1 + 0.5) / (1 - 0.5))
    assert abs(y.mean() - 2.0) < 5 * se


def test_simulate_burn_drops_transient():
    m = make_model("garch", p=1, q=1)
    th = np.array([1.0, 0.1, 0.3])
    full = simulate(m, th, 60, logistic(), seed=4, burn=0)
    burned = simulate(m, th, 50, logistic(), seed=4, burn=10)
    np.testing.assert_array_equal(full[10:], burned)


def test_simulate_seeds_alike_from_an_int_and_its_seed_sequence():
    m = make_model("garch", p=1, q=1)
    th = np.array([1.0, 0.1, 0.3])
    a = simulate(m, th, 50, logistic(), seed=4)
    b = simulate(m, th, 50, logistic(), seed=np.random.SeedSequence(4))
    np.testing.assert_array_equal(a, b)
    child = simulate(m, th, 50, logistic(), seed=np.random.SeedSequence(4, spawn_key=(0,)))
    assert not np.array_equal(a, child)


@pytest.mark.parametrize("burn", [0, 100])
def test_simulate_refuses_a_divergent_path_without_warnings(burn):
    # DAR(1,1) in its box but explosive under the logistic law: the
    # path overflows; pytest runs with warnings as errors
    m = make_model("dar", p=1, q=1)
    with pytest.raises(NonFiniteObjective, match="simulated series is not finite from observation"):
        simulate(m, np.array([0.1, 3.0, 0.3, 40.0]), 400, logistic(), seed=2, burn=burn)


@pytest.mark.parametrize("nobs,burn", [(30, -1), (0, 0), (-5, 0)])
def test_simulate_rejects_negative_burn_and_empty_series(nobs, burn):
    # burn=-1 used to return one observation, nobs=0 an empty series
    m = make_model("dar", p=1, q=1)
    with pytest.raises(ShapeMismatch, match="nobs >= 1 and burn >= 0"):
        simulate(m, np.array([1.0, 0.5, 0.3, 0.5]), nobs, logistic(), seed=1, burn=burn)


def test_lyapunov_contractive_dar():
    m = make_model("dar", p=1, q=1)
    val, se = lyapunov_exponent(m, np.array([0.0, 0.5, 1.0, 0.5]), logistic())
    assert val < 0
    assert 0 < se < 0.01


def test_lyapunov_garch_exact_when_arch_off():
    m = make_model("garch", p=1, q=1)
    val, se = lyapunov_exponent(m, np.array([1.0, 0.0, 0.4]), logistic())
    assert val == pytest.approx(np.log(0.4), abs=1e-14)
    assert se == 0.0


def test_lyapunov_garch_is_the_mean_log_volatility_coefficient():
    # every draw of a one-point law is 1.5, so beta1 + alpha1 eta^2 = 0.95
    # on each; the mean over the draws only rounds
    m = make_model("garch", p=1, q=1)
    val, se = lyapunov_exponent(m, np.array([1.0, 0.2, 0.5]), empirical([1.5]))
    assert val == pytest.approx(np.log(0.95), rel=1e-12)
    assert se < 1e-12


# (model, kwargs, theta, integrand of an innovation array) for the count test
_LYAPUNOV_CASES = {
    "dar": ("dar", {}, (0.1, 0.5, 1.0, 0.4), lambda e: np.log(np.abs(0.5 + np.sqrt(0.4) * e))),
    "garch": ("garch", {}, (0.5, 0.15, 0.6), lambda e: np.log(0.6 + 0.15 * e * e)),
    "arma_garch": (
        "arma_garch", {"include_intercept": False}, (0.3, 0.2, 0.2, 0.1, 0.3), lambda e: np.log(0.3 + 0.1 * e * e)
    ),
}


@pytest.mark.parametrize("scale", [1.0, 1.7])
@pytest.mark.parametrize("n", [1, 2, 57, 399, 400])
@pytest.mark.parametrize("case", list(_LYAPUNOV_CASES))
def test_lyapunov_counts_reproduce_the_explicit_resample(case, n, scale):
    name, kw, theta, integrand = _LYAPUNOV_CASES[case]
    law = empirical(np.random.default_rng(n).standard_t(2, n), scale)
    draws = integrand(law.sample(np.random.Generator(np.random.Philox(np.random.SeedSequence(0))), 100_000))
    val, se = lyapunov_exponent(make_model(name, **kw), np.array(theta), law)
    assert val == pytest.approx(np.mean(draws), rel=1e-12)
    # a one-point law's draws are all equal: both standard errors are rounding, below 1e-18
    assert se == pytest.approx(np.std(draws, ddof=1) / np.sqrt(draws.size), rel=1e-12, abs=1e-15 if n == 1 else 0)


def test_lyapunov_rejects_degenerate_recursion():
    m = make_model("dar", p=1, q=1)
    with pytest.raises(ValueError):
        lyapunov_exponent(m, np.array([0.0, 0.0, 1.0, 0.0]), logistic())
    # a draw of 0 with ar1 = 0 logs to -inf: refused, without a warning
    with pytest.raises(ValueError, match="not finite"):
        lyapunov_exponent(m, np.array([0.0, 0.0, 1.0, 0.5]), empirical([0.0, 1.0]))


def test_lyapunov_rejects_unsupported_orders():
    m = make_model("dar", p=2, q=1)
    with pytest.raises(ValueError):
        lyapunov_exponent(m, np.array([0.0, 0.2, 0.1, 1.0, 0.3]), logistic())


def test_lyapunov_arma_garch_exact_when_arch_off():
    # alpha1 = 0 leaves sigma2_t = alpha0 + beta1 sigma2_{t-1}: exponent log(beta1)
    for kw, theta in [
        (dict(), [0.1, 0.4, 0.2, 0.5, 0.0, 0.6]),
        (dict(include_intercept=False), [0.4, 0.2, 0.5, 0.0, 0.6]),
    ]:
        m = make_model("arma_garch", **kw)
        val, se = lyapunov_exponent(m, np.array(theta), logistic())
        assert val == np.log(0.6)
        assert se == 0.0


# (name, lower, upper, template) of each parameter, in theta order
_GOLDEN_TABLES = [
    ("dar", dict(p=1, q=1), [
        ("const", -10.0, 10.0, 0.0), ("ar1", -5.0, 5.0, 0.0),
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 50.0, 0.1),
    ]),
    ("dar", dict(p=0, q=0), [("const", -10.0, 10.0, 0.0), ("alpha0", 1e-06, 100.0, 1.0)]),
    ("dar", dict(p=2, q=3), [
        ("const", -10.0, 10.0, 0.0), ("ar1", -5.0, 5.0, 0.0), ("ar2", -5.0, 5.0, 0.0),
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 50.0, 0.1),
        ("alpha2", 0.0, 50.0, 0.1), ("alpha3", 0.0, 50.0, 0.1),
    ]),
    ("garch", dict(p=1, q=1), [
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 0.9999, 0.1), ("beta1", 0.0, 0.9999, 0.3),
    ]),
    ("garch", dict(p=2, q=0), [
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 0.9999, 0.05), ("alpha2", 0.0, 0.9999, 0.05),
    ]),
    ("garch", dict(p=3, q=2), [
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 0.9999, 0.03333333333333333),
        ("alpha2", 0.0, 0.9999, 0.03333333333333333), ("alpha3", 0.0, 0.9999, 0.03333333333333333),
        ("beta1", 0.0, 0.9999, 0.15), ("beta2", 0.0, 0.9999, 0.15),
    ]),
    ("arma_garch", dict(), [
        ("const", -10.0, 10.0, 0.0), ("ar1", -0.999, 0.999, 0.1), ("ma1", -0.999, 0.999, 0.1),
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 0.9999, 0.1), ("beta1", 0.0, 0.9999, 0.3),
    ]),
    ("arma_garch", dict(include_intercept=False), [
        ("ar1", -0.999, 0.999, 0.1), ("ma1", -0.999, 0.999, 0.1),
        ("alpha0", 1e-06, 100.0, 1.0), ("alpha1", 0.0, 0.9999, 0.1), ("beta1", 0.0, 0.9999, 0.3),
    ]),
    ("expar", dict(p=1), [("ar1", -5.0, 5.0, 0.0), ("nl1", -5.0, 5.0, 0.0), ("decay", 1e-06, 100.0, 1.0)]),
    ("expar", dict(p=3), [
        ("ar1", -5.0, 5.0, 0.0), ("ar2", -5.0, 5.0, 0.0), ("ar3", -5.0, 5.0, 0.0),
        ("nl1", -5.0, 5.0, 0.0), ("nl2", -5.0, 5.0, 0.0), ("nl3", -5.0, 5.0, 0.0),
        ("decay", 1e-06, 100.0, 1.0),
    ]),
]


@pytest.mark.parametrize(
    "name,kw,rows",
    _GOLDEN_TABLES,
    ids=["dar11", "dar00", "dar23", "garch11", "garch20", "garch32",
         "arma_garch", "arma_garch-no-intercept", "expar1", "expar3"],
)
def test_parameter_tables_match_golden(name, kw, rows):
    m = make_model(name, **kw)
    names, lo, hi, template = zip(*rows)
    assert m.param_names == names
    assert m.dim == len(rows)
    got_lo, got_hi = m.default_bounds()
    for got, want in [(got_lo, lo), (got_hi, hi), (m._template, template)]:
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    assert [tuple(row) for row in m.param_table] == rows


@pytest.mark.parametrize(
    "name,kw",
    [("dar", dict(p=1, q=1)), ("dar", dict(p=0, q=2)), ("dar", dict(p=3, q=1)),
     ("garch", dict(p=1, q=1)), ("garch", dict(p=2, q=0)), ("garch", dict(p=1, q=3)),
     ("arma_garch", {}), ("arma_garch", dict(include_intercept=False)),
     ("expar", dict(p=1)), ("expar", dict(p=2))],
)
def test_table_constants_are_cached_read_only_and_pickle(name, kw):
    # names, dim, bounds and template are derived once per instance; the
    # arrays are shared by every caller, so writing to them must raise,
    # also in a copy sent to a pool worker
    m = make_model(name, **kw)
    names, lo, hi, template = zip(*m.param_table)
    m.default_bounds()
    for model in (m, pickle.loads(pickle.dumps(m))):
        assert model == m
        assert model.param_names == names and model.dim == len(names)
        assert model.default_bounds() is model.default_bounds()
        got_lo, got_hi = model.default_bounds()
        for got, want in [(got_lo, lo), (got_hi, hi), (model._template, template)]:
            assert got.tobytes() == np.array(want, dtype=float).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0


def test_start_values_land_inside_bounds(monkeypatch):
    # every start the fit runs (the template, the start values and the
    # best clipped candidate of each group) must be admissible, and the
    # GARCH-type candidates must lie in the stationary region
    ran = []
    real = estimation._newton

    def recording(*args):
        ran.append(args[5].copy())  # the start th0
        return real(*args)

    monkeypatch.setattr(estimation, "_newton", recording)
    rng = np.random.default_rng(8)
    z = rng.standard_normal(80)
    for name, kw in [
        ("dar", dict(p=1, q=1)),
        ("dar", dict(p=2, q=0)),
        ("garch", dict(p=1, q=1)),
        ("garch", dict(p=2, q=1)),
        ("garch", dict(p=1, q=2)),
        ("garch", dict(p=1, q=0)),
        ("expar", dict(p=1)),
        ("expar", dict(p=2)),
        ("arma_garch", dict()),
        ("arma_garch", dict(include_intercept=False)),
    ]:
        m = make_model(name, **kw)
        lo, hi = m.default_bounds()
        for y in (z, 30.0 * z):
            starts = m.start_values(y)
            groups = m.start_candidates(y)
            candidates = [c for group in groups for c in group]
            assert (len(groups) > 0) == (name != "dar"), name
            assert all(groups), name
            ran.clear()
            fit(m, y)
            assert len(ran) == 1 + len(starts) + len(groups), name
            for start in [*starts, *candidates]:
                assert start.shape == (m.dim,), name
            for start in ran:
                assert np.all((lo <= start) & (start <= hi)), (name, start)
            if name in ("garch", "arma_garch"):
                for c in candidates:
                    lags = [v for k, v in zip(m.param_names, c) if k.startswith(("alpha", "beta")) and k != "alpha0"]
                    assert sum(lags) < 0.99, (name, c)


def test_dar_data_start_regresses_on_the_scored_rows():
    # the data start uses rows t >= presample, whose lags are all observed:
    # least squares with each row multiplied by w_t = 1 / (1 + y_{t-1}^2),
    # then the scale multiplied by the c with mean_t k(e_t / sqrt(c s2_t)) = 1
    m = make_model("dar", p=2, q=1)
    y = simulate(m, np.array([0.5, 0.4, -0.2, 0.8, 0.3]), 200, logistic(), seed=4, burn=50)
    y[0] = 40.0  # a pre-sample outlier enters only as a lag
    t = np.arange(2, y.size)
    w = 1.0 / (1.0 + y[t - 1] ** 2)
    x = np.column_stack([np.ones(t.size), y[t - 1], y[t - 2]])
    coef = np.linalg.lstsq(x * w[:, None], y[t] * w, rcond=None)[0]
    resid = y[t] - x @ coef
    z = np.column_stack([np.ones(t.size), y[t - 1] ** 2])
    acoef = np.linalg.lstsq(z * w[:, None], resid**2 * w, rcond=None)[0]
    acoef = np.r_[max(acoef[0], 1e-3), max(acoef[1], 0.0)]
    u = resid / np.sqrt(z @ acoef)
    c = brentq(lambda c: np.mean(u / np.sqrt(c) * np.tanh(0.5 * u / np.sqrt(c))) - 1.0, 1e-6, 1e6, xtol=1e-14)
    want = np.r_[coef, c * acoef]
    got = m.start_values(y)[0]
    np.testing.assert_allclose(got, want, rtol=1e-7)
    s2 = got[3] + got[4] * y[t - 1] ** 2
    assert np.mean(scale_kernel(resid / np.sqrt(s2))) == pytest.approx(1.0, abs=1e-7)


def test_higher_order_dar_shapes():
    m = make_model("dar", p=2, q=2)
    assert m.param_names == ("const", "ar1", "ar2", "alpha0", "alpha1", "alpha2")
    y = np.arange(1.0, 9.0)
    th = np.array([0.1, 0.2, 0.1, 1.0, 0.1, 0.05])
    out = m.filter(y, th)
    want_mean = 0.1 + 0.2 * lagged(y, 1) + 0.1 * lagged(y, 2)
    want_sig2 = 1.0 + 0.1 * lagged(y, 1) ** 2 + 0.05 * lagged(y, 2) ** 2
    np.testing.assert_allclose(out.mean, want_mean, atol=1e-15)
    np.testing.assert_allclose(out.sigma2, want_sig2, atol=1e-15)


# -- path loops against numpy-scalar oracles ----------------------------------
# The oracles are the element-by-element recursions on numpy scalars that
# the paths are defined by; the paths must reproduce them bit for bit.


def _dar_oracle(m, th, eta):
    mean_part, scale_part = th[: m.p + 1], th[m.p + 1 :]
    y = np.zeros(eta.size)
    for t in range(eta.size):
        g = mean_part[0]
        for i in range(1, m.p + 1):
            if t - i >= 0:
                g += mean_part[i] * y[t - i]
        s2 = scale_part[0]
        for j in range(1, m.q + 1):
            if t - j >= 0:
                s2 += scale_part[j] * y[t - j] ** 2
        y[t] = g + np.sqrt(s2) * eta[t]
    return y


def _garch_oracle(m, th, eta):
    alpha0, alpha, beta = th[0], th[1 : m.p + 1], th[m.p + 1 :]
    y = np.zeros(eta.size)
    s2 = np.zeros(eta.size)
    for t in range(eta.size):
        v = alpha0
        for i in range(1, m.p + 1):
            if t - i >= 0:
                v += alpha[i - 1] * y[t - i] ** 2
        for j in range(1, m.q + 1):
            if t - j >= 0:
                v += beta[j - 1] * s2[t - j]
        s2[t] = v
        y[t] = np.sqrt(v) * eta[t]
    return y


def _arma_garch_oracle(m, th, eta):
    const, ar1, ma1, alpha0, alpha1, beta1 = m._unpack(th)
    y = np.zeros(eta.size)
    e_prev = s2_prev = y_prev = 0.0
    for t in range(eta.size):
        s2 = alpha0 + alpha1 * e_prev * e_prev + beta1 * s2_prev
        e = np.sqrt(s2) * eta[t]
        y[t] = const + ar1 * y_prev + e + ma1 * e_prev
        y_prev, e_prev, s2_prev = y[t], e, s2
    return y


def _expar_oracle(m, th, eta):
    p = m.p
    ar, nl, decay = th[:p], th[p : 2 * p], th[2 * p]
    y = np.zeros(eta.size)
    for t in range(eta.size):
        g = 0.0
        env = np.exp(-decay * y[t - 1] ** 2) if t >= 1 else 1.0
        for i in range(1, p + 1):
            if t - i >= 0:
                g += (ar[i - 1] + nl[i - 1] * env) * y[t - i]
        y[t] = g + eta[t]
    return y


PATH_ORACLES = {
    "dar": _dar_oracle,
    "garch": _garch_oracle,
    "arma_garch": _arma_garch_oracle,
    "expar": _expar_oracle,
}
PATH_CASES = [
    ("dar", dict(p=1, q=1), [1.0, 0.5, 0.3, 0.5]),
    ("dar", dict(p=2, q=2), [0.1, 0.3, -0.2, 0.3, 0.2, 0.1]),
    ("garch", dict(p=1, q=1), [1.0, 0.15, 0.4]),
    ("garch", dict(p=1, q=2), [1.0, 0.15, 0.2, 0.2]),
    ("arma_garch", dict(), [0.1, 0.3, 0.2, 0.2, 0.1, 0.3]),
    ("arma_garch", dict(include_intercept=False), [0.3, 0.2, 0.2, 0.1, 0.3]),
    ("expar", dict(p=1), [0.3, 0.4, 1.0]),
    ("expar", dict(p=2), [0.3, -0.2, 0.4, 0.1, 1.0]),
]
PATH_IDS = [f"{name}{''.join(str(v) for v in kw.values())}" for name, kw, _ in PATH_CASES]


@pytest.mark.parametrize("family", ["logistic", "t2"])
@pytest.mark.parametrize("name,kw,theta", PATH_CASES, ids=PATH_IDS)
def test_path_matches_numpy_scalar_oracle_bit_for_bit(name, kw, theta, family):
    m = make_model(name, **kw)
    rng = np.random.default_rng(2024)
    eta = rng.logistic(size=3000) if family == "logistic" else rng.standard_t(2.0, size=3000)
    th = np.asarray(theta)
    assert np.array_equal(m.path(th, eta), PATH_ORACLES[name](m, th, eta))


@pytest.mark.parametrize("name,kw,theta", PATH_CASES, ids=PATH_IDS)
def test_filter_leaves_its_input_and_the_bound_blocks_untouched(name, kw, theta):
    # the banded solves run in place on drives the filter builds, never
    # on the caller's series or the blocks every call on it shares
    m = make_model(name, **kw)
    th = np.asarray(theta)
    y = simulate(m, th, 300, logistic(), seed=4)
    kept = y.copy()
    series = m._bind(y)
    blocks = [b.copy() for b in series.blocks]
    rng = np.random.default_rng(0)
    for v in (y, series):
        out = m.filter(v, th, order=2)
        if out.curvature is not None:
            out.curvature(*rng.standard_normal((2, y.size)))
    assert np.array_equal(y, kept)
    assert all(np.array_equal(b, c) for b, c in zip(series.blocks, blocks))


def test_expar_grid_runs_in_decay_blocks(monkeypatch):
    # one block up to _BLOCK_ELEMS // 49 points, 668; two from 669 on
    m = make_model("expar", p=1)
    sizes = []
    real = expar_module._profile
    monkeypatch.setattr(expar_module, "_profile", lambda *a: sizes.append(a[-1].size) or real(*a))
    for n, blocks in ((668, 1), (669, 2)):
        sizes.clear()
        m.start_candidates(simulate(m, np.array([0.3, 0.7, 1.5]), n, logistic(), seed=0, burn=100))
        assert len(sizes) == blocks and sum(sizes) == expar_module._DECAYS.size


@pytest.mark.parametrize("family", ["logistic", "t2"])
@pytest.mark.parametrize("n", [669, 4000])
def test_expar_decay_blocks_match_one_block(monkeypatch, n, family):
    # the blocks' products differ from the whole grid's in the last bit at most
    m = make_model("expar", p=1)
    law = logistic() if family == "logistic" else student_t(2.0, 0.9585596)
    y = simulate(m, np.array([0.3, 0.7, 1.5]), n, law, seed=n, burn=100)
    (blocked,) = m.start_candidates(y)
    monkeypatch.setattr(expar_module, "_BLOCK_ELEMS", expar_module._DECAYS.size * n)
    (whole,) = m.start_candidates(y)
    assert [c[-1] for c in blocked] == [c[-1] for c in whole]
    for b, w in zip(blocked, whole):
        assert np.all(np.abs(b - w) <= 1e-12 * np.abs(w))


@pytest.mark.parametrize("name,kw,theta", PATH_CASES, ids=PATH_IDS)
def test_filter_inverts_path_through_a_raw_or_a_bound_series(monkeypatch, name, kw, theta):
    # the two definitions of each recursion: filtering a drawn path, with
    # its presample zeros prepended, must give back the drawn innovations
    m = make_model(name, **kw)
    th = np.asarray(theta)
    eta, y = _seeded_path(m, th, 400, logistic(), 3, 0)
    y = np.r_[np.zeros(m.presample), y]
    series = m._bind(y)
    assert m._bind(series) is series
    outs = [m.filter(v, th, order=2) for v in (y, series)]
    for out in outs:
        resid = ((y - out.mean) / out.sigma)[m.presample :]
        assert np.max(np.abs(resid - eta)) <= 1e-14
    # a bound series runs the raw array's code path: the same bits
    w = np.random.default_rng(1).standard_normal((2, y.size))
    raw, bound = ([getattr(out, f) for f in ("mean", "sigma2", "sigma", "dmean", "dsigma2")] for out in outs)
    for a, b in zip(raw, bound):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    if outs[0].curvature is not None:
        assert outs[0].curvature(*w).tobytes() == outs[1].curvature(*w).tobytes()
    # the theta-free blocks are built once per series and shared read-only
    built = []
    real = type(m)._theta_free
    monkeypatch.setattr(type(m), "_theta_free", lambda self, v: built.append(1) or real(self, v))
    series = m._bind(y)
    for order in (2, 0, 1):
        m.filter(series, th, order=order)
    assert len(built) == 1
    for block in series.blocks:
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name,kw,theta",
    [
        ("dar", dict(p=1, q=1), [0.1, 3.0, 0.3, 40.0]),  # float ** 2 overflows
        ("garch", dict(p=1, q=2), [1.0, 5.0, 0.5, 0.4]),  # float ** 2 overflows
        ("garch", dict(p=1, q=1), [-1.0, 0.1, 0.5]),  # sqrt of a negative variance
        ("arma_garch", dict(), [0.1, 0.5, 0.3, -0.2, 0.1, 0.8]),  # sqrt of a negative variance
    ],
    ids=["dar-overflow", "garch-overflow", "garch-negative", "arma_garch-negative"],
)
def test_path_matches_oracle_where_floats_raise(name, kw, theta):
    # Python floats raise here where numpy scalars give inf or nan; the
    # path must still hold the oracle's inf and nan values
    m = make_model(name, **kw)
    eta = np.random.default_rng(5).logistic(size=2000)
    th = np.asarray(theta)
    got, want = m.path(th, eta), PATH_ORACLES[name](m, th, eta)
    assert not np.all(np.isfinite(want))
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_expar_path_matches_oracle_where_float_squares_overflow():
    # lags near 1e160: a float ** 2 raises and the loop reruns on numpy
    # scalars; the envelope vanishes, so the path itself stays finite
    m = make_model("expar", p=2)
    eta = np.random.default_rng(5).standard_t(1.5, size=2000) * 1e160
    th = np.array([0.3, -0.2, 0.4, 0.1, 1.0])
    got, want = m.path(th, eta), _expar_oracle(m, th, eta)
    assert np.array_equal(got, want, equal_nan=True)


def test_only_models_base_decides_derivative_depth():
    # each filter defines one parameterless derivatives() and hands its
    # order to models.base._finish, which alone maps it to a depth
    root = Path(lqmle.__file__).parent / "models"
    faults = []
    for stem in ("dar", "garch", "arma_garch", "expar"):
        nodes = list(ast.walk(ast.parse((root / f"{stem}.py").read_text())))
        passed = [
            arg
            for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_finish"
            for arg in node.args
        ]
        assert passed, stem
        reads = [n for n in nodes if isinstance(n, ast.Name) and n.id == "order" and isinstance(n.ctx, ast.Load)]
        faults += [f"{stem}.py:{n.lineno} reads order" for n in reads if not any(n is arg for arg in passed)]
        defs = [n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "derivatives"]
        defs += [arg for arg in passed if isinstance(arg, ast.Lambda)]
        faults += [
            f"{stem}.py:{f.lineno} derivatives takes a parameter"
            for f in defs
            if f.args.posonlyargs or f.args.args or f.args.vararg or f.args.kwonlyargs or f.args.kwarg
        ]
    assert not faults, faults


def test_only_models_base_calls_a_model_path():
    # one owner of a seeded path: simulate and population_information run
    # it through models.base, and no other module calls ``.path(``
    root = Path(lqmle.__file__).parent
    callers = [
        f"{file.relative_to(root).as_posix()}:{node.lineno}"
        for file in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(file.read_text(), filename=str(file)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "path"
    ]
    assert callers and all(c.startswith("models/base.py:") for c in callers), callers


@pytest.mark.parametrize("betas", [(0.5, 0.5), (0.6, 0.5), (0.9999, 0.9999)])
def test_garch_filter_outside_a_fit_warns_on_a_nonstationary_beta(betas):
    # outside a fit nobody collects the strays, so the filter warns itself
    model = make_model("garch", p=1, q=2)
    y = simulate(model, np.array([1.0, 0.15, 0.2, 0.2]), 200, logistic(), seed=3)
    with pytest.warns(NonstationaryRegionWarning, match="beta coefficients sum to one or more"):
        model.filter(y, np.array([0.2, 0.1, *betas]))


@pytest.mark.parametrize("ma1", [1.0, -1.0, 1.5])
def test_arma_garch_filter_refuses_a_non_invertible_ma1(ma1):
    model = make_model("arma_garch")
    y = simulate(model, np.array([0.1, 0.3, 0.2, 0.2, 0.1, 0.3]), 200, logistic(), seed=3)
    with pytest.raises(InvertibilityError, match=f"\\|ma1\\| = {abs(ma1)} is not invertible"):
        model.filter(y, np.array([0.1, 0.3, ma1, 0.2, 0.1, 0.3]))


@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("name,kw,theta", PATH_CASES, ids=PATH_IDS)
def test_path_of_a_few_steps_matches_oracle(name, kw, theta, n):
    m = make_model(name, **kw)
    eta = np.linspace(-1.0, 1.5, n)
    th = np.asarray(theta)
    assert np.array_equal(m.path(th, eta), PATH_ORACLES[name](m, th, eta))


def _arma_garch_order2_oracle(m, y, th):
    # the order-2 ARMA-GARCH filter as first vectorized: the sigma2 drives
    # filled into an (n, d, d) array, then copied out on the upper triangle;
    # returns the order-1 output with the (n, d, d) blocks d2 g and d2 sigma2.
    # Its filters are the package's banded solve, which
    # test_all_pole_matches_lfilter checks against scipy's filter
    n, d, mm = y.size, m.dim, m._nmean
    const, ar1, ma1, alpha0, alpha1, beta1 = m._unpack(th)
    ma_band, gj_band = _band(np.array([1.0, ma1]), n), _band(np.array([1.0, -beta1]), n)
    ylag = lagged(y, 1)
    e = _all_pole(ma_band, y - const - ar1 * ylag)
    elag = lagged(e, 1)
    sigma2_raw = _all_pole(gj_band, alpha0 + alpha1 * elag * elag)
    sigma2, sigma = _floor_sigma2(sigma2_raw)
    de = np.zeros((n, d))
    de_drives = np.empty((n, mm))
    col = 0
    if m.include_intercept:
        de_drives[:, col] = -1.0
        col += 1
    de_drives[:, col] = -ylag
    de_drives[:, col + 1] = -elag
    de[:, :mm] = _all_pole(ma_band, de_drives)
    delag = lagged(de, 1)
    ds_drives = np.zeros((n, d))
    ds_drives[:, :mm] = 2.0 * alpha1 * elag[:, None] * delag[:, :mm]
    ds_drives[:, mm] = 1.0
    ds_drives[:, mm + 1] = elag * elag
    ds_drives[:, mm + 2] = lagged(sigma2_raw, 1)
    dsigma2 = _all_pole(gj_band, ds_drives)
    i_ma = mm - 1
    d2e = np.zeros((n, d, d))
    d2e_drives = -delag[:, :mm].copy()
    d2e_drives[:, i_ma] *= 2.0
    block = _all_pole(ma_band, d2e_drives)
    d2e[:, i_ma, :mm] = block
    d2e[:, :mm, i_ma] = block
    i_a1, i_b1 = mm + 1, mm + 2
    dem = delag[:, :mm]
    w = np.zeros((n, d, d))
    w[:, :mm, :mm] = 2.0 * alpha1 * (
        dem[:, :, None] * dem[:, None, :] + elag[:, None, None] * lagged(d2e[:, :mm, :mm], 1)
    )
    w[:, :mm, i_a1] = 2.0 * elag[:, None] * dem
    ds2lag = lagged(dsigma2, 1)
    w[:, :, i_b1] += ds2lag
    w[:, i_b1, i_b1] += ds2lag[:, i_b1]
    k, l = zip(*[(k, l) for k in range(d) for l in range(k, d)])
    filtered = _all_pole(gj_band, w[:, k, l])
    d2sigma2 = np.empty((n, d, d))
    d2sigma2[:, k, l] = filtered
    d2sigma2[:, l, k] = filtered
    first = FilterOutput(
        mean=y - e, sigma2=sigma2, sigma=sigma, dmean=-de, dsigma2=dsigma2
    )
    return first, -d2e, d2sigma2


@pytest.mark.parametrize("intercept", [True, False], ids=["intercept", "no-intercept"])
def test_arma_garch_order2_filter_matches_oracle_bit_for_bit(intercept):
    # the order-1 fields bit for bit; the contracted second derivatives
    # to rounding, since the backward pass sums in another order
    m = make_model("arma_garch", include_intercept=intercept)
    lo, hi = m.default_bounds()
    rng = np.random.default_rng(17)
    for _ in range(100):
        y = rng.uniform(0.1, 5.0) * rng.standard_t(3.0, size=int(rng.integers(5, 601)))
        th = rng.uniform(lo, np.minimum(hi, 5.0))
        got = m.filter(y, th, order=2)
        want, d2mean, d2sigma2 = _arma_garch_order2_oracle(m, y, th)
        for f in dataclasses.fields(FilterOutput):
            if f.name != "curvature":
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
        wg, ws = rng.standard_normal((2, y.size))
        contracted = np.einsum("t,tkl->kl", wg, d2mean) + np.einsum("t,tkl->kl", ws, d2sigma2)
        err = np.max(np.abs(got.curvature(wg, ws) - contracted))
        assert err <= 1e-12 * np.max(np.abs(contracted))


# all-pole denominators: ARMA-GARCH's MA inversion at both ends of the
# box, a persistent GARCH(1,1) beta and a GARCH(2,2) beta pair
ALL_POLE_DENS = {
    "ma1=+0.999": [1.0, 0.999],
    "ma1=-0.999": [1.0, -0.999],
    "beta=0.9": [1.0, -0.9],
    "garch22": [1.0, -0.5, -0.3],
}


@pytest.mark.parametrize("cols", [None, 3], ids=["1-d", "columns"])
@pytest.mark.parametrize("n", [1, 2, 400, 70_000])
@pytest.mark.parametrize("den", list(ALL_POLE_DENS.values()), ids=list(ALL_POLE_DENS))
def test_all_pole_matches_lfilter(den, n, cols):
    # the banded solve against scipy's direct-form filter, forward and
    # (time-reversed) adjoint, to a few ulp of the largest value
    den = np.asarray(den)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n if cols is None else (n, cols))
    if cols is not None:
        x = np.asfortranarray(x)
    for trans, want in [
        ("N", lfilter([1.0], den, x, axis=0)),
        ("T", lfilter([1.0], den, x[::-1], axis=0)[::-1]),
    ]:
        got = _all_pole(_band(den, n), x, trans=trans)
        assert got.shape == x.shape and got.flags.f_contiguous
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    w = rng.standard_normal(n)
    for v in x.reshape(n, -1).T:
        lv = _all_pole(_band(den, n), v)
        assert abs(w @ lv - _adjoint(_band(den, n), w) @ v) <= 1e-12 * (np.abs(w) @ np.abs(lv))
