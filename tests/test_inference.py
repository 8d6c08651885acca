"""Test statistics, tail probabilities, and restriction bookkeeping."""

import math

import numpy as np
import pytest
import scipy.stats

from lqmle.distributions import logistic
from lqmle.errors import InfeasibleConstraint, RankDeficientConstraint
from lqmle.estimation import fit, fit_constrained
from lqmle.inference import (
    chisq_sf,
    deviance,
    lm_test,
    normal_sf,
    t_test,
    wald_test,
)
from lqmle.models import make_model, simulate


def test_chisq_sf_against_reference():
    xs = np.concatenate([np.linspace(0.01, 20, 80), [50.0, 100.0, 200.0]])
    for df in (1, 2, 3, 5, 10, 30):
        for x in xs:
            ref = scipy.stats.chi2.sf(x, df)
            assert abs(chisq_sf(float(x), df) - ref) < 1e-12, (x, df)


def test_chisq_sf_df_one_is_two_sided_normal():
    for x in (0.5, 1.0, 3.84, 9.0):
        want = 2 * (1 - scipy.stats.norm.cdf(math.sqrt(x)))
        assert abs(chisq_sf(x, 1) - want) < 1e-10


def test_chisq_sf_critical_value():
    # 5 degrees of freedom, the usual five percent cut
    assert chisq_sf(11.0705, 5) == pytest.approx(0.05, abs=1e-4)


def test_chisq_sf_edges():
    assert chisq_sf(0.0, 3) == 1.0
    assert chisq_sf(1e4, 3) < 1e-300 or chisq_sf(1e4, 3) == 0.0
    # roundoff can push a quadratic form a hair below zero; that clamps
    assert chisq_sf(-1e-12, 3) == 1.0
    with pytest.raises(ValueError):
        chisq_sf(1.0, 0)


def test_chisq_sf_of_nan_is_nan():
    # a statistic that could not be formed gets no p-value, least of all 1
    assert math.isnan(chisq_sf(math.nan, 2))
    assert chisq_sf(math.inf, 2) == 0.0


def test_normal_sf_matches_reference():
    for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 6.0):
        assert abs(normal_sf(x) - scipy.stats.norm.sf(x)) < 1e-14


def test_pvalues_uniform_under_null():
    # push reference chi square draws through our own tail function and
    # check the result is uniform; this exercises both series branches
    rng = np.random.default_rng(4)
    draws = scipy.stats.chi2.rvs(4, size=2000, random_state=rng)
    pvals = np.array([chisq_sf(float(x), 4) for x in draws])
    ks = scipy.stats.kstest(pvals, "uniform").statistic
    assert ks < 0.08


@pytest.fixture(scope="module")
def dar_fit():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 600, logistic(), seed=71)
    return model, y, fit(model, y)


def test_wald_basic_output(dar_fit):
    _, _, res = dar_fit
    R = np.array([[1.0, 1.0, 1.0, 1.0]])
    r = np.array([2.3])
    t = wald_test(res, R, r)
    assert t.method == "wald"
    assert t.df == 1
    assert t.statistic >= 0
    assert 0 <= t.p_value <= 1
    assert t.p_value == pytest.approx(chisq_sf(t.statistic, 1), abs=1e-15)


def test_wald_invariant_to_row_scaling(dar_fit):
    _, _, res = dar_fit
    R = np.array([[1.0, 0.0, -1.0, 0.5]])
    r = np.array([0.2])
    a = wald_test(res, R, r)
    b = wald_test(res, 7.0 * R, 7.0 * r)
    assert a.statistic == pytest.approx(b.statistic, rel=1e-10)


def test_wald_identity_restriction_is_full_quadratic_form(dar_fit):
    _, _, res = dar_fit
    theta = res.theta.array
    r = theta - 0.01
    t = wald_test(res, np.eye(4), r)
    diff = theta - r
    want = float(diff @ np.linalg.solve(res.cov, diff))
    assert t.statistic == pytest.approx(want, rel=1e-10)
    assert t.df == 4


def test_wald_rejects_rank_deficient_rows(dar_fit):
    _, _, res = dar_fit
    R = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]])
    with pytest.raises(RankDeficientConstraint):
        wald_test(res, R, np.array([1.0, 2.0]))


@pytest.mark.parametrize("R,r", [([[1.0, np.nan, 0.0, 0.0]], [1.0]), ([[1.0, 0.0, 0.0, 0.0]], [np.inf])])
def test_wald_rejects_non_finite_restrictions(dar_fit, R, r):
    _, _, res = dar_fit
    with pytest.raises(InfeasibleConstraint, match="non-finite entry"):
        wald_test(res, np.array(R), np.array(r))


def test_lm_statistic_nonnegative(dar_fit):
    model, y, res = dar_fit
    R = np.array([[1.0, 1.0, 1.0, 1.0]])
    r = np.array([2.3])
    cfit = fit_constrained(model, y, R, r, theta_hat=res.theta)
    t = lm_test(cfit, R, r)
    assert t.method == "lm"
    assert t.statistic >= 0
    assert t.df == 1


def test_lm_small_at_binding_optimum(dar_fit):
    # binding theta to the free optimum leaves a numerically zero
    # multiplier, so the LM statistic must collapse as well
    model, y, res = dar_fit
    R = np.eye(4)
    cfit = fit_constrained(model, y, R, res.theta.array, theta_hat=res.theta)
    t = lm_test(cfit, R, res.theta.array)
    assert t.statistic < 1e-4
    assert t.p_value > 0.999


def test_wald_and_lm_agree_under_the_null():
    # both statistics converge to the same quadratic form; at n=2000 under
    # a true restriction they land close together
    model = make_model("dar", p=1, q=1)
    truth = np.array([1.0, 0.5, 0.3, 0.5])
    y = simulate(model, truth, 2000, logistic(), seed=90, burn=100)
    R = np.array([[1.0, 1.0, 1.0, 1.0]])
    r = np.array([float((R @ truth)[0])])
    res = fit(model, y)
    cfit = fit_constrained(model, y, R, r, theta_hat=res.theta)
    w = wald_test(res, R, r)
    l = lm_test(cfit, R, r)
    assert w.statistic == pytest.approx(l.statistic, abs=max(1.0, 0.5 * w.statistic))


def test_t_test_matches_two_sided_normal(dar_fit):
    _, _, res = dar_fit
    t = t_test(res, 1, null_value=0.0)
    stat = res.theta.array[1] / res.se[1]
    assert t.statistic == pytest.approx(stat, rel=1e-12)
    assert t.p_value == pytest.approx(2 * normal_sf(abs(stat)), abs=1e-15)


def test_t_test_value_shifts_the_center(dar_fit):
    _, _, res = dar_fit
    th1 = res.theta.array[1]
    t = t_test(res, 1, null_value=th1)
    assert t.statistic == pytest.approx(0.0, abs=1e-12)
    assert t.p_value == pytest.approx(1.0, abs=1e-12)


def test_deviance_nonnegative_and_additive(dar_fit):
    model, y, res = dar_fit
    R = np.array([[1.0, 1.0, 1.0, 1.0]])
    cfit = fit_constrained(model, y, R, np.array([2.3]), theta_hat=res.theta)
    d = deviance(res, cfit)
    assert d >= 0
    assert d == pytest.approx(2 * (res.loglik - cfit.loglik), abs=1e-12)


def test_result_dict_round_trips_to_json(dar_fit):
    import json

    _, _, res = dar_fit
    t = wald_test(res, np.array([[0.0, 1.0, 0.0, 0.0]]), np.array([0.4]))
    enc = json.dumps(t.as_dict(), sort_keys=True)
    assert json.loads(enc)["method"] == "wald"
