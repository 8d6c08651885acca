"""Criterion evaluation, Newton fitting, and covariance assembly.

The analytic score and Hessian are validated against central differences
of the objective on randomized admissible parameter points, and the fit
itself against closed-form least squares in the Gaussian constant-scale
case where the two coincide.
"""

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from lqmle.distributions import logistic, student_t
from lqmle.errors import (
    InfeasibleConstraint,
    NonFiniteObjective,
    NotScaleOnly,
    SingularInformation,
)
from lqmle.estimation import (
    FitOptions,
    _solve_ascent,
    evaluate,
    fit,
    fit_constrained,
    kernel_moments,
    sandwich_cov,
    scale_only_cov,
    scale_only_information,
)
from lqmle.kernel import scale_kernel
from lqmle.models import make_model, simulate

CASES = [
    ("dar", dict(p=1, q=1), np.array([0.4, 0.3, 1.0, 0.3])),
    ("garch", dict(p=1, q=1), np.array([0.8, 0.15, 0.4])),
    ("expar", dict(p=1), np.array([0.3, 0.7, 1.5])),
    ("arma_garch", dict(), np.array([0.2, 0.3, 0.2, 0.8, 0.1, 0.3])),
]


def _random_admissible(model, base, rng):
    lo = np.array(model.default_bounds()[0])
    hi = np.array(model.default_bounds()[1])
    jitter = base * (1 + 0.2 * rng.uniform(-1, 1, size=base.size))
    return np.clip(jitter, lo + 1e-3, hi - 1e-3)


@pytest.mark.parametrize("name,kw,theta0", CASES, ids=[c[0] for c in CASES])
def test_analytic_score_matches_finite_differences(name, kw, theta0):
    model = make_model(name, **kw)
    rng = np.random.default_rng(101)
    y = simulate(model, theta0, 150, logistic(), seed=55)
    for _ in range(5):
        theta = _random_admissible(model, theta0, rng)
        parts = evaluate(model, y, theta, order=2)
        h = 1e-6
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (evaluate(model, y, tp).loglik - evaluate(model, y, tm).loglik) / (2 * h)
            assert abs(parts.score[j] - fd) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("name,kw,theta0", CASES, ids=[c[0] for c in CASES])
def test_analytic_hessian_matches_finite_differences(name, kw, theta0):
    model = make_model(name, **kw)
    rng = np.random.default_rng(202)
    y = simulate(model, theta0, 150, logistic(), seed=56)
    theta = _random_admissible(model, theta0, rng)
    parts = evaluate(model, y, theta, order=2)
    h = 1e-5
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd = (evaluate(model, y, tp, order=1).score - evaluate(model, y, tm, order=1).score) / (2 * h)
        scale = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(parts.hess[:, j] - fd) / scale) < 1e-4


def test_score_rows_sum_to_score():
    model = make_model("dar", p=1, q=1)
    theta = np.array([0.4, 0.3, 1.0, 0.3])
    y = simulate(model, theta, 120, logistic(), seed=77)
    parts = evaluate(model, y, theta, order=1)
    np.testing.assert_allclose(parts.score_rows.sum(axis=0), parts.score, atol=1e-10)


def test_gaussian_criterion_reproduces_least_squares():
    # constant-scale AR(1): the Gaussian criterion optimum is OLS exactly,
    # and the scale estimate is the mean squared residual
    model = make_model("dar", p=1, q=0)
    y = simulate(model, np.array([0.5, 0.3, 1.0]), 400, logistic(), seed=7)
    res = fit(model, y, FitOptions(criterion="gaussian"))
    X = np.column_stack([np.ones_like(y), np.concatenate([[0.0], y[:-1]])])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    theta = res.theta.array
    np.testing.assert_allclose(theta[:2], beta, atol=1e-8)
    u = y - X @ beta
    assert theta[2] == pytest.approx(float(u @ u) / len(y), abs=1e-8)
    assert res.criterion == "gaussian"


def test_fit_recovers_simulation_truth():
    model = make_model("dar", p=1, q=1)
    truth = np.array([1.0, 0.5, 0.3, 0.5])
    y = simulate(model, truth, 3000, logistic(), seed=31, burn=200)
    res = fit(model, y)
    assert res.converged
    err = np.abs(res.theta.array - truth)
    # 3000 observations put every coefficient within a few asd of truth
    assert np.all(err < 6 * res.se), (res.theta.array, res.se)


def test_fit_trace_is_monotone():
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.2, 0.5]), 500, logistic(), seed=13)
    res = fit(model, y, FitOptions(multistart=False))
    trace = np.asarray(res.trace)
    assert res.converged
    assert np.all(np.diff(trace) >= -1e-9)


def test_fit_requires_enough_observations():
    model = make_model("arma_garch")
    with pytest.raises(ValueError, match="observations"):
        fit(model, np.ones(30))


def test_residual_kernel_mean_is_one_at_optimum():
    # the scale score equation forces mean h(residual) = 1 exactly at any
    # interior optimum with a free scale intercept
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 800, logistic(), seed=19)
    res = fit(model, y)
    assert res.converged
    assert not any(res.boundary)
    km = float(np.mean(scale_kernel(res.residuals)))
    assert km == pytest.approx(1.0, abs=1e-8)


def test_fit_reproducible_across_calls():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 300, logistic(), seed=2)
    a = fit(model, y)
    b = fit(model, y)
    np.testing.assert_array_equal(a.theta.array, b.theta.array)
    assert a.loglik == b.loglik
    assert a.n_starts == b.n_starts


def test_boundary_pin_converges_with_active_set():
    # heavy-tailed data at n=300 pushes the GARCH feedback weight to its
    # floor on this seed; the active-set step must still declare
    # convergence and flag the pinned coordinate
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.1, 0.3]), 300, student_t(3.0, 1.25), seed=0)
    res = fit(model, y)
    assert res.converged
    assert res.boundary == (False, False, True)
    assert res.theta.array[2] == 0.0


def _ridge_ladder(hess, score):
    # every rung tried in turn: the direction the Newton step must match
    a = -0.5 * (hess + hess.T)
    scale = max(1.0, float(np.max(np.abs(np.diag(a)))))
    ridge = 0.0
    for _ in range(40):
        try:
            factor = cho_factor(a + ridge * np.eye(a.shape[0]), lower=True)
            delta = cho_solve(factor, score)
            if score @ delta > 0.0:
                return delta
        except LinAlgError:
            pass
        ridge = 1e-10 * scale if ridge == 0.0 else ridge * 10.0
    return score / scale


def test_newton_direction_skips_only_ridges_that_cannot_factor():
    rng = np.random.default_rng(11)
    for i in range(300):
        d = int(rng.integers(1, 7))
        m = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3, 4)
        # negative definite, indefinite and near-singular Hessians
        hess = [-m @ m.T, m + m.T, -m @ m.T + 1e-9 * np.eye(d)][i % 3]
        score = rng.standard_normal(d)
        np.testing.assert_array_equal(_solve_ascent(hess, score), _ridge_ladder(hess, score))


def test_sandwich_identity_when_pieces_equal():
    a = np.array([[2.0, 0.3], [0.3, 1.5]])
    cov = sandwich_cov(a, a, 100)
    np.testing.assert_allclose(cov, np.linalg.inv(a) / 100, atol=1e-12)


def test_sandwich_rejects_indefinite_information():
    a = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(SingularInformation, match="not positive definite"):
        sandwich_cov(a, np.eye(2), 100)


def test_sandwich_shape_and_symmetry():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3))
    a = m @ m.T + np.eye(3)
    b = a + 0.1 * np.eye(3)
    cov = sandwich_cov(a, b, 50)
    np.testing.assert_allclose(cov, cov.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_scale_only_product_form_matches_direct_covariance():
    model = make_model("garch", p=1, q=1)
    theta = np.array([1.0, 0.15, 0.4])
    y = simulate(model, theta, 2000, logistic(), seed=8)
    a_hat, b_hat = scale_only_information(model, y, theta)
    via_pieces = sandwich_cov(a_hat, b_hat, len(y))
    direct = scale_only_cov(model, y, theta)
    assert np.max(np.abs(via_pieces - direct)) < 1e-8


def test_scale_only_information_rejects_mean_models():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 200, logistic(), seed=3)
    with pytest.raises(NotScaleOnly):
        scale_only_information(model, y, np.array([0.5, 0.4, 1.0, 0.3]))


def test_kernel_moments_hand_values():
    # x = [0, 2]: t = tanh(x/2), f = (1 - t^2)/4, u = x t
    x = np.array([0.0, 2.0])
    t2 = np.tanh(1.0)
    f2 = 0.25 * (1 - t2**2)
    mom = kernel_moments(x)
    assert mom.m2 == pytest.approx((1.0 + (2 * t2 - 1) ** 2) / 2, abs=1e-14)
    assert mom.mf == pytest.approx((0.0 + 4 * f2) / 2, abs=1e-14)
    assert mom.ef == pytest.approx((0.25 + f2) / 2, abs=1e-14)
    assert mom.t2 == pytest.approx((0.0 + t2**2) / 2, abs=1e-14)


def test_kernel_moments_information_equality_at_logistic():
    # under logistic draws the scale-block pieces (1 + 2 mf)/4 and m2/4
    # agree in expectation; 200k draws pin them within one percent
    rng = np.random.default_rng(99)
    eta = rng.logistic(size=200_000)
    mom = kernel_moments(eta)
    assert (1 + 2 * mom.mf) / 4 == pytest.approx(mom.m2 / 4, rel=0.01)
    # E f(eta) = integral of f^2 = 1/6 for the logistic density
    assert mom.ef == pytest.approx(1 / 6, rel=0.01)


def test_constrained_fit_satisfies_restriction():
    model = make_model("dar", p=1, q=1)
    truth = np.array([1.0, 0.5, 0.3, 0.5])
    y = simulate(model, truth, 600, logistic(), seed=23)
    R = np.array([[1.0, 1.0, 1.0, 1.0]])
    r = np.array([2.3])
    cfit = fit_constrained(model, y, R, r)
    assert cfit.converged
    assert float((R @ cfit.theta.array)[0]) == pytest.approx(2.3, abs=1e-8)
    free = fit(model, y)
    assert cfit.loglik <= free.loglik + 1e-9


def test_constrained_fit_at_the_optimum_is_free_fit():
    # binding the parameter to its own unconstrained optimum must leave
    # the estimate in place with a numerically zero multiplier
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.2, 0.4]), 500, logistic(), seed=29)
    free = fit(model, y)
    assert not any(free.boundary)
    R = np.eye(3)
    cfit = fit_constrained(model, y, R, free.theta.array)
    np.testing.assert_allclose(cfit.theta.array, free.theta.array, atol=1e-10)
    assert np.max(np.abs(cfit.multiplier)) < 1e-4
    assert cfit.loglik == pytest.approx(free.loglik, abs=1e-10)


def test_constrained_fit_rejects_non_finite_series(capfd):
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 200, logistic(), seed=23)
    y[57] = np.nan
    with pytest.raises(NonFiniteObjective):
        fit_constrained(model, y, np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3]))
    assert capfd.readouterr().err == ""


def test_constrained_fit_rejects_infeasible_target():
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.1, 0.3]), 200, logistic(), seed=3)
    R = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleConstraint):
        fit_constrained(model, y, R, np.array([-5.0]))


def test_evaluate_clamps_are_counted():
    # a scale path through the floor must be clamped, not propagated
    model = make_model("garch", p=1, q=1)
    y = np.zeros(50)
    parts = evaluate(model, y, np.array([1e-6, 0.0, 0.0]))
    assert np.isfinite(parts.loglik)
    assert parts.clamped >= 0


def test_fit_result_covariance_is_consistent():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 400, logistic(), seed=41)
    res = fit(model, y)
    np.testing.assert_allclose(
        res.cov, sandwich_cov(res.info_hessian, res.info_opg, res.nobs), atol=1e-12
    )
    np.testing.assert_allclose(res.se, np.sqrt(np.diag(res.cov)), atol=1e-12)
