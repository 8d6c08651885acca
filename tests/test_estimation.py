"""Criterion evaluation, Newton fitting, and covariance assembly.

The analytic score and Hessian are validated against central differences
of the objective on randomized admissible parameter points, and the fit
itself against closed-form least squares in the Gaussian constant-scale
case where the two coincide.
"""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from lqmle import estimation
from lqmle.distributions import logistic, student_t
from lqmle.errors import (
    InfeasibleConstraint,
    LqmleError,
    NonFiniteObjective,
    NonstationaryRegionWarning,
    NotScaleOnly,
    ShapeMismatch,
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
from lqmle.kernel import logistic_logpdf, scale_kernel
from lqmle.models import make_model, simulate
from lqmle.models.garch import Garch

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
def test_order2_evaluate_peaks_near_order1(name, kw, theta0):
    # the filters contract their second derivatives instead of building
    # (n, d, d) blocks, so the Hessian costs a few n-vectors over the score
    model = make_model(name, **kw)
    y = simulate(model, theta0, 100_000, logistic(), seed=57)
    peaks = []
    for order in (1, 2):
        tracemalloc.start()
        try:
            evaluate(model, y, theta0, order=order)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


class _ConditionedGarch(Garch):
    # conditions on its first rows and returns curvature, which the
    # criterion must then weigh by zero on those rows
    presample = 2


@pytest.mark.parametrize(
    "model,theta0",
    [(make_model(name, **kw), theta0) for name, kw, theta0 in CASES]
    + [(_ConditionedGarch(), np.array([0.8, 0.15, 0.4]))],
    ids=[c[0] for c in CASES] + ["garch-presample2"],
)
def test_analytic_hessian_matches_finite_differences(model, theta0):
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


def _assembly_with_dense_blocks(model, y, theta, criterion):
    # evaluate's order-2 assembly as first written for row-major blocks:
    # every weight computed, the score summed from its rows, the
    # curvature added with the weights on d2 g and d2 sigma2; a None
    # block read as the zeros it stands for; the first presample rows
    # condition the criterion and are dropped
    out = model.filter(y, theta, order=2)
    k = model.presample
    y = y[k:]
    n, d = y.size, model.dim
    dg, ds2 = (np.zeros((n, d)) if b is None else np.ascontiguousarray(b[k:])
               for b in (out.dmean, out.dsigma2))
    sig2, sig = out.sigma2[k:], out.sigma[k:]
    x = (y - out.mean[k:]) / sig
    s4 = sig2 * sig2
    if criterion == "logistic":
        ll = float(np.sum(-0.5 * np.log(sig2) + logistic_logpdf(x)))
        t = np.tanh(0.5 * x)
        fx = 0.25 * (1.0 - t * t)
        u = x * t
        a, b = t / sig, (u - 1.0) / (2.0 * sig2)
        c_ss = (u - 1.0) / (2.0 * s4) + (u + 2.0 * x * x * fx) / (4.0 * s4)
        c_d2s = -(u - 1.0) / (2.0 * sig2)
        c_sg = (t + 2.0 * x * fx) / (2.0 * sig2 * sig)
        c_d2g = -t / sig
        c_gg = 2.0 * fx / sig2
    else:
        ll = float(np.sum(-0.5 * np.log(sig2) - 0.5 * x * x))
        a, b = x / sig, (x * x - 1.0) / (2.0 * sig2)
        c_ss = (2.0 * x * x - 1.0) / (2.0 * s4)
        c_d2s = (1.0 - x * x) / (2.0 * sig2)
        c_sg = x / (sig2 * sig)
        c_d2g = -x / sig
        c_gg = 1.0 / sig2
    rows = dg * a[:, None] + ds2 * b[:, None]
    cross = (ds2 * c_sg[:, None]).T @ dg
    neg_hess = (ds2 * c_ss[:, None]).T @ ds2 + (dg * c_gg[:, None]).T @ dg
    neg_hess += cross + cross.T
    if out.curvature is not None:
        neg_hess += out.curvature(c_d2g, c_d2s)
    return ll, rows.sum(axis=0), rows, -neg_hess


ASSEMBLY_CASES = CASES + [
    ("dar", dict(p=2, q=2), np.array([0.3, 0.4, -0.2, 0.8, 0.3, 0.2])),
    ("garch", dict(p=1, q=2), np.array([0.6, 0.15, 0.3, 0.2])),
    ("expar", dict(p=2), np.array([0.3, -0.2, 0.6, 0.4, 1.2])),
    ("arma_garch", dict(include_intercept=False), np.array([0.3, 0.2, 0.8, 0.1, 0.3])),
]


@pytest.mark.parametrize("criterion", ["logistic", "gaussian"])
@pytest.mark.parametrize(
    "name,kw,theta0",
    ASSEMBLY_CASES,
    ids=["dar", "garch", "expar", "arma_garch", "dar22", "garch12", "expar2", "arma_garch-no-intercept"],
)
def test_lean_assembly_matches_dense_blocks(name, kw, theta0, criterion):
    model = make_model(name, **kw)
    rng = np.random.default_rng(303)
    for n in (20, 200, 2000):
        y = simulate(model, theta0, n, student_t(4.0), seed=n)
        theta = _random_admissible(model, theta0, rng)
        parts = evaluate(model, y, theta, order=2, criterion=criterion)
        ll, score, rows, hess = _assembly_with_dense_blocks(model, y, theta, criterion)
        assert parts.loglik == ll
        for got, want in ((parts.score, score), (parts.score_rows, rows), (parts.hess, hess)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (n, want)


@pytest.mark.parametrize(
    "name,kw,theta0",
    ASSEMBLY_CASES,
    ids=["dar", "garch", "expar", "arma_garch", "dar22", "garch12", "expar2", "arma_garch-no-intercept"],
)
def test_order2_keeps_the_score_rows_and_residuals_of_order1(name, kw, theta0):
    # the filters solve their own drives in place; the weights kept for
    # score_rows and the residuals must survive the order-2 curvature
    model = make_model(name, **kw)
    y = simulate(model, theta0, 300, logistic(), seed=11)
    for criterion in ("logistic", "gaussian"):
        two, one = (evaluate(model, y, theta0, order=k, criterion=criterion) for k in (2, 1))
        assert np.array_equal(two.score_rows, one.score_rows)
        assert np.array_equal(two.residuals, one.residuals)


@pytest.mark.parametrize("criterion", ["logistic", "gaussian"])
@pytest.mark.parametrize(
    "model,theta0",
    [(make_model(name, **kw), theta0) for name, kw, theta0 in ASSEMBLY_CASES]
    + [(_ConditionedGarch(), np.array([0.8, 0.15, 0.4]))],
    ids=["dar", "garch", "expar", "arma_garch", "dar22", "garch12", "expar2", "arma_garch-no-intercept", "garch-presample2"],
)
def test_a_derived_order0_evaluation_is_the_order2_one_bit_for_bit(model, theta0, criterion):
    # Newton values each trial at order 0 and derives the one it accepts
    # from the same filter pass; the presample rows go through _conditioned
    y = simulate(model, theta0, 300, student_t(4.0), seed=12)
    theta = _random_admissible(model, theta0, np.random.default_rng(5))
    for v in (y, model._bind(y)):
        for th in (theta0, theta):
            derived = estimation._derive(evaluate(model, v, th, criterion=criterion))
            direct = evaluate(model, v, th, order=2, criterion=criterion)
            assert derived.loglik == direct.loglik
            for name in ("score", "hess", "score_rows", "residuals", "info_hessian", "info_opg"):
                assert getattr(derived, name).tobytes() == getattr(direct, name).tobytes(), name


@pytest.mark.parametrize("name,kw,theta0", CASES, ids=[c[0] for c in CASES])
def test_an_order0_filter_output_dies_with_its_parts_and_derives_once(monkeypatch, name, kw, theta0):
    # the continuation holds no reference to its output, so no cycle keeps
    # a pass's arrays alive until the collector runs
    model = make_model(name, **kw)
    y = simulate(model, theta0, 300, logistic(), seed=5)
    outs = []
    real = type(model).filter

    def recording(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        outs.append(weakref.ref(out))
        return out

    monkeypatch.setattr(type(model), "filter", recording)
    gc.disable()
    try:
        parts = evaluate(model, y, theta0)
        assert outs[-1]() is not None and outs[-1]().rest is not None
        del parts
        assert outs[-1]() is None
        # a derived evaluation lets go of its filter output too
        parts = estimation._derive(evaluate(model, y, theta0))
        assert outs[-1]() is None and parts.pending is None
    finally:
        gc.enable()
    for order in (1, 2):
        assert model.filter(y, theta0, order=order).rest is None
    out = model.filter(y, theta0)
    out.derive()
    with pytest.raises(ValueError, match="only once"):
        out.derive()
    with pytest.raises(ValueError, match="only once"):
        estimation._derive(parts)


def test_score_rows_sum_to_score():
    model = make_model("dar", p=1, q=1)
    theta = np.array([0.4, 0.3, 1.0, 0.3])
    y = simulate(model, theta, 120, logistic(), seed=77)
    parts = evaluate(model, y, theta, order=1)
    np.testing.assert_allclose(parts.score_rows.sum(axis=0), parts.score, atol=1e-10)


@pytest.mark.parametrize("p,q,theta", [
    (1, 1, [0.4, 0.3, 1.0, 0.3]),
    (2, 2, [0.3, 0.4, -0.2, 0.8, 0.3, 0.2]),
], ids=["dar11", "dar22"])
def test_dar_criterion_conditions_on_first_max_lag_observations(p, q, theta):
    # the sum runs over t >= max(p, q) of the zero-start recursion's terms;
    # prepending the zero pre-sample values as data scores every t
    model = make_model("dar", p=p, q=q)
    y = simulate(model, np.array(theta), 12, student_t(4.0), seed=5)
    k = max(p, q)
    c, ar, alpha0, arch = theta[0], theta[1 : p + 1], theta[p + 1], theta[p + 2 :]
    lag = lambda t: y[t] if t >= 0 else 0.0  # noqa: E731
    terms, resid = [], []
    for t in range(len(y)):
        g = c + sum(a * lag(t - i) for i, a in enumerate(ar, 1))
        s = math.sqrt(alpha0 + sum(b * lag(t - j) ** 2 for j, b in enumerate(arch, 1)))
        x = (y[t] - g) / s
        terms.append(-math.log(s) - abs(x) - 2.0 * math.log1p(math.exp(-abs(x))))
        resid.append(x)
    parts = evaluate(model, y, theta)
    assert parts.nobs == len(y) - k
    assert len(parts.residuals) == parts.nobs
    np.testing.assert_allclose(parts.residuals, resid[k:], rtol=1e-12)
    assert parts.loglik == pytest.approx(sum(terms[k:]), rel=1e-12)
    with pytest.raises(ShapeMismatch):
        evaluate(model, y[:k], theta)
    whole = evaluate(model, np.r_[np.zeros(k), y], theta)
    assert whole.nobs == len(whole.residuals) == len(y)
    np.testing.assert_allclose(whole.residuals, resid, rtol=1e-12)
    assert whole.loglik == pytest.approx(sum(terms), rel=1e-12)


def test_gaussian_criterion_reproduces_least_squares():
    # constant-scale AR(1): the Gaussian criterion, conditional on y_0, is
    # maximized by OLS of y[1:] on [1, y[:-1]] exactly, and the scale
    # estimate is the mean squared residual over those len(y) - 1 terms
    model = make_model("dar", p=1, q=0)
    y = simulate(model, np.array([0.5, 0.3, 1.0]), 400, logistic(), seed=7)
    res = fit(model, y, FitOptions(criterion="gaussian"))
    X = np.column_stack([np.ones(len(y) - 1), y[:-1]])
    beta, *_ = np.linalg.lstsq(X, y[1:], rcond=None)
    theta = res.theta.array
    np.testing.assert_allclose(theta[:2], beta, atol=1e-8)
    u = y[1:] - X @ beta
    assert theta[2] == pytest.approx(float(u @ u) / (len(y) - 1), abs=1e-8)
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


@pytest.mark.parametrize(
    "name,kw,theta0,R,r",
    [
        ("dar", dict(p=1, q=1), (1.0, 0.5, 0.3, 0.5), [[1.0, 1.0, 1.0, 1.0]], [2.3]),
        ("arma_garch", dict(), (0.5, 0.3, 0.2, 0.2, 0.1, 0.3), [[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]], [0.5]),
    ],
    ids=["dar", "arma_garch"],
)
def test_fit_needs_ten_observations_per_parameter(name, kw, theta0, R, r):
    # the start proposals are asked only for a series of at least 10 dim
    # observations; one fewer fails before any of them is formed
    model = make_model(name, **kw)
    n = 10 * model.dim
    y = simulate(model, np.array(theta0), n, logistic(), seed=3, burn=100)
    for run in (lambda y: fit(model, y), lambda y: fit_constrained(model, y, R, r, theta_hat=theta0)):
        with pytest.raises(ValueError, match=f"need at least {n} observations"):
            run(y[1:])
        assert np.isfinite(run(y).loglik)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sandwich_rejects_non_finite_information(bad):
    # a NaN eigenvalue would pass a bare eigenvalue comparison
    a = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(SingularInformation, match="non-finite entry"):
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
    free = fit(model, y)
    cfit = fit_constrained(model, y, R, r, theta_hat=free.theta)
    assert cfit.converged
    assert float((R @ cfit.theta.array)[0]) == pytest.approx(2.3, abs=1e-8)
    assert cfit.loglik <= free.loglik + 1e-9


PLANE_CASES = [
    # (model, kwargs, theta0, R row, r, seed); the ARMA-GARCH run pins beta1 on its 0 face
    ("dar", dict(p=1, q=1), (1.0, 0.5, 0.3, 0.5), [1, 1, 1, 1], 2.3, 1000),
    ("garch", dict(p=1, q=1), (0.2, 0.15, 0.4), [0, 1, 1], 0.55, 1000),
    ("arma_garch", dict(include_intercept=False), (0.3, 0.2, 0.2, 0.1, 0.3), [1, 1, 2, 3, 1], 1.5, 1003),
]


@pytest.mark.parametrize("name,kw,theta0,row,rhs,seed", PLANE_CASES, ids=[c[0] for c in PLANE_CASES])
def test_every_restricted_iterate_stays_on_the_plane(monkeypatch, name, kw, theta0, row, rhs, seed):
    model = make_model(name, **kw)
    y = simulate(model, np.array(theta0), 400, logistic(), seed=seed, burn=100)
    theta_hat = fit(model, y).theta
    R, r = np.array([row], dtype=float), np.array([rhs])
    points = []  # every evaluated point: starts, trial steps and so every iterate
    real = estimation.evaluate

    def recording(model, y, theta, order=0, criterion="logistic"):
        points.append(np.array(theta, dtype=float))
        return real(model, y, theta, order=order, criterion=criterion)

    monkeypatch.setattr(estimation, "evaluate", recording)
    fit_constrained(model, y, R, r, theta_hat=theta_hat)
    points = np.array(points)
    assert np.abs(points @ R.T - r).max() <= 1e-10 * (1.0 + np.abs(r).max())
    if name == "arma_garch":
        lo, _ = model.default_bounds()
        assert (points[:, 4] <= lo[4] + estimation._BOX_SLACK).any()


def test_constrained_fit_runs_only_the_given_start():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 600, logistic(), seed=23)
    R, r = np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3])
    start = (0.8, 0.4, 0.7, 0.4)  # on R theta = r
    theta_hat = fit(model, y).theta
    cfit = fit_constrained(model, y, R, r, FitOptions(start=start), theta_hat=theta_hat)
    assert cfit.n_starts == 1
    assert cfit.trace[0] == pytest.approx(evaluate(model, y, np.array(start)).loglik, abs=1e-9)
    assert float((R @ cfit.theta.array)[0]) == pytest.approx(2.3, abs=1e-8)
    # DAR runs its interior warm start alone when that run settles off the faces
    assert fit_constrained(model, y, R, r, theta_hat=theta_hat).n_starts == 1


@pytest.mark.parametrize(
    "theta_hat,error",
    [((1.0, 0.5, 0.3), ShapeMismatch), ((1.0, np.nan, 0.3, 0.5), NonFiniteObjective)],
    ids=["wrong-length", "non-finite"],
)
def test_bad_theta_hat_fails_before_any_newton_step(monkeypatch, theta_hat, error):
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, logistic(), seed=23)
    monkeypatch.setattr(estimation, "_newton", lambda *a, **k: pytest.fail("Newton ran"))
    with pytest.raises(error):
        fit_constrained(model, y, np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3]), theta_hat=theta_hat)


def test_feasible_theta_hat_is_the_first_start():
    # a theta_hat inside the box on R theta = r is its own projection
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 600, logistic(), seed=23)
    R, r = np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3])
    lo, hi = model.default_bounds()
    theta_hat = np.array([0.8, 0.4, 0.7, 0.4])
    np.testing.assert_array_equal(estimation._warm_start(model, theta_hat, R, r, lo, hi), theta_hat)
    cfit = fit_constrained(model, y, R, r, FitOptions(multistart=False), theta_hat=theta_hat)
    assert cfit.n_starts == 1
    assert cfit.trace[0] == pytest.approx(evaluate(model, y, theta_hat).loglik, abs=1e-9)
    # theta_hat is inside the shrunk box too, so the interior start is
    # theta_hat and it settles alone, without the start values
    np.testing.assert_array_equal(
        estimation._warm_start(model, theta_hat, R, r, lo, hi, interior=True), theta_hat
    )
    cfit = fit_constrained(model, y, R, r, theta_hat=theta_hat)
    assert cfit.n_starts == 1
    assert cfit.trace[0] == pytest.approx(evaluate(model, y, theta_hat).loglik, abs=1e-9)


def test_warm_start_projects_theta_hat_into_the_box_on_the_plane(monkeypatch):
    model = make_model("dar", p=1, q=1)
    R, r = np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3])
    lo, hi = model.default_bounds()
    midpoint = estimation._project_into_box(R, r, lo, hi)
    warm = estimation._warm_start(model, (1.1, 0.45, 0.26, 0.53), R, r, lo, hi)
    assert float((R @ warm)[0]) == pytest.approx(2.3, abs=1e-10)
    assert np.all((lo <= warm) & (warm <= hi))
    assert np.max(np.abs(warm - midpoint)) > 1.0  # not the midpoint projection

    project = estimation._project_into_box

    def stuck(R, r, lo, hi, start=None):  # only the projections of theta_hat fail
        if start is not None:
            raise InfeasibleConstraint("no box point satisfies the linear restriction")
        return project(R, r, lo, hi)

    monkeypatch.setattr(estimation, "_project_into_box", stuck)
    for interior in (False, True):
        got = estimation._warm_start(model, (1.1, 0.45, 0.26, 0.53), R, r, lo, hi, interior)
        np.testing.assert_array_equal(got, midpoint)

    def infeasible(R, r, lo, hi, start=None):  # every projection fails
        raise InfeasibleConstraint("no box point satisfies the linear restriction")

    monkeypatch.setattr(estimation, "_project_into_box", infeasible)
    with pytest.raises(InfeasibleConstraint):
        estimation._warm_start(model, (1.1, 0.45, 0.26, 0.53), R, r, lo, hi)


def test_warm_start_reaches_the_restricted_optimum_the_base_point_misses():
    # ARMA-GARCH at 1.3 theta0: a fit that started from the box midpoint
    # projected onto the plane stopped after one iteration more than 1000
    # below the optimum; from the unrestricted estimate it converges in a
    # few steps
    model = make_model("arma_garch", include_intercept=False)
    theta0 = 1.3 * np.array([0.3, 0.2, 0.2, 0.1, 0.3])
    y = simulate(model, theta0, 400, logistic(), seed=1027, burn=100)
    R, r = np.array([[1.0, 1.0, 2.0, 3.0, 1.0]]), np.array([1.5])
    warm = fit_constrained(model, y, R, r, theta_hat=fit(model, y).theta)
    assert warm.converged
    assert warm.loglik == pytest.approx(-745.1474206812732, abs=1e-6)
    # ARMA-GARCH keeps the template and its start values behind the warm start
    assert not model.interior_warm_start
    assert warm.n_starts == 1 + 1 + len(model.start_values(y))


DAR_TEST = (np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3]))


def _dar_series(scale, seed, burn):
    """A DAR(1,1) series at scale theta0; with no burn-in the zero state is prepended."""
    model = make_model("dar", p=1, q=1)
    theta = scale * np.array([1.0, 0.5, 0.3, 0.5])
    y = simulate(model, theta, 400, logistic(), seed=seed, burn=burn)
    return model, y if burn else np.r_[np.zeros(model.presample), y]


def test_warm_start_on_a_face_survives_the_map_onto_the_plane():
    # the projected theta_hat sits exactly on alpha0's face and must start
    # Newton there: 1.07e-12 past the face, beyond Newton's slack, the
    # start would die without a word
    model, y = _dar_series(1.5, 1493, 100)
    R, r = DAR_TEST
    lo, hi = model.default_bounds()
    theta_hat = fit(model, y).theta
    assert not any(theta_hat.boundary_active())
    warm = estimation._warm_start(model, theta_hat, R, r, lo, hi)
    assert warm[2] == lo[2]
    cfit = fit_constrained(model, y, R, r, FitOptions(start=tuple(warm)), theta_hat=theta_hat)
    assert cfit.converged
    assert cfit.loglik == pytest.approx(-2454.817403823664, abs=1e-6)


def test_interior_start_reaches_the_optimum_a_clipped_warm_start_misses():
    # the warm start clips alpha0 onto its face, and Newton from it stops
    # at a point on that face; the interior start alone reaches the optimum
    # the start values found behind it
    model, y = _dar_series(1.5, 1006, 100)
    R, r = DAR_TEST
    lo, hi = model.default_bounds()
    theta_hat = fit(model, y).theta
    warm = estimation._warm_start(model, theta_hat, R, r, lo, hi)
    assert warm[2] == lo[2]
    warm_alone = fit_constrained(model, y, R, r, FitOptions(start=tuple(warm)), theta_hat=theta_hat)
    assert warm_alone.boundary[2]
    cfit = fit_constrained(model, y, R, r, FitOptions(multistart=False), theta_hat=theta_hat)
    assert (cfit.n_starts, cfit.converged) == (1, True)
    assert not any(cfit.boundary)
    assert cfit.loglik == pytest.approx(-2525.7272275112, abs=1e-6)
    assert cfit.loglik > warm_alone.loglik + 1.0


def test_interior_run_on_a_face_falls_back_to_the_other_starts():
    # theta_hat is on the alpha0 floor; the interior start alone ends on
    # that face, so the projected warm start, the template and the start
    # values run too
    model, y = _dar_series(1.5, 1539, 0)
    R, r = DAR_TEST
    theta_hat = fit(model, y).theta
    assert theta_hat.boundary_active()[2]
    alone = fit_constrained(model, y, R, r, FitOptions(multistart=False), theta_hat=theta_hat)
    assert (alone.n_starts, alone.converged, alone.boundary[2]) == (1, True, True)
    assert alone.loglik == pytest.approx(-2951.7127, abs=1e-4)
    cfit = fit_constrained(model, y, R, r, theta_hat=theta_hat)
    assert cfit.n_starts == 2 + 1 + len(model.start_values(y))
    assert cfit.converged and not any(cfit.boundary)
    assert cfit.loglik == pytest.approx(-2936.8848, abs=1e-4)


def test_unconverged_interior_run_falls_back_to_the_other_starts():
    # with one Newton iteration the interior start stops unconverged, so
    # the template and the data start run too (the projected warm start
    # is the interior start here); with the default budget it settles alone
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, logistic(), seed=5, burn=100)
    R, r = DAR_TEST
    theta_hat = fit(model, y).theta
    short = fit_constrained(model, y, R, r, FitOptions(max_iter=1), theta_hat=theta_hat)
    assert len(model.start_values(y)) == 1
    assert (short.converged, short.n_starts) == (False, 1 + 1 + 1)
    cfit = fit_constrained(model, y, R, r, theta_hat=theta_hat)
    assert (cfit.converged, cfit.n_starts) == (True, 1)


def test_dar_restricted_fit_at_theta0_is_one_short_run(monkeypatch):
    model, y = _dar_series(1.0, 2000, 0)
    R, r = DAR_TEST
    theta_hat = fit(model, y).theta
    calls = []
    real = estimation.evaluate
    monkeypatch.setattr(estimation, "evaluate", lambda *a, **k: calls.append(1) or real(*a, **k))
    cfit = fit_constrained(model, y, R, r, theta_hat=theta_hat)
    assert cfit.converged
    assert cfit.n_starts == 1
    assert len(calls) <= 8


def test_earlier_start_wins_a_tie(monkeypatch):
    # starts that reach one optimum differ in the last bits of their
    # loglik; a later start must clear the best by more than rounding
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, logistic(), seed=23)
    first = fit(model, y, FitOptions(multistart=False))
    real = estimation._newton
    for bump, winner in ((1e-12, 0), (1e-6, 1)):
        calls = []

        def recording(*args, bump=bump, calls=calls):
            res = real(*args)
            if calls:  # every later start reaches the optimum a little higher
                res[1].loglik += bump * (1.0 + abs(res[1].loglik))
            calls.append(res)
            return res

        monkeypatch.setattr(estimation, "_newton", recording)
        starts = [model._template, first.theta.array]
        got = estimation._fit(model, y, FitOptions(), lambda yv: starts)
        assert len(calls) == 2
        assert got.loglik == calls[winner][1].loglik
        assert got.iterations == calls[winner][3]
        assert got.trace == tuple(calls[winner][4])


def test_constrained_fit_at_the_optimum_is_free_fit():
    # binding the parameter to its own unconstrained optimum must leave
    # the estimate in place with a numerically zero multiplier
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.2, 0.4]), 500, logistic(), seed=29)
    free = fit(model, y)
    assert not any(free.boundary)
    R = np.eye(3)
    cfit = fit_constrained(model, y, R, free.theta.array, theta_hat=free.theta)
    np.testing.assert_allclose(cfit.theta.array, free.theta.array, atol=1e-10)
    assert np.max(np.abs(cfit.multiplier)) < 1e-4
    assert cfit.loglik == pytest.approx(free.loglik, abs=1e-10)


def test_constrained_fit_rejects_non_finite_series(capfd):
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 200, logistic(), seed=23)
    y[57] = np.nan
    with pytest.raises(NonFiniteObjective):
        fit_constrained(
            model, y, np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3]), theta_hat=(1.0, 0.5, 0.3, 0.5)
        )
    assert capfd.readouterr().err == ""


def test_constrained_fit_rejects_infeasible_target():
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.1, 0.3]), 200, logistic(), seed=3)
    R = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleConstraint):
        fit_constrained(model, y, R, np.array([-5.0]), theta_hat=(1.0, 0.1, 0.3))


def test_evaluate_clamps_are_counted():
    # a zero variance path (outside the box) is floored, not propagated,
    # and every floored row the criterion scores is counted
    garch = make_model("garch", p=1, q=1)
    parts = evaluate(garch, np.zeros(50), np.zeros(3))
    assert np.isfinite(parts.loglik)
    assert parts.clamped == parts.nobs == 50
    # the DAR conditioning row is floored too, but scores no term
    dar = make_model("dar", p=1, q=1)
    y = simulate(dar, np.array([0.5, 0.4, 1.0, 0.3]), 50, logistic(), seed=3)
    parts = evaluate(dar, y, np.zeros(4))
    assert np.isfinite(parts.loglik)
    assert parts.clamped == parts.nobs == y.size - 1


def test_fit_result_covariance_is_consistent():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 400, logistic(), seed=41)
    res = fit(model, y)
    np.testing.assert_allclose(
        res.cov, sandwich_cov(res.info_hessian, res.info_opg, res.nobs), atol=1e-12
    )
    np.testing.assert_allclose(res.se, np.sqrt(np.diag(res.cov)), atol=1e-12)


def test_fit_reports_nonstationary_trials_once():
    # from this start, optimizer trials of the GARCH(1,2) fit cross
    # beta1 + beta2 >= 1 twice; the fit warns once, with the count, at the caller
    model = make_model("garch", p=1, q=2)
    y = simulate(model, np.array([1.0, 0.15, 0.2, 0.2]), 400, logistic(), seed=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fit(model, y, FitOptions(start=(0.1, 0.5, 0.7, 0.25)))
    assert res.converged
    assert [w.category for w in caught] == [NonstationaryRegionWarning]
    assert str(caught[0].message).startswith("2 trial points of this fit were nonstationary")
    assert caught[0].filename == __file__


@pytest.mark.parametrize(
    "name,kw,theta0",
    [
        ("dar", dict(p=1, q=1), (1.0, 0.5, 0.3, 0.5)),
        ("garch", dict(p=1, q=1), (1.0, 0.15, 0.4)),
        ("arma_garch", dict(include_intercept=False), (0.3, 0.2, 0.2, 0.1, 0.3)),
        ("expar", dict(p=1), (0.3, 0.7, 1.5)),
    ],
    ids=["dar", "garch", "arma_garch", "expar"],
)
def test_multistart_runs_start_values_and_screened_candidates(name, kw, theta0):
    model = make_model(name, **kw)
    y = simulate(model, np.array(theta0), 400, logistic(), seed=6, burn=100)
    # the template, the start values and one Newton run per group of candidates
    want = 1 + len(model.start_values(y)) + len(model.start_candidates(y))
    assert fit(model, y).n_starts == want
    assert fit(model, y, FitOptions(multistart=False)).n_starts == 1 + len(model.start_values(y))


def test_gaussian_fit_screens_candidates_by_the_gaussian_criterion(monkeypatch):
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.15, 0.4]), 400, student_t(3.0), seed=0, burn=100)
    candidates = model.start_candidates(y)[0]  # the screened group

    def best(criterion):
        scores = [evaluate(model, y, c, criterion=criterion).loglik for c in candidates]
        return candidates[int(np.argmax(scores))]

    # on this series the two criteria rank the candidates differently
    assert not np.array_equal(best("gaussian"), best("logistic"))
    real = estimation._newton
    ran = []

    def recording(*args):
        ran.append(args[5].copy())  # the start th0
        return real(*args)

    monkeypatch.setattr(estimation, "_newton", recording)
    fit(model, y, FitOptions(criterion="gaussian"))
    n_values = 1 + len(model.start_values(y))  # the template, then the start values
    assert len(ran) == n_values + 2
    np.testing.assert_array_equal(ran[n_values], best("gaussian"))


_T2_SCALE = 0.9585596  # t(2) scale with E[x tanh(x/2)] = 1


_DAR = ("dar", dict(p=1, q=1), (1.0, 0.5, 0.3, 0.5))
_GARCH = ("garch", dict(p=1, q=1), (1.0, 0.15, 0.4))
_AG = ("arma_garch", dict(include_intercept=False), (0.3, 0.2, 0.2, 0.1, 0.3))
_EXPAR = ("expar", dict(p=1), (0.3, 0.7, 1.5))


def _scaled(case, factor):
    name, kw, theta0 = case
    return name, kw, tuple(factor * np.array(theta0))


@pytest.mark.parametrize(
    "case,nobs,family,seed,reference",
    [
        (_EXPAR, 400, "logistic", 8, -774.8734303535724),
        (_GARCH, 400, "t2", 78, -1050.5169241647372),
        # the start values alone end lower on the series below
        (_EXPAR, 400, "logistic", 28, -833.2595706520169),
        (_EXPAR, 400, "t2", 85, -785.0990300926375),
        (_AG, 400, "t2", 46, -651.6380355962064),
        (_AG, 400, "t2", 95, -916.4773761842831),
        # other orders, the default arma_garch with its intercept, the
        # short series and the 1.3 theta0 alternatives of Monte Carlo designs
        (("arma_garch", dict(), (0.5, 0.3, 0.2, 0.2, 0.1, 0.3)), 400, "t2", 128, -727.4306543534249),
        (("garch", dict(p=1, q=2), (1.0, 0.15, 0.2, 0.2)), 400, "t2", 144, -1208.099179905781),
        (("garch", dict(p=2, q=1), (1.0, 0.1, 0.1, 0.4)), 400, "t2", 112, -1059.277709296569),
        (("expar", dict(p=2), (0.3, 0.1, 0.5, -0.2, 1.5)), 400, "logistic", 115, -780.9825717010249),
        (("dar", dict(p=2, q=2), (1.0, 0.4, 0.1, 0.3, 0.3, 0.2)), 400, "t2", 100, -1223.1244849685188),
        # an ordinary least-squares data start put alpha0 on its upper face here
        (("dar", dict(p=2, q=2), (1.0, 0.4, 0.1, 0.3, 0.3, 0.2)), 400, "logistic", 156, -1637.9038566446695),
        (("dar", dict(p=2, q=2), (1.0, 0.4, 0.1, 0.3, 0.3, 0.2)), 400, "logistic", 198, -1493.900180437267),
        (_GARCH, 150, "t2", 128, -429.635239915443),
        (_AG, 150, "t2", 137, -232.7225562268446),
        (_EXPAR, 150, "t2", 123, -331.2608709329147),
        (_DAR, 150, "t2", 100, -450.7797886043129),
        (_scaled(_GARCH, 1.3), 400, "t2", 162, -1521.3516222303172),
        (_scaled(_AG, 1.3), 400, "t2", 105, -904.2712798705525),
        (_scaled(_EXPAR, 1.3), 400, "t2", 179, -996.5255935552218),
        (_scaled(_DAR, 1.3), 400, "t2", 100, -1478.1091166059477),
    ],
    ids=[
        "expar-logistic-8", "garch-t2-78", "expar-logistic-28", "expar-t2-85", "arma_garch-t2-46",
        "arma_garch-t2-95", "arma_garch_const-t2-128", "garch12-t2-144", "garch21-t2-112",
        "expar2-logistic-115", "dar22-t2-100", "dar22-logistic-156", "dar22-logistic-198",
        "garch-n150-t2-128", "arma_garch-n150-t2-137", "expar-n150-t2-123", "dar-n150-t2-100",
        "garch-1.3x-t2-162", "arma_garch-1.3x-t2-105", "expar-1.3x-t2-179", "dar-1.3x-t2-100",
    ],
)
def test_fit_reaches_the_reference_optimum(case, nobs, family, seed, reference):
    # nobs after a burn of 100 from innovations drawn with default_rng(seed);
    # reference is the loglik the six-start fit (template and data starts,
    # the box midpoint and three uniform draws) reached on the same series
    name, kw, theta0 = case
    model = make_model(name, **kw)
    rng = np.random.default_rng(seed)
    size = nobs + 100
    eta = rng.logistic(0.0, 1.0, size) if family == "logistic" else _T2_SCALE * rng.standard_t(2.0, size)
    y = model.path(np.array(theta0), eta)[100:]
    assert fit(model, y).loglik >= reference - 1e-8 * (1.0 + abs(reference))


def test_wrong_length_start_fails_before_any_evaluation(monkeypatch):
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, logistic(), seed=23)
    monkeypatch.setattr(estimation, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
    opts = FitOptions(start=(1.0, 2.0))
    with pytest.raises(ShapeMismatch, match="start has 2 values; dar needs 4"):
        fit(model, y, opts)
    with pytest.raises(ShapeMismatch, match="start has 2 values; dar needs 4"):
        fit_constrained(
            model, y, np.array([[0.0, 1.0, 0.0, 0.0]]), np.array([0.5]), opts, theta_hat=(1.0, 0.5, 0.3, 0.5)
        )


def test_fit_passes_other_warnings_through(monkeypatch):
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 400, logistic(), seed=23)
    real = estimation.evaluate
    calls = []

    def noisy(*args, **kwargs):
        calls.append(1)
        warnings.warn("probe", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimation, "evaluate", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(model, y)
    assert calls
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "probe")] * len(calls)
    assert {w.filename for w in caught} == {__file__}


def test_criterion_table_names_every_estimator_criterion():
    # --criterion and an mc estimator map onto these names; evaluate must know each
    from lqmle.montecarlo import _CRITERION

    assert sorted(_CRITERION.values()) == sorted(estimation._CRITERIA)
    with pytest.raises(ValueError, match="unknown criterion 'laplace'"):
        evaluate(make_model("garch", p=1, q=1), np.ones(40), [0.5, 0.1, 0.3], criterion="laplace")


def test_fit_raises_when_every_start_is_non_finite():
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([0.2, 0.15, 0.4]), 400, logistic(), seed=1)
    y[0] = 1e200  # its square overflows every variance path
    with pytest.raises(NonFiniteObjective, match="criterion was non-finite at every starting point"):
        fit(model, y)


def test_newton_stops_unconverged_when_backtracking_runs_out(monkeypatch):
    # one outlier of 1e154 puts a term of order 1e153 in the criterion, whose
    # rounding swamps every gain the Armijo test asks for along the direction
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.5, 0.3, 0.5]), 200, logistic(), seed=0, burn=50)
    y[100] = 1e154
    events = []  # the order of each evaluation, and "derive" for each accepted step
    real, real_derive = estimation.evaluate, estimation._derive

    def counted(model, y, theta, order=0, criterion="logistic"):
        events.append(order)
        return real(model, y, theta, order=order, criterion=criterion)

    monkeypatch.setattr(estimation, "evaluate", counted)
    monkeypatch.setattr(estimation, "_derive", lambda parts: events.append("derive") or real_derive(parts))
    res = fit(model, y, FitOptions(start=(0.0, 0.0, 1.0, 0.1)))
    assert not res.converged
    assert res.iterations < FitOptions().max_iter
    # after the last accepted iterate (or the start, at order 2) the step is
    # cut from alpha = 1 to below 1e-14, one order-0 trial per halving
    tail = max(i for i, event in enumerate(events) if event in (2, "derive"))
    assert events[tail + 1 :] == [0] * 47
    assert len(res.trace) == res.iterations


HUGE_CASES = [
    ("dar", dict(p=1, q=1), (1.0, 0.5, 0.3, 0.5)),
    ("garch", dict(p=1, q=1), (1.0, 0.15, 0.4)),
    ("arma_garch", dict(include_intercept=False), (0.3, 0.2, 0.2, 0.1, 0.3)),
    ("expar", dict(p=1), (0.5, -0.4, 1.0)),
]


@pytest.mark.parametrize("criterion", ["logistic", "gaussian"])
@pytest.mark.parametrize("big", [1e155, 1e200])
@pytest.mark.parametrize("name,kw,theta", HUGE_CASES, ids=[c[0] for c in HUGE_CASES])
def test_one_huge_observation_fits_or_raises_a_typed_error(capfd, name, kw, theta, big, criterion):
    # its square overflows: DAR's start regression must drop out rather
    # than reach LAPACK (which printed to stdout), and EXPAR's information
    # pair must overflow quietly; any warning fails the test
    model = make_model(name, **kw)
    y = simulate(model, np.array(theta), 200, logistic(), seed=0, burn=50)
    y[100] = big
    try:
        res = fit(model, y, FitOptions(criterion=criterion))
    except LqmleError:
        pass
    else:
        assert np.isfinite(res.loglik)
    assert capfd.readouterr().out == ""


def test_a_start_that_joins_an_earlier_optimum_stops_and_cannot_win(monkeypatch):
    # on this series later starts reach the first start's optimum; each
    # stops once an accepted iterate is within _JOIN_TOL of it, and the fit
    # is the earliest single-start fit that reaches the best loglik
    model = make_model("garch", p=1, q=1)
    y = simulate(model, np.array([1.0, 0.15, 0.4]), 400, logistic(), seed=0, burn=100)
    starts = estimation._build_starts(model, model._bind(y), FitOptions())
    singles = [fit(model, y, FitOptions(start=tuple(s))) for s in starts]
    runs = []
    orders = []  # the order of each evaluation, per Newton run
    real, real_evaluate = estimation._newton, estimation.evaluate

    def recording(*args):
        orders.append([])
        runs.append(real(*args))
        return runs[-1]

    def counted(*args, **kwargs):
        if orders:
            orders[-1].append(kwargs.get("order", 0))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(estimation, "_newton", recording)
    monkeypatch.setattr(estimation, "evaluate", counted)
    got = fit(model, y)
    assert got.n_starts == len(runs) == len(starts)
    joined = [i for i, (run, single) in enumerate(zip(runs, singles)) if run is None and single.converged]
    assert joined and joined[0] > 0
    top = max(s.loglik for s in singles)
    want = next(s for s in singles if not estimation._beats(top, s.loglik))
    assert got.theta.array.tobytes() == want.theta.array.tobytes()
    assert (got.loglik, got.iterations, got.trace) == (want.loglik, want.iterations, want.trace)
    # every trial is valued at order 0, and the step that joins is not
    # derived, since it ends the run: 32 evaluations in all
    assert all(orders[i][-1] == 0 for i in joined)
    joining = sum(map(len, orders))
    assert joining == 32
    # every start run to its end gives the same fit for more evaluations
    orders.clear()
    monkeypatch.setattr(estimation, "_JOIN_TOL", 0.0)
    full = fit(model, y)
    assert sum(map(len, orders)) > joining
    assert full.theta.array.tobytes() == got.theta.array.tobytes()
    assert (full.loglik, full.iterations, full.trace, full.n_starts) == (got.loglik, got.iterations, got.trace, got.n_starts)
    assert full.cov.tobytes() == got.cov.tobytes()


def test_restricted_fits_share_one_svd_per_distinct_frame(monkeypatch):
    # frames are cached per process, keyed on R and the binding faces
    model = make_model("dar", p=1, q=1)
    R, r = np.array([[1.0, 1.0, 1.0, 1.0]]), np.array([2.3])
    made = []  # (the normals, their frame) per null_space call
    real = estimation.null_space

    def counted(normals):
        made.append((normals.tobytes(), real(normals)))
        return made[-1][1]

    monkeypatch.setattr(estimation, "null_space", counted)
    estimation._frame.cache_clear()
    for seed in (1000, 1001):
        y = simulate(model, 1.5 * np.array(_DAR[2]), 400, logistic(), seed=seed, burn=100)
        fit_constrained(model, y, R, r, theta_hat=fit(model, y).theta)
    keys = [key for key, _ in made]
    assert R.tobytes() in keys and len(set(keys)) == len(keys)
    assert all(not frame.flags.writeable for _, frame in made)
    assert not estimation._frame(None, np.zeros(4, dtype=bool).tobytes()).flags.writeable


# evaluate calls pinned per model, as upper bounds, on a small fixed corpus:
# each fit-zoo model under logistic and t2 innovations on seeds 0-4, and the
# restricted DAR fits of the R = [1, 1, 1, 1], r = 2.3 cell at 1.5 theta0
# on seeds 1000-1004.  A change that lowers a total lowers its pin with it.
EVALUATION_PINS = {"dar": 168, "garch": 358, "arma_garch": 422, "expar": 455, "dar_restricted": 52}


def test_evaluations_per_model_stay_within_their_pins(monkeypatch):
    calls = []
    real = estimation.evaluate
    monkeypatch.setattr(estimation, "evaluate", lambda *a, **k: calls.append(1) or real(*a, **k))
    totals = {}
    for name, kw, theta0 in (_DAR, _GARCH, _AG, _EXPAR):
        model = make_model(name, **kw)
        series = [
            simulate(model, np.array(theta0), 400, law, seed=seed, burn=100)
            for law in (logistic(), student_t(2.0, _T2_SCALE))
            for seed in range(5)
        ]
        calls.clear()
        for y in series:
            fit(model, y)
        totals[name] = len(calls)
    model, theta0 = make_model("dar", p=1, q=1), 1.5 * np.array(_DAR[2])
    totals["dar_restricted"] = 0
    for seed in range(1000, 1005):
        y = simulate(model, theta0, 400, logistic(), seed=seed, burn=100)
        theta_hat = fit(model, y).theta
        calls.clear()
        fit_constrained(model, y, [[1.0, 1.0, 1.0, 1.0]], [2.3], theta_hat=theta_hat)
        totals["dar_restricted"] += len(calls)
    assert {k: v for k, v in totals.items() if v > EVALUATION_PINS[k]} == {}
