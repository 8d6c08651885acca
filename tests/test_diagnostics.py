"""Tail index, information criterion, and residual summary checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lqmle.diagnostics import (
    DegenerateTail,
    aic,
    default_tail_fraction,
    hill_estimator,
    hill_sweep,
    residual_diagnostics,
    summarize_residuals,
)
from lqmle.distributions import InnovationDist, empirical, logistic
from lqmle.estimation import fit
from lqmle.kernel import scale_kernel
from lqmle.models import make_model, simulate, stationarity


def test_hill_recovers_pareto_exponent():
    rng = np.random.default_rng(0)
    for alpha in (1.5, 2.0, 3.0):
        x = (rng.pareto(alpha, 10_000) + 1.0)
        got = hill_estimator(x, k=500)
        assert abs(got - alpha) / alpha < 0.15, (alpha, got)


def test_hill_uses_absolute_values():
    rng = np.random.default_rng(1)
    x = rng.pareto(2.0, 5000) + 1.0
    signs = rng.choice([-1.0, 1.0], size=x.size)
    assert hill_estimator(x * signs, k=300) == pytest.approx(
        hill_estimator(x, k=300), abs=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=20, max_value=200),
        elements=st.floats(min_value=0.01, max_value=1e6),
        unique=True,
    ),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_hill_scale_and_order_invariance(x, c):
    k = max(2, x.size // 4)
    base = hill_estimator(x, k=k)
    assert hill_estimator(c * x, k=k) == pytest.approx(base, rel=1e-9)
    assert hill_estimator(np.flip(x), k=k) == pytest.approx(base, rel=1e-12)


def test_hill_rejects_bad_k():
    x = np.arange(1.0, 50.0)
    with pytest.raises(ValueError):
        hill_estimator(x, k=1)
    with pytest.raises(ValueError):
        hill_estimator(x, k=49)
    with pytest.raises(ValueError):
        hill_estimator(np.array([1.0, 2.0]), k=2)


def test_hill_degenerate_inputs():
    with pytest.raises(DegenerateTail):
        hill_estimator(np.ones(100), k=10)
    with pytest.raises(DegenerateTail):
        hill_estimator(np.zeros(100), k=10)


def test_default_tail_fraction_grows_sublinearly():
    assert default_tail_fraction(10) >= 2
    assert default_tail_fraction(1000) == int(1000**0.6)
    assert default_tail_fraction(10_000) < 10_000 ** 0.7


def test_hill_sweep_grid_is_sorted_unique():
    rng = np.random.default_rng(5)
    x = rng.pareto(2.0, 2000) + 1.0
    rows = hill_sweep(x)
    ks = [row["k"] for row in rows]
    assert ks == sorted(set(ks))
    assert all(np.isfinite(row["index"]) for row in rows)


def test_aic_values():
    assert aic(0.0, 0) == 0.0
    assert aic(100.0, 3) == pytest.approx(-194.0, abs=1e-12)
    assert aic(226.778, 6) == pytest.approx(-441.556, abs=0.01)
    # penalty is increasing in the parameter count
    assert aic(100.0, 4) > aic(100.0, 3)


def test_summarize_residuals_quartiles_and_histogram():
    rng = np.random.default_rng(11)
    r = rng.logistic(size=500)
    s = summarize_residuals(r)
    assert s.nobs == 500
    assert s.quartiles[0] == pytest.approx(r.min())
    assert s.quartiles[2] == pytest.approx(np.median(r))
    assert s.quartiles[4] == pytest.approx(r.max())
    assert sum(s.hist_counts) == 500
    assert len(s.hist_edges) == len(s.hist_counts) + 1
    km = float(np.mean(scale_kernel(r)))
    assert s.kernel_mean == pytest.approx(km, abs=1e-12)
    assert s.kernel_mean_se > 0


def test_summary_dict_round_trip():
    import json

    rng = np.random.default_rng(12)
    s = summarize_residuals(rng.logistic(size=100))
    d = s.as_dict()
    assert json.loads(json.dumps(d))["nobs"] == 100


@pytest.fixture(scope="module")
def dar_report():
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array([0.5, 0.4, 1.0, 0.3]), 500, logistic(), seed=61)
    res = fit(model, y)
    return residual_diagnostics(model, res)


def test_report_assembles_all_blocks(dar_report):
    rep = dar_report
    assert np.isfinite(rep.loglik)
    assert rep.aic == pytest.approx(-2 * rep.loglik + 8, abs=1e-10)
    assert rep.hill is not None and rep.hill > 0
    assert rep.hill_k >= 2
    assert rep.lyapunov is not None and rep.lyapunov < 0
    assert rep.residual_summary.nobs == 499  # DAR(1,1) conditions on y_0
    d = rep.as_dict()
    assert set(d) >= {"loglik", "aic", "hill", "hill_k", "lyapunov", "residual_summary"}


def test_report_lyapunov_none_when_unavailable():
    # no stability functional is defined for the exponential AR filter
    model = make_model("expar", p=1)
    y = simulate(model, np.array([0.3, 0.6, 1.5]), 300, logistic(), seed=62)
    res = fit(model, y)
    rep = residual_diagnostics(model, res)
    assert rep.lyapunov is None
    assert rep.lyapunov_se is None
    assert rep.hill is not None


def _garch_fit(nobs: int, seed: int):
    model = make_model("garch", p=1, q=1)
    return model, fit(model, simulate(model, np.array([0.5, 0.15, 0.6]), nobs, logistic(), seed=seed))


def test_lyapunov_resamples_once_per_residual_count(monkeypatch):
    draws = []
    sample = InnovationDist.sample

    def counted(self, rng, size):
        draws.append(size)
        return sample(self, rng, size)

    monkeypatch.setattr(InnovationDist, "sample", counted)
    stationarity._draw_counts.cache_clear()
    fits = [_garch_fit(300, seed) for seed in (63, 64)]
    per_call = []
    for model, res in [*fits, *fits, _garch_fit(301, 65)]:
        before = len(draws)
        assert residual_diagnostics(model, res).lyapunov is not None
        per_call.append(len(draws) - before)
    assert per_call == [1, 0, 0, 0, 1]
    counts = stationarity._draw_counts(300)
    assert not counts.flags.writeable
    assert counts.size == 300 and counts.sum() == stationarity._DRAWS


def test_report_lyapunov_is_the_exponent_under_the_residual_law():
    model, res = _garch_fit(300, 66)
    rep = residual_diagnostics(model, res)
    want = stationarity.lyapunov_exponent(model, res.theta, empirical(res.residuals))
    assert (rep.lyapunov, rep.lyapunov_se) == want


def test_lyapunov_refuses_a_non_finite_value_the_resample_never_draws():
    # with more values than draws some position is never drawn; a zero
    # there makes the DAR integrand log |0 + sqrt(alpha1) * 0| = -inf
    import json
    from types import SimpleNamespace

    n = stationarity._DRAWS + 1
    resid = np.random.default_rng(67).logistic(size=n)
    resid[np.flatnonzero(stationarity._draw_counts(n) == 0)[0]] = 0.0
    model, theta = make_model("dar", p=1, q=1), np.array([0.0, 0.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="not finite"):
        stationarity.lyapunov_exponent(model, theta, empirical(resid))
    rep = residual_diagnostics(model, SimpleNamespace(residuals=resid, theta=theta, loglik=-1.0))
    assert rep.lyapunov is None and rep.lyapunov_se is None
    assert '"lyapunov": null' in json.dumps(rep.as_dict())


def test_kernel_mean_law_of_large_numbers():
    # the scale normalization says E h(eta) = 1 at the true law; growing
    # the sample from 200 to 20000 should pull the sample mean toward 1
    # in the overwhelming majority of paired draws
    closer = 0
    trials = 50
    for s in range(trials):
        rng = np.random.default_rng(1000 + s)
        small = np.abs(np.mean(scale_kernel(rng.logistic(size=200))) - 1.0)
        large = np.abs(np.mean(scale_kernel(rng.logistic(size=20_000))) - 1.0)
        closer += large < small
    assert closer >= 0.8 * trials
