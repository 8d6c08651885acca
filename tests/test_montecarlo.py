"""Replication harness determinism and sampling-theory cross checks.

Everything here must be bit-for-bit reproducible: per-replication streams
are spawned from the scenario seed, aggregation is order-independent, and
the worker count must never leak into the numbers.
"""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from lqmle.distributions import logistic, student_t
from lqmle.errors import ExcessiveFailures, InfeasibleConstraint, NonFiniteObjective, ShapeMismatch
from lqmle.estimation import fit, kernel_moments
from lqmle.models import make_model, simulate
from lqmle import montecarlo
from lqmle.montecarlo import (
    _BLOCK,
    RepRecord,
    Scenario,
    normality_sample,
    population_information,
    run_scenario,
)

RESTRICT = (((1.0, 1.0, 1.0, 1.0),), (2.3,))


def _dar_scenario(**overrides):
    kw = dict(
        model=make_model("dar", p=1, q=1),
        theta0=(1.0, 0.5, 0.3, 0.5),
        dist=logistic(),
        nobs=150,
        reps=6,
        seed=42,
        constraint=RESTRICT,
        label="dar-small",
    )
    kw.update(overrides)
    return Scenario(**kw)


def test_rerun_is_identical():
    a = run_scenario(_dar_scenario()).as_dict()
    b = run_scenario(_dar_scenario()).as_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_worker_count_does_not_change_results():
    one = run_scenario(_dar_scenario(), workers=1).as_dict()
    two = run_scenario(_dar_scenario(), workers=2).as_dict()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_summary_shapes_and_ranges():
    s = run_scenario(_dar_scenario())
    assert s.reps_used + s.failures == s.reps
    assert len(s.mean_estimate) == 4
    assert len(s.bias) == 4
    assert len(s.sd) == 4
    assert 0.0 <= s.wald_reject_rate <= 1.0
    assert 0.0 <= s.lm_reject_rate <= 1.0
    assert s.param_names == ("const", "ar1", "alpha0", "alpha1")


def test_summary_dict_has_no_timing():
    # wall-clock time must never enter a serialized report
    s = run_scenario(_dar_scenario())
    assert s.runtime_seconds > 0
    assert "runtime_seconds" not in s.as_dict()
    assert "records" not in s.as_dict()


def test_bias_is_mean_minus_truth():
    s = run_scenario(_dar_scenario())
    got = np.array(s.bias)
    want = np.array(s.mean_estimate) - np.array(s.theta0)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_alternative_scale_shifts_the_data_generator():
    sc = _dar_scenario(alternative_scale=1.3)
    np.testing.assert_allclose(sc.dgp_theta, 1.3 * np.array(sc.theta0), atol=0)
    s = run_scenario(sc)
    # bias is measured against the data-generating point, not theta0
    np.testing.assert_allclose(
        np.array(s.bias), np.array(s.mean_estimate) - np.array(s.dgp_theta), atol=1e-14
    )
    assert s.alternative_scale == 1.3


def test_alternative_scale_must_be_positive():
    with pytest.raises(ValueError):
        _dar_scenario(alternative_scale=0.0)


def test_nobs_guard():
    with pytest.raises(ValueError, match="nobs"):
        _dar_scenario(nobs=30)


def test_burn_guard():
    with pytest.raises(ValueError, match="burn"):
        _dar_scenario(burn=-5)


def test_records_carry_replication_outcomes():
    s = run_scenario(_dar_scenario(), keep_records=True)
    assert len(s.records) == s.reps
    for rec in s.records:
        if rec.ok:
            assert rec.converged
            assert len(rec.theta_hat) == 4
            assert 0 <= rec.wald_p <= 1
            assert 0 <= rec.lm_p <= 1
        else:
            assert rec.error


@pytest.mark.parametrize("burn", [0, 20])
def test_replications_condition_on_what_is_known_of_the_start(burn):
    # a path with no burn-in starts from the known zero state, which is
    # prepended as data so that every observation scores; a burned-in
    # window conditions on its first one
    sc = _dar_scenario(reps=2, burn=burn, constraint=None)
    s = run_scenario(sc, keep_records=True)
    for rec in s.records:
        seed = np.random.SeedSequence(sc.seed, spawn_key=(rec.index,))
        y = simulate(sc.model, sc.dgp_theta, sc.nobs, sc.dist, seed=seed, burn=burn)
        padded = np.r_[np.zeros(sc.model.presample), y]
        fits = {z: fit(sc.model, padded if z else y).theta.array for z in (True, False)}
        np.testing.assert_array_equal(rec.theta_hat, fits[burn == 0])
        assert not np.allclose(fits[True], fits[False], rtol=1e-6, atol=0)


def test_infeasible_restriction_fails_before_any_replication():
    # alpha0 below its admissible floor: no box point meets the
    # restriction, so the cell is refused before a path is drawn
    with pytest.raises(InfeasibleConstraint, match="no box point satisfies the linear restriction"):
        Scenario(
            model=make_model("garch", p=1, q=1),
            theta0=(1.0, 0.1, 0.3),
            dist=logistic(),
            nobs=120,
            reps=4,
            seed=5,
            constraint=(((1.0, 0.0, 0.0),), (-5.0,)),
        )


def test_failure_tolerance_is_configurable():
    # in the box but explosive under the logistic law: every fit ends on a box face
    sc = Scenario(
        model=make_model("dar", p=1, q=1),
        theta0=(0.1, 3.0, 0.3, 40.0),
        dist=logistic(),
        nobs=120,
        reps=4,
        seed=5,
        label="explosive",
    )
    with pytest.raises(ExcessiveFailures):
        run_scenario(sc, max_failure_fraction=0.99)


def test_no_usable_replication_fails_at_any_tolerance():
    # with every failure tolerated there is still nothing to summarize;
    # theta0 is in the box but explosive, and every fit ends on a box face
    sc = Scenario(
        model=make_model("dar", p=1, q=1),
        theta0=(0.1, 3.0, 0.3, 40.0),
        dist=logistic(),
        nobs=120,
        reps=4,
        seed=5,
        label="explosive",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExcessiveFailures) as caught:
            run_scenario(sc, max_failure_fraction=1.0)
    assert str(caught.value) == "4/4 replications failed: estimate on parameter boundary (4)"


def test_excessive_failures_are_counted_by_reason(monkeypatch):
    # messages of one exception type differ with the data; they count
    # as one reason, and the reasons come in sorted order, not rep order
    errors = [
        "fit did not converge",
        "SingularInformation: information matrix is not positive definite (eigenvalues -1e-3 .. 2)",
        "",
        "estimate on parameter boundary",
        "SingularInformation: information matrix is numerically singular (eigenvalues 1e-17 .. 3)",
        "fit did not converge",
    ]

    def replicate(args):
        _, i = args
        return RepRecord(index=i, ok=not errors[i], theta_hat=(1.0, 0.1, 0.3), error=errors[i])

    monkeypatch.setattr(montecarlo, "_replicate", replicate)
    sc = Scenario(
        model=make_model("garch", p=1, q=1),
        theta0=(1.0, 0.1, 0.3),
        dist=logistic(),
        nobs=120,
        reps=6,
        seed=5,
    )
    with pytest.raises(ExcessiveFailures) as caught:
        run_scenario(sc)
    assert str(caught.value) == (
        "5/6 replications failed: SingularInformation (2); "
        "estimate on parameter boundary (1); fit did not converge (2)"
    )


def test_unconverged_constrained_fit_fails_its_replication(monkeypatch):
    # the first restricted fit of the study stops unconverged: its
    # replication keeps the Wald p-value, has no LM p-value and fails
    clean = run_scenario(_dar_scenario())
    real = montecarlo.fit_constrained
    calls = []

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append(res)
        return dataclasses.replace(res, converged=False) if len(calls) == 1 else res

    monkeypatch.setattr(montecarlo, "fit_constrained", stalled)
    s = run_scenario(_dar_scenario(), keep_records=True)
    bad = [rec for rec in s.records if not rec.ok]
    assert len(bad) == 1
    rec = bad[0]
    assert rec.error == "constrained fit did not converge"
    assert rec.converged and rec.wald_p is not None and rec.lm_p is None
    assert s.failures == clean.failures + 1
    assert s.reps_used == clean.reps_used - 1


def test_boundary_estimates_count_as_failures():
    # heavy tails at short samples pin some replications at the box face;
    # those must be excluded from moments, not averaged in
    sc = Scenario(
        model=make_model("garch", p=1, q=1),
        theta0=(1.0, 0.1, 0.3),
        dist=student_t(3.0, 1.25),
        nobs=200,
        reps=10,
        seed=0,
        label="t3-short",
    )
    s = run_scenario(sc, keep_records=True, max_failure_fraction=0.9)
    bad = [r for r in s.records if not r.ok]
    assert s.failures == len(bad)
    assert s.failures > 0
    assert any("boundary" in r.error for r in bad)
    assert s.reps_used == s.reps - s.failures


def test_explosive_theta0_fails_replications_by_reason_without_warnings():
    # in the box but explosive under the logistic law: two paths overflow,
    # and the other two, finite with |y| near 1e150, fit onto a box face.
    # Tier-1 turns warnings into errors, so an overflow warning in the
    # path or the fit would end the run instead of counting the failure
    sc = Scenario(
        model=make_model("dar", p=1, q=1),
        theta0=(0.1, 3.0, 0.3, 40.0),
        dist=logistic(),
        nobs=200,
        reps=4,
        seed=12345,
    )
    with pytest.raises(ExcessiveFailures) as exc:
        run_scenario(sc, max_failure_fraction=1.0)
    assert str(exc.value) == (
        "4/4 replications failed: NonFiniteObjective (2); estimate on parameter boundary (2)"
    )
    errors = [montecarlo._replicate((sc, i)).error for i in range(sc.reps)]
    diverged = [e for e in errors if e.startswith("NonFiniteObjective")]
    assert len(diverged) == 2
    assert all(
        e.startswith("NonFiniteObjective: simulated series is not finite from observation ")
        for e in diverged
    )


def test_gqmle_estimator_differs_from_lqmle():
    base = dict(
        model=make_model("garch", p=1, q=1),
        theta0=(1.0, 0.15, 0.3),
        dist=logistic(),
        nobs=400,
        reps=4,
        seed=77,
    )
    lq = run_scenario(Scenario(**base, estimator="lqmle", label="lq"), keep_records=True)
    gq = run_scenario(Scenario(**base, estimator="gqmle", label="gq"), keep_records=True)
    assert lq.estimator == "lqmle" and gq.estimator == "gqmle"
    # same seeds, same paths, different criteria: the estimates must differ
    a = np.array([r.theta_hat for r in lq.records if r.ok])
    b = np.array([r.theta_hat for r in gq.records if r.ok])
    assert not np.allclose(a[0], b[0])


def test_unknown_estimator_rejected():
    with pytest.raises(ValueError):
        _dar_scenario(estimator="mle")


def test_population_information_symmetric_positive():
    model = make_model("dar", p=1, q=1)
    a0, b0 = population_information(
        model, np.array([1.0, 0.5, 0.3, 0.5]), logistic(), nobs=100_000, seed=6
    )
    for m in (a0, b0):
        np.testing.assert_allclose(m, m.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(m) > 0)


def test_information_equality_at_logistic_truth():
    # when the innovation law is the standard logistic the Hessian and
    # outer-product blocks estimate the same matrix
    model = make_model("dar", p=1, q=1)
    a0, b0 = population_information(
        model, np.array([1.0, 0.5, 0.3, 0.5]), logistic(), nobs=400_000, seed=3
    )
    gap = np.linalg.norm(a0 - b0, 2) / np.linalg.norm(a0, 2)
    assert gap < 0.02


def _population_information_with_copies(model, theta0, dist, nobs, seed=0, burn=1_000):
    # the quotients as fresh n x d arrays, the way they were first written
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    eta = dist.sample(rng, nobs + burn)
    y = model.path(np.asarray(theta0, dtype=float), eta)
    out = model.filter(y, theta0, order=1)
    sl = slice(burn, None)

    def gram(block, scale):
        # a None block is identically zero
        if block is None:
            return np.zeros((model.dim, model.dim))
        q = block[sl] / scale[sl][:, None]
        return q.T @ q

    ms = gram(out.dsigma2, out.sigma2) / (4.0 * nobs)
    mg = gram(out.dmean, out.sigma) / nobs
    mom = kernel_moments(eta[sl])
    return (1.0 + 2.0 * mom.mf) * ms + 2.0 * mom.ef * mg, mom.m2 * ms + mom.t2 * mg


@pytest.mark.parametrize(
    "name,kw,theta",
    [
        ("dar", {"p": 1, "q": 1}, (1.0, 0.5, 0.3, 0.5)),
        ("garch", {"p": 1, "q": 1}, (1.0, 0.15, 0.4)),
        ("arma_garch", {"include_intercept": False}, (0.5, 0.2, 0.5, 0.2, 0.5)),
        ("expar", {"p": 1}, (0.3, 0.4, 1.0)),
    ],
)
def test_population_information_divides_in_place_with_same_bits(name, kw, theta):
    model = make_model(name, **kw)
    got = population_information(model, np.array(theta), student_t(3.0), nobs=20_000, seed=4)
    want = _population_information_with_copies(
        model, np.array(theta), student_t(3.0), nobs=20_000, seed=4
    )
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize(
    "name,kw,theta",
    [
        ("dar", {"p": 1, "q": 1}, (1.0, 0.5, 0.3, 0.5)),
        ("dar", {"p": 2, "q": 2}, (0.5, 0.3, -0.2, 1.0, 0.2, 0.1)),
        ("garch", {"p": 1, "q": 1}, (1.0, 0.15, 0.4)),
        ("garch", {"p": 1, "q": 1}, (0.02, 0.01, 0.97)),
        ("arma_garch", {}, (0.1, 0.5, 0.2, 0.5, 0.2, 0.5)),
        ("arma_garch", {"include_intercept": False}, (0.5, 0.2, 0.5, 0.2, 0.5)),
        ("expar", {"p": 1}, (0.3, 0.4, 1.0)),
    ],
    ids=["dar11", "dar22", "garch", "garch-persistent", "arma_garch",
         "arma_garch-no-intercept", "expar"],
)
def test_population_information_in_blocks_matches_one_pass(name, kw, theta):
    # several blocks, each filtered from a zero start burn rows early,
    # against one filter pass over the whole path
    nobs = 200_000
    assert nobs > 3 * _BLOCK
    model = make_model(name, **kw)
    got = population_information(model, np.array(theta), logistic(), nobs=nobs, seed=2)
    want = _population_information_with_copies(
        model, np.array(theta), logistic(), nobs=nobs, seed=2
    )
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_population_information_memory_is_set_by_the_block():
    # one pass over a 1M path held about 283 MB of arrays for ARMA-GARCH
    model = make_model("arma_garch", include_intercept=False)
    tracemalloc.start()
    try:
        population_information(model, np.array([0.5, 0.2, 0.5, 0.2, 0.5]), logistic())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


@pytest.mark.parametrize(
    "nobs,burn,message",
    [
        (100_000, 1_000, "path at theta0 is not finite from observation 17211"),
        # the path stays finite, but its squares overflow in the filter
        (17_210, 0, "filter at theta0 is not finite from observation 17137"),
    ],
)
def test_population_information_fails_early_when_explosive(nobs, burn, message):
    # alpha1 E eta^2 + beta1 = 0.05 * 3 + 0.94 = 1.09 under t3
    model = make_model("garch", p=1, q=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteObjective, match=message):
            population_information(
                model, np.array([0.05, 0.05, 0.94]), student_t(3.0), nobs=nobs, burn=burn
            )


@pytest.mark.parametrize("nobs,burn", [(0, 1_000), (-3, 1_000), (100, -5)])
def test_population_information_refuses_empty_or_negative_sizes(nobs, burn):
    # these once ended in ZeroDivisionError, TypeError, and a pair built
    # from the last 5 rows and divided by 100
    model = make_model("garch", p=1, q=1)
    with pytest.raises(ShapeMismatch, match=f"nobs={nobs}, burn={burn}"):
        population_information(model, np.array([1.0, 0.15, 0.4]), logistic(), nobs=nobs, burn=burn)


@pytest.mark.parametrize(
    "controls,message",
    [
        (dict(workers=0), "workers must be at least 1, got 0"),
        (dict(workers=-2), "workers must be at least 1, got -2"),
        (dict(max_failure_fraction=-1.0), r"max_failure_fraction must lie in \[0, 1\], got -1.0"),
        (dict(max_failure_fraction=1.5), r"max_failure_fraction must lie in \[0, 1\], got 1.5"),
        (dict(max_failure_fraction=float("nan")), r"max_failure_fraction must lie in \[0, 1\], got nan"),
    ],
    ids=["workers0", "workers-2", "fraction-1", "fraction1.5", "fraction-nan"],
)
def test_run_scenario_refuses_bad_controls(monkeypatch, controls, message):
    # workers=0 once ran serially, and max_failure_fraction=-1 raised
    # ExcessiveFailures with no failed replication
    monkeypatch.setattr(montecarlo, "_replicate", lambda *a: pytest.fail("replications ran"))
    with pytest.raises(ValueError, match=message):
        run_scenario(_dar_scenario(), **controls)


def test_normality_sample_refuses_zero_info_nobs(monkeypatch):
    # the long path's sizes are checked before any replication runs
    monkeypatch.setattr(montecarlo, "run_scenario", lambda *a, **k: pytest.fail("replications ran"))
    sc = _dar_scenario(nobs=200, reps=5, constraint=None)
    with pytest.raises(ShapeMismatch, match="nobs=0, burn=0"):
        normality_sample(sc, info_nobs=0)


def test_normality_sample_refuses_gaussian_criterion():
    # population_information gives the logistic (A, B): a gqmle scenario
    # would be scaled by the wrong limiting standard deviations
    sc = _dar_scenario(nobs=200, reps=5, constraint=None, estimator="gqmle")
    with pytest.raises(ValueError, match="gqmle"):
        normality_sample(sc, info_nobs=50_000)


def test_normality_sample_shape_and_scaling():
    sc = _dar_scenario(nobs=200, reps=5, constraint=None)
    rows, asd = normality_sample(sc, info_nobs=50_000)
    assert rows.shape == (5, 4)
    assert asd.shape == (4,)
    assert np.all(np.isfinite(rows))
    assert np.all(asd > 0)


def test_normality_sample_reproducible():
    sc = _dar_scenario(nobs=200, reps=5, constraint=None)
    r1, a1 = normality_sample(sc, info_nobs=50_000)
    r2, a2 = normality_sample(sc, info_nobs=50_000)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(a1, a2)
