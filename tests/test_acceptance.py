"""Acceptance gate: end-to-end statistical targets at desk scale.

Each test here is one criterion from the package's acceptance checklist and
prints exactly one PASS or FAIL line with the measured quantities, so a
full run reads as a ten-line scorecard.  The criteria fall in three groups:

* exact arithmetic (calibration constants, derivative oracles, covariance
  identities, the AIC identity) checked at tight tolerances;
* sampling-theory targets (bias and dispersion bands, size and power of the
  tests, asymptotic normality) checked at desk scale -- hundreds of
  replications rather than thousands -- against frozen reference values
  from full-scale runs, with bands wide enough that the verdict is a
  property of the method, not of one lucky seed;
* reproducibility (byte-identical reports across worker counts).

Seeds are fixed constants.  If a band check fails after a code change the
first question is whether the estimator changed, not whether the seed was
unlucky: the bands were chosen so that the checked property holds with
large margin at these seeds.

Run with ``pytest tests/test_acceptance.py -v``; the verdict lines print
unconditionally, bypassing capture.  Total runtime is around ten minutes
on one CPU, dominated by the size/power criterion.  Every test here carries
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the unit
tests alone.
"""

import hashlib
import json
import time

import numpy as np
import pytest
import scipy.stats

from lqmle.cli import main
from lqmle.diagnostics import aic, residual_diagnostics
from lqmle.distributions import logistic, normal, stable, student_t, uniform
from lqmle.estimation import (
    FitOptions,
    evaluate,
    fit,
    sandwich_cov,
    scale_only_cov,
    scale_only_information,
)
from lqmle.kernel import kernel_expectation, logistic_logpdf, logistic_pdf
from lqmle.models import make_model, simulate
from lqmle.montecarlo import Scenario, normality_sample, population_information, run_scenario

pytestmark = pytest.mark.acceptance

# Frozen study design shared by several criteria.
DAR_THETA = (1.0, 0.5, 0.3, 0.5)
AG_THETA = (0.3, 0.2, 0.2, 0.1, 0.3)
DAR_RESTRICTION = (((1.0, 1.0, 1.0, 1.0),), (2.3,))
AG_RESTRICTION = (((1.0, 1.0, 2.0, 3.0, 1.0),), (1.5,))
# Reference dispersion of the DAR coefficients at n=400 from a full-scale
# (1000-replication) run; desk-scale SDs must land within [0.7, 1.4] of these.
DAR_REFERENCE_SD = np.array([0.105, 0.069, 0.076, 0.053])
# Scales at which each non-logistic family satisfies the unit kernel
# expectation; criterion 1 re-derives these, the later criteria consume them.
NORMAL_SCALE = 1.7488010
UNIFORM_HALF_WIDTH = 2.8494132
T2_SCALE = 0.9585596
STABLE_INDEX = 1.69


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, detail


def test_c01_calibration_constants(capsys, tmp_path):
    """Five calibrated constants within +-0.01 through the CLI, under 30s."""
    t0 = time.perf_counter()
    targets = {
        ("normal", None): 1.75,
        ("uniform", None): 2.85,
        ("t", 3.0): 1.25,
        ("t", 2.0): 0.96,
        ("stable", None): 1.69,
    }
    got = {}
    for i, ((family, nu), _) in enumerate(targets.items()):
        out = tmp_path / f"cal{i}.json"
        argv = ["calibrate", "--family", family, "--out", str(out)]
        if nu is not None:
            argv += ["--nu", str(nu)]
        assert main(argv) == 0
        doc = json.loads(out.read_text())
        got[(family, nu)] = doc["index"] if family == "stable" else doc["scale"]
    elapsed = time.perf_counter() - t0
    errs = {k: abs(got[k] - v) for k, v in targets.items()}
    psi_gap = abs(kernel_expectation(logistic()) - 1.0)
    ok = all(e <= 0.01 for e in errs.values()) and psi_gap <= 1e-8 and elapsed < 30
    detail = (
        "calibrated constants "
        + " ".join(f"{k[0]}{'' if k[1] is None else int(k[1])}={got[k]:.4f}" for k in targets)
        + f"  max err {max(errs.values()):.4f} (tol 0.01), psi(logistic)-1 = {psi_gap:.1e}"
        + f" (tol 1e-8), {elapsed:.1f}s (limit 30s)"
    )
    _verdict(capsys, 1, ok, detail)


def test_c02_derivative_oracles(capsys):
    """Analytic score and Hessian vs central differences, 10 instances per model."""
    t0 = time.perf_counter()
    cases = [
        ("dar", dict(p=1, q=1), np.array([0.4, 0.3, 1.0, 0.3])),
        ("garch", dict(p=1, q=1), np.array([0.8, 0.15, 0.4])),
        ("arma_garch", dict(), np.array([0.2, 0.3, 0.25, 0.7, 0.1, 0.3])),
        ("expar", dict(p=1), np.array([0.3, 0.7, 1.5])),
    ]
    worst_score, worst_hess = 0.0, 0.0
    for name, kw, base in cases:
        model = make_model(name, **kw)
        rng = np.random.default_rng(20240002)
        y = simulate(model, base, 150, logistic(), seed=20240002)
        lo = np.array(model.default_bounds()[0])
        hi = np.array(model.default_bounds()[1])
        for _ in range(10):
            theta = np.clip(
                base * (1 + 0.2 * rng.uniform(-1, 1, base.size)), lo + 1e-3, hi - 1e-3
            )
            parts = evaluate(model, y, theta, order=2)
            for j in range(theta.size):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += 1e-6
                tm[j] -= 1e-6
                fd = (evaluate(model, y, tp).loglik - evaluate(model, y, tm).loglik) / 2e-6
                worst_score = max(
                    worst_score, abs(parts.score[j] - fd) / max(1.0, abs(fd))
                )
                tp[j] = theta[j] + 1e-5
                tm[j] = theta[j] - 1e-5
                fd_row = (
                    evaluate(model, y, tp, order=1).score
                    - evaluate(model, y, tm, order=1).score
                ) / 2e-5
                worst_hess = max(
                    worst_hess,
                    float(np.max(np.abs(parts.hess[:, j] - fd_row) / np.maximum(1.0, np.abs(fd_row)))),
                )
    elapsed = time.perf_counter() - t0
    ok = worst_score <= 1e-5 and worst_hess <= 1e-4 and elapsed < 60
    _verdict(
        capsys, 2, ok,
        f"score rel err {worst_score:.2e} (tol 1e-5), hessian rel err {worst_hess:.2e}"
        f" (tol 1e-4) over 40 instances, {elapsed:.1f}s (limit 60s)",
    )


def test_c03_concavity_and_monotone_ascent(capsys):
    """(log f)'' = -2 f < 0 on |x|<=30; no accepted step lowers the objective."""
    x = np.linspace(-30.0, 30.0, 601)
    h = 1e-4
    curv = (logistic_logpdf(x + h) - 2 * logistic_logpdf(x) + logistic_logpdf(x - h)) / h**2
    ident_gap = float(np.max(np.abs(curv + 2 * logistic_pdf(x))))
    strictly_negative = bool(np.all(-2 * logistic_pdf(x) < 0))

    configs = [
        ("dar", dict(p=1, q=1), np.array([1.0, 0.5, 0.3, 0.5])),
        ("garch", dict(p=1, q=1), np.array([1.0, 0.15, 0.4])),
        ("arma_garch", dict(include_intercept=False), np.array([0.3, 0.2, 0.2, 0.1, 0.3])),
        ("expar", dict(p=1), np.array([0.3, 0.7, 1.5])),
    ]
    fits = 0
    monotone = True
    worst_drop = 0.0
    for name, kw, theta in configs:
        model = make_model(name, **kw)
        for seed in range(50):
            y = simulate(model, theta, 200, logistic(), seed=seed, burn=50)
            res = fit(model, y, FitOptions(multistart=False))
            fits += 1
            steps = np.diff(np.asarray(res.trace))
            if steps.size:
                worst_drop = min(worst_drop, float(steps.min()))
                monotone = monotone and bool(np.all(steps >= -1e-9))
    ok = ident_gap < 1e-5 and strictly_negative and monotone and fits == 200
    _verdict(
        capsys, 3, ok,
        f"curvature identity gap {ident_gap:.1e} (tol 1e-5), strictly negative on grid,"
        f" {fits} fits monotone (worst step {worst_drop:.1e})",
    )


def test_c04_dar_bias_and_dispersion(capsys):
    """DAR study: |bias| <= 0.03 each, SD in [0.7, 1.4] x reference row."""
    t0 = time.perf_counter()
    # Windows must start from y_0 = 0 like the reference study: this DGP is
    # strictly stationary but its stationary law has tail index below one,
    # so stationary-start windows carry infinite-mean excursions that the
    # zero-start tables never sampled.
    sc = Scenario(
        model=make_model("dar", p=1, q=1),
        theta0=DAR_THETA,
        dist=logistic(),
        nobs=400, reps=200, seed=2024040, label="dar-bias",
    )
    s = run_scenario(sc)
    elapsed = time.perf_counter() - t0
    bias = np.abs(np.array(s.bias))
    ratio = np.array(s.sd) / DAR_REFERENCE_SD
    ok = (
        bool(np.all(bias <= 0.03))
        and bool(np.all((0.7 <= ratio) & (ratio <= 1.4)))
        and elapsed < 300
    )
    _verdict(
        capsys, 4, ok,
        f"max|bias| {bias.max():.4f} (tol 0.03), sd/reference in "
        f"[{ratio.min():.2f}, {ratio.max():.2f}] (band [0.7, 1.4]), "
        f"{s.reps_used}/{s.reps} reps, {elapsed:.0f}s (limit 300s)",
    )


def test_c05_robustness_ordering(capsys):
    """Heavy tails favor the logistic criterion, light tails the Gaussian one.

    For the ARMA-GARCH mean coefficients the empirical SD of the logistic
    criterion must undercut the Gaussian criterion under t2 and stable
    innovations and exceed it under normal and uniform innovations, with
    both estimators run on identical simulated paths.
    """
    t0 = time.perf_counter()
    model = make_model("arma_garch", include_intercept=False)
    cells = {
        "t2": (student_t(2.0, T2_SCALE), True),
        "stable": (stable(STABLE_INDEX, 1.0), True),
        "normal": (normal(NORMAL_SCALE), False),
        "uniform": (uniform(UNIFORM_HALF_WIDTH), False),
    }
    lines = []
    ok = True
    for label, (dist, heavy) in cells.items():
        sds = {}
        for estimator in ("lqmle", "gqmle"):
            sc = Scenario(
                model=model, theta0=AG_THETA, dist=dist, nobs=400, reps=200,
                seed=505, estimator=estimator, label=f"{label}-{estimator}",
            )
            # the Gaussian criterion pins nearly half its heavy-tail
            # replications at the box; the SD comparison uses usable reps
            sds[estimator] = np.array(run_scenario(sc, max_failure_fraction=0.6).sd)
        # ar1 and ma1 are the first two coordinates in this parameterization
        won = sds["lqmle"][:2] < sds["gqmle"][:2]
        cell_ok = bool(np.all(won)) if heavy else bool(np.all(~won))
        ok = ok and cell_ok
        lines.append(
            f"{label}: ar1 {sds['lqmle'][0]:.3f}{'<' if won[0] else '>'}{sds['gqmle'][0]:.3f}"
            f" ma1 {sds['lqmle'][1]:.3f}{'<' if won[1] else '>'}{sds['gqmle'][1]:.3f}"
            f" [{'ok' if cell_ok else 'WRONG'}]"
        )
    elapsed = time.perf_counter() - t0
    _verdict(capsys, 5, ok, "; ".join(lines) + f", {elapsed:.0f}s")


def test_c06_size_and_power(capsys):
    """Wald and LM sizes in [0.02, 0.09]; power monotone and >= 0.85 at 1.5x."""
    t0 = time.perf_counter()
    dar = make_model("dar", p=1, q=1)
    ag = make_model("arma_garch", include_intercept=False)
    size_cells = [
        ("dar-log", dar, DAR_THETA, logistic(), DAR_RESTRICTION, 601),
        ("dar-norm", dar, DAR_THETA, normal(NORMAL_SCALE), DAR_RESTRICTION, 602),
        ("ag-log", ag, AG_THETA, logistic(), AG_RESTRICTION, 603),
        ("ag-norm", ag, AG_THETA, normal(NORMAL_SCALE), AG_RESTRICTION, 604),
    ]
    lines = []
    ok = True
    for label, model, theta, dist, (R, r), seed in size_cells:
        sc = Scenario(
            model=model, theta0=theta, dist=dist, nobs=400, reps=500, seed=seed,
            constraint=(R, r), label=label,
        )
        s = run_scenario(sc, max_failure_fraction=0.5)
        cell_ok = 0.02 <= s.wald_reject_rate <= 0.09 and 0.02 <= s.lm_reject_rate <= 0.09
        ok = ok and cell_ok
        lines.append(f"{label} size w={s.wald_reject_rate:.3f} lm={s.lm_reject_rate:.3f}")

    for label, model, theta, restriction, seeds in (
        ("dar", dar, DAR_THETA, DAR_RESTRICTION, (605, 606, 607)),
        ("ag", ag, AG_THETA, AG_RESTRICTION, (608, 609, 611)),
    ):
        wald_p, lm_p = [], []
        for scale, seed in zip((1.1, 1.3, 1.5), seeds):
            sc = Scenario(
                model=model, theta0=theta, dist=logistic(), nobs=400, reps=500,
                seed=seed, constraint=restriction,
                alternative_scale=scale, label=f"{label}-pow{scale}",
            )
            s = run_scenario(sc, max_failure_fraction=0.5)
            wald_p.append(s.wald_reject_rate)
            lm_p.append(s.lm_reject_rate)
        cell_ok = all(
            rates[0] < rates[1] < rates[2] and rates[2] >= 0.85
            for rates in (wald_p, lm_p)
        )
        ok = ok and cell_ok
        lines.append(
            f"{label} power w=" + "/".join(f"{p:.3f}" for p in wald_p)
            + " lm=" + "/".join(f"{p:.3f}" for p in lm_p)
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900
    _verdict(capsys, 6, ok, "; ".join(lines) + f", {elapsed:.0f}s (limit 900s)")


def test_c07_asymptotic_normality(capsys):
    """Standardized sqrt(n) errors pass per-coefficient KS vs N(0,1) at 1%."""
    t0 = time.perf_counter()
    sc = Scenario(
        model=make_model("dar", p=1, q=1),
        theta0=DAR_THETA,
        dist=normal(NORMAL_SCALE),
        nobs=400, reps=500, seed=700, burn=100, label="normality",
    )
    rows, asd = normality_sample(sc)
    z = rows / asd
    pvals = [scipy.stats.kstest(z[:, j], "norm").pvalue for j in range(z.shape[1])]
    elapsed = time.perf_counter() - t0
    ok = all(p > 0.01 for p in pvals)
    _verdict(
        capsys, 7, ok,
        "KS p-values " + " ".join(f"{n}={p:.3f}" for n, p in zip(sc.model.param_names, pvals))
        + f" (all > 0.01), {rows.shape[0]} draws, {elapsed:.0f}s",
    )


def test_c08_information_consistency(capsys):
    """Path information at truth matches population MC; product form is exact."""
    t0 = time.perf_counter()
    model = make_model("garch", p=1, q=1)
    theta = np.array([1.0, 0.15, 0.4])
    y = simulate(model, theta, 20_000, logistic(), seed=808, burn=500)
    parts = evaluate(model, y, theta, order=2)
    n = len(y)
    a_path = -np.asarray(parts.hess) / n
    b_path = parts.score_rows.T @ parts.score_rows / n
    a_pop, b_pop = population_information(model, theta, logistic(), nobs=1_000_000, seed=88)
    gap_a = np.linalg.norm(a_path - a_pop, 2) / np.linalg.norm(a_pop, 2)
    gap_b = np.linalg.norm(b_path - b_pop, 2) / np.linalg.norm(b_pop, 2)

    a_hat, b_hat = scale_only_information(model, y, theta)
    ident = float(
        np.max(np.abs(sandwich_cov(a_hat, b_hat, n) - scale_only_cov(model, y, theta)))
    )
    elapsed = time.perf_counter() - t0
    ok = gap_a < 0.03 and gap_b < 0.03 and ident < 1e-8
    _verdict(
        capsys, 8, ok,
        f"spectral gap A {gap_a:.4f}, B {gap_b:.4f} (tol 0.03); "
        f"pure-scale covariance identity {ident:.1e} (tol 1e-8), {elapsed:.0f}s",
    )


def test_c09_worker_count_determinism(capsys, tmp_path):
    """mc reports are byte-identical at 1 and at 8 workers."""
    cfg = tmp_path / "mc.yaml"
    cfg.write_text(
        "seed: 909\n"
        "scenarios:\n"
        "  - label: det\n"
        "    model: {name: dar, order: [1, 1]}\n"
        "    theta0: [1.0, 0.5, 0.3, 0.5]\n"
        "    dist: {family: logistic}\n"
        "    nobs: 150\n"
        "    reps: 8\n"
        "    constraint:\n"
        "      R: [[1, 1, 1, 1]]\n"
        "      r: [2.3]\n"
    )
    digests = []
    for workers, name in ((1, "w1.json"), (8, "w8.json")):
        out = tmp_path / name
        assert main(["mc", str(cfg), "--workers", str(workers), "--out", str(out)]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    ok = digests[0] == digests[1]
    _verdict(
        capsys, 9, ok,
        f"sha256(workers=1) {'==' if ok else '!='} sha256(workers=8), {digests[0][:16]}",
    )


def test_c10_declared_substitutions(capsys):
    """AIC identity and diagnostics assembly stand in for unreproducible cells."""
    gap = abs(aic(226.778, 6) - (-441.556))
    model = make_model("dar", p=1, q=1)
    y = simulate(model, np.array(DAR_THETA), 400, logistic(), seed=10)
    rep = residual_diagnostics(model, fit(model, y))
    blocks = rep.as_dict()
    assembled = all(
        key in blocks for key in ("loglik", "aic", "hill", "hill_k", "lyapunov", "residual_summary")
    )
    ok = gap <= 0.01 and assembled and rep.hill is not None
    _verdict(
        capsys, 10, ok,
        f"aic(226.778, 6) err {gap:.1e} (tol 0.01); diagnostics report carries "
        f"loglik/aic/hill/lyapunov/residual blocks",
    )
