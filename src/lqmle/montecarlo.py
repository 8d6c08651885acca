"""Seeded Monte Carlo harness for sampling-distribution studies.

Each replication derives its own counter-based generator from the
scenario seed and its replication index, so results do not depend on
worker count or scheduling: replication i draws the same data whether
it runs first, last, or in another process.  Summaries are assembled
from records sorted by index, which makes serialized output
byte-for-byte reproducible.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import InnovationDist
from .errors import ExcessiveFailures, LqmleError
from .estimation import FitOptions, fit, fit_constrained, kernel_moments, sandwich_cov
from .inference import lm_test, wald_test
from .models.base import ModelSpec, simulate
from .reports import fields_dict

__all__ = [
    "Scenario",
    "RepRecord",
    "McSummary",
    "run_scenario",
    "normality_sample",
    "population_information",
    "gqmle_fit",
]

_CRITERION = {"lqmle": "logistic", "gqmle": "gaussian"}


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: model, truth, innovation law, size, seed.

    When ``constraint`` is set to (R, r) each replication also runs the
    Wald and multiplier tests of R theta = r and records their
    p-values.  Power studies set ``alternative_scale`` away from 1: the
    data are generated at alternative_scale * theta0 while the tests
    keep the null encoded by (R, r).
    """

    model: ModelSpec
    theta0: tuple[float, ...]
    dist: InnovationDist
    nobs: int
    reps: int
    seed: int
    estimator: str = "lqmle"
    burn: int = 0
    constraint: tuple[tuple[tuple[float, ...], ...], tuple[float, ...]] | None = None
    alternative_scale: float = 1.0
    level: float = 0.05
    label: str = ""

    def __post_init__(self) -> None:
        if self.estimator not in _CRITERION:
            raise ValueError(f"estimator must be one of {sorted(_CRITERION)}")
        if len(self.theta0) != self.model.dim:
            raise ValueError(
                f"theta0 has {len(self.theta0)} values; "
                f"{self.model.name} has {self.model.dim} parameters"
            )
        if self.reps < 1 or self.nobs < 1:
            raise ValueError("reps and nobs must be positive")
        if self.nobs < 10 * len(self.theta0):
            raise ValueError(
                f"nobs={self.nobs} too small for {len(self.theta0)} parameters"
            )
        if not self.alternative_scale > 0.0:
            raise ValueError("alternative_scale must be positive")

    @property
    def dgp_theta(self) -> np.ndarray:
        return self.alternative_scale * np.asarray(self.theta0, dtype=float)

    @property
    def criterion(self) -> str:
        return _CRITERION[self.estimator]


@dataclass
class RepRecord:
    index: int
    ok: bool
    theta_hat: tuple[float, ...] | None = None
    converged: bool = False
    wald_p: float | None = None
    lm_p: float | None = None
    error: str = ""


def _replicate(args: tuple[Scenario, int]) -> RepRecord:
    scenario, index = args
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(scenario.seed, spawn_key=(index,)))
    )
    y = simulate(
        scenario.model,
        scenario.dgp_theta,
        scenario.nobs,
        scenario.dist,
        rng=rng,
        burn=scenario.burn,
    )
    opts = FitOptions(criterion=scenario.criterion)
    rec = RepRecord(index=index, ok=False)
    try:
        res = fit(scenario.model, y, opts)
        rec.theta_hat = tuple(float(v) for v in res.theta.values)
        rec.converged = res.converged
        # an estimate pinned at the search box face is unusable for
        # sampling-distribution summaries, so it counts as a failure
        ok = res.converged and not any(res.boundary)
        if res.converged and any(res.boundary):
            rec.error = "estimate on parameter boundary"
        if scenario.constraint is not None and ok:
            R = np.asarray(scenario.constraint[0], dtype=float)
            r = np.asarray(scenario.constraint[1], dtype=float)
            rec.wald_p = wald_test(res, R, r).p_value
            cfit = fit_constrained(scenario.model, y, R, r, opts)
            if cfit.converged:
                rec.lm_p = lm_test(cfit, R).p_value
            else:
                ok = False
                rec.error = "constrained fit did not converge"
        rec.ok = ok
        if not res.converged:
            rec.error = rec.error or "fit did not converge"
    except (LqmleError, np.linalg.LinAlgError) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


@dataclass
class McSummary:
    """Aggregated replication results for one scenario."""

    label: str
    model: str
    estimator: str
    dist: str
    nobs: int
    reps: int
    reps_used: int
    failures: int
    seed: int
    param_names: tuple[str, ...]
    theta0: tuple[float, ...]
    alternative_scale: float
    dgp_theta: tuple[float, ...]
    mean_estimate: tuple[float, ...]
    bias: tuple[float, ...]
    sd: tuple[float, ...]
    level: float
    wald_reject_rate: float | None = None
    lm_reject_rate: float | None = None
    runtime_seconds: float = 0.0
    records: list[RepRecord] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        """Deterministic serializable view; excludes per-rep records and timing."""
        return fields_dict(self, skip=("runtime_seconds", "records"))


def _dist_tag(dist: InnovationDist) -> str:
    bits = []
    if dist.shape is not None:
        bits.append(f"shape={dist.shape:g}")
    if dist.scale != 1.0:
        bits.append(f"scale={dist.scale:g}")
    return f"{dist.family}({', '.join(bits)})" if bits else dist.family


def run_scenario(
    scenario: Scenario,
    workers: int = 1,
    keep_records: bool = False,
    max_failure_fraction: float = 0.2,
) -> McSummary:
    """Run all replications and aggregate; order- and worker-independent.

    Raises ExcessiveFailures when more than ``max_failure_fraction`` of
    the replications fail to produce a usable fit.
    """
    start = time.perf_counter()
    tasks = [(scenario, i) for i in range(scenario.reps)]
    if workers > 1:
        chunk = max(1, scenario.reps // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_replicate, tasks, chunksize=chunk))
    else:
        records = [_replicate(t) for t in tasks]
    records.sort(key=lambda rec: rec.index)

    good = [rec for rec in records if rec.ok]
    failures = scenario.reps - len(good)
    if failures > max_failure_fraction * scenario.reps:
        examples = "; ".join(rec.error for rec in records if not rec.ok)
        raise ExcessiveFailures(
            f"{failures}/{scenario.reps} replications failed: {examples[:500]}"
        )
    estimates = np.asarray([rec.theta_hat for rec in good], dtype=float)
    truth = scenario.dgp_theta
    mean_est = estimates.mean(axis=0)
    sd = estimates.std(axis=0, ddof=1) if len(good) > 1 else np.zeros_like(mean_est)

    wald_rate = lm_rate = None
    if scenario.constraint is not None:
        wald_ps = np.asarray([rec.wald_p for rec in good], dtype=float)
        lm_ps = np.asarray([rec.lm_p for rec in good], dtype=float)
        wald_rate = float(np.mean(wald_ps < scenario.level))
        lm_rate = float(np.mean(lm_ps < scenario.level))

    return McSummary(
        label=scenario.label,
        model=scenario.model.name,
        estimator=scenario.estimator,
        dist=_dist_tag(scenario.dist),
        nobs=scenario.nobs,
        reps=scenario.reps,
        reps_used=len(good),
        failures=failures,
        seed=scenario.seed,
        param_names=scenario.model.param_names,
        theta0=tuple(float(v) for v in scenario.theta0),
        alternative_scale=float(scenario.alternative_scale),
        dgp_theta=tuple(float(v) for v in truth),
        mean_estimate=tuple(float(v) for v in mean_est),
        bias=tuple(float(v) for v in (mean_est - truth)),
        sd=tuple(float(v) for v in sd),
        level=scenario.level,
        wald_reject_rate=wald_rate,
        lm_reject_rate=lm_rate,
        runtime_seconds=time.perf_counter() - start,
        records=records if keep_records else [],
    )


def normality_sample(
    scenario: Scenario, workers: int = 1, info_nobs: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled estimation errors plus their limiting standard deviations.

    Returns a (reps_used, dim) matrix of sqrt(n) (theta_hat - theta0)
    rows from usable replications together with the square roots of the
    diagonal of the limiting sandwich covariance, estimated from one
    long path of ``info_nobs`` observations.  Dividing column j by
    asd[j] should produce draws close to standard normal.
    """
    summary = run_scenario(scenario, workers=workers, keep_records=True)
    truth = scenario.dgp_theta
    rows = [
        np.sqrt(scenario.nobs) * (np.asarray(rec.theta_hat) - truth)
        for rec in summary.records
        if rec.ok
    ]
    a0, b0 = population_information(
        scenario.model, truth, scenario.dist, nobs=info_nobs, burn=min(1_000, info_nobs // 10)
    )
    limit_cov = sandwich_cov(a0, b0, 1)
    return np.asarray(rows), np.sqrt(np.diag(limit_cov))


def population_information(
    model: ModelSpec,
    theta0,
    dist: InnovationDist,
    nobs: int = 1_000_000,
    seed: int = 0,
    burn: int = 1_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimates of the limiting information pair (A, B).

    Simulates one long path at theta0, discards a burn-in so the filter
    forgets its zero start, and combines the structural expectations
    E[dsigma2 dsigma2' / (4 sigma^4)] and E[dmean dmean' / sigma^2]
    with the innovation moments of the logistic weights.  The same
    innovations that drive the path supply the moment estimates.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    eta = dist.sample(rng, nobs + burn)
    y = model.path(np.asarray(theta0, dtype=float), eta)
    out = model.filter(y, theta0, order=1)
    sl = slice(burn, None)
    w = out.dsigma2[sl] / out.sigma2[sl][:, None]
    ms = w.T @ w / (4.0 * nobs)
    dg = out.dmean[sl] / out.sigma[sl][:, None]
    mg = dg.T @ dg / nobs
    mom = kernel_moments(eta[sl])
    a0 = (1.0 + 2.0 * mom.mf) * ms + 2.0 * mom.ef * mg
    b0 = mom.m2 * ms + mom.t2 * mg
    return a0, b0


def gqmle_fit(model: ModelSpec, y, options: FitOptions | None = None):
    """Gaussian-criterion fit with the same optimizer and diagnostics."""
    return fit(model, y, replace(options or FitOptions(), criterion="gaussian"))
