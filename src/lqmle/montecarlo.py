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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .distributions import InnovationDist
from .errors import ExcessiveFailures, LqmleError
from .estimation import FitOptions, KernelMoments, _check_restriction, _kernel_sums, _project_into_box, fit, fit_constrained, sandwich_cov
from .inference import lm_test, wald_test
from .models.base import ModelSpec, _require_finite, _seeded_path, simulate
from .reports import fields_dict

__all__ = [
    "Scenario",
    "RepRecord",
    "McSummary",
    "run_scenario",
    "normality_sample",
    "population_information",
]

_CRITERION = {"lqmle": "logistic", "gqmle": "gaussian"}
# kept rows per filter call in population_information; sets its peak memory
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: model, truth, innovation law, size, seed.

    A replication with no burn-in is a path from the zero state, whose
    ``model.presample`` pre-sample values are known zeros: they are
    prepended to the path, so every simulated observation adds a term.
    A burned-in window has unknown pre-sample values and is fitted
    conditional on its first ``model.presample`` observations.

    When ``constraint`` is set to (R, r) each replication also runs the
    Wald and multiplier tests of R theta = r and records their
    p-values; its restricted fit starts from its unrestricted estimate.
    Power studies set ``alternative_scale`` away from 1: the data are
    generated at alternative_scale * theta0 while the tests keep the
    null encoded by (R, r).

    Construction refuses a negative seed, a level outside (0, 1), a
    theta0 or alternative_scale that is not finite or puts
    alternative_scale * theta0 outside the model's box, and a
    restriction that is not finite, does not match the model, lacks
    full row rank or meets no point of the box, so a bad cell fails
    before any replication runs.  A
    replication whose path diverges (theta0 explosive under the law)
    fails, by NonFiniteObjective.
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
        if self.reps < 1 or self.nobs < 1 or self.burn < 0:
            raise ValueError("reps and nobs must be positive and burn nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.nobs < 10 * len(self.theta0):
            raise ValueError(
                f"nobs={self.nobs} too small for {len(self.theta0)} parameters"
            )
        if not np.all(np.isfinite(self.theta0)):
            raise ValueError(f"theta0 must be finite, got {list(self.theta0)}")
        if not (np.isfinite(self.alternative_scale) and self.alternative_scale > 0.0):
            raise ValueError(
                f"alternative_scale must be finite and positive, got {self.alternative_scale}"
            )
        self.model.wrap(self.dgp_theta)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie strictly between 0 and 1, got {self.level}")
        if self.constraint is not None:
            R, r = _check_restriction(*self.constraint, self.model.dim)
            _project_into_box(R, r, *self.model.default_bounds())

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
    opts = FitOptions(criterion=scenario.criterion)
    rec = RepRecord(index=index, ok=False)
    try:
        # a divergent path raises NonFiniteObjective here: a counted failure
        seed = np.random.SeedSequence(scenario.seed, spawn_key=(index,))
        y = simulate(scenario.model, scenario.dgp_theta, scenario.nobs, scenario.dist, seed=seed, burn=scenario.burn)
        if scenario.burn == 0:
            y = np.r_[np.zeros(scenario.model.presample), y]
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
            cfit = fit_constrained(scenario.model, y, R, r, opts, theta_hat=res.theta)
            if cfit.converged:
                rec.lm_p = lm_test(cfit, R, r).p_value
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
    the replications fail to produce a usable fit; its message counts
    the failures by reason, in sorted order, and names an exception by
    its type.
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
    if failures > max_failure_fraction * scenario.reps or not good:
        # an exception's reason is its type; its message varies with the data
        reasons = Counter(rec.error.partition(":")[0] for rec in records if not rec.ok)
        counts = "; ".join(f"{reason} ({n})" for reason, n in sorted(reasons.items()))
        raise ExcessiveFailures(f"{failures}/{scenario.reps} replications failed: {counts}")
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
    asd[j] should produce draws close to standard normal.  The limit is
    that of the logistic criterion, so a gqmle scenario is refused.
    """
    if scenario.estimator != "lqmle":
        raise ValueError(
            f"normality_sample needs an lqmle scenario, got {scenario.estimator!r}: "
            "population_information gives the logistic (A, B) only"
        )
    truth = scenario.dgp_theta
    # the long path first: a bad info_nobs fails before any replication runs
    a0, b0 = population_information(
        scenario.model, truth, scenario.dist, nobs=info_nobs, burn=min(1_000, info_nobs // 10)
    )
    summary = run_scenario(scenario, workers=workers, keep_records=True)
    rows = [
        np.sqrt(scenario.nobs) * (np.asarray(rec.theta_hat) - truth)
        for rec in summary.records
        if rec.ok
    ]
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

    Simulates one long path at theta0 by ``simulate``'s routine
    (``models.base._seeded_path``), discards a burn-in so the filter
    forgets its zero start, and combines the structural expectations
    E[dsigma2 dsigma2' / (4 sigma^4)] and E[dmean dmean' / sigma^2]
    with the innovation moments of the logistic weights.  The same
    innovations that drive the path supply the moment estimates.

    The kept observations are filtered in blocks of ``_BLOCK`` rows, so
    memory is set by the block and not by nobs.  Each block is filtered
    from a zero start ``burn`` observations before its first row, which
    it then drops: the same forgetting the burn-in relies on.  With
    nobs <= _BLOCK there is one block, the whole path.  nobs < 1 or
    burn < 0 raises ShapeMismatch; a path or a filter that is not finite
    (theta0 explosive under this law) raises NonFiniteObjective.
    """
    th = np.asarray(theta0, dtype=float)
    eta, y = _seeded_path(model, th, nobs, dist, seed, burn)
    _require_finite(~np.isfinite(y), 0, "population path at theta0")
    ms = mg = sums = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(burn, nobs + burn, _BLOCK):
            stop = min(start + _BLOCK, nobs + burn)
            out = model.filter(y[start - burn : stop], th, order=1)
            # the derivative blocks can be the series' read-only design, so
            # the quotients are new arrays; a None block is identically zero
            w, dg = out.dsigma2, out.dmean
            if w is not None:
                w = w[burn:] / out.sigma2[burn:][:, None]
                ms = ms + w.T @ w
            if dg is not None:
                dg = dg[burn:] / out.sigma[burn:][:, None]
                mg = mg + dg.T @ dg
            if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(mg))):
                rows = np.column_stack([q * q for q in (w, dg) if q is not None])
                _require_finite(~np.isfinite(rows).all(axis=1), start, "population filter at theta0")
            sums = sums + _kernel_sums(eta[start:stop])
    ms = ms / (4.0 * nobs)
    mg = mg / nobs
    mom = KernelMoments(*(float(s) / nobs for s in sums))
    a0 = (1.0 + 2.0 * mom.mf) * ms + 2.0 * mom.ef * mg
    b0 = mom.m2 * ms + mom.t2 * mg
    return a0, b0
