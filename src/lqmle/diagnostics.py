"""Model diagnostics: tail index, information criterion, residual summaries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import empirical
from .errors import DegenerateTail
from .kernel import scale_kernel
from .models import lyapunov_exponent
from .reports import fields_dict

__all__ = [
    "hill_estimator",
    "hill_sweep",
    "default_tail_fraction",
    "aic",
    "ResidualSummary",
    "summarize_residuals",
    "DiagnosticsReport",
    "residual_diagnostics",
]


_HILL_GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)  # hill_sweep's multiples of the default k
_HIST_BINS = 30  # bins of the residual histogram


def default_tail_fraction(n: int) -> int:
    """Default number of upper order statistics: floor(n^0.6)."""
    return max(2, int(np.floor(n**0.6)))


def hill_estimator(data, k: int | None = None) -> float:
    """Hill tail-index estimate from the k largest values of |data|.

    With |x|_(1) <= ... <= |x|_(n) the estimate is

        [ (1/k) sum_{i=1..k} log(|x|_(n-i+1) / |x|_(n-k)) ]^{-1},

    consistent for the tail exponent when the data have a regularly
    varying tail.  Requires 2 <= k < n and a positive reference order
    statistic |x|_(n-k).
    """
    x = np.abs(np.asarray(data, dtype=float).ravel())
    n = x.size
    if n < 3:
        raise ValueError("need at least three observations")
    if k is None:
        k = default_tail_fraction(n)
    k = int(k)
    if not 2 <= k < n:
        raise ValueError(f"k must satisfy 2 <= k < n, got k={k}, n={n}")
    xs = np.sort(x)
    ref = xs[n - k - 1]
    if ref <= 0.0:
        raise DegenerateTail("reference order statistic is zero; tail index undefined")
    mean_log = float(np.mean(np.log(xs[n - k :] / ref)))
    if mean_log <= 0.0:
        raise DegenerateTail("upper order statistics are constant; tail index undefined")
    return 1.0 / mean_log


def hill_sweep(data) -> list[dict]:
    """Hill estimates over a grid of k values, skipping degenerate ones."""
    x = np.asarray(data, dtype=float).ravel()
    n = x.size
    base = default_tail_fraction(n)
    grid = sorted({max(2, int(round(base * f))) for f in _HILL_GRID})
    ks = [k for k in grid if k < n]
    out = []
    for k in ks:
        try:
            out.append({"k": int(k), "index": hill_estimator(x, k)})
        except DegenerateTail:
            out.append({"k": int(k), "index": None})
    return out


def aic(loglik: float, nparams: int) -> float:
    """Akaike information criterion -2 loglik + 2 nparams."""
    return -2.0 * float(loglik) + 2.0 * int(nparams)


@dataclass(frozen=True)
class ResidualSummary:
    """Summary statistics of standardized residuals.

    ``kernel_mean`` should sit near one when the innovation scale is
    correctly normalized; its standard error gives the natural yardstick.
    """

    nobs: int
    kernel_mean: float
    kernel_mean_se: float
    quartiles: tuple[float, float, float, float, float]
    hist_counts: tuple[int, ...]
    hist_edges: tuple[float, ...]

    def as_dict(self) -> dict:
        return fields_dict(self)


def _sd(x: np.ndarray) -> np.floating:
    """Sample standard deviation; values whose squares overflow (one residual
    near 1e154 or more) are divided by their largest magnitude first."""
    with np.errstate(over="ignore"):
        sd = np.std(x, ddof=1)
    if np.isinf(sd):
        top = np.abs(x).max()
        sd = top * np.std(x / top, ddof=1)
    return sd


def summarize_residuals(residuals) -> ResidualSummary:
    x = np.asarray(residuals, dtype=float).ravel()
    n = x.size
    if n == 0:
        raise ValueError("no residuals supplied")
    kern = scale_kernel(x)
    se = float(_sd(kern) / np.sqrt(n)) if n > 1 else 0.0
    quarts = tuple(float(q) for q in np.quantile(x, [0.0, 0.25, 0.5, 0.75, 1.0]))
    counts, edges = np.histogram(x, bins=_HIST_BINS)
    return ResidualSummary(
        nobs=n,
        kernel_mean=float(np.mean(kern)),
        kernel_mean_se=se,
        quartiles=quarts,
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Post-fit diagnostics bundle.

    ``hill`` and ``lyapunov`` are None when undefined for the model or
    residual configuration (degenerate tails, no first-order recursion).
    """

    loglik: float
    aic: float
    hill: float | None
    hill_k: int
    lyapunov: float | None
    lyapunov_se: float | None
    residual_summary: ResidualSummary

    def as_dict(self) -> dict:
        return fields_dict(self)


def residual_diagnostics(model, fit, hill_k: int | None = None) -> DiagnosticsReport:
    """Assemble the diagnostics for a converged fit.

    The Hill estimator runs on the standardized residuals; a tail too
    degenerate to estimate yields None rather than an error.  The
    Lyapunov exponent of the fitted recursion is estimated under the
    empirical residual law, as the mean of the integrand at the residuals
    weighted by how often a fixed-seed resample draws each one; the
    resample is drawn once per residual count.  Models without a
    first-order recursion, and a non-finite integrand at any residual,
    get None.
    """
    resid = np.asarray(fit.residuals, dtype=float).ravel()
    summary = summarize_residuals(resid)
    k = int(hill_k) if hill_k is not None else default_tail_fraction(resid.size)
    try:
        hill = hill_estimator(resid, k)
    except DegenerateTail:
        hill = None
    try:
        lyap, lyap_se = lyapunov_exponent(model, fit.theta, empirical(resid))
    except ValueError:
        lyap, lyap_se = None, None
    return DiagnosticsReport(
        loglik=float(fit.loglik),
        aic=aic(fit.loglik, model.dim),
        hill=hill,
        hill_k=k,
        lyapunov=lyap,
        lyapunov_se=lyap_se,
        residual_summary=summary,
    )
