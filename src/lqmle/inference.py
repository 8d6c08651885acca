"""Hypothesis tests built on the sandwich information pair.

Wald and score (Lagrange multiplier) statistics for linear restrictions
R theta = r are asymptotically chi-squared with q = rank(R) degrees of
freedom under the null regardless of the innovation law, because both
are studentized by the A^{-1} B A^{-1} sandwich.  The likelihood-ratio
difference is exposed only as a descriptive quantity: its null law is
not pivotal here, so it gets no p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

from .errors import SingularInformation
from .estimation import FitResult, _check_restriction, _positive_definite, sandwich_cov
from .reports import fields_dict

__all__ = [
    "TestResult",
    "chisq_sf",
    "normal_sf",
    "wald_test",
    "lm_test",
    "t_test",
    "deviance",
]


@dataclass(frozen=True)
class TestResult:
    method: str
    statistic: float
    df: int | None
    p_value: float

    def as_dict(self) -> dict:
        return fields_dict(self)


# -- tail probabilities -------------------------------------------------


def chisq_sf(x: float, df: float) -> float:
    """P(X > x) for X chi-squared with df degrees of freedom; NaN for a NaN x."""
    if df <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(x):
        return 0.0 if x > 0 else 1.0
    if x <= 0.0:
        return 1.0
    return float(chdtrc(df, x))


def normal_sf(z: float) -> float:
    """Standard normal upper tail probability."""
    return float(ndtr(-z))


# -- restriction handling ------------------------------------------------


def _solve_quadform(mat: np.ndarray, vec: np.ndarray, what: str) -> float:
    return float(vec @ np.linalg.solve(_positive_definite(mat, what), vec))


def wald_test(fit: FitResult, R, r) -> TestResult:
    """Wald statistic n (R theta - r)' [R A^-1 B A^-1 R']^-1 (R theta - r)."""
    R, r = _check_restriction(R, r, fit.theta.dim)
    cov = fit.cov
    if cov is None:
        cov = sandwich_cov(fit.info_hessian, fit.info_opg, fit.nobs)
    diff = R @ fit.theta.array - r
    stat = _solve_quadform(R @ cov @ R.T, diff, "restricted covariance")
    q = R.shape[0]
    return TestResult("wald", stat, q, chisq_sf(stat, q))


def lm_test(cfit: FitResult, R, r) -> TestResult:
    """Score test from the constrained fit's multiplier estimate.

    With Lambda = (R A^-1 R')^-1 R A^-1 B A^-1 R' (R A^-1 R')^-1 the
    statistic is n lambda' Lambda^-1 lambda, which equals
    n (G lambda)' M^-1 (G lambda) for G = R A^-1 R' and
    M = R A^-1 B A^-1 R'.  ``r`` is only checked against R; the
    statistic itself depends on the constrained fit and R alone.
    """
    R, r = _check_restriction(R, r, cfit.theta.dim)
    a = _positive_definite(cfit.info_hessian, "information matrix")
    ainv_rt = np.linalg.solve(a, R.T)
    gram = R @ ainv_rt
    mid = ainv_rt.T @ cfit.info_opg @ ainv_rt
    u = gram @ cfit.multiplier
    stat = cfit.nobs * _solve_quadform(mid, u, "restricted information")
    q = R.shape[0]
    return TestResult("lm", stat, q, chisq_sf(stat, q))


def t_test(fit: FitResult, coef: int | str, null_value: float = 0.0) -> TestResult:
    """Two-sided studentized test for one coefficient against ``null_value``."""
    if isinstance(coef, str):
        try:
            j = fit.theta.names.index(coef)
        except ValueError:
            raise ValueError(f"unknown coefficient {coef!r}; have {fit.theta.names}") from None
    else:
        j = int(coef)
        if not 0 <= j < fit.theta.dim:
            raise ValueError(f"coefficient index {j} out of range")
    if fit.se is None:
        raise SingularInformation("fit carries no standard errors")
    se = fit.se[j]
    if not se > 0.0:
        raise SingularInformation(f"zero standard error for coefficient {j}")
    stat = (fit.theta.values[j] - null_value) / se
    return TestResult("t", float(stat), None, 2.0 * normal_sf(abs(stat)))


def deviance(fit: FitResult, cfit: FitResult) -> float:
    """Descriptive likelihood-ratio difference 2 (L_unconstrained - L_constrained).

    Reported without a p-value: under heavy-tailed innovations the
    sandwich pieces differ, so this difference is not chi-squared.
    """
    return 2.0 * (fit.loglik - cfit.loglik)
