"""Logistic criterion primitives and the innovation scale normalization.

The estimator standardizes innovations so that E[eta * (2 F(eta) - 1)] = 1,
where F is the standard logistic distribution function.  This module
provides the logistic density pieces in overflow-safe form, the even
kernel x (2 F(x) - 1) whose unit expectation pins down the scale, the
expectation functional itself, and the brentq root finder that locates
the scale multiplier (or stable tail index) at which it equals one.
Every expectation is a deterministic quadrature: over the density for
the closed-form families, over the characteristic function for the
symmetric stable law, whose density has no closed form.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit

from .distributions import InnovationDist
from .errors import BracketFailure, NonIntegrableError, QuadratureFailure

__all__ = [
    "logistic_pdf",
    "logistic_cdf",
    "logistic_logpdf",
    "logistic_psi",
    "scale_kernel",
    "kernel_expectation",
    "stable_kernel_expectation",
    "calibrate_scale",
    "calibrate_stable_index",
]

_QUAD_TOL = 1e-10  # absolute accuracy asked of the kernel-expectation quadrature
_LOGISTIC = InnovationDist("logistic")  # its base_pdf is the one logistic density formula


def logistic_cdf(x):
    """Standard logistic distribution function 1 / (1 + exp(-x)) (``scipy.special.expit``)."""
    out = expit(np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def logistic_pdf(x):
    """Standard logistic density exp(-x) / (1 + exp(-x))^2; even in x."""
    out = _LOGISTIC.base_pdf(x)
    return out if out.ndim else float(out)


def logistic_logpdf(x):
    """log of the logistic density, -|x| - 2 log(1 + exp(-|x|)).

    Uses the symmetry of the density so the result stays finite for any
    finite x instead of overflowing past |x| ~ 745.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = -a - 2.0 * np.log1p(np.exp(-a))
    return out if out.ndim else float(out)


def logistic_psi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi = -(log f)' = tanh(x / 2) = 2 F(x) - 1 and psi' = (1 - psi^2) / 2 = 2 f(x)."""
    t = np.tanh(0.5 * x)
    return t, 0.5 * (1.0 - t * t)


def scale_kernel(x):
    """Even kernel x * (2 F(x) - 1) = x * tanh(x / 2).

    Nonnegative, increasing in |x|, and asymptotically |x|; the
    innovation law is normalized so this kernel has unit expectation.
    """
    x = np.asarray(x, dtype=float)
    out = x * np.tanh(0.5 * x)
    return out if out.ndim else float(out)


def _integral(f, a: float, b: float, what: str) -> float:
    """int_a^b f asked to _QUAD_TOL / 10; an error estimate above
    max(2 _QUAD_TOL, 1e-9 max(1, |value|)) is a QuadratureFailure naming ``what``."""
    eps = _QUAD_TOL / 10.0
    val, abserr = quad(f, a, b, epsabs=eps, epsrel=1e-11, limit=400)
    if abserr > max(20.0 * eps, 1e-9 * max(1.0, abs(val))):
        raise QuadratureFailure(f"{what} quadrature error {abserr:.2e} exceeds tolerance")
    return val


def _expectation_by_quadrature(dist: InnovationDist) -> float:
    # E[k(cX)] = c E|X| - 4c * int_0^U x F(-cx) p(x) dx, using
    # k(y) = |y| - 2|y| (1 - F(|y|)) and symmetry of p.  The correction
    # integrand decays like exp(-cx) so a finite upper limit suffices.
    c = dist.scale
    upper = min(dist.base_support_end(), 800.0 / c)
    val = _integral(lambda x: x * logistic_cdf(-c * x) * dist.base_pdf(x), 0.0, upper, "scale functional")
    return c * dist.base_mean_abs() - 4.0 * c * val


def _kernel_correction_transform(t: float) -> float:
    # Fourier transform of k(x) - |x| = -2|x| / (1 + e^|x|):
    # 2/t^2 - 2 pi^2 cosh(pi t) / sinh(pi t)^2, written in q = exp(-pi t)
    # so that nothing overflows.  Below t = 0.02 the two terms cancel to
    # about eps / t^2, and the Taylor series (error ~ 36 t^8) is used instead.
    if t < 0.02:
        u = (math.pi * t) ** 2
        return math.pi**2 * (-1.0 / 3.0 + u * (7.0 / 60.0 + u * (-31.0 / 1512.0 + u * 127.0 / 43200.0)))
    q = math.exp(-math.pi * t)
    return 2.0 / (t * t) - 4.0 * math.pi**2 * q * (1.0 + q * q) / (1.0 - q * q) ** 2


def stable_kernel_expectation(index: float, scale: float = 1.0) -> float:
    """E[k(scale * X)] for X standard symmetric stable with the given index.

    With the characteristic function exp(-|t|^index) and
    E|X| = (2 / pi) Gamma(1 - 1/index) (Zolotarev 1986), Parseval gives

        E k(cX) = c E|X| + (1/pi) int_0^inf g(t) exp(-(c t)^index) dt,

    where g is the Fourier transform of k(x) - |x|; one adaptive
    quadrature evaluates it.  At index 2 the law is N(0, 2).
    """
    if not 1.0 < index <= 2.0:
        raise NonIntegrableError(
            "stable index must lie in (1, 2] so that E|X| is finite"
        )
    val = _integral(
        lambda t: _kernel_correction_transform(t) * math.exp(-((scale * t) ** index)),
        0.0, math.inf, "stable kernel expectation",
    )
    return scale * (2.0 / math.pi) * math.gamma(1.0 - 1.0 / index) + val / math.pi


def kernel_expectation(dist: InnovationDist) -> float:
    """E[k(X)] for the scaled law, k the even kernel x (2 F(x) - 1).

    Closed-form-density families go through adaptive quadrature with a
    tail correction; the stable family through a quadrature over its
    characteristic function; an empirical law averages the kernel over
    its sample values.
    """
    if dist.family == "empirical":
        vals = scale_kernel(dist.scale * np.asarray(dist.data, dtype=float))
        return float(np.mean(vals))
    if dist.family == "stable":
        return stable_kernel_expectation(dist.shape, dist.scale)
    return _expectation_by_quadrature(dist)


def _find_root(objective, lo: float, hi: float, xtol: float, grow: bool = False) -> float:
    """brentq root of an increasing objective on [lo, hi], reusing both end values.

    With ``grow``, an end of the wrong sign moves out fourfold, at most 31 times.
    """
    f_lo, f_hi = objective(lo), objective(hi)
    for _ in range(31 if grow else 0):
        if f_lo > 0.0 and lo > 1e-8:
            lo /= 4.0
            f_lo = objective(lo)
        elif f_hi < 0.0 and hi < 1e8:
            hi *= 4.0
            f_hi = objective(hi)
    if not f_lo <= 0.0 <= f_hi:
        raise BracketFailure(
            f"could not bracket the unit expectation: f({lo})={f_lo:.3g}, f({hi})={f_hi:.3g}"
        )
    known = {lo: f_lo, hi: f_hi}
    return brentq(lambda x: known[x] if x in known else objective(x), lo, hi, xtol=xtol)


def calibrate_scale(
    family: str,
    shape: float | None = None,
    tol: float = 1e-6,
) -> float:
    """Scale multiplier c at which E[k(c X)] = 1 for the given base family.

    The expectation is strictly increasing in c (the kernel increases in
    |x|), so brentq over an expanding bracket converges; ``tol`` is
    the absolute tolerance on the returned multiplier.

    Reference points: logistic -> 1 exactly; normal -> about 1.75;
    uniform half-width -> about 2.85; t3 -> about 1.25; t2 -> about 0.96.
    """
    if family == "stable":
        raise ValueError("use calibrate_stable_index for the stable family")

    def objective(c: float) -> float:
        return kernel_expectation(InnovationDist(family, scale=c, shape=shape)) - 1.0

    return _find_root(objective, 0.25, 4.0, tol / 2.0, grow=True)


def calibrate_stable_index(tol: float = 1e-6) -> float:
    """Tail index in (1, 2] at which E[k(X)] = 1 for the unit-scale stable law.

    The expectation decreases in the index: heavier tails (smaller
    index) inflate E|X|, and at index 2 the law is N(0, 2) whose
    expectation sits below one.  brentq finds the root of 1 / E[k(X)] - 1
    on [1.05, 2]: E|X| = (2 / pi) Gamma(1 - 1/index) has a pole at index 1,
    so the reciprocal is nearly linear in the index and needs fewer
    quadratures than 1 - E[k(X)].  ``tol`` is the absolute tolerance on
    the returned index.  The root is about 1.6885.
    """

    def objective(index: float) -> float:
        return 1.0 / stable_kernel_expectation(index) - 1.0

    return _find_root(objective, 1.05, 2.0, tol / 2.0)
