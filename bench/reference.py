"""The benchmark's own reference computations, written apart from lqmle.

Nothing here imports lqmle.  The recursions are plain loops over the
zero-start definitions of the four models (pre-sample observations,
residuals and variances are zero), so they share no code with the
package's vectorized filters.  They serve three purposes: they generate
the benchmark's input series, they re-derive the logistic criterion at a
reported estimate, and they check ``ModelSpec.path`` on the same
innovations.  The quadrature re-derives E[k(cX)] for the calibrated
scales from scipy.stats densities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

MODELS = ("dar", "garch", "arma_garch", "expar")

# True parameters: DAR(1,1) (const, ar1, alpha0, alpha1), GARCH(1,1)
# (alpha0, alpha1, beta1), ARMA(1,1)-GARCH(1,1) without intercept
# (ar1, ma1, alpha0, alpha1, beta1) and EXPAR(1) (ar1, nl1, decay).
THETA0 = {
    "dar": (1.0, 0.5, 0.3, 0.5),
    "garch": (1.0, 0.15, 0.4),
    "arma_garch": (0.3, 0.2, 0.2, 0.1, 0.3),
    "expar": (0.3, 0.7, 1.5),
}

# Box bounds of the four models, restated from their definitions.
BOUNDS = {
    "dar": ((-10.0, -5.0, 1e-6, 0.0), (10.0, 5.0, 100.0, 50.0)),
    "garch": ((1e-6, 0.0, 0.0), (100.0, 0.9999, 0.9999)),
    "arma_garch": ((-0.999, -0.999, 1e-6, 0.0, 0.0), (0.999, 0.999, 100.0, 0.9999, 0.9999)),
    "expar": ((-5.0, -5.0, 1e-6), (5.0, 5.0, 100.0)),
}

# Scales at which each family has E[x tanh(x/2)] = 1 (the logistic law
# needs none); uniform is the half-width.
NORMAL_SCALE = 1.7488010
T2_SCALE = 0.9585596


def moments(model: str, y, theta) -> tuple[list[float], list[float]]:
    """Conditional means g_t and variances s2_t of a series, zero start."""
    y = [float(v) for v in y]
    theta = [float(v) for v in theta]
    n = len(y)
    g = [0.0] * n
    s2 = [0.0] * n
    if model == "dar":
        c, a, w, b = theta
        for t in range(n):
            prev = y[t - 1] if t else 0.0
            g[t] = c + a * prev
            s2[t] = w + b * prev * prev
    elif model == "garch":
        w, a, b = theta
        for t in range(n):
            prev, sprev = (y[t - 1], s2[t - 1]) if t else (0.0, 0.0)
            s2[t] = w + a * prev * prev + b * sprev
    elif model == "arma_garch":
        ar, ma, w, a, b = theta
        e_prev = s_prev = y_prev = 0.0
        for t in range(n):
            s2[t] = w + a * e_prev * e_prev + b * s_prev
            g[t] = ar * y_prev + ma * e_prev
            e_prev, s_prev, y_prev = y[t] - g[t], s2[t], y[t]
    elif model == "expar":
        ar, nl, decay = theta
        for t in range(n):
            prev = y[t - 1] if t else 0.0
            g[t] = (ar + nl * math.exp(-decay * prev * prev)) * prev
            s2[t] = 1.0
    else:
        raise ValueError(f"unknown model {model!r}")
    return g, s2


def path(model: str, theta, eta) -> np.ndarray:
    """Series driven by standardized innovations eta, zero start."""
    eta = [float(v) for v in eta]
    theta = [float(v) for v in theta]
    n = len(eta)
    y = [0.0] * n
    if model == "dar":
        c, a, w, b = theta
        prev = 0.0
        for t in range(n):
            y[t] = prev = c + a * prev + math.sqrt(w + b * prev * prev) * eta[t]
    elif model == "garch":
        w, a, b = theta
        prev = sprev = 0.0
        for t in range(n):
            sprev = w + a * prev * prev + b * sprev
            y[t] = prev = math.sqrt(sprev) * eta[t]
    elif model == "arma_garch":
        ar, ma, w, a, b = theta
        e_prev = s_prev = y_prev = 0.0
        for t in range(n):
            s_prev = w + a * e_prev * e_prev + b * s_prev
            e = math.sqrt(s_prev) * eta[t]
            y[t] = y_prev = ar * y_prev + e + ma * e_prev
            e_prev = e
    elif model == "expar":
        ar, nl, decay = theta
        prev = 0.0
        for t in range(n):
            y[t] = prev = (ar + nl * math.exp(-decay * prev * prev)) * prev + eta[t]
    else:
        raise ValueError(f"unknown model {model!r}")
    return np.asarray(y)


def logistic_logpdf(x: float) -> float:
    """log of e^-x / (1 + e^-x)^2, written through |x| so it cannot overflow."""
    a = abs(x)
    return -a - 2.0 * math.log1p(math.exp(-a))


def criterion(model: str, y, theta, nobs: int | None = None) -> float:
    """Logistic criterion sum_t [-log(s_t) + log f((y_t - g_t) / s_t)].

    Only the last ``nobs`` terms enter the sum (all of them by default),
    so a criterion that conditions on the first observations is matched
    by passing the count the fit reports.
    """
    g, s2 = moments(model, y, theta)
    n = len(g)
    first = n - (n if nobs is None else int(nobs))
    total = 0.0
    for t in range(first, n):
        s = math.sqrt(s2[t])
        total += -math.log(s) + logistic_logpdf((float(y[t]) - g[t]) / s)
    return total


def innovations(family: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-normalized innovations: logistic, or t2 at its calibrated scale."""
    if family == "logistic":
        return rng.logistic(0.0, 1.0, size)
    if family == "t2":
        return T2_SCALE * rng.standard_t(2.0, size)
    raise ValueError(f"unknown innovation family {family!r}")


# -- scale functional ---------------------------------------------------

DENSITIES = {
    "normal": stats.norm(),
    "uniform": stats.uniform(loc=-1.0, scale=2.0),
    "t3": stats.t(3.0),
    "t2": stats.t(2.0),
}


def kernel_mean(family: str, scale: float) -> float:
    """E[cX tanh(cX / 2)] for X of the named base law, by quad over its support."""
    dens = DENSITIES[family]
    lo, hi = dens.support()

    def integrand(x: float) -> float:
        cx = scale * x
        return cx * math.tanh(0.5 * cx) * dens.pdf(x)

    value, _ = integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=500)
    return value
