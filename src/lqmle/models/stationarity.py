"""Lyapunov exponents for the first-order model recursions.

A negative top Lyapunov exponent of the random-coefficient recursion is
the strict-stationarity condition; it is estimated by Monte Carlo over
the innovation law except in degenerate cases with a closed form.
"""

from __future__ import annotations

import numpy as np

from ..distributions import InnovationDist, empirical
from .arma_garch import ArmaGarch
from .base import ModelSpec
from .dar import Dar
from .garch import Garch

__all__ = ["lyapunov_exponent"]

# Monte Carlo draws and seed of the expectation when it has no closed form
_DRAWS = 100_000
_SEED = 0


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError("degenerate recursion: Lyapunov integrand is not finite")
    return values


def _mc_mean(values: np.ndarray) -> tuple[float, float]:
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(np.mean(values)), se


def lyapunov_exponent(
    model: ModelSpec,
    theta,
    dist: InnovationDist,
) -> tuple[float, float]:
    """Estimate the recursion's top Lyapunov exponent and its MC standard error.

    Supported models: DAR(1,1) with E log |ar1 + eta sqrt(alpha1)|, and
    GARCH(1,1) or ARMA(1,1)-GARCH(1,1) with E log (beta1 + alpha1 eta^2)
    for the volatility recursion, as the mean over ``_DRAWS`` draws from
    ``dist`` (seed ``_SEED``).  Under an empirical law the integrand is
    taken at the law's values, which are then resampled: the same
    draws, by the same indices, at the cost of the sample.  When the
    random coefficient vanishes (alpha1 = 0) the exact degenerate
    value, log |ar1| or log |beta1|, is returned with zero standard
    error.
    """
    if not isinstance(model, (Dar, Garch, ArmaGarch)):
        raise ValueError(f"no Lyapunov recursion defined for model {model.name!r}")
    if (getattr(model, "p", 1), getattr(model, "q", 1)) != (1, 1):
        raise ValueError("Lyapunov exponent implemented only for first-order recursions")
    named = dict(zip(model.param_names, model._check_theta(theta)))
    alpha1 = named["alpha1"]
    fixed = named["ar1"] if isinstance(model, Dar) else named["beta1"]
    if alpha1 == 0.0:
        if fixed == 0.0:
            raise ValueError("degenerate recursion: both coefficients are zero")
        return float(np.log(abs(fixed))), 0.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(_SEED)))
    # a draw that zeroes the coefficient logs to -inf, and a negative alpha1
    # or coefficient gives NaN; _finite refuses both
    with np.errstate(divide="ignore", invalid="ignore"):
        if dist.family == "empirical":
            # a resample picks values by index alone: take the integrand
            # once per sample value and resample those
            values = _integrand(model, fixed, alpha1, dist.scale * np.asarray(dist.data))
            draws = empirical(_finite(values)).sample(rng, _DRAWS)
        else:
            draws = _finite(_integrand(model, fixed, alpha1, dist.sample(rng, _DRAWS)))
    return _mc_mean(draws)


def _integrand(model: ModelSpec, fixed: float, alpha1: float, eta: np.ndarray) -> np.ndarray:
    """log |ar1 + sqrt(alpha1) eta| for DAR, log (beta1 + alpha1 eta^2) otherwise."""
    if isinstance(model, Dar):
        return np.log(np.abs(fixed + np.sqrt(alpha1) * eta))
    return np.log(fixed + alpha1 * eta * eta)
