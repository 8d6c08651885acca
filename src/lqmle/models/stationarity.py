"""Lyapunov exponents for the first-order model recursions.

A negative top Lyapunov exponent of the random-coefficient recursion is
the strict-stationarity condition; it is estimated by Monte Carlo over
the innovation law except in degenerate cases with a closed form.  Under
an empirical law of n values the resample picks positions by index
alone, so the draws are kept once per n as counts per position, and the
Monte Carlo mean and standard error are count-weighted sums over the n
integrand values.
"""

from __future__ import annotations

from functools import lru_cache

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


def _rng() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_SEED)))


def _mc_mean(values: np.ndarray) -> tuple[float, float]:
    se = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
    return float(np.mean(values)), se


@lru_cache(maxsize=4)
def _draw_counts(n: int) -> np.ndarray:
    """How many of the ``_DRAWS`` resampled draws land on each of n positions (read-only)."""
    picks = empirical(np.arange(n)).sample(_rng(), _DRAWS).astype(np.intp)
    counts = np.bincount(picks, minlength=n).astype(float)
    counts.flags.writeable = False
    return counts


def _weighted_mean(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """``_mc_mean`` of the draws that take ``values[i]`` ``counts[i]`` times."""
    mean = counts @ values / _DRAWS
    dev = values - mean
    return float(mean), float(np.sqrt(counts @ (dev * dev) / (_DRAWS - 1)) / np.sqrt(_DRAWS))


def lyapunov_exponent(
    model: ModelSpec,
    theta,
    dist: InnovationDist,
) -> tuple[float, float]:
    """Estimate the recursion's top Lyapunov exponent and its MC standard error.

    Supported models: DAR(1,1) with E log |ar1 + eta sqrt(alpha1)|, and
    GARCH(1,1) or ARMA(1,1)-GARCH(1,1) with E log (beta1 + alpha1 eta^2)
    for the volatility recursion, as the mean over ``_DRAWS`` draws from
    ``dist`` (seed ``_SEED``).  Under an empirical law of n values the
    integrand is taken once per value and weighted by how often the
    resample draws it (``_draw_counts``, built once per n): the same
    draws, with a mean and standard error that differ from the explicit
    resample's only by rounding.  When the random coefficient vanishes
    (alpha1 = 0) the exact degenerate value, log |ar1| or log |beta1|,
    is returned with zero standard error.
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
    # a draw that zeroes the coefficient logs to -inf, and a negative alpha1
    # or coefficient gives NaN; _finite refuses both
    with np.errstate(divide="ignore", invalid="ignore"):
        if dist.family == "empirical":
            values = _integrand(model, fixed, alpha1, dist.scale * np.asarray(dist.data))
            return _weighted_mean(_finite(values), _draw_counts(values.size))
        draws = _finite(_integrand(model, fixed, alpha1, dist.sample(_rng(), _DRAWS)))
    return _mc_mean(draws)


def _integrand(model: ModelSpec, fixed: float, alpha1: float, eta: np.ndarray) -> np.ndarray:
    """log |ar1 + sqrt(alpha1) eta| for DAR, log (beta1 + alpha1 eta^2) otherwise."""
    if isinstance(model, Dar):
        return np.log(np.abs(fixed + np.sqrt(alpha1) * eta))
    return np.log(fixed + alpha1 * eta * eta)
