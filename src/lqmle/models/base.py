"""Shared machinery for conditional location-scale models.

Every model maps an observed series y and a parameter point theta to a
conditional mean g_t and conditional scale sigma_t computed from the
finite past with zero initial conditions (pre-sample observations,
residuals and variances are all taken to be zero).  The filter returns
a row for every observation; the criterion conditions on the first
``presample`` of them, which enter the recursion as lags but add no
term of their own (DAR conditions on its first max(p, q) observations,
the other models on none).  A caller who knows the pre-sample values,
such as the zeros before a ``simulate`` path with no burn-in, prepends
them to the series.  Filters optionally
return the first derivatives of g_t and sigma_t^2 with respect to theta
as column-major (n, d) blocks, so that every weighted sum over t runs
down contiguous columns, and None for a block that is identically zero
(GARCH's mean, EXPAR's scale).  At order 2 they return their second
derivatives already contracted with per-observation weights: the
Hessian of a criterion summed over t needs only
sum_t (w_g,t d2 g_t + w_s,t d2 sigma2_t), a (d, d) matrix, never the
(n, d, d) blocks themselves.  Downstream code assembles these into
analytic scores and Hessians.

A model declares ``param_table`` (one (name, lower, upper, template)
row per parameter), ``filter`` and ``path``, and where needed
``presample``, ``start_values`` and ``start_candidates``; names,
dimension, bounds and the template start all derive from the table.
The start methods propose raw points, possibly outside the box, for a
series the fit has accepted; the fit adds the template start and clips
every point into the box (``estimation``).
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from ..distributions import InnovationDist
from ..errors import ShapeMismatch
from ..params import ParamVector, as_array

__all__ = ["SCALE_FLOOR", "FilterOutput", "ModelSpec", "lagged", "simulate"]

# Conditional scale is floored here before any division.
SCALE_FLOOR = 1e-8


def lagged(x: np.ndarray, k: int) -> np.ndarray:
    """x shifted back by k places with zero fill: out[t] = x[t-k], x[<0] = 0."""
    if k == 0:
        return x
    out = np.zeros_like(x)
    out[k:] = x[:-k]
    return out


def _adjoint(den: np.ndarray, w: np.ndarray) -> np.ndarray:
    """L^-T w for L^-1 the all-pole filter ``lfilter([1], den, .)``.

    The filter is lower-triangular Toeplitz, so its transpose runs the
    same recursion backward in time; sum_t w_t (L^-1 x)_t then equals
    _adjoint(den, w) @ x for any drive x, one pass for every drive.
    """
    return lfilter([1.0], den, w[::-1])[::-1]


def _filter_columns(den: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``lfilter([1], den, x, axis=0)`` of a column-major x, column-major.

    The filter runs along the contiguous rows of x.T, which gives the
    same bits as axis=0 without striding across rows.
    """
    return lfilter([1.0], den, x.T).T


@dataclass
class FilterOutput:
    """Filtered conditional moments and their parameter derivatives.

    ``mean`` and ``sigma2`` have shape (n,); the derivative blocks
    ``dmean`` and ``dsigma2`` are column-major (Fortran-ordered) (n, d)
    arrays from order 1 on.  A block is None below order 1, and from
    order 1 on None means identically zero: GARCH leaves ``dmean`` None,
    EXPAR ``dsigma2``.  ``curvature(w_g, w_s)`` takes two (n,) weight
    vectors and returns the (d, d) matrix
    sum_t (w_g,t d2 g_t + w_s,t d2 sigma2_t); the weight of a None
    block may itself be None.  ``curvature`` is None below order 2 and
    for models whose second derivatives vanish identically.  ``sigma2``
    is already floored at SCALE_FLOOR**2; derivatives refer to the
    unfloored recursion.
    """

    mean: np.ndarray
    sigma2: np.ndarray
    sigma: np.ndarray
    dmean: np.ndarray | None = None
    dsigma2: np.ndarray | None = None
    curvature: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


def _floor_sigma2(sigma2_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sigma2 = np.maximum(sigma2_raw, SCALE_FLOOR * SCALE_FLOOR)
    return sigma2, np.sqrt(sigma2)


def _clamp_count(sigma2: np.ndarray) -> int:
    """How many entries of a floored variance array sit on the floor."""
    return int(np.count_nonzero(sigma2 <= SCALE_FLOOR * SCALE_FLOOR))


# a running fit's nonstationary-region messages, collected instead of warned; None outside a fit
_STRAYS: ContextVar[list[str] | None] = ContextVar("nonstationary_strays", default=None)


def _float_path(loop, theta: np.ndarray, innovations, *orders) -> np.ndarray:
    """Path y from ``loop(eta, y, sqrt, theta, *orders)`` over memoryviews of floats.

    Python floats round as numpy scalars do, but a float ``** 2`` overflow
    or a math.sqrt of a negative raises where numpy gives inf or nan; the
    loop then reruns on numpy scalars, so the path matches them bit for bit.
    """
    eta = np.asarray(innovations, dtype=float).ravel()
    y = np.empty(eta.size)
    try:
        loop(memoryview(eta), memoryview(y), math.sqrt, theta.tolist(), *orders)
    except (OverflowError, ValueError):
        loop(memoryview(eta), memoryview(y), np.sqrt, list(theta), *orders)
    return y


class ModelSpec(abc.ABC):
    """A parametric conditional location-scale model.

    A subclass declares ``param_table``, ``filter`` and ``path``, and
    overrides ``presample``, ``interior_warm_start``, ``start_values``
    and ``start_candidates`` where the defaults (no conditioning rows,
    every start of a restricted fit run, no start proposals) do not
    fit.  Outside the model, read a parameter by name through
    ``param_names``, not by its position.
    """

    name: str = "model"
    #: Leading observations the criterion conditions on instead of summing.
    presample: int = 0
    #: True when a restricted fit runs theta_hat projected off the box
    #: faces alone, with its other starts only as a fallback
    #: (``estimation.fit_constrained``); False runs them all.
    interior_warm_start: bool = False

    # -- parameter block ------------------------------------------------

    @property
    @abc.abstractmethod
    def param_table(self) -> tuple[tuple[str, float, float, float], ...]:
        """One (name, lower, upper, template) row per parameter, in theta order.

        lower and upper bound the admissible box; the templates form the
        first starting point of every fit.
        """

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self.param_table)

    @property
    def dim(self) -> int:
        return len(self.param_table)

    def default_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box (lower, upper) defining the admissible parameter region."""
        _, lo, hi, _ = zip(*self.param_table)
        return np.array(lo), np.array(hi)

    def _template_values(self) -> np.ndarray:
        return np.array([row[3] for row in self.param_table])

    def wrap(self, values) -> ParamVector:
        """Attach names and default bounds to a raw value array."""
        lo, hi = self.default_bounds()
        return ParamVector(
            tuple(float(v) for v in np.asarray(values, dtype=float).ravel()),
            self.param_names,
            tuple(float(v) for v in lo),
            tuple(float(v) for v in hi),
        )

    def _check_theta(self, theta) -> np.ndarray:
        th = as_array(theta)
        if th.shape != (self.dim,):
            raise ShapeMismatch(
                f"{self.name} expects {self.dim} parameters, got shape {th.shape}"
            )
        return th

    @staticmethod
    def _check_series(y) -> np.ndarray:
        arr = np.asarray(y, dtype=float).ravel()
        if arr.size == 0:
            raise ShapeMismatch("series must contain at least one observation")
        return arr

    # -- dynamics ---------------------------------------------------------

    @abc.abstractmethod
    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        """Run the observation filter; order 0/1/2 controls derivative depth."""

    @abc.abstractmethod
    def path(self, theta, innovations) -> np.ndarray:
        """Generate y from given standardized innovations, zero initial state."""

    def start_values(self, y) -> list[np.ndarray]:
        """Cheap data-driven starting points; every fit runs Newton from each.

        y is finite with at least 10 dim observations.  The points may lie
        outside the box: the fit clips them and runs the template first.
        """
        return []

    def start_candidates(self, y) -> list[list[np.ndarray]]:
        """Groups of raw points, for an accepted series as in ``start_values``.

        A multistart fit clips each point into the box and runs Newton
        from one point of each group: the one with the highest criterion
        value, found by one evaluation per point (a group of one is not
        scored).  A group holds the points that compete for one kind of
        basin, so a model can offer a grid over each at little cost.
        """
        return []


def simulate(
    model: ModelSpec,
    theta,
    nobs: int,
    dist: InnovationDist,
    seed=None,
    rng: np.random.Generator | None = None,
    burn: int = 0,
) -> np.ndarray:
    """Simulate ``nobs`` observations from the model.

    The nobs + burn innovations are drawn i.i.d. from ``dist`` using
    ``rng`` (or a fresh Philox generator built from ``seed``); the first
    ``burn`` observations are discarded.  ``model.path`` takes given
    innovations.
    """
    if nobs < 1 or burn < 0:
        raise ShapeMismatch(f"need nobs >= 1 and burn >= 0, got nobs={nobs}, burn={burn}")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    y = model.path(theta, dist.sample(rng, nobs + burn))
    return y[burn:]
