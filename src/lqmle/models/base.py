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
every point into the box (``estimation``).  Every seeded path, for
``simulate`` or ``population_information``, runs in ``_seeded_path``.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtbtrs

from ..distributions import InnovationDist
from ..errors import NonFiniteObjective, ShapeMismatch
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


def _band(den: np.ndarray, n: int) -> np.ndarray:
    """The all-pole filter matrix L of den for n observations, as LAPACK stores its band.

    L is unit lower-triangular banded Toeplitz, L[t, t-k] = den[k] with
    den[0] = 1, so L v = x is the recursion
    v_t = x_t - sum_{k>=1} den[k] v_{t-k} from zero pre-sample values.
    Row k of the column-major band holds den[k].  A filter builds one
    band per denominator and solves every drive against it.
    """
    return np.repeat(den[None, :], n, axis=0).T


def _all_pole(band: np.ndarray, x: np.ndarray, trans: str = "N") -> np.ndarray:
    """L^-1 x, or L^-T x with trans="T", for L the all-pole filter matrix of ``band``.

    One banded LAPACK solve runs every column of a 1-D or column-major
    (n, m) x; the result has the shape of x and is column-major.
    """
    v, _ = dtbtrs(band, x.reshape(band.shape[1], -1), uplo="L", trans=trans, diag="U")
    return v.reshape(x.shape, order="F")


def _adjoint(band: np.ndarray, w: np.ndarray) -> np.ndarray:
    """L^-T w: sum_t w_t (L^-1 x)_t equals _adjoint(band, w) @ x for any drive x."""
    return _all_pole(band, w, trans="T")


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


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


class ModelSpec(abc.ABC):
    """A parametric conditional location-scale model.

    A subclass declares ``param_table``, ``filter`` and ``path``, and
    overrides ``presample``, ``interior_warm_start``, ``start_values``
    and ``start_candidates`` where the defaults (no conditioning rows,
    every start of a restricted fit run, no start proposals) do not
    fit.  Outside the model, read a parameter by name through
    ``param_names``, not by its position.

    The constants derived from the table (``param_names``, ``dim``, the
    ``default_bounds`` arrays and the template start) are computed once
    per instance, on first use; the arrays are read-only, since every
    caller shares them.  A model is immutable, so they never go stale.
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

    @cached_property
    def param_names(self) -> tuple[str, ...]:
        return tuple(row[0] for row in self.param_table)

    @cached_property
    def dim(self) -> int:
        return len(self.param_table)

    @cached_property
    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        _, lo, hi, _ = zip(*self.param_table)
        return _read_only(lo), _read_only(hi)

    def default_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box (lower, upper) defining the admissible parameter region; read-only arrays."""
        return self._box

    @cached_property
    def _template(self) -> np.ndarray:
        """The template start, read-only."""
        return _read_only([row[3] for row in self.param_table])

    def __getstate__(self) -> dict:
        # a pickled model leaves its derived constants behind: unpickled
        # arrays would be writeable, so the copy derives its own
        cls = type(self)
        return {
            key: value
            for key, value in vars(self).items()
            if not isinstance(getattr(cls, key, None), cached_property)
        }

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


def _require_finite(bad: np.ndarray, offset: int, what: str) -> None:
    """NonFiniteObjective naming ``what`` and the first flagged row, counted from offset."""
    if bad.any():
        t = offset + int(np.argmax(bad))
        raise NonFiniteObjective(f"{what} is not finite from observation {t} on")


def _seeded_path(model: ModelSpec, theta, nobs: int, dist: InnovationDist, seed, burn: int):
    """(eta, y): nobs + burn draws from Philox(seed) and their path, which each caller checks."""
    if nobs < 1 or burn < 0:
        raise ShapeMismatch(f"need nobs >= 1 and burn >= 0, got nobs={nobs}, burn={burn}")
    eta = dist.sample(np.random.Generator(np.random.Philox(seed)), nobs + burn)
    with np.errstate(over="ignore", invalid="ignore"):
        return eta, model.path(theta, eta)


def simulate(
    model: ModelSpec,
    theta,
    nobs: int,
    dist: InnovationDist,
    seed=None,
    burn: int = 0,
) -> np.ndarray:
    """A finite series of ``nobs`` observations from the model.

    The nobs + burn innovations are drawn i.i.d. from ``dist`` by a
    Philox generator seeded with ``seed``: an int, a SeedSequence (a
    spawned child, say) or None for fresh entropy.  ``_seeded_path``
    runs them from the zero state and refuses nobs < 1 or burn < 0; the
    first ``burn`` observations are discarded.  A kept observation that
    is not finite (theta explosive) raises NonFiniteObjective naming it.
    """
    y = _seeded_path(model, theta, nobs, dist, seed, burn)[1][burn:]
    _require_finite(~np.isfinite(y), 0, "simulated series")
    return y
