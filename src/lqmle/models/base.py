"""Shared machinery for conditional location-scale models.

Every model maps an observed series y and a parameter point theta to a
conditional mean g_t and conditional scale sigma_t computed from the
finite past with zero initial conditions (pre-sample observations,
residuals and variances are all taken to be zero).  Filters optionally
return the first derivatives of g_t and sigma_t^2 with respect to theta
and, at order 2, their second derivatives already contracted with
per-observation weights: the Hessian of a criterion summed over t needs
only sum_t (w_g,t d2 g_t + w_s,t d2 sigma2_t), a (d, d) matrix, never
the (n, d, d) blocks themselves.  Downstream code assembles these into
analytic scores and Hessians.
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


@dataclass
class FilterOutput:
    """Filtered conditional moments and their parameter derivatives.

    ``mean`` and ``sigma2`` have shape (n,); the derivative blocks
    ``dmean`` and ``dsigma2`` are (n, d), or None below order 1.
    ``curvature(w_g, w_s)`` takes two (n,) weight vectors and returns
    the (d, d) matrix sum_t (w_g,t d2 g_t + w_s,t d2 sigma2_t); it is
    None below order 2 and for models whose second derivatives vanish
    identically.  ``sigma2`` is already floored at SCALE_FLOOR**2 and
    ``clamped`` counts how many entries the floor touched.  Derivatives
    refer to the unfloored recursion.
    """

    mean: np.ndarray
    sigma2: np.ndarray
    sigma: np.ndarray
    dmean: np.ndarray | None = None
    dsigma2: np.ndarray | None = None
    curvature: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    clamped: int = 0


def _floor_sigma2(sigma2_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    floor = SCALE_FLOOR * SCALE_FLOOR
    clamped = int(np.count_nonzero(sigma2_raw < floor))
    sigma2 = np.maximum(sigma2_raw, floor)
    return sigma2, np.sqrt(sigma2), clamped


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
    """A parametric conditional location-scale model."""

    name: str = "model"
    #: True when the conditional mean is identically zero.
    scale_only: bool = False

    # -- parameter block ------------------------------------------------

    @property
    @abc.abstractmethod
    def param_names(self) -> tuple[str, ...]: ...

    @property
    def dim(self) -> int:
        return len(self.param_names)

    @abc.abstractmethod
    def default_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Box (lower, upper) defining the admissible parameter region."""

    @abc.abstractmethod
    def _template_values(self) -> np.ndarray: ...

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
        """Cheap data-driven starting points for optimization."""
        return [self._template_values()]


def simulate(
    model: ModelSpec,
    theta,
    nobs: int,
    dist: InnovationDist | None = None,
    seed=None,
    rng: np.random.Generator | None = None,
    burn: int = 0,
    innovations=None,
) -> np.ndarray:
    """Simulate ``nobs`` observations from the model.

    Innovations are either supplied directly (length nobs + burn) or
    drawn i.i.d. from ``dist`` using ``rng`` (or a fresh Philox
    generator built from ``seed``).  The first ``burn`` observations
    are discarded.
    """
    if nobs < 1 or burn < 0:
        raise ShapeMismatch(f"need nobs >= 1 and burn >= 0, got nobs={nobs}, burn={burn}")
    if innovations is None:
        if dist is None:
            raise ValueError("either innovations or dist must be supplied")
        if rng is None:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        innovations = dist.sample(rng, nobs + burn)
    eta = np.asarray(innovations, dtype=float).ravel()
    if eta.size != nobs + burn:
        raise ShapeMismatch(f"need {nobs + burn} innovations, got {eta.size}")
    y = model.path(theta, eta)
    return y[burn:]
