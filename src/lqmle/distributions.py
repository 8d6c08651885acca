"""Innovation distributions: how to validate a law and draw from it.

Every distribution here is symmetric about zero and is represented as a
base law times a positive scale multiplier.  For the uniform family the
multiplier is the half-width, i.e. ``uniform(a)`` is U(-a, a).  The
base-law facts that the scale normalization integrates (closed-form
density, E|X|, support end) belong to ``lqmle.kernel``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .errors import NonIntegrableError

__all__ = [
    "InnovationDist",
    "logistic",
    "normal",
    "uniform",
    "student_t",
    "stable",
    "empirical",
    "sample_symmetric_stable",
]

_FAMILIES = ("logistic", "normal", "uniform", "student_t", "stable", "empirical")


def sample_symmetric_stable(rng: np.random.Generator, index: float, size: int) -> np.ndarray:
    """Draw from the standard symmetric alpha-stable law S(index, 0, 1, 0).

    Chambers-Mallows-Stuck construction for the symmetric case: with
    U ~ U(-pi/2, pi/2) and W ~ Exp(1),

        X = sin(index * U) / cos(U)^(1/index)
            * (cos((1 - index) * U) / W)^((1 - index) / index).

    At index = 2 this reduces to 2 sin(U) sqrt(W) ~ N(0, 2).
    """
    if not 0.0 < index <= 2.0:
        raise ValueError(f"stable index must lie in (0, 2], got {index}")
    u = rng.uniform(-pi / 2.0, pi / 2.0, size)
    w = rng.standard_exponential(size)
    if index == 1.0:
        return np.tan(u)
    x = np.sin(index * u) / np.cos(u) ** (1.0 / index)
    x *= (np.cos((1.0 - index) * u) / w) ** ((1.0 - index) / index)
    return x


@dataclass(frozen=True)
class InnovationDist:
    """A symmetric innovation law: base family scaled by a positive constant.

    Attributes
    ----------
    family : str
        One of ``logistic``, ``normal``, ``uniform``, ``student_t``,
        ``stable``, ``empirical``.
    scale : float
        Positive multiplier applied to base draws.  For ``uniform`` this
        is the half-width of the support.
    shape : float or None
        Degrees of freedom for ``student_t`` (> 1 so the mean of |X|
        exists), tail index for ``stable`` (in (1, 2]).
    data : tuple of float
        Sample values for the ``empirical`` family, resampled with
        replacement.
    """

    family: str
    scale: float = 1.0
    shape: float | None = None
    data: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.family == "student_t":
            if self.shape is None or not self.shape > 1.0:
                raise NonIntegrableError(
                    "student_t needs dof > 1 so that E|X| is finite"
                )
        if self.family == "stable":
            if self.shape is None or not (1.0 < self.shape <= 2.0):
                raise NonIntegrableError(
                    "stable index must lie in (1, 2] so that E|X| is finite"
                )
        if self.family == "empirical":
            arr = np.asarray(self.data, dtype=float)
            if arr.size == 0:
                raise ValueError("empirical law needs at least one sample value")
            if not np.all(np.isfinite(arr)):
                raise ValueError("empirical sample values must be finite")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. values using the supplied generator."""
        fam = self.family
        if fam == "logistic":
            base = rng.logistic(0.0, 1.0, size)
        elif fam == "normal":
            base = rng.standard_normal(size)
        elif fam == "uniform":
            base = rng.uniform(-1.0, 1.0, size)
        elif fam == "student_t":
            base = rng.standard_t(self.shape, size)
        elif fam == "stable":
            base = sample_symmetric_stable(rng, self.shape, size)
        else:
            base = rng.choice(np.asarray(self.data, dtype=float), size, replace=True)
        return self.scale * base


def logistic() -> InnovationDist:
    """Standard logistic law; satisfies the unit scale normalization exactly."""
    return InnovationDist("logistic")


def normal(scale: float = 1.0) -> InnovationDist:
    """Centered normal with standard deviation ``scale``."""
    return InnovationDist("normal", scale=scale)


def uniform(half_width: float = 1.0) -> InnovationDist:
    """Uniform on (-half_width, half_width)."""
    return InnovationDist("uniform", scale=half_width)


def student_t(dof: float, scale: float = 1.0) -> InnovationDist:
    """Student t with ``dof`` degrees of freedom times ``scale``; needs dof > 1."""
    return InnovationDist("student_t", scale=scale, shape=dof)


def stable(index: float, scale: float = 1.0) -> InnovationDist:
    """Standard symmetric alpha-stable law with tail index in (1, 2]."""
    return InnovationDist("stable", scale=scale, shape=index)


def empirical(values, scale: float = 1.0) -> InnovationDist:
    """Resampling law over observed values (e.g. standardized residuals)."""
    return InnovationDist("empirical", scale=scale, data=tuple(float(v) for v in np.asarray(values).ravel()))
