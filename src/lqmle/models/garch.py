"""GARCH model: zero conditional mean, recursive conditional variance."""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import NonstationaryRegionWarning
from .base import _STRAYS, FilterOutput, ModelSpec, _adjoint, _all_pole, _band, _float_path, _floor_sigma2, lagged

__all__ = ["Garch"]

# alphas of the candidates without beta, and the (alpha, beta) sums of the
# high-persistence candidate
_ARCH_ALPHAS = (0.05, 0.2, 0.4, 0.7)
_PERSISTENT = (0.05, 0.9)
_MEDIAN_SQUARE_FACTOR = 0.6  # a median square understates the variance; starts scale it by this


def _garch_candidates(scale: float, p: int, q: int) -> list[list[np.ndarray]]:
    """(alpha0, alpha_1..p, beta_1..q) candidates at both ends of the persistence range.

    Two groups: no beta (an ARCH fit) over a grid of alphas, and one
    high-persistence point; the template start covers the middle.  Each
    sum is split evenly over its lags, as the template splits it;
    alpha0 = max(scale (1 - alpha - beta), 1e-3) puts the stationary
    variance near ``scale``.  Without beta lags only the first group is
    kept.
    """

    def point(a, b):
        return np.r_[max(scale * (1.0 - a - b), 1e-3), np.full(p, a / p), np.full(q, b / max(q, 1))]

    groups = [[point(a, 0.0) for a in _ARCH_ALPHAS]]
    if q:
        groups.append([point(*_PERSISTENT)])
    return groups


@dataclass(frozen=True)
class Garch(ModelSpec):
    """GARCH(p, q):

        sigma2_t = alpha0 + sum_i alpha_i y_{t-i}^2 + sum_j beta_j sigma2_{t-j}

    started from zero pre-sample values (so sigma2_1 = alpha0).  The
    recursion and its parameter derivatives are linear constant-
    coefficient difference equations in the beta lags, each run as one
    banded triangular solve.  The conditional mean is identically zero,
    so the filter leaves ``dmean`` None.
    """

    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 0:
            raise ValueError("need p >= 1 and q >= 0")

    name = "garch"

    @property
    def param_table(self) -> tuple[tuple[str, float, float, float], ...]:
        return (
            ("alpha0", 1e-6, 100.0, 1.0),
            *((f"alpha{i}", 0.0, 0.9999, 0.1 / self.p) for i in range(1, self.p + 1)),
            *((f"beta{j}", 0.0, 0.9999, 0.3 / self.q) for j in range(1, self.q + 1)),
        )

    def _denominator(self, beta: np.ndarray) -> np.ndarray:
        if np.sum(beta) >= 1.0:
            message = "beta coefficients sum to one or more; variance recursion diverges"
            strays = _STRAYS.get()
            if strays is None:
                warnings.warn(message, NonstationaryRegionWarning, stacklevel=3)
            else:
                strays.append(message)
        return np.r_[1.0, -beta]

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        y = self._check_series(y)
        n, d = y.size, self.dim
        alpha0, alpha, beta = th[0], th[1 : self.p + 1], th[self.p + 1 :]
        band = _band(self._denominator(beta), n)

        y2lags = np.column_stack([lagged(y * y, i) for i in range(1, self.p + 1)])
        drive = alpha0 + y2lags @ alpha
        sigma2_raw = _all_pole(band, drive)
        sigma2, sigma = _floor_sigma2(sigma2_raw)

        out = FilterOutput(mean=np.zeros(n), sigma2=sigma2, sigma=sigma)
        if order >= 1:
            # the drives of dsigma2, column-major; the mean is identically zero
            v = np.zeros((n, d), order="F")
            v[:, 0] = 1.0
            v[:, 1 : self.p + 1] = y2lags
            for j in range(1, self.q + 1):
                v[j:, self.p + j] = sigma2_raw[:-j]
            dsigma2 = _all_pole(band, v)
            out.dsigma2 = dsigma2
        if order >= 2:

            def curvature(wg, ws):
                # only pairs touching a beta lag feed the recursion: the
                # drive of d2 sigma2 lags dsigma2 into each beta row and
                # column, so one backward pass weighs every drive at once
                u = _adjoint(band, ws)
                h = np.zeros((d, d))
                for j in range(1, self.q + 1):
                    g = u[j:] @ dsigma2[:-j]
                    h[self.p + j] += g
                    h[:, self.p + j] += g
                return h

            out.curvature = curvature
        return out

    def path(self, theta, innovations) -> np.ndarray:
        return _float_path(_garch_loop, self._check_theta(theta), innovations, self.p, self.q)

    def start_values(self, y) -> list[np.ndarray]:
        scale = float(np.median(y * y))
        if not (np.isfinite(scale) and scale > 0):
            return []
        return [np.r_[_MEDIAN_SQUARE_FACTOR * scale, self._template[1:]]]

    def start_candidates(self, y) -> list[list[np.ndarray]]:
        scale = float(np.median(y * y)) / _MEDIAN_SQUARE_FACTOR
        return _garch_candidates(scale, self.p, self.q)


def _garch_loop(eta, y, sqrt, th, p, q):
    w, alpha, beta = th[0], th[1 : p + 1], th[p + 1 :]
    if p == q == 1:
        # GARCH(1,1) keeps its lags in locals, zero before the path
        (a,), (b,), y1, s2 = alpha, beta, 0.0, 0.0
        for t, e in enumerate(eta):
            s2 = w + a * y1 ** 2 + b * s2
            y[t] = y1 = sqrt(s2) * e
        return
    # newest lag first; zip stops at the lags that exist so far
    squares, variances = deque(maxlen=p), deque(maxlen=q)
    for t, e in enumerate(eta):
        s2 = w
        for a, v2 in zip(alpha, squares):
            s2 += a * v2
        for b, v in zip(beta, variances):
            s2 += b * v
        y[t] = v = sqrt(s2) * e
        squares.appendleft(v ** 2)
        variances.appendleft(s2)
