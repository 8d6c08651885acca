"""Double-autoregressive model: linear AR mean, ARCH-in-levels scale."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .base import FilterOutput, ModelSpec, _float_path, _floor_sigma2, lagged

__all__ = ["Dar"]


@dataclass(frozen=True)
class Dar(ModelSpec):
    """DAR(p, q):

        g_t      = const + sum_i ar_i y_{t-i}
        sigma2_t = alpha0 + sum_j alpha_j y_{t-j}^2

    with zero pre-sample values.  Both derivative blocks are linear in
    the data, so second derivatives vanish identically and the order-2
    filter leaves ``curvature`` None.  q = 0 (constant scale) and p = 0
    (constant mean) are allowed as degenerate orders.
    """

    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("orders must be nonnegative")

    name = "dar"

    @property
    def param_names(self) -> tuple[str, ...]:
        return (
            ("const",)
            + tuple(f"ar{i}" for i in range(1, self.p + 1))
            + ("alpha0",)
            + tuple(f"alpha{j}" for j in range(1, self.q + 1))
        )

    def default_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.r_[-10.0, np.full(self.p, -5.0), 1e-6, np.zeros(self.q)]
        hi = np.r_[10.0, np.full(self.p, 5.0), 100.0, np.full(self.q, 50.0)]
        return lo, hi

    def _template_values(self) -> np.ndarray:
        return np.r_[0.0, np.zeros(self.p), 1.0, np.full(self.q, 0.1)]

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        y = self._check_series(y)
        n, d = y.size, self.dim
        mean_part, scale_part = th[: self.p + 1], th[self.p + 1 :]

        ylags = np.column_stack([lagged(y, i) for i in range(1, self.p + 1)]) if self.p else np.zeros((n, 0))
        y2lags = np.column_stack([lagged(y * y, j) for j in range(1, self.q + 1)]) if self.q else np.zeros((n, 0))

        mean = np.full(n, mean_part[0])
        if self.p:
            mean += ylags @ mean_part[1:]
        sigma2_raw = np.full(n, scale_part[0])
        if self.q:
            sigma2_raw += y2lags @ scale_part[1:]
        sigma2, sigma, clamped = _floor_sigma2(sigma2_raw)

        out = FilterOutput(mean=mean, sigma2=sigma2, sigma=sigma, clamped=clamped)
        if order >= 1:
            dmean = np.zeros((n, d))
            dmean[:, 0] = 1.0
            if self.p:
                dmean[:, 1 : self.p + 1] = ylags
            dsigma2 = np.zeros((n, d))
            dsigma2[:, self.p + 1] = 1.0
            if self.q:
                dsigma2[:, self.p + 2 :] = y2lags
            out.dmean, out.dsigma2 = dmean, dsigma2
        return out

    def path(self, theta, innovations) -> np.ndarray:
        return _float_path(_dar_loop, self._check_theta(theta), innovations, self.p, self.q)

    def start_values(self, y) -> list[np.ndarray]:
        y = self._check_series(y)
        starts = [self._template_values()]
        n = y.size
        if n > self.p + self.q + 4:
            x = np.column_stack([np.ones(n)] + [lagged(y, i) for i in range(1, self.p + 1)])
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            resid = y - x @ coef
            z = np.column_stack([np.ones(n)] + [lagged(y * y, j) for j in range(1, self.q + 1)])
            acoef, *_ = np.linalg.lstsq(z, resid * resid, rcond=None)
            acoef[0] = max(acoef[0], 1e-3)
            acoef[1:] = np.clip(acoef[1:], 0.0, None)
            lo, hi = self.default_bounds()
            starts.append(np.clip(np.r_[coef, acoef], lo, hi))
        return starts


def _dar_loop(eta, y, sqrt, th, p, q):
    c, ar, w, arch = th[0], th[1 : p + 1], th[p + 1], th[p + 2 :]
    steps = enumerate(eta)
    first_order = p == q == 1
    # newest lag first; zip stops at the lags that exist so far.  DAR(1,1)
    # leaves after the first step and keeps its lag in a local
    lags, squares = deque(maxlen=p), deque(maxlen=q)
    for t, e in islice(steps, 1) if first_order else steps:
        g = c
        for a, v in zip(ar, lags):
            g += a * v
        s2 = w
        for b, v2 in zip(arch, squares):
            s2 += b * v2
        y[t] = v = g + sqrt(s2) * e
        lags.appendleft(v)
        squares.appendleft(v ** 2)
    if first_order and lags:
        (a,), (b,), (y1,) = ar, arch, lags
        for t, e in steps:
            y[t] = y1 = c + a * y1 + sqrt(w + b * y1 ** 2) * e
