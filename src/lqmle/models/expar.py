"""Exponential autoregression: amplitude-dependent AR coefficients, unit scale."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FilterOutput, ModelSpec, lagged

__all__ = ["Expar"]


@dataclass(frozen=True)
class Expar(ModelSpec):
    """EXPAR(p) with unit innovation scale:

        g_t = sum_i (ar_i + nl_i exp(-decay * y_{t-1}^2)) y_{t-i},
        sigma_t = 1.

    The nl coefficients act only when the last observation is small,
    with decay > 0 controlling how fast the nonlinear part switches
    off.  Everything is a closed-form function of lagged data, so the
    filter and its derivatives are direct (no recursion).
    """

    p: int = 1

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need p >= 1")

    name = "expar"

    @property
    def param_names(self) -> tuple[str, ...]:
        return (
            tuple(f"ar{i}" for i in range(1, self.p + 1))
            + tuple(f"nl{i}" for i in range(1, self.p + 1))
            + ("decay",)
        )

    def default_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.r_[np.full(2 * self.p, -5.0), 1e-6]
        hi = np.r_[np.full(2 * self.p, 5.0), 100.0]
        return lo, hi

    def _template_values(self) -> np.ndarray:
        return np.r_[np.zeros(2 * self.p), 1.0]

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        y = self._check_series(y)
        n, d, p = y.size, self.dim, self.p
        ar, nl, decay = th[:p], th[p : 2 * p], th[2 * p]

        ylags = np.column_stack([lagged(y, i) for i in range(1, p + 1)])
        y1sq = ylags[:, 0] ** 2
        env = np.exp(-decay * y1sq)
        nl_sum = ylags @ nl
        mean = ylags @ ar + env * nl_sum
        ones = np.ones(n)

        out = FilterOutput(mean=mean, sigma2=ones, sigma=ones, clamped=0)
        if order >= 1:
            dmean = np.zeros((n, d))
            dmean[:, :p] = ylags
            dmean[:, p : 2 * p] = env[:, None] * ylags
            dmean[:, 2 * p] = -y1sq * env * nl_sum
            out.dmean = dmean
            out.dsigma2 = np.zeros((n, d))
        if order >= 2:

            def curvature(wg, ws):
                # the nonzero second derivatives of g are d/d decay of the
                # nl and decay columns of dmean: -y_{t-1}^2 times that column
                h = np.zeros((d, d))
                c = (wg * -y1sq) @ dmean[:, p:]
                h[p:, 2 * p] = c
                h[2 * p, p:] = c
                return h

            out.curvature = curvature
        return out

    def path(self, theta, innovations) -> np.ndarray:
        th = self._check_theta(theta)
        eta = np.asarray(innovations, dtype=float).ravel()
        p = self.p
        ar, nl, decay = th[:p], th[p : 2 * p], th[2 * p]
        n = eta.size
        y = np.zeros(n)
        for t in range(n):
            g = 0.0
            env = np.exp(-decay * y[t - 1] ** 2) if t >= 1 else 1.0
            for i in range(1, p + 1):
                if t - i >= 0:
                    g += (ar[i - 1] + nl[i - 1] * env) * y[t - i]
            y[t] = g + eta[t]
        return y

    def start_values(self, y) -> list[np.ndarray]:
        y = self._check_series(y)
        starts = [self._template_values()]
        n, p = y.size, self.p
        if n > 2 * p + 4:
            ylags = np.column_stack([lagged(y, i) for i in range(1, p + 1)])
            env = np.exp(-(ylags[:, 0] ** 2))
            x = np.column_stack([ylags, env[:, None] * ylags])
            coef, *_ = np.linalg.lstsq(x, y, rcond=None)
            lo, hi = self.default_bounds()
            starts.append(np.clip(np.r_[coef, 1.0], lo, hi))
        return starts
