"""Double-autoregressive model: linear AR mean, ARCH-in-levels scale."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import BracketFailure
from ..kernel import _find_root, scale_kernel
from .base import FilterOutput, ModelSpec, _finish, _float_path, _floor_sigma2, lagged

__all__ = ["Dar"]


@dataclass(frozen=True)
class Dar(ModelSpec):
    """DAR(p, q):

        g_t      = const + sum_i ar_i y_{t-i}
        sigma2_t = alpha0 + sum_j alpha_j y_{t-j}^2

    with zero pre-sample values.  The filter returns every row, but the
    criterion conditions on the first max(p, q) observations
    (``presample``), the rows whose lags would reach before the series:
    a heavy-tailed y_0 scored against sigma2_0 = alpha0 would otherwise
    drag alpha0 up.  A series known to start from the zero state is
    scored from its first observation by prepending max(p, q) zeros.  Both
    derivative blocks are linear in the data, so second derivatives
    vanish identically and the order-2 filter leaves ``curvature`` None.
    q = 0 (constant scale) and p = 0 (constant mean) are allowed as
    degenerate orders.  The start value is a self-weighted least-squares
    fit scaled to the criterion's normalization (``start_values``); DAR
    has no start candidates.

    A restricted DAR fit runs its interior warm start alone
    (``interior_warm_start``), its other starts only as a fallback.
    Under R = [1, 1, 1, 1], r = 2.3 at theta0 = (1, .5, .3, .5), n = 400,
    logistic, that ended no lower than the warm start followed by the
    template and the data start in any of 3900 fits (1.0, 1.3 and 1.5 theta0 with
    burn-in 100, seeds 1000-1599 and 1700-1899; 1.1, 1.3 and 1.5 theta0
    from the zero state, seeds 1400-1899); the fallback ran in 24 of
    them.  At theta0 a fit took 4.1 ``evaluate`` calls instead of 19.6.
    Those two starts had won only where the plain projection clipped
    alpha0 onto its face.
    """

    p: int = 1
    q: int = 1

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("orders must be nonnegative")

    name = "dar"
    interior_warm_start = True

    @property
    def presample(self) -> int:
        return max(self.p, self.q)

    @property
    def param_table(self) -> tuple[tuple[str, float, float, float], ...]:
        return (
            ("const", -10.0, 10.0, 0.0),
            *((f"ar{i}", -5.0, 5.0, 0.0) for i in range(1, self.p + 1)),
            ("alpha0", 1e-6, 100.0, 1.0),
            *((f"alpha{j}", 0.0, 50.0, 0.1) for j in range(1, self.q + 1)),
        )

    def _theta_free(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """The design (dmean, dsigma2): ones, the lags and the lagged squares, column-major."""
        n, d = y.size, self.dim
        dmean = np.zeros((n, d), order="F")
        dmean[:, 0] = 1.0
        for i in range(1, self.p + 1):
            dmean[i:, i] = y[:-i]
        dsigma2 = np.zeros((n, d), order="F")
        dsigma2[:, self.p + 1] = 1.0
        y2 = y * y
        for j in range(1, self.q + 1):
            dsigma2[j:, self.p + 1 + j] = y2[:-j]
        return dmean, dsigma2

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        series = self._bind(y)
        n = series.values.size
        mean_part, scale_part = th[: self.p + 1], th[self.p + 1 :]

        # both derivative blocks are the series' design; mean and sigma2
        # are products with it
        dmean, dsigma2 = series.blocks
        mean = np.full(n, mean_part[0])
        if self.p:
            mean += dmean[:, 1 : self.p + 1] @ mean_part[1:]
        sigma2_raw = np.full(n, scale_part[0])
        if self.q:
            sigma2_raw += dsigma2[:, self.p + 2 :] @ scale_part[1:]
        sigma2, sigma = _floor_sigma2(sigma2_raw)

        out = FilterOutput(mean=mean, sigma2=sigma2, sigma=sigma)
        return _finish(out, lambda: (dmean, dsigma2, None), order)

    def path(self, theta, innovations) -> np.ndarray:
        return _float_path(_dar_loop, self._check_theta(theta), innovations, self.p, self.q)

    def start_values(self, y) -> list[np.ndarray]:
        """A self-weighted least-squares start, run after the template start.

        At the designs of interest y can have infinite variance, and
        ordinary least squares then lets a few large lags set the
        coefficients (alpha0 lands on its upper face).  Both regressions
        therefore run on the scored rows t >= ``presample``, each row
        multiplied by w_t = 1 / (1 + sum_{j<=q} y_{t-j}^2), the
        self-weighting of Ling (2005, 2007): the mean regression of y_t on
        its lags, then the regression of the squared residuals on the
        squared lags.  The fitted scale s2_t is then multiplied by the c
        that solves mean_t k(e_t / sqrt(c s2_t)) = 1, with k the scale
        kernel, the criterion's own scale normalization; when that root
        cannot be bracketed the scale is kept as fitted.  A series whose
        squares overflow proposes no start.
        """
        n, k = y.size, self.presample
        # regress on the rows the criterion scores, whose lags are all observed
        x = np.column_stack([np.ones(n)] + [lagged(y, i) for i in range(1, self.p + 1)])[k:]
        z = np.column_stack([np.ones(n)] + [lagged(y * y, j) for j in range(1, self.q + 1)])[k:]
        w = 1.0 / z.sum(axis=1)  # z's rows are (1, y_{t-1}^2, ..., y_{t-q}^2)
        coef, *_ = np.linalg.lstsq(x * w[:, None], y[k:] * w, rcond=None)
        resid = y[k:] - x @ coef
        lhs, rhs = z * w[:, None], resid * resid * w
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            return []  # a square overflowed (one observation near 1e155 or more)
        acoef, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        acoef[0] = max(acoef[0], 1e-3)
        acoef[1:] = np.clip(acoef[1:], 0.0, None)
        u = resid / np.sqrt(z @ acoef)
        try:
            acoef *= _find_root(
                lambda c: 1.0 - np.mean(scale_kernel(u / np.sqrt(c))), 0.25, 4.0, 1e-8, grow=True
            )
        except BracketFailure:
            pass
        return [np.r_[coef, acoef]]


def _dar_loop(eta, y, sqrt, th, p, q):
    c, ar, w, arch = th[0], th[1 : p + 1], th[p + 1], th[p + 2 :]
    if p == q == 1:
        # DAR(1,1) keeps its lag in a local, zero before the path
        (a,), (b,), y1 = ar, arch, 0.0
        for t, e in enumerate(eta):
            y[t] = y1 = c + a * y1 + sqrt(w + b * y1 ** 2) * e
        return
    # newest lag first; zip stops at the lags that exist so far
    lags, squares = deque(maxlen=p), deque(maxlen=q)
    for t, e in enumerate(eta):
        g = c
        for a, v in zip(ar, lags):
            g += a * v
        s2 = w
        for b, v2 in zip(arch, squares):
            s2 += b * v2
        y[t] = v = g + sqrt(s2) * e
        lags.appendleft(v)
        squares.appendleft(v ** 2)
