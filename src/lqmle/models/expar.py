"""Exponential autoregression: amplitude-dependent AR coefficients, unit scale."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..kernel import logistic_logpdf, logistic_psi
from .base import FilterOutput, ModelSpec, _finish, _float_path, lagged

__all__ = ["Expar"]

# decays of the candidate grid: eight per decade over [1e-4, 100]
_DECAYS = np.logspace(-4.0, 2.0, 49)
# (decay, t) entries per block of the profile grid: a (k, n) float block is 256 kB, inside L2
_BLOCK_ELEMS = 1 << 15
_COEF_BOUND = 5.0  # every ar and nl coefficient lies in [-5, 5]


@dataclass(frozen=True)
class Expar(ModelSpec):
    """EXPAR(p) with unit innovation scale:

        g_t = sum_i (ar_i + nl_i exp(-decay * y_{t-1}^2)) y_{t-i},
        sigma_t = 1.

    The nl coefficients act only when the last observation is small,
    with decay > 0 controlling how fast the nonlinear part switches
    off.  Everything is a closed-form function of lagged data, so the
    filter and its derivatives are direct (no recursion).  The scale
    does not depend on theta, so the filter leaves ``dsigma2`` None.
    """

    p: int = 1

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("need p >= 1")

    name = "expar"

    @property
    def param_table(self) -> tuple[tuple[str, float, float, float], ...]:
        return (
            *((f"ar{i}", -_COEF_BOUND, _COEF_BOUND, 0.0) for i in range(1, self.p + 1)),
            *((f"nl{i}", -_COEF_BOUND, _COEF_BOUND, 0.0) for i in range(1, self.p + 1)),
            ("decay", 1e-6, 100.0, 1.0),
        )

    def _theta_free(self, y: np.ndarray) -> tuple[np.ndarray, ...]:
        """The lags y_{t-1}, ..., y_{t-p} and the squared first lag."""
        ylags = self._lags(y)
        return ylags, ylags[:, 0] ** 2

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        series = self._bind(y)
        n, d, p = series.values.size, self.dim, self.p
        ar, nl, decay = th[:p], th[p : 2 * p], th[2 * p]

        ylags, y1sq = series.blocks
        env = np.exp(-decay * y1sq)
        nl_sum = ylags @ nl
        mean = ylags @ ar + env * nl_sum
        ones = np.ones(n)

        out = FilterOutput(mean=mean, sigma2=ones, sigma=ones)

        def derivatives(order):
            dmean = np.empty((n, d), order="F")
            dmean[:, :p] = ylags
            dmean[:, p : 2 * p] = env[:, None] * ylags
            dmean[:, 2 * p] = -y1sq * env * nl_sum
            if order == 1:
                return dmean, None, None

            def curvature(wg, ws):
                # the nonzero second derivatives of g are d/d decay of the
                # nl and decay columns of dmean: -y_{t-1}^2 times that column
                h = np.zeros((d, d))
                c = (wg * -y1sq) @ dmean[:, p:]
                h[p:, 2 * p] = c
                h[2 * p, p:] = c
                return h

            return dmean, None, curvature

        return _finish(out, derivatives, order)

    def path(self, theta, innovations) -> np.ndarray:
        return _float_path(_expar_loop, self._check_theta(theta), innovations, self.p)

    def _lags(self, y: np.ndarray) -> np.ndarray:
        """Columns y_{t-1}, ..., y_{t-p}."""
        return np.column_stack([lagged(y, i) for i in range(1, self.p + 1)])

    def start_values(self, y) -> list[np.ndarray]:
        ylags = self._lags(y)
        env = np.exp(-(ylags[:, 0] ** 2))
        x = np.column_stack([ylags, env[:, None] * ylags])
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        return [np.r_[coef, 1.0]]

    def start_candidates(self, y) -> list[list[np.ndarray]]:
        """One group: the peaks of the profile criterion over a log grid of decays.

        At fixed decay g_t is linear in (ar, nl) and sigma_t = 1, so the
        logistic criterion is concave in them: least squares, then four
        Newton steps of that criterion, clipped to the box, give its
        profile at each decay (``_profile``).  The grid points where that
        profile has a local maximum form the group, one per basin along
        the decay.  The decays run in blocks of about ``_BLOCK_ELEMS``
        (decay, t) entries: each of a block's (decays, n) arrays then
        stays in cache through its passes, where the whole grid of a long
        series would spill.  A series of up to ``_BLOCK_ELEMS // 49``
        points runs as one block.  The peaks are taken over the whole
        grid, so a plateau across a block edge counts once.
        """
        ylags = self._lags(y)
        n, p = ylags.shape
        y1sq = ylags[:, 0] ** 2
        outer = (ylags[:, :, None] * ylags[:, None, :]).reshape(n, p * p)
        width = max(1, _BLOCK_ELEMS // n)
        blocks = [_profile(y, ylags, y1sq, outer, _DECAYS[i : i + width]) for i in range(0, _DECAYS.size, width)]
        coef = np.concatenate([c for c, _ in blocks])
        profile = np.concatenate([f for _, f in blocks])
        padded = np.r_[-np.inf, profile, -np.inf]
        peaks = (profile > padded[:-2]) & (profile >= padded[2:])  # one per plateau
        group = [np.r_[c, decay] for c, decay in zip(coef[peaks], _DECAYS[peaks])]
        return [group] if group else []


def _profile(y, ylags, y1sq, outer, decays):
    """(coef, profile) at each of ``decays``: the clipped (ar, nl) and the logistic criterion there.

    All the decays run at once, and every sum over t is a product with
    the lags or with their outer products ``outer``, (n, p * p).
    """
    p = ylags.shape[1]
    env = np.exp(-np.outer(decays, y1sq))  # (k, n)
    env_sq = env * env

    def gram(w):
        """(k, 2p, 2p) sums over t of w_t x_t x_t' for x_t = (ylags_t, env_t ylags_t); None is unit w."""
        rows = (np.ones_like(env), env, env_sq) if w is None else (w, w * env, w * env_sq)
        a, b, c = (np.dot(r, outer).reshape(-1, p, p) for r in rows)
        return np.concatenate([np.concatenate([a, b], axis=2), np.concatenate([b, c], axis=2)], axis=1)

    def cross(v):
        """(k, 2p) sums over t of v_t x_t."""
        return np.concatenate([np.dot(v, ylags), np.dot(v * env, ylags)], axis=1)

    def solve(mat, rhs):
        # a ridge of 1e-12 of the largest diagonal entry keeps collinear columns solvable
        ridge = 1e-12 * np.max(np.diagonal(mat, axis1=1, axis2=2), axis=1) + np.finfo(float).tiny
        return np.linalg.solve(mat + ridge[:, None, None] * np.eye(2 * p), rhs[..., None])[..., 0]

    def residuals(coef):
        # np.dot, not @: it takes the strided coefficient blocks to BLAS
        return y - np.dot(coef[:, :p], ylags.T) - env * np.dot(coef[:, p:], ylags.T)

    coef = solve(gram(None), cross(np.broadcast_to(y, env.shape)))
    for _ in range(4):
        psi, dpsi = logistic_psi(residuals(coef))
        coef = coef + solve(gram(dpsi), cross(psi))
    coef = np.clip(coef, -_COEF_BOUND, _COEF_BOUND)
    return coef, logistic_logpdf(residuals(coef)).sum(axis=1)


def _expar_loop(eta, y, sqrt, th, p):
    ar, nl, decay = th[:p], th[p : 2 * p], th[2 * p]
    zero = sqrt(0.0)  # a float, or a numpy scalar on the rerun: every lag takes its type
    lags = deque(maxlen=p)  # newest lag first; zip stops at the lags that exist so far
    for t, e in enumerate(eta):
        g = zero
        if lags:
            env = float(np.exp(-decay * lags[0] ** 2))  # not math.exp: its last bit can differ
            for a, b, v in zip(ar, nl, lags):
                g += (a + b * env) * v
        y[t] = v = g + e
        lags.appendleft(v)
