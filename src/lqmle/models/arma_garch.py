"""ARMA(1,1) mean with GARCH(1,1) innovations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvertibilityError
from .base import FilterOutput, ModelSpec, _adjoint, _all_pole, _band, _float_path, _floor_sigma2, lagged
from .garch import _MEDIAN_SQUARE_FACTOR, _garch_candidates

__all__ = ["ArmaGarch"]

# (name, lower, upper, template); a model without intercept drops the const row
_PARAM_TABLE = (
    ("const", -10.0, 10.0, 0.0),
    ("ar1", -0.999, 0.999, 0.1),
    ("ma1", -0.999, 0.999, 0.1),
    ("alpha0", 1e-6, 100.0, 1.0),
    ("alpha1", 0.0, 0.9999, 0.1),
    ("beta1", 0.0, 0.9999, 0.3),
)


@dataclass(frozen=True)
class ArmaGarch(ModelSpec):
    """ARMA(1,1)-GARCH(1,1):

        y_t      = const + ar1 y_{t-1} + e_t + ma1 e_{t-1}
        sigma2_t = alpha0 + alpha1 e_{t-1}^2 + beta1 sigma2_{t-1}

    Residuals are reconstructed by inverting the MA part with zero
    initial conditions: e_t = y_t - const - ar1 y_{t-1} - ma1 e_{t-1},
    which requires |ma1| < 1.  The conditional mean is g_t = y_t - e_t.
    Derivatives of e_t and sigma2_t with respect to every parameter
    follow the same first-order recursions and are propagated by the
    corresponding banded triangular solves, including the cross terms
    that the squared-residual feedback induces between mean and scale
    blocks.

    With ``include_intercept=False`` the const term is dropped and the
    parameter vector has five entries.
    """

    include_intercept: bool = True

    name = "arma_garch"

    @property
    def param_table(self) -> tuple[tuple[str, float, float, float], ...]:
        return _PARAM_TABLE if self.include_intercept else _PARAM_TABLE[1:]

    @property
    def _nmean(self) -> int:
        return self.dim - 3

    def _unpack(self, th: np.ndarray):
        m = self._nmean
        const = th[0] if self.include_intercept else 0.0
        ar1, ma1 = th[m - 2], th[m - 1]
        alpha0, alpha1, beta1 = th[m], th[m + 1], th[m + 2]
        return const, ar1, ma1, alpha0, alpha1, beta1

    def filter(self, y, theta, order: int = 0) -> FilterOutput:
        th = self._check_theta(theta)
        y = self._check_series(y)
        n, d, m = y.size, self.dim, self._nmean
        const, ar1, ma1, alpha0, alpha1, beta1 = self._unpack(th)
        if abs(ma1) >= 1.0:
            raise InvertibilityError(f"|ma1| = {abs(ma1)} is not invertible")
        ma_band = _band(np.array([1.0, ma1]), n)
        gj_band = _band(np.array([1.0, -beta1]), n)

        ylag = lagged(y, 1)
        e = _all_pole(ma_band, y - const - ar1 * ylag)
        elag = lagged(e, 1)
        drive = alpha0 + alpha1 * elag * elag
        sigma2_raw = _all_pole(gj_band, drive)
        sigma2, sigma = _floor_sigma2(sigma2_raw)

        out = FilterOutput(mean=y - e, sigma2=sigma2, sigma=sigma)
        if order == 0:
            return out

        # residual derivatives: e_t = u_t - ma1 e_{t-1}; only the mean
        # block of de is nonzero.  Every block here is column-major
        de_drives = np.empty((n, m), order="F")
        col = 0
        if self.include_intercept:
            de_drives[:, col] = -1.0
            col += 1
        de_drives[:, col] = -ylag
        de_drives[:, col + 1] = -elag
        de = _all_pole(ma_band, de_drives)
        dem = lagged(de, 1)

        # scale derivatives: direct part then beta feedback
        ds_drives = np.empty((n, d), order="F")
        ds_drives[:, :m] = 2.0 * alpha1 * elag[:, None] * dem
        ds_drives[:, m] = 1.0
        ds_drives[:, m + 1] = elag * elag
        ds_drives[:, m + 2] = lagged(sigma2_raw, 1)
        dsigma2 = _all_pole(gj_band, ds_drives)
        dmean = np.zeros((n, d), order="F")
        np.negative(de, out=dmean[:, :m])
        out.dmean = dmean
        out.dsigma2 = dsigma2
        if order == 1:
            return out

        # second derivatives of e: only pairs involving ma1 survive, so
        # block holds the ma1 row of the mean block, (ma1, ma1) included
        i_ma, i_a1, i_b1 = m - 1, m + 1, m + 2
        d2e_drives = -dem
        d2e_drives[:, i_ma] *= 2.0
        block = _all_pole(ma_band, d2e_drives)

        def curvature(wg, ws):
            # d2 sigma2 is the beta1 filter of its drives: 2 alpha1 (de de'
            # + e d2e) at t-1 on the mean block, 2 e_{t-1} de_{t-1} on the
            # (mean, alpha1) pairs and the lagged dsigma2 on the beta1 row
            # and column.  One backward pass u = L^-T ws weighs them all.
            u = _adjoint(gj_band, ws)
            ue = u * elag
            h = np.zeros((d, d))
            q = dem.T @ (u[:, None] * dem)
            h[:m, :m] = alpha1 * (q + q.T)  # symmetric to the last bit
            # d2 g = -d2e, and d2e feeds sigma2 one step later
            we = -wg
            we[:-1] += 2.0 * alpha1 * ue[1:]
            c = we @ block
            c[i_ma] *= 0.5  # (ma1, ma1) lies on both the row and the column
            h[i_ma, :m] += c
            h[:m, i_ma] += c
            a = 2.0 * (ue @ dem)
            h[:m, i_a1] += a
            h[i_a1, :m] += a
            g = u[1:] @ dsigma2[:-1]
            h[i_b1] += g
            h[:, i_b1] += g
            return h

        out.curvature = curvature
        return out

    def path(self, theta, innovations) -> np.ndarray:
        th = self._check_theta(theta)
        return _float_path(_arma_garch_loop, np.asarray(self._unpack(th)), innovations)

    def _mean_start(self, y: np.ndarray):
        """Least-squares AR(1) mean coefficients and the median squared residual, at least 1e-3."""
        n = y.size
        cols = [np.ones(n), lagged(y, 1)] if self.include_intercept else [lagged(y, 1)]
        x = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(x, y, rcond=None)
        resid = y - x @ coef
        return coef, max(float(np.median(resid * resid)), 1e-3)

    def start_values(self, y) -> list[np.ndarray]:
        coef, s = self._mean_start(y)
        return [np.r_[coef, 0.0, _MEDIAN_SQUARE_FACTOR * s, self._template[-2:]]]

    def start_candidates(self, y) -> list[list[np.ndarray]]:
        """The GARCH(1,1) candidates on the mean part of the data start."""
        coef, s = self._mean_start(y)
        return [[np.r_[coef, 0.0, c] for c in group] for group in _garch_candidates(s / _MEDIAN_SQUARE_FACTOR, 1, 1)]


def _arma_garch_loop(eta, y, sqrt, th):
    const, ar1, ma1, alpha0, alpha1, beta1 = th
    y_prev = e_prev = s2 = 0.0
    for t, x in enumerate(eta):
        s2 = alpha0 + alpha1 * e_prev * e_prev + beta1 * s2
        e = sqrt(s2) * x
        y[t] = y_prev = const + ar1 * y_prev + e + ma1 * e_prev
        e_prev = e
