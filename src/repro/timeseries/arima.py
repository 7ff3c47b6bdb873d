"""ARIMA(p, d, q) estimation and forecasting.

This is a from-scratch implementation (no statsmodels) sufficient for the
paper's detectors: fitting via Hannan-Rissanen initialisation refined by
conditional-sum-of-squares (CSS) optimisation, and multi-step forecasting
with confidence intervals derived from the psi-weight (MA(infinity))
representation of the integrated process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter

from repro.errors import ConfigurationError, ModelError, NotFittedError
from repro.timeseries.ar import fit_ar_least_squares
from repro.timeseries.differencing import difference
from repro.timeseries.forecast import Forecast


def _css_residuals(
    y: np.ndarray, intercept: float, phi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Conditional innovations of an ARMA model on ``y``.

    Pre-sample values and innovations are taken as zero (the standard CSS
    convention); the first ``p`` residuals are therefore conditional on
    that assumption.  Implemented with linear filters so the optimiser can
    afford thousands of evaluations on multi-week half-hourly series.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    # rhs_t = y_t - c - sum_i phi_i y_{t-i}, zero pre-sample.
    if phi.size:
        ar_poly = np.concatenate(([1.0], -phi))
        rhs = np.convolve(y, ar_poly)[:n] - intercept
    else:
        rhs = y - intercept
    if theta.size == 0:
        return rhs
    # theta(B) eps_t = rhs_t with zero initial conditions.
    ma_poly = np.concatenate(([1.0], theta))
    eps = lfilter([1.0], ma_poly, rhs)
    return np.asarray(eps, dtype=float)


def _psi_weights(
    phi: np.ndarray, theta: np.ndarray, d: int, horizon: int
) -> np.ndarray:
    """First ``horizon`` psi weights of the ARIMA MA(infinity) expansion.

    Solves ``phi*(B) psi(B) = theta(B)`` where ``phi*(B) = phi(B)(1-B)^d``
    is the combined (generalised) autoregressive polynomial.
    """
    # Expand phi(B) (1-B)^d into coefficient form: series applied as
    # y_t = sum_k phistar_k y_{t-k} + ...; we need the polynomial
    # a(B) = 1 - phi_1 B - ... then multiply by (1-B)^d.
    a = np.concatenate(([1.0], -phi))
    for _ in range(d):
        a = np.convolve(a, [1.0, -1.0])
    # a(B) psi(B) = b(B) where b(B) = 1 + theta_1 B + ...
    b = np.concatenate(([1.0], theta))
    psi = np.zeros(horizon)
    psi[0] = 1.0
    for j in range(1, horizon):
        total = b[j] if j < b.size else 0.0
        upper = min(j, a.size - 1)
        for k in range(1, upper + 1):
            total -= a[k] * psi[j - k]
        psi[j] = total
    return psi


@dataclass(frozen=True)
class ARIMAFit:
    """Fitted parameters and diagnostics of an ARIMA model."""

    order: tuple[int, int, int]
    intercept: float
    phi: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    sigma2: float = 0.0
    loglikelihood: float = 0.0
    nobs: int = 0

    @property
    def n_params(self) -> int:
        """Number of estimated parameters (intercept + AR + MA + sigma2)."""
        return 2 + self.phi.size + self.theta.size


class ARIMA:
    """ARIMA(p, d, q) model with CSS fitting and interval forecasts.

    Usage::

        model = ARIMA(order=(3, 1, 2)).fit(series)
        fcst = model.forecast(horizon=336)
        fcst.lower, fcst.upper   # 95% band by default
    """

    def __init__(self, order: tuple[int, int, int], refine: bool = True) -> None:
        p, d, q = order
        if p < 0 or d < 0 or q < 0:
            raise ConfigurationError(f"ARIMA order components must be >= 0: {order}")
        if p == 0 and q == 0 and d == 0:
            raise ConfigurationError("ARIMA(0,0,0) has nothing to estimate")
        self.order = (int(p), int(d), int(q))
        self.refine = bool(refine)
        self._fit: ARIMAFit | None = None
        self._series: np.ndarray | None = None
        self._differenced: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, series: np.ndarray) -> "ARIMA":
        """Estimate parameters from ``series`` and return ``self``."""
        arr = np.asarray(series, dtype=float).ravel()
        p, d, q = self.order
        min_len = max(3 * (p + q + d + 1), 20)
        if arr.size < min_len:
            raise ModelError(
                f"series of length {arr.size} too short to fit ARIMA{self.order}"
            )
        if np.any(~np.isfinite(arr)):
            raise ModelError("series contains non-finite values")
        y = difference(arr, d) if d else arr.copy()
        intercept, phi, theta = self._hannan_rissanen(y, p, q)
        if self.refine and (p + q) > 0:
            intercept, phi, theta = self._css_refine(y, intercept, phi, theta, p, q)
        eps = _css_residuals(y, intercept, phi, theta)
        # Discard the burn-in residuals conditioned on zero pre-sample.
        burn = min(max(p, q), eps.size - 1)
        tail = eps[burn:]
        sigma2 = float(tail @ tail) / max(tail.size, 1)
        sigma2 = max(sigma2, 1e-12)
        n = tail.size
        loglik = -0.5 * n * (np.log(2 * np.pi * sigma2) + 1.0)
        self._fit = ARIMAFit(
            order=self.order,
            intercept=float(intercept),
            phi=np.asarray(phi, dtype=float),
            theta=np.asarray(theta, dtype=float),
            sigma2=sigma2,
            loglikelihood=float(loglik),
            nobs=int(arr.size),
        )
        self._series = arr
        self._differenced = y
        return self

    @staticmethod
    def _hannan_rissanen(
        y: np.ndarray, p: int, q: int
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Hannan-Rissanen two-stage ARMA estimate on the differenced scale."""
        if p == 0 and q == 0:
            return float(y.mean()), np.empty(0), np.empty(0)
        if q == 0:
            intercept, phi, _ = fit_ar_least_squares(y, p)
            return intercept, phi, np.empty(0)
        # Stage 1: long AR to approximate the innovations.
        long_order = min(max(2 * (p + q), 10), max(y.size // 4, p + q + 1))
        try:
            _, _, resid = fit_ar_least_squares(y, long_order)
        except ModelError:
            long_order = max(p + q, 1)
            _, _, resid = fit_ar_least_squares(y, long_order)
        eps = np.concatenate([np.zeros(long_order), resid])
        # Stage 2: OLS of y on its own lags and lagged innovations.
        start = max(p, q)
        rows = y.size - start
        if rows <= p + q + 1:
            raise ModelError("series too short for Hannan-Rissanen stage 2")
        design = np.empty((rows, 1 + p + q))
        design[:, 0] = 1.0
        for i in range(1, p + 1):
            design[:, i] = y[start - i : y.size - i]
        for j in range(1, q + 1):
            design[:, p + j] = eps[start - j : y.size - j]
        target = y[start:]
        coef, *_ = np.linalg.lstsq(design, target, rcond=None)
        return float(coef[0]), coef[1 : 1 + p], coef[1 + p :]

    @staticmethod
    def _css_refine(
        y: np.ndarray,
        intercept: float,
        phi: np.ndarray,
        theta: np.ndarray,
        p: int,
        q: int,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Refine parameters by minimising the conditional sum of squares."""

        def unpack(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
            return float(x[0]), x[1 : 1 + p], x[1 + p :]

        def objective(x: np.ndarray) -> float:
            c, ph, th = unpack(x)
            # Penalise wildly non-stationary / non-invertible parameters to
            # keep the optimiser in a sane region.
            if np.any(np.abs(ph) > 10) or np.any(np.abs(th) > 10):
                return 1e12
            eps = _css_residuals(y, c, ph, th)
            return float(eps @ eps)

        x0 = np.concatenate(([intercept], phi, theta))
        result = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 200 * x0.size, "xatol": 1e-6, "fatol": 1e-6},
        )
        if result.fun <= objective(x0):
            return unpack(result.x)
        return intercept, phi, theta

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def params(self) -> ARIMAFit:
        """Fitted parameters; raises :class:`NotFittedError` before fit."""
        if self._fit is None:
            raise NotFittedError("ARIMA model has not been fit")
        return self._fit

    def residuals(self) -> np.ndarray:
        """CSS innovations on the differenced scale."""
        fit = self.params
        assert self._differenced is not None
        return _css_residuals(self._differenced, fit.intercept, fit.phi, fit.theta)

    # ------------------------------------------------------------------
    # Forecasting
    # ------------------------------------------------------------------

    def forecast(self, horizon: int, z: float = 1.959963984540054) -> Forecast:
        """Forecast ``horizon`` steps beyond the end of the training series."""
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        fit = self.params
        assert self._series is not None and self._differenced is not None
        p, d, q = self.order
        y = self._differenced
        eps = _css_residuals(y, fit.intercept, fit.phi, fit.theta)
        # Recursive point forecasts on the differenced scale.
        y_ext = list(y)
        eps_ext = list(eps)
        diff_forecasts = np.empty(horizon)
        for h in range(horizon):
            ar_part = sum(
                fit.phi[i] * y_ext[len(y_ext) - 1 - i] for i in range(p)
            )
            ma_part = 0.0
            for j in range(q):
                idx = len(eps_ext) - 1 - j
                # Future innovations have expectation zero.
                if idx >= eps.size + h:
                    continue
                ma_part += fit.theta[j] * eps_ext[idx]
            value = fit.intercept + ar_part + ma_part
            diff_forecasts[h] = value
            y_ext.append(value)
            eps_ext.append(0.0)
        # Integrate d times back to the original scale.
        point = diff_forecasts
        if d:
            heads = self._series[-d:]
            from repro.timeseries.differencing import undifference

            point = undifference(diff_forecasts, heads, d)
        # Interval widths from psi weights of the integrated process.
        psi = _psi_weights(fit.phi, fit.theta, d, horizon)
        var = fit.sigma2 * np.cumsum(psi * psi)
        return Forecast(mean=point, std=np.sqrt(var), z=z)
