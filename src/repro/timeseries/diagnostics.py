"""Residual diagnostics for fitted time-series models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2

from repro.errors import ConfigurationError, ModelError
from repro.timeseries.acf import acf


@dataclass(frozen=True)
class LjungBoxResult:
    """Outcome of a Ljung-Box portmanteau test.

    ``statistic`` is Q; ``p_value`` the chi-square tail probability with
    ``dof`` degrees of freedom.  Small p-values reject the null of
    uncorrelated residuals — i.e. the model has left structure behind.
    """

    statistic: float
    p_value: float
    lags: int
    dof: int


def ljung_box(
    residuals: np.ndarray, lags: int = 20, n_fitted_params: int = 0
) -> LjungBoxResult:
    """Ljung-Box test on a residual series.

    Parameters
    ----------
    residuals:
        The model's innovation series.
    lags:
        Number of autocorrelation lags pooled into the statistic.
    n_fitted_params:
        Parameters estimated by the model (p + q for an ARMA fit);
        subtracted from the degrees of freedom.
    """
    if lags < 1:
        raise ConfigurationError(f"lags must be >= 1, got {lags}")
    if n_fitted_params < 0:
        raise ConfigurationError(
            f"n_fitted_params must be >= 0, got {n_fitted_params}"
        )
    arr = np.asarray(residuals, dtype=float).ravel()
    n = arr.size
    if n <= lags + 1:
        raise ModelError(
            f"need more than {lags + 1} residuals for {lags} lags, got {n}"
        )
    rho = acf(arr, lags)
    terms = rho[1:] ** 2 / (n - np.arange(1, lags + 1))
    statistic = float(n * (n + 2) * terms.sum())
    dof = max(lags - n_fitted_params, 1)
    p_value = float(chi2.sf(statistic, dof))
    return LjungBoxResult(
        statistic=statistic, p_value=p_value, lags=lags, dof=dof
    )
