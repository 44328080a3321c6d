"""Vector autoregression estimation and information-criterion lag selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TooShort
from .linalg import LN_2PI, _factor, log_det
from .series import Panel, lag_matrix


@dataclass(frozen=True)
class VarFit:
    """OLS-estimated VAR(p).

    coef_matrices[j-1][i, l] is the effect of variable l at lag j on
    variable i; residual_cov uses the MLE divisor T.
    """

    lag_order: int
    intercept: np.ndarray
    coef_matrices: tuple
    residual_cov: np.ndarray
    loglik: float
    effective_obs: int
    n_params: int


@dataclass(frozen=True)
class LagSelectionRow:
    lag: int
    aic: float
    sbc: float


def _fit_var_data(data: np.ndarray, lag: int) -> VarFit:
    n, m = data.shape
    if lag < 0:
        raise DomainError("lag must be >= 0")
    k = m * lag + 1
    t_eff = n - lag
    if t_eff <= k:
        raise TooShort(f"panel of length {n} cannot estimate a VAR({lag}) in {m} variables")
    X, y, Q, R = _factor(np.hstack([np.ones((t_eff, 1)), lag_matrix(data, lag)]), data[lag:])
    resid = np.empty_like(y)
    B = np.empty((k, m))
    for i in range(m):
        # one product per column, as ols_fit forms it: a single Q.T @ y over all
        # columns sums in another order and moves the last bits of the results
        beta = np.linalg.solve(R, Q.T @ y[:, i])
        B[:, i] = beta
        resid[:, i] = y[:, i] - X @ beta
    sigma = resid.T @ resid / t_eff
    loglik = -(t_eff * m / 2.0) * (1.0 + LN_2PI) - (t_eff / 2.0) * log_det(sigma)
    mats = tuple(B[1 + m * (j - 1): 1 + m * j, :].T.copy() for j in range(1, lag + 1))
    return VarFit(
        lag_order=lag,
        intercept=B[0].copy(),
        coef_matrices=mats,
        residual_cov=sigma,
        loglik=loglik,
        effective_obs=t_eff,
        n_params=m * k,
    )


def fit_var(panel: Panel, lag: int) -> VarFit:
    """Estimate a VAR(lag) equation by equation on the shared regressor set,
    which is checked and factored once."""
    return _fit_var_data(panel.data, lag)


def info_criteria(fit: VarFit) -> tuple:
    """Per-observation (aic, sbc): -2 loglik/T + penalty(N)/T."""
    t = fit.effective_obs
    n = fit.n_params
    base = -2.0 * fit.loglik / t
    return base + 2.0 * n / t, base + n * math.log(t) / t


def select_lag(panel: Panel, max_lag: int) -> tuple:
    """Pick the Schwarz-minimizing lag over 0..max_lag.

    Every candidate is estimated on the same truncated sample (the first
    max_lag rows are dropped for all of them) so the criteria are
    comparable; ties break toward the smaller lag.  Returns
    (chosen, [LagSelectionRow ...]).
    """
    data = panel.data
    n, m = data.shape
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    if n - max_lag <= m * max_lag + 1:
        raise TooShort(f"panel of length {n} cannot compare lags up to {max_lag}")
    rows = []
    chosen, best = 0, math.inf
    for lag in range(max_lag + 1):
        fit = _fit_var_data(data[max_lag - lag:], lag)
        aic, sbc = info_criteria(fit)
        rows.append(LagSelectionRow(lag=lag, aic=aic, sbc=sbc))
        if sbc < best:
            chosen, best = lag, sbc
    return chosen, rows
