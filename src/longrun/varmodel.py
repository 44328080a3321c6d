"""Vector autoregression lag-order selection by information criteria."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TooShort
from .linalg import _residual_covariance, log_det
from .series import Panel, _lag_design

LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class LagSelectionRow:
    lag: int
    aic: float
    sbc: float


def _var_loglik(data: np.ndarray, lag: int) -> float:
    """Gaussian log-likelihood of a VAR(lag) with intercept fitted to the rows
    after the first ``lag`` (MLE residual covariance), equation by equation on
    the shared regressor set, which is checked and factored once."""
    Y, X = _lag_design(data, lag)
    t_eff, m = Y.shape
    sigma = _residual_covariance(X, Y)
    return -(t_eff * m / 2.0) * (1.0 + LN_2PI) - (t_eff / 2.0) * log_det(sigma)


def select_lag(panel: Panel, max_lag: int) -> tuple:
    """Pick the Schwarz-minimizing lag over 0..max_lag.

    Every candidate is estimated on the same truncated sample (the first
    max_lag rows are dropped for all of them) so the criteria are
    comparable.  They are per observation, -2 loglik/t + penalty(N)/t with
    t = n - max_lag and N = m (m lag + 1) parameters; ties break toward the
    smaller lag.  Returns (chosen, [LagSelectionRow ...]).
    """
    data = panel.data
    n, m = data.shape
    if max_lag < 0:
        raise DomainError("max_lag must be >= 0")
    t = n - max_lag
    if t < m * max_lag + 1 + m:
        raise TooShort(f"panel of length {n} cannot compare lags up to {max_lag}")
    rows = []
    chosen, best = 0, math.inf
    for lag in range(max_lag + 1):
        n_params = m * (m * lag + 1)
        base = -2.0 * _var_loglik(data[max_lag - lag:], lag) / t
        sbc = base + n_params * math.log(t) / t
        rows.append(LagSelectionRow(lag=lag, aic=base + 2.0 * n_params / t, sbc=sbc))
        if sbc < best:
            chosen, best = lag, sbc
    return chosen, rows
