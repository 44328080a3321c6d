"""Pairwise Granger causality F tests in both directions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import f_sf
from .errors import DimensionMismatch, DomainError
from .linalg import _refuse_exact_fit, ols_fit
from .series import Panel, _lag_design

VERDICT_H1 = "H1"  # first column drives the second
VERDICT_H2 = "H2"  # second column drives the first
VERDICT_H3 = "H3"  # bilateral
VERDICT_NONE = "none"


@dataclass(frozen=True, slots=True)
class GrangerResult:
    direction: tuple  # (cause label, effect label)
    lag: int
    f_statistic: float
    p_value: float
    df: tuple  # (p, T_used - 2p - 1)
    obs_used: int
    on_levels: bool


def f_from_ssr(ssr_restricted: float, ssr_unrestricted: float, p: int, d2: int) -> float:
    """Exclusion-restriction F statistic ((SSR_r - SSR_u)/p) / (SSR_u / d2).

    The numerator is clamped at zero: a restriction can never fit better,
    so any negative difference is pure roundoff.
    """
    if p < 1 or d2 < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if ssr_unrestricted <= 0.0:
        raise DomainError("unrestricted SSR must be positive")
    num = max(ssr_restricted - ssr_unrestricted, 0.0) / p
    return num / (ssr_unrestricted / d2)


def _one_direction(cause: np.ndarray, effect: np.ndarray, labels: tuple, lag: int,
                   on_levels: bool) -> GrangerResult:
    y, X = _lag_design(effect, lag, cause)  # [1, own lags, cross lags]
    d2 = len(y) - X.shape[1]
    ssr_u = _refuse_exact_fit(ols_fit(X, y).ssr, y,
                              f"the regression of {labels[1]} on the lags of both series")
    f_stat = f_from_ssr(ols_fit(X[:, :1 + lag], y).ssr, ssr_u, lag, d2)  # on [1, own lags]
    return GrangerResult(
        direction=labels,
        lag=lag,
        f_statistic=f_stat,
        p_value=f_sf(f_stat, lag, d2),
        df=(lag, d2),
        obs_used=len(y),
        on_levels=on_levels,
    )


def granger_test(panel: Panel, lag: int, on_levels: bool = True) -> tuple:
    """Test both causal directions on a two-column panel.

    Returns (forward, backward): forward tests whether the first column
    Granger-causes the second, backward the reverse.  Both directions use
    the same sample.  With ``on_levels=False`` the test runs on first
    differences of the columns.
    """
    if panel.m != 2:
        raise DimensionMismatch(f"granger_test needs exactly 2 columns, got {panel.m}")
    if lag < 1:
        raise DomainError("lag must be >= 1")
    a = panel.data[:, 0]
    b = panel.data[:, 1]
    if not on_levels:
        a = np.diff(a)
        b = np.diff(b)
    la, lb = panel.labels
    forward = _one_direction(a, b, (la, lb), lag, on_levels)
    backward = _one_direction(b, a, (lb, la), lag, on_levels)
    return forward, backward


def hypothesis_verdict(results: tuple, alpha: float) -> str:
    """Map the two directional tests to a causal verdict at level alpha.

    "H1" if only the forward direction (first column drives the second)
    rejects, "H2" if only the backward direction rejects, "H3" if both do,
    "none" otherwise.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    forward, backward = results
    fwd = forward.p_value < alpha
    bwd = backward.p_value < alpha
    if fwd and bwd:
        return VERDICT_H3
    if fwd:
        return VERDICT_H1
    if bwd:
        return VERDICT_H2
    return VERDICT_NONE
