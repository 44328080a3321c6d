"""Augmented Dickey-Fuller and Phillips-Perron unit-root tests.

Critical values come from the MacKinnon (1991) response surfaces
c(T) = b0 + b1/T + b2/T^2 evaluated at the regression's effective sample
size; approximate p-values come from the MacKinnon (1994) asymptotic
surfaces Phi(polynomial(tau)).  The Phillips-Perron correction follows
Hamilton (1994, eq. 17.6.8) with a Bartlett-kernel long-run variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import norm_cdf
from .errors import DomainError, TooShort, UnsupportedCase
from .linalg import _unscaled_covariance, ols_fit
from .series import _values, lag_matrix

CASES = ("none", "constant", "constant_trend")
LEVELS = ("1%", "5%", "10%")

# MacKinnon (1991) critical-value response surface coefficients, one-variable
# Dickey-Fuller t distribution: c(T) = b_inf + b1/T + b2/T^2.
_CRIT_SURFACE = {
    "none": {
        "1%": (-2.5658, -1.960, -10.04),
        "5%": (-1.9393, -0.398, 0.0),
        "10%": (-1.6156, -0.181, 0.0),
    },
    "constant": {
        "1%": (-3.4335, -5.999, -29.25),
        "5%": (-2.8621, -2.738, -8.36),
        "10%": (-2.5671, -1.438, -4.48),
    },
    "constant_trend": {
        "1%": (-3.9638, -8.353, -47.44),
        "5%": (-3.4126, -4.039, -17.83),
        "10%": (-3.1279, -2.418, -7.58),
    },
}

# MacKinnon (1994, 2010 update) asymptotic p-value surfaces, one variable.
# p = Phi(poly(tau)); the quadratic applies below tau_star, the cubic above,
# clamped to 0/1 outside [tau_min, tau_max].
_PVAL_SURFACE = {
    "none": {
        "star": -1.04, "min": -19.04, "max": math.inf,
        "small": (0.6344, 1.2378, 3.2496e-2),
        "large": (0.4797, 9.3557e-1, -6.999e-2, 3.3066e-2),
    },
    "constant": {
        "star": -1.61, "min": -18.83, "max": 2.74,
        "small": (2.1659, 1.4412, 3.8269e-2),
        "large": (1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2),
    },
    "constant_trend": {
        "star": -2.89, "min": -16.18, "max": 0.7,
        "small": (3.2512, 1.6047, 4.9588e-2),
        "large": (2.5261, 6.1654e-1, -3.7956e-1, -6.0285e-2),
    },
}


@dataclass(frozen=True)
class UnitRootResult:
    test_kind: str  # "adf" | "pp"
    statistic: float
    p_value: float
    lags_or_bandwidth: int
    effective_obs: int
    critical_values: dict  # {"1%": .., "5%": .., "10%": ..}
    deterministic_case: str
    decision_5pct: str  # "stationary" | "unit_root"


def _check_case(case: str):
    if case not in CASES:
        raise UnsupportedCase(f"deterministic case must be one of {CASES}, got {case!r}")


def mackinnon_critical(case: str, level: str, effective_obs: int) -> float:
    """Finite-sample Dickey-Fuller critical value for the given case and level."""
    _check_case(case)
    if level not in LEVELS:
        raise UnsupportedCase(f"level must be one of {LEVELS}, got {level!r}")
    if effective_obs < 20:
        raise TooShort("critical-value surface needs an effective sample of at least 20")
    b0, b1, b2 = _CRIT_SURFACE[case][level]
    t = float(effective_obs)
    return b0 + b1 / t + b2 / t ** 2


def mackinnon_pvalue(statistic: float, case: str) -> float:
    """Approximate asymptotic p-value of a Dickey-Fuller t statistic."""
    _check_case(case)
    surf = _PVAL_SURFACE[case]
    if statistic > surf["max"]:
        return 1.0
    if statistic < surf["min"]:
        return 0.0
    coeffs = surf["small"] if statistic <= surf["star"] else surf["large"]
    z = 0.0
    for c in reversed(coeffs):
        z = z * statistic + c
    p = norm_cdf(z)
    return min(max(p, 0.0), 1.0)


def bartlett_weights(bandwidth: int) -> np.ndarray:
    """Bartlett-kernel weights 1 - j/(q+1) for lags j = 0..q."""
    q = bandwidth
    return 1.0 - np.arange(q + 1) / (q + 1.0)


def long_run_variance(residuals: np.ndarray, bandwidth: int) -> float:
    """Newey-West long-run variance with Bartlett weights (divisor T, no demeaning)."""
    e = np.asarray(residuals, dtype=float)
    t = len(e)
    weights = bartlett_weights(bandwidth)
    total = float(e @ e) / t
    for j in range(1, bandwidth + 1):
        total += 2.0 * weights[j] * float(e[j:] @ e[:-j]) / t
    return total


def _deterministics(case: str, t: int) -> np.ndarray:
    if case == "none":
        return np.empty((t, 0))
    if case == "constant":
        return np.ones((t, 1))
    return np.column_stack([np.ones(t), np.arange(1.0, t + 1.0)])


def _df_design(x: np.ndarray, case: str, lags: int):
    """Response dx_t and regressors [x_{t-1}, deterministics, dx lags] for the
    usable sample after losing one difference and ``lags`` lag rows."""
    dx = np.diff(x)
    n = len(x)
    t_eff = n - 1 - lags
    X = np.hstack([x[lags: n - 1][:, None], _deterministics(case, t_eff), lag_matrix(dx, lags)])
    return dx[lags:], X, t_eff


def _fit(X: np.ndarray, y: np.ndarray):
    """OLS fit of a Dickey-Fuller regression, which has no t ratio when exact or
    within rounding of exact (ssr <= (T eps)^2 y'y), where its sign is noise."""
    fit = ols_fit(X, y)
    if fit.ssr <= (len(y) * np.finfo(float).eps) ** 2 * float(y @ y):
        raise DomainError("exact fit: the Dickey-Fuller regression has zero residuals")
    return fit


def _t_ratio_first(X: np.ndarray, y: np.ndarray):
    fit = _fit(X, y)
    cov = _unscaled_covariance(fit)
    se0 = math.sqrt(fit.sigma2 * cov[0, 0])
    return fit, fit.coefficients[0] / se0, se0


def default_max_lags(n: int) -> int:
    """Schwert's rule floor(12 (T/100)^{1/4}), the common auto-selection cap."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def _select_lags(x: np.ndarray, case: str, max_lags: int) -> int:
    """Schwarz-criterion lag choice over 0..max_lags on a common sample."""
    y, widest, t_common = _df_design(x, case, max_lags)
    best_lag, best_sbc = 0, math.inf
    for lag in range(max_lags + 1):
        # the first columns of the widest design are the design with `lag` lags on
        # the common sample; copied so each fit gets a fresh contiguous array
        k = widest.shape[1] - max_lags + lag
        X = widest[:, :k].copy()
        fit = _fit(X, y)
        sbc = math.log(fit.ssr / t_common) + k * math.log(t_common) / t_common
        if sbc < best_sbc:
            best_lag, best_sbc = lag, sbc
    return best_lag


def _finish(kind: str, stat: float, case: str, lags_or_bw: int, t_eff: int) -> UnitRootResult:
    crit = {level: mackinnon_critical(case, level, t_eff) for level in LEVELS}
    decision = "stationary" if stat < crit["5%"] else "unit_root"
    return UnitRootResult(
        test_kind=kind,
        statistic=stat,
        p_value=mackinnon_pvalue(stat, case),
        lags_or_bandwidth=lags_or_bw,
        effective_obs=t_eff,
        critical_values=crit,
        deterministic_case=case,
        decision_5pct=decision,
    )


def adf_test(s, case: str = "constant", lags: int | None = None,
             max_lags: int | None = None) -> UnitRootResult:
    """Augmented Dickey-Fuller test.

    Regresses dx_t on x_{t-1}, the deterministic terms for ``case`` and
    ``lags`` lagged differences; the statistic is the t ratio on x_{t-1}.
    With ``lags=None`` the lag count minimizing the Schwarz criterion over
    0..max_lags is chosen on a common sample, then the final regression is
    re-run on the full usable sample.
    """
    _check_case(case)
    x = _values(s)
    n = len(x)
    if lags is not None and lags < 0:
        raise DomainError("lags must be >= 0")
    if lags is None:
        cap = default_max_lags(n) if max_lags is None else max_lags
        ndet = _deterministics(case, 0).shape[1]
        cap = min(cap, (n - 2 - ndet) // 2 - 1)
        cap = max(cap, 0)
        if n < cap + 10:
            raise TooShort(f"series of length {n} too short for lag search up to {cap}")
        lags = _select_lags(x, case, cap)
    if n < lags + 10:
        raise TooShort(f"series of length {n} too short for {lags} lags")
    y, X, t_eff = _df_design(x, case, lags)
    _, stat, _ = _t_ratio_first(X, y)
    return _finish("adf", stat, case, lags, t_eff)


def pp_test(s, case: str = "constant", bandwidth: int | None = None) -> UnitRootResult:
    """Phillips-Perron test.

    Runs the zero-lag Dickey-Fuller regression, then corrects the t ratio
    nonparametrically with the Bartlett-kernel long-run variance of the
    residuals.  The default bandwidth is floor(4 (T/100)^{2/9}).  With
    bandwidth 0 the correction vanishes and the statistic equals the plain
    Dickey-Fuller t ratio.
    """
    _check_case(case)
    x = _values(s)
    n = len(x)
    if n < 15:
        raise TooShort(f"series of length {n} too short for the Phillips-Perron test")
    y, X, t_eff = _df_design(x, case, 0)
    fit, tau, se_rho = _t_ratio_first(X, y)
    if bandwidth is None:
        bandwidth = int(math.floor(4.0 * (t_eff / 100.0) ** (2.0 / 9.0)))
    if bandwidth < 0:
        raise DomainError("bandwidth must be >= 0")
    e = fit.residuals
    gamma0 = float(e @ e) / t_eff
    lam2 = long_run_variance(e, bandwidth)
    s_reg = math.sqrt(fit.sigma2)
    stat = math.sqrt(gamma0 / lam2) * tau - (lam2 - gamma0) * t_eff * se_rho / (
        2.0 * math.sqrt(lam2) * s_reg
    )
    return _finish("pp", stat, case, bandwidth, t_eff)
