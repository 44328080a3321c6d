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
from .errors import DimensionMismatch, DomainError, TooShort, UnsupportedCase
from .linalg import _prefix_ssrs, _t_ratio_first
from .series import _lag_design, _values

CASES = ("none", "constant", "constant_trend")
LEVELS = ("1%", "5%", "10%")

# MacKinnon (1991) critical-value response surface coefficients, one-variable
# Dickey-Fuller t distribution: c(T) = b_inf + b1/T + b2/T^2, for T >= _MIN_OBS.
_MIN_OBS = 20
_DF_REGRESSION = "the Dickey-Fuller regression"  # names it in an exact-fit refusal
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


@dataclass(frozen=True, slots=True)
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


def _unit_root_values(s, case: str) -> np.ndarray:
    """The values of ``s``, after UnsupportedCase for ``case`` and DimensionMismatch unless 1-D."""
    _check_case(case)
    x = _values(s)
    if x.ndim != 1:
        raise DimensionMismatch(f"a unit-root test needs 1-D values, got {x.ndim}-D")
    return x


def _critical_values(case: str, t_eff: int) -> dict:
    """Critical values by level at t_eff observations; TooShort below _MIN_OBS."""
    if t_eff < _MIN_OBS:
        raise TooShort(f"critical-value surface needs an effective sample of at least {_MIN_OBS}")
    t = float(t_eff)
    return {level: b0 + b1 / t + b2 / t ** 2 for level, (b0, b1, b2) in _CRIT_SURFACE[case].items()}


def mackinnon_critical(case: str, level: str, effective_obs: int) -> float:
    """Finite-sample Dickey-Fuller critical value for the given case and level."""
    _check_case(case)
    if level not in LEVELS:
        raise UnsupportedCase(f"level must be one of {LEVELS}, got {level!r}")
    return _critical_values(case, effective_obs)[level]


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
    return norm_cdf(z)


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


def _df_design(x: np.ndarray, case: str, lags: int):
    """Response dx_t and regressors [x_{t-1}, deterministics, dx lags], for the usable sample
    after losing one difference and ``lags`` lag rows."""
    y, X = _lag_design(np.diff(x), lags, terms=CASES.index(case))
    return y, np.hstack([x[lags:-1, None], X])


def default_max_lags(n: int) -> int:
    """Schwert's rule floor(12 (T/100)^{1/4}), the common auto-selection cap."""
    return int(math.floor(12.0 * (n / 100.0) ** 0.25))


def _select_lags(x: np.ndarray, case: str) -> int:
    """SBC lag choice, the first minimum on ties, among lags whose final fit keeps _MIN_OBS rows
    (TooShort if none does), on the common sample of the cap: Schwert's rule, lowered so the
    widest design keeps more rows than columns.  linalg._prefix_ssrs scores each lag's design, a
    column prefix of the widest, by its SSR, and builds the widest itself so it can free it."""
    n, base = len(x), 1 + CASES.index(case)
    _critical_values(case, n - 1)  # the 20-observation floor, checked before any fit
    cap = min(default_max_lags(n), (n - 1 - base) // 2 - 1)
    top, t_common = min(cap, n - 1 - _MIN_OBS), n - 1 - cap
    ssrs = _prefix_ssrs(lambda: _df_design(x[cap - top:], case, top), base, _DF_REGRESSION)
    sbcs = [math.log(ssr / t_common) + (base + lag) * math.log(t_common) / t_common
            for lag, ssr in enumerate(ssrs)]
    return sbcs.index(min(sbcs))


def _finish(kind: str, stat: float, case: str, lags_or_bw: int, t_eff: int,
            crit: dict) -> UnitRootResult:
    decision = "stationary" if stat < crit["5%"] else "unit_root"
    return UnitRootResult(
        test_kind=kind,
        statistic=float(stat),
        p_value=mackinnon_pvalue(stat, case),
        lags_or_bandwidth=lags_or_bw,
        effective_obs=t_eff,
        critical_values=crit,
        deterministic_case=case,
        decision_5pct=decision,
    )


def adf_test(s, case: str = "constant", lags: int | None = None) -> UnitRootResult:
    """Augmented Dickey-Fuller test.

    Regresses dx_t on x_{t-1}, the deterministic terms for ``case`` and
    ``lags`` lagged differences; the statistic is the t ratio on x_{t-1}.
    With ``lags=None`` the Schwarz criterion picks, on the common sample of the lag
    cap (``default_max_lags(n)``, lowered for short series), among the lags whose final
    regression keeps 20 observations; that regression is then re-run on the full usable sample.
    """
    x = _unit_root_values(s, case)
    if lags is not None and lags < 0:
        raise DomainError("lags must be >= 0")
    if lags is None:
        lags = _select_lags(x, case)
    crit = _critical_values(case, len(x) - 1 - lags)
    y, X = _df_design(x, case, lags)
    _, stat, _ = _t_ratio_first(X, y, _DF_REGRESSION)
    return _finish("adf", stat, case, lags, len(y), crit)


def pp_test(s, case: str = "constant", bandwidth: int | None = None) -> UnitRootResult:
    """Phillips-Perron test.

    Runs the zero-lag Dickey-Fuller regression, then corrects the t ratio
    nonparametrically with the Bartlett-kernel long-run variance of the
    residuals.  The default bandwidth is floor(4 (T/100)^{2/9}).  With
    bandwidth 0 the correction vanishes and the statistic equals the plain
    Dickey-Fuller t ratio.
    """
    x = _unit_root_values(s, case)
    n = len(x)
    crit = _critical_values(case, n - 1)
    if bandwidth is None:
        bandwidth = int(math.floor(4.0 * ((n - 1) / 100.0) ** (2.0 / 9.0)))
    if bandwidth < 0:
        raise DomainError("bandwidth must be >= 0")
    y, X = _df_design(x, case, 0)
    t_eff = len(y)
    fit, tau, se_rho = _t_ratio_first(X, y, _DF_REGRESSION)
    gamma0 = fit.ssr / t_eff
    lam2 = long_run_variance(fit.residuals, bandwidth)
    s_reg = math.sqrt(fit.sigma2)
    stat = math.sqrt(gamma0 / lam2) * tau - (lam2 - gamma0) * t_eff * se_rho / (
        2.0 * math.sqrt(lam2) * s_reg
    )
    return _finish("pp", stat, case, bandwidth, t_eff, crit)
