"""Johansen maximum-likelihood cointegration rank test.

Implements the reduced-rank regression of Johansen (1991): residuals of the
differenced system and of the lagged levels on the short-run terms give the
moment matrices S_ij, and the squared canonical correlations solve
lambda S11 v = S10 S00^-1 S01 v.  The statistics are the standard
trace(r) = -T sum_{j>r} ln(1 - lambda_j) and max-eigen(r) = -T ln(1 - l_{r+1}).

Five-percent critical values are the MacKinnon-Haug-Michelis (1999)
asymptotic quantiles for the unrestricted-intercept, no-trend case; the
approximate p-values use a two-parameter gamma fitted to the published
90%/95% quantiles of each asymptotic distribution (exact chi-square(1) in
the one-dimensional case).  Decisions are driven by the critical values,
never by the approximate p-values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import gamma_sf
from .errors import DomainError, NotPositiveDefinite, TooShort, UnsupportedCase
from .linalg import residuals_of, solve_generalized_eig
from .series import Panel, lag_matrix

CASE_CONSTANT = "constant"

# MacKinnon-Haug-Michelis (1999) 5% asymptotic quantiles, unrestricted
# intercept / no trend, indexed by m - r = 1..6.
TRACE_CRIT_5PCT = (3.841466, 15.49471, 29.79707, 47.85613, 69.81889, 95.75366)
MAXEIG_CRIT_5PCT = (3.841466, 14.26460, 21.13162, 27.58434, 33.87687, 40.07757)

# Statistic kind -> (5% critical values, Gamma(shape, scale) fits), both indexed
# by m - r.  Each gamma is fitted to the 90%/95% quantiles of its asymptotic
# distribution (m - r = 1 is exactly chi-square(1) = Gamma(0.5, 2)).
_TABLES = {
    "trace": (TRACE_CRIT_5PCT, (
        (0.5, 2.0),
        (4.4002416593, 1.8624180380),
        (11.0320385426, 1.7524757474),
        (20.4286586758, 1.6858010267),
        (32.3477330376, 1.6530669445),
        (46.6576015252, 1.6387240800),
    )),
    "max_eigen": (MAXEIG_CRIT_5PCT, (
        (0.5, 2.0),
        (4.0328243217, 1.8287011590),
        (7.7833179128, 1.6423010791),
        (11.7278783651, 1.5437181811),
        (16.1028323020, 1.4589101095),
        (20.7210830574, 1.3948037196),
    )),
}

NO_COINTEGRATION = "No Co Integration"


@dataclass(frozen=True)
class JohansenResult:
    eigenvalues: np.ndarray  # descending, in [0, 1)
    eigenvectors: np.ndarray  # column j pairs with eigenvalues[j]
    trace_stats: np.ndarray  # indexed by hypothesized rank r = 0..m-1
    max_eigen_stats: np.ndarray
    trace_crit_5pct: np.ndarray
    max_eigen_crit_5pct: np.ndarray
    trace_pvalues: np.ndarray
    max_eigen_pvalues: np.ndarray
    effective_obs: int
    lagged_diffs: int
    deterministic_case: str
    decided_rank: int


def _tables(statistic_kind: str) -> tuple:
    if statistic_kind not in _TABLES:
        raise UnsupportedCase(
            f"statistic_kind must be 'trace' or 'max_eigen', got {statistic_kind!r}")
    return _TABLES[statistic_kind]


def johansen_critical(case: str, m_minus_r: int, statistic_kind: str) -> float:
    """Embedded 5% critical value for the given dimension and statistic."""
    if case != CASE_CONSTANT:
        raise UnsupportedCase(
            f"only the unrestricted-intercept case {CASE_CONSTANT!r} has embedded tables"
        )
    if not 1 <= m_minus_r <= 6:
        raise UnsupportedCase("critical values cover m - r in 1..6")
    return _tables(statistic_kind)[0][m_minus_r - 1]


def approx_pvalue(statistic_kind: str, m_minus_r: int, statistic: float) -> float:
    """Gamma-approximation tail probability for an asymptotic statistic."""
    if not 1 <= m_minus_r <= 6:
        raise UnsupportedCase("p-value approximation covers m - r in 1..6")
    shape, scale = _tables(statistic_kind)[1][m_minus_r - 1]
    if statistic <= 0.0:
        return 1.0
    return gamma_sf(shape, statistic / scale)


def trace_statistics(eigenvalues, effective_obs: int) -> np.ndarray:
    """trace(r) = -T sum_{j > r} ln(1 - lambda_j) for r = 0..m-1."""
    lam = np.asarray(eigenvalues, dtype=float)
    logs = np.log1p(-lam)
    return np.array([-effective_obs * logs[r:].sum() for r in range(len(lam))])


def max_eigen_statistics(eigenvalues, effective_obs: int) -> np.ndarray:
    """max-eigen(r) = -T ln(1 - lambda_{r+1}) for r = 0..m-1."""
    lam = np.asarray(eigenvalues, dtype=float)
    return -effective_obs * np.log1p(-lam)


def _trace_rank(trace, crit) -> int:
    """Sequential trace decision: the first r whose trace(r) falls below its
    critical value, or m when every hypothesis is rejected."""
    for r in range(len(trace)):
        if trace[r] < crit[r]:
            return r
    return len(trace)


def johansen_test(panel: Panel, lagged_diffs: int = 1) -> JohansenResult:
    """Run the Johansen rank test on a panel of integrated series.

    ``lagged_diffs`` is k - 1 for an underlying VAR(k) in levels; the
    effective sample is T = panel length - lagged_diffs - 1.
    """
    if lagged_diffs < 0:
        raise DomainError("lagged_diffs must be >= 0")
    data = panel.data
    n, m = data.shape
    k = lagged_diffs
    t_eff = n - k - 1
    # Short-run regressors: intercept plus k lags of the differences, leaving
    # the residual moment matrices at least 2m + 8 degrees of freedom.
    if t_eff - (1 + m * k) < 2 * m + 8:
        raise TooShort(f"panel of length {n} too short for {k} lagged differences")
    dx = np.diff(data, axis=0)
    Z = np.hstack([np.ones((t_eff, 1)), lag_matrix(dx, k)])
    r0 = residuals_of(dx[k:], Z)
    r1 = residuals_of(data[k: n - 1], Z)
    s00 = r0.T @ r0 / t_eff
    s11 = r1.T @ r1 / t_eff
    s01 = r0.T @ r1 / t_eff
    try:
        s00_inv_s01 = np.linalg.solve(s00, s01)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("S00 is singular") from exc
    A = s01.T @ s00_inv_s01
    A = 0.5 * (A + A.T)
    eigenvalues, eigenvectors = solve_generalized_eig(A, s11)
    # Squared canonical correlations lie in [0, 1).  These are the eigenvalues of
    # a symmetric matrix of norm below 1 built from sums of t_eff products, so
    # rounding moves them by a few m * t_eff * eps at most, and a negative within
    # that is a zero.  Further out, S11 is too near singular to trust.
    if not -m * t_eff * np.finfo(float).eps <= eigenvalues[-1] <= eigenvalues[0] < 1.0:
        raise NotPositiveDefinite(f"eigenvalues {eigenvalues} leave [0, 1): S11 is near singular")
    eigenvalues = np.maximum(eigenvalues, 0.0)
    trace = trace_statistics(eigenvalues, t_eff)
    max_eigen = max_eigen_statistics(eigenvalues, t_eff)
    trace_crit = np.array([johansen_critical(CASE_CONSTANT, m - r, "trace") for r in range(m)])
    maxeig_crit = np.array([johansen_critical(CASE_CONSTANT, m - r, "max_eigen") for r in range(m)])
    trace_p = np.array([approx_pvalue("trace", m - r, trace[r]) for r in range(m)])
    maxeig_p = np.array([approx_pvalue("max_eigen", m - r, max_eigen[r]) for r in range(m)])
    return JohansenResult(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        trace_stats=trace,
        max_eigen_stats=max_eigen,
        trace_crit_5pct=trace_crit,
        max_eigen_crit_5pct=maxeig_crit,
        trace_pvalues=trace_p,
        max_eigen_pvalues=maxeig_p,
        effective_obs=t_eff,
        lagged_diffs=k,
        deterministic_case=CASE_CONSTANT,
        decided_rank=_trace_rank(trace, trace_crit),
    )


def rank_decision(result: JohansenResult) -> tuple:
    """Sequential trace decision: (rank, remark).

    The rank is the result's ``decided_rank`` (tests r = 0 upward and stops
    at the first non-rejection); rank 0 carries the remark "No Co Integration".
    """
    m = len(result.trace_stats)
    rank = result.decided_rank
    if rank == 0:
        return 0, NO_COINTEGRATION
    if rank == m:
        return m, f"{m} co-integrating relation(s) (full rank) at the 0.05 level"
    return rank, f"{rank} co-integrating relation(s) at the 0.05 level"
