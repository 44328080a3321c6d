"""Least squares and small symmetric eigenproblems.

Everything downstream (unit-root regressions, VAR equations, the reduced-rank
cointegration step) funnels through these few routines.  Least squares is
solved through a QR factorization rather than the normal equations: price
levels around 5e4 make X'X badly scaled, while QR works on X directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, RankDeficient, TooShort

# Columns whose smallest/largest singular value ratio falls below this are
# treated as numerically dependent.
RANK_RTOL = 1e-12

LN_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class OlsFit:
    """Result of an ordinary least-squares fit.

    Attributes
    ----------
    coefficients : (k,) array
    residuals : (T,) array, y - X @ coefficients
    ssr : float, sum of squared residuals
    sigma2 : float, ssr / (T - k)
    df_resid : int, T - k
    loglik : float, Gaussian log-likelihood -(T/2) (1 + ln 2pi + ln(ssr/T));
        +inf for an exact fit (ssr == 0)
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: float
    sigma2: float
    df_resid: int
    loglik: float
    # the R factor of X = QR, kept for the coefficient covariance
    _r: np.ndarray = field(default=None, repr=False, compare=False)


def _factor(X, y):
    """Check a least-squares problem and factor its design once.

    ``y`` is one response (1-D) or a T x r block of responses sharing X.
    Returns float arrays X and y and the reduced QR factors Q, R of X.
    Requires T > k and a full-column-rank X (relative singular-value
    threshold 1e-12); raises DimensionMismatch, DomainError, TooShort or
    RankDeficient.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim not in (1, 2):
        raise DimensionMismatch("X must be 2-D and y 1-D")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DomainError("non-finite values in regression inputs")
    T, k = X.shape
    if k < 1:
        raise DimensionMismatch("X needs at least one column")
    if T <= k:
        raise TooShort(f"need more observations ({T}) than regressors ({k})")
    sv = np.linalg.svd(X, compute_uv=False)
    ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
    if ratio <= RANK_RTOL:
        raise RankDeficient(f"design matrix is numerically singular (sv ratio {ratio:.2e})")
    Q, R = np.linalg.qr(X)
    return X, y, Q, R


def _solve(X, y, Q, R):
    """Coefficients and residuals of one response y from the QR factors of X."""
    beta = np.linalg.solve(R, Q.T @ y)
    return beta, y - X @ beta


def ols_fit(X, y) -> OlsFit:
    """Fit y = X b by least squares on the QR factors of a design checked by _factor."""
    if np.ndim(y) != 1:
        raise DimensionMismatch("X must be 2-D and y 1-D")
    X, y, Q, R = _factor(X, y)
    T, k = X.shape
    beta, resid = _solve(X, y, Q, R)
    ssr = float(resid @ resid)
    df = T - k
    sigma2 = ssr / df
    loglik = math.inf if ssr <= 0.0 else -(T / 2.0) * (1.0 + LN_2PI + math.log(ssr / T))
    return OlsFit(beta, resid, ssr, sigma2, df, loglik, R)


def _unscaled_covariance(fit: OlsFit) -> np.ndarray:
    """(X'X)^-1 from the fit's R factor (multiply by sigma2 for the OLS
    coefficient covariance)."""
    r_inv = np.linalg.solve(fit._r, np.eye(fit._r.shape[0]))
    return r_inv @ r_inv.T


def residuals_of(Y, Z) -> np.ndarray:
    """Residuals of each column of the T x n block Y regressed on the columns
    of the T x k design Z, checked and factored by _factor."""
    _, Y, Q, _ = _factor(Z, Y)
    return Y - Q @ (Q.T @ Y)


def _cholesky(M, name: str) -> np.ndarray:
    """Lower Cholesky factor of the symmetric positive definite matrix M, which
    errors call ``name``; symmetric means within 1e-10 of max(1, max |M|)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{name} must be square")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise NotPositiveDefinite(f"{name} is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"{name} is not positive definite") from exc


def solve_generalized_eig(A, B):
    """Solve A v = lambda B v for symmetric PSD A and symmetric PD B.

    Reduced to a standard symmetric problem through the Cholesky factor of B,
    which keeps every intermediate real and symmetric.  Returns (eigenvalues
    sorted descending, eigenvector matrix with matching columns).  Raises
    NotPositiveDefinite if B is not symmetric or has no Cholesky factorization.
    """
    A = np.asarray(A, dtype=float)
    L = _cholesky(B, "B")
    if A.shape != L.shape:
        raise DimensionMismatch("A and B must be square with equal shapes")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-10 * scale:
        raise DomainError("A is not symmetric within tolerance")
    # C = L^-1 A L^-T via two triangular solves, then symmetrize roundoff away.
    Y = np.linalg.solve(L, A)
    C = np.linalg.solve(L, Y.T).T
    C = 0.5 * (C + C.T)
    w, V = np.linalg.eigh(C)
    U = np.linalg.solve(L.T, V)
    order = np.argsort(w)[::-1]
    return w[order], U[:, order]


def log_det(M) -> float:
    """ln det M for symmetric positive definite M, via Cholesky.

    Never forms the raw determinant, so it stays accurate when det M would
    overflow or underflow.
    """
    return float(2.0 * np.sum(np.log(np.diag(_cholesky(M, "M")))))
