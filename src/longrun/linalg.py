"""Least squares, canonical correlations and log-determinants.

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

# Householder QR gives the exact R of some X + E, ||E||_2 <= c T k^1.5 u ||X||_2
# (Higham, Accuracy and Stability of Numerical Algorithms, Thm 19.4), and by Weyl
# the singular values of X and R differ by at most ||E||_2.  So an R ratio above
# this margin puts X's above RANK_RTOL unless c T k^1.5 u nears 1e-8, that is unless
# T k^1.5 nears 1e8 / c (it is 3e5 at T = 2000, k = 28): such an R certifies X's
# rank without the SVD of X.
RANK_CERTIFY_RTOL = 1e-8


@dataclass(frozen=True)
class OlsFit:
    """Result of an ordinary least-squares fit.

    Attributes
    ----------
    coefficients : (k,) array
    residuals : (T,) array, y - X @ coefficients
    ssr : float, sum of squared residuals
    sigma2 : float, ssr / (T - k)
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    ssr: float
    sigma2: float
    # the R factor of X = QR, kept for the coefficient covariance
    _r: np.ndarray = field(default=None, repr=False, compare=False)


def _factor(X, y):
    """Check a least-squares problem and factor its design once.

    ``y`` is one response (1-D) or a T x r block of responses sharing X.
    Returns float arrays X and y and the reduced QR factors Q, R of X.
    Requires T > k and a full-column-rank X (relative singular-value
    threshold 1e-12); raises DimensionMismatch, DomainError, TooShort or
    RankDeficient.  The SVD of X runs only when R cannot certify the rank.
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
    Q, R = np.linalg.qr(X)
    sv = np.linalg.svd(R, compute_uv=False)
    if not sv[-1] > RANK_CERTIFY_RTOL * sv[0]:
        sv = np.linalg.svd(X, compute_uv=False)
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        if ratio <= RANK_RTOL:
            raise RankDeficient(f"design matrix is numerically singular (sv ratio {ratio:.2e})")
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
    return OlsFit(beta, resid, ssr, ssr / (T - k), R)


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


def canonical_correlations(r0, r1) -> tuple:
    """Squared canonical correlations between the column spaces of two T-row
    blocks, as the squared singular values of Q0'Q1 (Bjorck & Golub 1973).

    r0 = Q0 R0 and r1 = Q1 R1 are factored by _factor, so both blocks get its
    finiteness and rank checks.  With S_ij = r_i' r_j / T these solve
    lambda S11 v = S10 S00^-1 S01 v without forming any S_ij, so the
    conditioning of r1 is never squared.  Returns (the correlations descending
    and clipped to [0, 1], the matrix sqrt(T) R1^-1 W whose columns v match
    them and satisfy v' S11 v = I, with W the right singular vectors).
    """
    _, _, Q0, _ = _factor(r0, r1)
    _, _, Q1, R1 = _factor(r1, r0)
    _, s, Wt = np.linalg.svd(Q0.T @ Q1, full_matrices=False)
    return np.minimum(s * s, 1.0), math.sqrt(Q1.shape[0]) * np.linalg.solve(R1, Wt.T)


def log_det(M) -> float:
    """ln det M for symmetric positive definite M, via Cholesky.

    Symmetric means within 1e-10 of max(1, max |M|); a non-finite entry is a
    DomainError.  Never forms the raw determinant, so it stays accurate when
    det M would overflow or underflow.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch("M must be square")
    if not np.isfinite(M).all():
        raise DomainError("non-finite value in M")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise NotPositiveDefinite("M is not symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("M is not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.diag(L))))
