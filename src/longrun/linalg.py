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

from .errors import (DimensionMismatch, DomainError, LongrunError, NotPositiveDefinite,
                     RankDeficient, TooShort)

# Columns whose smallest/largest singular value ratio is at most this are
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
    # the R factor of X = QR, kept for the standard error in _t_ratio_first
    _r: np.ndarray = field(default=None, repr=False, compare=False)


def _checked(X, y):
    """Float X and y (1-D, or T x r responses sharing X), finite and with T > k >= 1; raises
    DimensionMismatch, DomainError or TooShort."""
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
    return X, y


def _certify(R, X):
    """RankDeficient unless X has full column rank (singular-value ratio above 1e-12), judged
    from any Householder R of X; the SVD of X runs only when R cannot certify the rank."""
    sv = np.linalg.svd(R, compute_uv=False)
    if not sv[-1] > RANK_CERTIFY_RTOL * sv[0]:
        sv = np.linalg.svd(X, compute_uv=False)
        ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
        if ratio <= RANK_RTOL:
            raise RankDeficient(f"design matrix is numerically singular (sv ratio {ratio:.2e})")


def _factor(X, y):
    """The _checked X and y and the reduced QR factors Q, R of X, with X's rank certified."""
    X, y = _checked(X, y)
    Q, R = np.linalg.qr(X)
    _certify(R, X)
    return X, y, Q, R


def _corner_ssr(X, y) -> float:
    """The SSR of y on X, both _checked, from one Q-free QR of [X y] that also certifies X's rank
    (_raw_corner)."""
    X, y = _checked(X, y)
    return _raw_corner(np.column_stack([X, y]), X)


def _raw_corner(Xy, X=None) -> float:
    """The SSR of y on X, the squared corner of the R of Xy = [X y] (Golub & Van Loan, 5.3), from
    one Q-free QR; given X, X's rank is certified from the same R.  The corner times itself is
    inf past the float range, where ``** 2`` raises OverflowError."""
    k = Xy.shape[1] - 1
    H = np.linalg.qr(Xy, mode="raw")[0].T
    if X is not None:
        _certify(np.triu(H[:k, :k]), X)  # raw keeps the Householder vectors below the diagonal
    corner = float(H[k, k])
    return corner * corner


def ols_fit(X, y) -> OlsFit:
    """Fit y = X b by least squares on the QR factors of a design checked by _factor."""
    if np.ndim(y) != 1:
        raise DimensionMismatch("X must be 2-D and y 1-D")
    X, y, Q, R = _factor(X, y)
    T, k = X.shape
    beta = np.linalg.solve(R, Q.T @ y)
    resid = y - X @ beta
    with np.errstate(over="ignore"):  # an SSR past the float range is _refuse_exact_fit's error
        ssr = float(resid @ resid)
    return OlsFit(beta, resid, ssr, ssr / (T - k), R)


def _refuse_exact_fit(ssr: float, y: np.ndarray, what: str) -> float:
    """The SSR of a fit of y, or DomainError naming ``what`` when the SSR overflowed to inf or
    the fit is exact or within rounding of exact, ssr <= (T eps)^2 y'y, where its residuals and
    any statistic on them are noise.  Below the normal float range that floor, and an SSR under
    it, have lost their digits, so there a nonzero y is refused as an underflow instead."""
    if ssr == math.inf:
        raise DomainError(f"overflow: {what} has a sum of squared residuals past the float range")
    floor = (len(y) * np.finfo(float).eps) ** 2 * float(y @ y)
    if ssr <= floor:
        if floor < np.finfo(float).tiny and y.any():
            raise DomainError(f"underflow: {what} has sums of squares below the float range")
        raise DomainError(f"exact fit: {what} has zero residuals")
    return ssr


def _prefix_ssrs(design, first: int, what: str) -> list:
    """The SSR of y on each column prefix X[:, :k], k = first..K, in order, each judged by
    _refuse_exact_fit (``what`` names the regression); ``design()`` builds (y, X).  X and y are
    laid out once, as one column-major [X y], and the built X, referenced only here, is freed
    before the first QR; going down from k = K, y overwrites column k, so each [X_k y] is a
    contiguous prefix of that buffer, which qr copies as one block and LAPACK factors as it would
    a stack.  By interlacing no prefix has a worse sv ratio than X, so X alone is checked, by the
    QR that scores k = K; if it fails, every prefix is checked and scored by _corner_ssr, in
    order, so the first to fail either rule raises."""
    y, X = design()
    K = X.shape[1]
    try:
        X, y = _checked(X, y)
        Xy = np.empty((len(y), K + 1), order="F")
        Xy[:, :K], Xy[:, K] = X, y
        X = Xy[:, :K]  # the built design's last reference
        ssrs = [_raw_corner(Xy, X)]
    except LongrunError:
        ssrs = None
    if ssrs is None:  # outside the except, so the error raised is not chained to X's
        return [_refuse_exact_fit(_corner_ssr(X[:, :k], y), y, what) for k in range(first, K + 1)]
    for k in range(K - 1, first - 1, -1):
        Xy[:, k] = y
        ssrs.append(_raw_corner(Xy[:, :k + 1]))
    return [_refuse_exact_fit(ssr, y, what) for ssr in reversed(ssrs)]


def _t_ratio_first(X, y, what: str) -> tuple:
    """(fit of y on X, t ratio of its first coefficient, that coefficient's standard error) from
    the fit's R, (X'X)^-1 = R^-1 R^-T; an exact fit has none (_refuse_exact_fit names ``what``)."""
    fit = ols_fit(X, y)
    _refuse_exact_fit(fit.ssr, y, what)
    r_inv = np.linalg.solve(fit._r, np.eye(len(fit._r)))
    se0 = math.sqrt(fit.sigma2 * (r_inv @ r_inv.T)[0, 0])
    return fit, fit.coefficients[0] / se0, se0


def _residual_covariance(X, Y) -> np.ndarray:
    """E'E / T, E the residuals of each column of the T x m block Y on X, factored once by _factor;
    each column is solved on its own (one Q'Y over all columns would sum in another order).
    DomainError when an entry is past the float range, or the variance of a nonzero residual
    column is below its normal range, where it has lost its digits."""
    X, Y, Q, R = _factor(X, Y)
    E = np.empty_like(Y)
    for i in range(Y.shape[1]):
        E[:, i] = Y[:, i] - X @ np.linalg.solve(R, Q.T @ Y[:, i])
    with np.errstate(over="ignore"):  # an entry past the float range is the DomainError below
        S = E.T @ E / X.shape[0]
    if not np.isfinite(S).all():
        raise DomainError("overflow: the residual covariance has an entry past the float range")
    if (np.diag(S) < np.finfo(float).tiny)[E.any(axis=0)].any():
        raise DomainError("underflow: the residual covariance has a variance below the float "
                          "range")
    return S


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
