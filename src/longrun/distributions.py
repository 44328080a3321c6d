"""Tail probabilities for the chi-square, F and normal distributions.

The incomplete gamma and beta functions are evaluated with the classic
series-plus-continued-fraction scheme (Press et al., Numerical Recipes,
ch. 6): the series converges fast for small arguments, the Lentz continued
fraction everywhere else.  Target absolute error is 1e-10, comfortably
tighter than any p-value comparison made downstream.
"""

from __future__ import annotations

import math

from .errors import DomainError

_TOL = 1e-15
_TINY = 1e-300


def _max_iter(a: float) -> int:
    """Iteration cap for a series or continued fraction with shape a.  Near
    x = a both need about 8 sqrt(a) terms to reach _TOL once a is large."""
    return 400 + int(10.0 * math.sqrt(a))


def _gamma_series(a: float, x: float) -> float:
    """P(a, x) by power series (0 < x < a + 1), without gamma_sf's prefactor."""
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_max_iter(a)):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _TOL:
            break
    return total


def _nonzero(v: float) -> float:
    """``v``, or _TINY when |v| < _TINY, so no Lentz denominator is zero."""
    return _TINY if abs(v) < _TINY else v


def _lentz_step(an: float, bn: float, c: float, d: float) -> tuple:
    """One modified-Lentz step through the term an/(bn + ...): the new c and d
    and their product, the factor that updates the convergent."""
    d = 1.0 / _nonzero(bn + an * d)
    c = _nonzero(bn + an / c)
    return c, d, d * c


def _gamma_cf(a: float, x: float) -> float:
    """Q(a, x) by continued fraction (x >= a + 1), without gamma_sf's prefactor."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _max_iter(a) + 1):
        b += 2.0
        c, d, delta = _lentz_step(-i * (i - a), b, c, d)
        h *= delta
        if abs(delta - 1.0) < _TOL:
            break
    return h


def gamma_sf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = P(X > x) for X ~ Gamma(a, 1)."""
    if a <= 0.0:
        raise DomainError("shape must be positive")
    if x < 0.0:
        raise DomainError("x must be non-negative")
    if x == 0.0:
        return 1.0
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    if x < a + 1.0:
        return 1.0 - front * _gamma_series(a, x)
    return front * _gamma_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _nonzero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _max_iter(qab) + 1):
        m2 = 2 * m
        c, d, delta = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), 1.0, c, d)
        h *= delta
        c, d, delta = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), 1.0, c, d)
        h *= delta
        if abs(delta - 1.0) < _TOL:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError("beta parameters must be positive")
    if x < 0.0 or x > 1.0:
        raise DomainError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    # The continued fraction converges fast only for x below the mean a/(a+b);
    # use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X > x) for X ~ chi-square(df)."""
    if df < 1:
        raise DomainError("df must be >= 1")
    if x < 0.0:
        raise DomainError("chi-square statistic must be non-negative")
    return gamma_sf(df / 2.0, x / 2.0)


def f_sf(f: float, d1: int, d2: int) -> float:
    """Upper-tail probability P(X > f) for X ~ F(d1, d2)."""
    if d1 < 1 or d2 < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if f < 0.0:
        raise DomainError("F statistic must be non-negative")
    return betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f))


def norm_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
