"""Summary statistics, Jarque-Bera normality test, and Pearson correlation.

Moment conventions: skewness and kurtosis use population moments (divisor n)
and kurtosis is reported non-excess, while the reported standard deviation
uses the sample divisor (n - 1).  This is the one pairing under which the
mean/sum, std-dev/sum-of-squared-deviations and Jarque-Bera identities all
hold simultaneously.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_sf
from .errors import ConstantColumn, ConstantSeries, DomainError, TooShort
from .series import Panel, Series


@dataclass(frozen=True, slots=True)
class SummaryStats:
    mean: float
    median: float
    maximum: float
    minimum: float
    std_dev: float
    skewness: float
    kurtosis: float  # non-excess (normal = 3)
    jarque_bera: float
    jb_probability: float
    sum: float
    sum_sq_dev: float
    observations: int


def jarque_bera(skewness: float, kurtosis: float, n: int) -> float:
    """JB = (n/6) (S^2 + (K - 3)^2 / 4), asymptotically chi-square(2)."""
    return (n / 6.0) * (skewness ** 2 + (kurtosis - 3.0) ** 2 / 4.0)


def _median(x: np.ndarray) -> float:
    """``np.median(x)`` for finite ``x``, without its NaN check (which imports numpy.ma).

    Same partition and the same mean of the middle one or two elements as
    np.median, so the result is bit-identical, signed zeros included.
    """
    half = len(x) // 2
    middle = [half] if len(x) % 2 else [half - 1, half]
    part = np.partition(x, middle + [-1])
    return float(np.mean(part[middle[0]:half + 1]))


def _deviations(data: np.ndarray) -> tuple:
    """(mean, z, e) of data along axis 0: z = centered / 2**e has its largest |z| in
    [0.5, 1).  Each power-of-two scaling is exact, and no sum under- or overflows for the
    data's scale alone.  A second centering pass removes the rounding error of the mean
    itself, which otherwise contaminates the odd moments when |mean| >> std."""
    s = np.frexp(np.max(np.abs(data), axis=0))[1]
    scaled = np.ldexp(data, -s)
    mean = scaled.mean(axis=0)
    centered = scaled - mean
    centered = centered - centered.mean(axis=0)
    e = np.frexp(np.max(np.abs(centered), axis=0))[1]
    return np.ldexp(mean, s), np.ldexp(centered, -e), e + s


def summarize(s: Series) -> SummaryStats:
    """Full descriptive-statistics block for one monthly series."""
    x = np.asarray(s.values, dtype=float)
    n = len(x)
    if n < 4:
        raise TooShort("need at least 4 observations for kurtosis")
    mean, z, e = _deviations(x)
    m2 = float(np.mean(z ** 2))
    if m2 == 0.0:
        raise ConstantSeries(f"series {s.name!r} is constant")
    m3 = float(np.mean(z ** 3))
    m4 = float(np.mean(z ** 4))
    skew = m3 / m2 ** 1.5
    kurt = m4 / m2 ** 2
    jb = jarque_bera(skew, kurt, n)
    zz = float(z @ z)
    if not sys.float_info.min_exp <= math.frexp(zz)[1] + 2 * e <= sys.float_info.max_exp:
        raise DomainError(f"Sum Sq. Dev. of series {s.name!r} leaves the normal float range")
    return SummaryStats(
        mean=float(mean),
        median=_median(x),
        maximum=float(np.max(x)),
        minimum=float(np.min(x)),
        std_dev=float(np.ldexp(math.sqrt(zz / (n - 1)), e)),
        skewness=skew,
        kurtosis=kurt,
        jarque_bera=jb,
        jb_probability=chi2_sf(jb, 2),
        sum=float(np.sum(x)),
        sum_sq_dev=float(np.ldexp(zz, 2 * e)),
        observations=n,
    )


def correlation(p: Panel) -> np.ndarray:
    """Pearson correlation matrix of the panel columns.

    Exactly symmetric with a unit diagonal by construction.
    """
    data = p.data
    if len(p) < 3:
        raise TooShort("need at least 3 observations for a correlation")
    _, centered, _ = _deviations(data)
    norms = np.sqrt(np.sum(centered ** 2, axis=0))
    for j, nrm in enumerate(norms):
        if nrm == 0.0:
            raise ConstantColumn(f"column {p.labels[j]!r} is constant")
    m = p.m
    corr = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            r = float(centered[:, i] @ centered[:, j]) / (norms[i] * norms[j])
            corr[i, j] = r
            corr[j, i] = r
    return corr
