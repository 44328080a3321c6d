import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from longrun.distributions import betainc, chi2_sf, f_sf, gamma_sf, norm_cdf
from longrun.errors import DomainError


def simpson_normal_cdf(z: float, lower: float = -10.0, steps: int = 20000) -> float:
    """Composite-Simpson integral of the standard normal density."""
    xs = np.linspace(lower, z, 2 * steps + 1)
    ys = np.exp(-xs ** 2 / 2.0) / math.sqrt(2 * math.pi)
    h = (z - lower) / (2 * steps)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


class TestChi2:
    def test_jarque_bera_tail_values(self):
        assert chi2_sf(9.912850, 2) == pytest.approx(0.007038, abs=1e-5)
        assert chi2_sf(7.004545, 2) == pytest.approx(0.030129, abs=1e-5)

    @pytest.mark.parametrize("df", [1, 2, 5, 17])
    def test_at_zero(self, df):
        assert chi2_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in np.linspace(0.0, 40.0, 81):
            assert chi2_sf(float(x), 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 3, 10, 50])
    def test_monotone_and_bounded(self, df):
        grid = np.linspace(0.0, 80.0, 161)
        values = [chi2_sf(float(x), df) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("x, df", [(10001.0, 10000), (9800.0, 10000), (5000.0, 5000),
                                       (201.0, 200), (60.0, 50), (0.5, 1), (90.0, 3)])
    def test_against_scipy(self, x, df):
        # near x = df a large shape needs about 8 sqrt(df / 2) terms
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match=r"^chi-square statistic must be non-negative$"):
            chi2_sf(-0.1, 2)
        with pytest.raises(DomainError, match=r"^df must be >= 1$"):
            chi2_sf(1.0, 0)


class TestFDistribution:
    def test_granger_tail_values(self):
        assert f_sf(1.38296, 1, 54) == pytest.approx(0.2448, abs=1e-3)
        assert f_sf(2.35891, 1, 54) == pytest.approx(0.1304, abs=1e-3)

    def test_at_zero(self):
        assert f_sf(0.0, 3, 7) == 1.0

    @pytest.mark.parametrize("d1,d2", [(1, 54), (2, 10), (5, 5), (10, 100)])
    def test_monotone_and_bounded(self, d1, d2):
        grid = np.linspace(0.0, 30.0, 121)
        values = [f_sf(float(x), d1, d2) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_f11_closed_form(self):
        # F(1,1) tail has the closed form 1 - (2/pi) arctan(sqrt(f))
        for f in (0.5, 1.0, 4.0):
            assert f_sf(f, 1, 1) == pytest.approx(1 - 2 / math.pi * math.atan(math.sqrt(f)), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match=r"^F statistic must be non-negative$"):
            f_sf(-1.0, 1, 1)
        for d1, d2 in ((0, 5), (5, 0)):
            with pytest.raises(DomainError, match=r"^degrees of freedom must be >= 1$"):
                f_sf(1.0, d1, d2)


class TestIncompleteGammaAndBeta:
    @pytest.mark.parametrize("a, x, message", [(0.0, 1.0, "shape must be positive"),
                                               (-1.0, 1.0, "shape must be positive"),
                                               (2.0, -1e-300, "x must be non-negative")])
    def test_gamma_sf_domain_errors(self, a, x, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            gamma_sf(a, x)

    @pytest.mark.parametrize("a, b, x, message", [
        (0.0, 1.0, 0.5, "beta parameters must be positive"),
        (1.0, -2.0, 0.5, "beta parameters must be positive"),
        (1.0, 1.0, -1e-300, r"x must lie in \[0, 1\]"),
        (1.0, 1.0, 1.0 + 2e-16, r"x must lie in \[0, 1\]"),
    ])
    def test_betainc_domain_errors(self, a, b, x, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            betainc(a, b, x)

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (2.0, 7.0), (1e4, 0.5)])
    def test_betainc_at_the_ends_of_the_interval(self, a, b):
        assert betainc(a, b, 0.0) == 0.0
        assert betainc(a, b, 1.0) == 1.0


F_D2 = (5, 7, 10, 15, 20, 30, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000)
F_STATS = (*np.linspace(0.01, 5.0, 41), 7.0, 10.0, 20.0, 50.0)
GAMMA_SHAPES = (0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1e3, 3e3, 1e4)


def gamma_grid(a):
    """x over a * [0.01, 3], plus a, a + 1 (where the series hands over to the
    continued fraction) and a + sqrt(a) / 2: near x = a both need the most terms."""
    return (*(a * np.linspace(0.01, 3.0, 61)), a, a + 1.0, a + math.sqrt(a) / 2.0)


def mp_gamma_sf(a, x):
    """Q(a, x) to 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


class TestTailsAgainstOracles:
    """The 1e-10 absolute error the module states, over wide grids against
    scipy and at extreme points against 50-digit mpmath."""

    @pytest.mark.parametrize("d1", [1, 2, 3, 4, 6, 8, 12, 24])
    def test_f_sf_grid_against_scipy(self, d1):
        for d2 in F_D2:
            got = [f_sf(float(x), d1, d2) for x in F_STATS]
            assert got == pytest.approx(stats.f.sf(F_STATS, d1, d2), rel=0.0, abs=1e-10), d2

    @pytest.mark.parametrize("a", GAMMA_SHAPES)
    def test_gamma_sf_grid_against_scipy(self, a):
        xs = gamma_grid(a)
        want = special.gammaincc(a, xs)
        assert [gamma_sf(a, float(x)) for x in xs] == pytest.approx(want, rel=0.0, abs=1e-10)
        # chi2_sf(x, df) is Q(df / 2, x / 2)
        got = [chi2_sf(2.0 * float(x), int(2 * a)) for x in xs]
        assert got == pytest.approx(want, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("a", [1e3, 1e4])
    @pytest.mark.parametrize("rel_x", [0.9, 1.0, 1.1])
    def test_gamma_sf_large_shape_against_mpmath(self, a, rel_x):
        for x in (rel_x * a, rel_x * a + 1.0, rel_x * a + math.sqrt(a) / 2.0):
            assert gamma_sf(a, x) == pytest.approx(mp_gamma_sf(a, x), rel=0.0, abs=1e-10)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the prefactor exp(-x + a log x - lgamma(a)) is formed from "
                              "terms of about 1e6 that cancel, so Q(1e5, 1e5) is 1.9e-10 off")
    def test_gamma_sf_at_shape_1e5_against_mpmath(self):
        assert gamma_sf(1e5, 1e5) == pytest.approx(mp_gamma_sf(1e5, 1e5), rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("a, b, x", [
        (0.5, 0.5, 1e-10),  # the singular ends of the arcsine law
        (5000.0, 2.5, 0.9995),  # F(5, 10000) near its mean
        (1e4, 0.5, 0.9999),  # F(1, 20000): a large shape on the reflected branch
        (0.5, 1e4, 1e-4),  # and the same on the direct branch
    ])
    def test_betainc_extremes_against_mpmath(self, a, b, x):
        with mpmath.workdps(50):
            want = float(mpmath.betainc(a, b, 0, x, regularized=True))
        assert betainc(a, b, x) == pytest.approx(want, rel=0.0, abs=1e-10)


class TestNormCdf:
    def test_center(self):
        assert norm_cdf(0.0) == 0.5

    @pytest.mark.parametrize("z", [-3.0, -1.0, -0.3, 0.7, 2.5])
    def test_symmetry(self, z):
        assert norm_cdf(z) + norm_cdf(-z) == pytest.approx(1.0, abs=1e-15)

    def test_975_quantile_against_quadrature(self):
        assert norm_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert norm_cdf(1.959964) == pytest.approx(simpson_normal_cdf(1.959964), abs=1e-9)

    @pytest.mark.parametrize("z", [-2.0, -0.5, 0.0, 1.0, 3.0])
    def test_against_quadrature(self, z):
        assert norm_cdf(z) == pytest.approx(simpson_normal_cdf(z), abs=1e-9)
