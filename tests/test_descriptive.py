import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from longrun.descriptive import SummaryStats, correlation, jarque_bera, summarize
from longrun.distributions import chi2_sf
from longrun.errors import ConstantColumn, ConstantSeries, DomainError, TooShort
from longrun.series import Panel, Series
from longrun.synth import ProcessSpec, Rng, generate

from conftest import make_panel, make_series


class TestJarqueBera:
    def test_gold_row(self):
        jb = jarque_bera(-1.010310, 3.137694, 58)
        assert jb == pytest.approx(9.9128, abs=5e-4)
        assert chi2_sf(jb, 2) == pytest.approx(0.007038, abs=1e-5)

    def test_index_row(self):
        jb = jarque_bera(0.598399, 1.789171, 58)
        assert jb == pytest.approx(7.0045, abs=5e-4)
        assert chi2_sf(jb, 2) == pytest.approx(0.030129, abs=1e-5)


class TestSummarize:
    def test_symmetric_series(self):
        stats = summarize(make_series([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert stats.skewness == pytest.approx(0.0, abs=1e-12)
        assert stats.median == 3.0
        assert stats.mean == 3.0
        assert stats.maximum == 5.0
        assert stats.minimum == 1.0
        assert stats.observations == 5

    def test_even_length_median_is_midpoint(self):
        stats = summarize(make_series([1.0, 2.0, 10.0, 20.0]))
        assert stats.median == pytest.approx(6.0)

    def test_sum_sq_dev_matches_sample_variance(self):
        # 58 observations with std dev 237.9882 imply sum sq dev ~ 3228388
        assert 57 * 237.9882 ** 2 == pytest.approx(3228388.0, abs=1.0)

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_internal_identities(self, seed):
        s = make_series(Rng(seed).normals(80) * 12.0 + 40.0)
        stats = summarize(s)
        n = stats.observations
        assert stats.mean * n == pytest.approx(stats.sum, rel=1e-9)
        assert (n - 1) * stats.std_dev ** 2 == pytest.approx(stats.sum_sq_dev, rel=1e-9)
        assert stats.jarque_bera == pytest.approx(
            jarque_bera(stats.skewness, stats.kurtosis, n), rel=1e-12)
        assert stats.jb_probability == pytest.approx(chi2_sf(stats.jarque_bera, 2), abs=1e-12)
        assert stats.jb_probability == pytest.approx(math.exp(-stats.jarque_bera / 2.0), abs=1e-12)
        assert stats.minimum <= stats.median <= stats.maximum
        assert 0.0 <= stats.jb_probability <= 1.0

    # offsets chosen so the affine image is representable without losing the
    # signal: b/(a*sigma) up to ~1e4, well past the price-level regime
    @pytest.mark.parametrize("a,b", [(2.5, -7.0), (1000.0, 44326.0), (7.0, 1e5)])
    def test_affine_invariance(self, a, b):
        x = Rng(77).normals(60)
        base = summarize(make_series(x))
        moved = summarize(make_series(a * x + b))
        assert moved.skewness == pytest.approx(base.skewness, abs=1e-9)
        assert moved.kurtosis == pytest.approx(base.kurtosis, abs=1e-9)
        assert moved.jarque_bera == pytest.approx(base.jarque_bera, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            summarize(make_series([1.0, 2.0, 3.0]))

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            summarize(make_series([2.0] * 10))


signed_magnitudes = st.builds(lambda mag, negative: -mag if negative else mag,
                              st.floats(1e-8, 1e8), st.booleans())


class TestMedian:
    """summarize's median against np.median itself, compared bit for bit."""

    @given(st.lists(signed_magnitudes, min_size=5, max_size=80))
    def test_bit_identical_to_numpy_odd_and_even(self, values):
        for x in (values, values[:-1]):
            assume(len(set(x)) > 1)
            got = summarize(make_series(x)).median
            assert got.hex() == float(np.median(x)).hex()

    @pytest.mark.parametrize("values", [
        [-0.0, -0.0, -0.0, 1.0, -1.0],
        [-0.0, -0.0, 0.0, -0.0, 2.0, -3.0],
        [0.0, -0.0, 5.0, -5.0],
    ])
    def test_signed_zero_middle(self, values):
        got = summarize(make_series(values)).median
        assert got.hex() == float(np.median(values)).hex()


class TestCorrelation:
    def test_self_and_negated(self):
        x = Rng(5).normals(30)
        corr = correlation(make_panel(x, -x))
        assert corr[0, 0] == 1.0
        assert corr[1, 1] == 1.0
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_exact_linearity(self):
        corr = correlation(make_panel([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]))
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_noise_seed6(self):
        panel = generate(ProcessSpec(kind="var", length=10 ** 4, seed=6,
                                     coefficients=(((0.0, 0.0), (0.0, 0.0)),)))
        corr = correlation(panel)
        assert abs(corr[0, 1]) < 0.05

    def test_exactly_symmetric_and_psd(self):
        rng = Rng(31)
        cols = [rng.normals(50) for _ in range(4)]
        cols[2] = cols[0] * 0.5 + cols[2]
        corr = correlation(make_panel(*cols))
        assert np.array_equal(corr, corr.T)
        assert np.linalg.eigvalsh(corr).min() >= -1e-10

    def test_constant_column(self):
        with pytest.raises(ConstantColumn):
            correlation(make_panel([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]))

    def test_too_short(self):
        with pytest.raises(TooShort):
            correlation(make_panel([1.0, 2.0], [3.0, 5.0]))

    @given(st.data(), st.integers(3, 30), st.integers(2, 4))
    def test_finite_draws_give_a_finite_matrix_and_one_non_finite_cell_raises(self, data, t, m):
        draws = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=t * m, max_size=t * m))
        panel_data = np.array(draws, dtype=float).reshape(t, m) / 8
        assume((np.ptp(panel_data, axis=0) > 0).all())
        labels = tuple(f"c{j}" for j in range(m))
        corr = correlation(Panel(labels, (2000, 1), panel_data))
        assert np.isfinite(corr).all()
        assert (np.diag(corr) == 1.0).all()
        row, col = data.draw(st.integers(0, t - 1)), data.draw(st.integers(0, m - 1))
        panel_data[row, col] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        with pytest.raises(DomainError, match=f"^non-finite value in series 'c{col}'$"):
            correlation(Panel(labels, (2000, 1), panel_data))


def coint_pair():
    return generate(ProcessSpec(kind="cointegrated_pair", length=120, seed=5, beta=2.0))


def scaled_series(scale):
    return Series("x", (2000, 1), coint_pair().data[:, 0] * scale)


# Each statistic's power of the data's scale: a power-of-two scale multiplies
# it by that power of the scale exactly, or summarize raises DomainError.
SCALE_POWERS = {"mean": 1, "median": 1, "maximum": 1, "minimum": 1, "std_dev": 1,
                "skewness": 0, "kurtosis": 0, "jarque_bera": 0, "jb_probability": 0,
                "sum": 1, "sum_sq_dev": 2, "observations": 0}


class TestExtremeScales:
    """summarize and correlation take their moments on centered values divided by
    the power of two nearest their largest magnitude, so the data's scale alone
    neither overflows nor underflows them."""

    def test_scale_powers_cover_every_field(self):
        assert set(SCALE_POWERS) == {f.name for f in dataclasses.fields(SummaryStats)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-600, 600))
    def test_power_of_two_scales_are_exact_or_a_domain_error(self, k):
        base = summarize(scaled_series(1.0))
        # the only statistic that can leave the normal range here is Sum Sq. Dev.
        in_range = -1022 <= math.log2(base.sum_sq_dev) + 2 * k < 1024
        try:
            got = summarize(scaled_series(2.0 ** k))
        except DomainError as exc:
            assert not in_range
            assert str(exc) == "Sum Sq. Dev. of series 'x' leaves the normal float range"
            return
        assert in_range
        for name, power in SCALE_POWERS.items():
            want = getattr(base, name)
            if power:
                want = math.ldexp(want, power * k)
            assert getattr(got, name) == want, name

    @given(st.integers(-600, 600), st.integers(-600, 600))
    def test_correlation_is_exact_at_power_of_two_scales(self, j, k):
        pair = coint_pair()
        got = correlation(Panel(pair.labels, pair.start, pair.data * [2.0 ** j, 2.0 ** k]))
        assert np.array_equal(got, correlation(pair))

    @pytest.mark.parametrize("scale", [1e80, 1e-80, 1e-100])
    def test_decimal_scales_keep_the_scale_free_statistics(self, scale):
        base, got = summarize(scaled_series(1.0)), summarize(scaled_series(scale))
        # 1e-80 once gave kurtosis 1.8992843509892026 (a subnormal m4), 1e80 an
        # OverflowError and 1e-100 a ZeroDivisionError
        for name in ("skewness", "kurtosis", "jarque_bera", "jb_probability"):
            assert getattr(got, name) == pytest.approx(getattr(base, name), rel=1e-13), name
        assert got.std_dev == pytest.approx(base.std_dev * scale, rel=1e-13)
        assert got.sum_sq_dev == pytest.approx(base.sum_sq_dev * scale ** 2, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e160, 1e-170, 1e300, 1e-300])
    def test_sum_sq_dev_out_of_range_is_a_domain_error(self, scale):
        # 1e160 once printed INF and nan; 1e-170 called a varying series constant
        with pytest.raises(DomainError,
                           match=r"^Sum Sq\. Dev\. of series 'x' leaves the normal float range$"):
            summarize(scaled_series(scale))

    @pytest.mark.parametrize("scale", [1e80, 1e160, 1e-100, 1e-170, 1e300, 1e-300])
    def test_correlation_at_decimal_scales(self, scale):
        pair = coint_pair()
        got = correlation(Panel(pair.labels, pair.start, pair.data * [scale, 1.0]))
        assert got[0, 1] == pytest.approx(correlation(pair)[0, 1], rel=1e-13)

    @pytest.mark.parametrize("c, signs, ssd", [(2.0 ** 511, [1.0, -1.0, 0.0, 0.0], 2.0 ** 1023),
                                               (2.0 ** -512, [1.0, -1.0, 1.0, -1.0], 2.0 ** -1022)])
    def test_sum_sq_dev_at_the_edges_of_the_normal_range(self, c, signs, ssd):
        # ssd in the top and in the bottom binade of the normal floats; doubling or
        # halving c takes it out of the range
        stats = summarize(Series("x", (2000, 1), np.multiply(signs, c)))
        assert stats.sum_sq_dev == ssd
        assert stats.std_dev == math.sqrt(ssd / 3)
        beyond = 2.0 if ssd > 1.0 else 0.5
        with pytest.raises(DomainError):
            summarize(Series("x", (2000, 1), np.multiply(signs, c * beyond)))


def _normal_scales(column: np.ndarray) -> tuple:
    """The range of k for which every nonzero value of column times 2**k is a
    normal float: the smallest magnitude stays at or above 2**-1022 and the
    largest at or below the float maximum."""
    nonzero = np.abs(column[column != 0.0])
    return (sys.float_info.min_exp - np.frexp(nonzero.min())[1],
            sys.float_info.max_exp - np.frexp(nonzero.max())[1])


normal_values = st.floats(-1e6, 1e6, allow_subnormal=False).filter(lambda v: v != 0.0)


class TestScalesUpToTheFloatMaximum:
    """The data is divided by the power of two of its largest magnitude before its
    mean is taken, so a scale near the float maximum cannot overflow the mean;
    each property also holds with every warning raised as an error."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(3, 30), st.integers(2, 4))
    def test_correlation_is_bit_identical_under_per_column_scales(self, data, t, m):
        base = np.array(data.draw(st.lists(normal_values, min_size=t * m, max_size=t * m)))
        base = base.reshape(t, m)
        assume((np.ptp(base, axis=0) > 0).all())
        ks = []
        for j in range(m):
            low, high = _normal_scales(base[:, j])
            ks.append(data.draw(st.integers(low, high) | st.just(high)))  # high: the float maximum
        labels = tuple(f"c{j}" for j in range(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = correlation(Panel(labels, (2000, 1), base))
            got = correlation(Panel(labels, (2000, 1), np.ldexp(base, ks)))
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(4, 30))
    def test_summarize_scales_exactly_or_raises_a_domain_error(self, data, t):
        x = np.array(data.draw(st.lists(normal_values, min_size=t, max_size=t)))
        assume(np.ptp(x) > 0)
        low, high = _normal_scales(x)
        k = data.draw(st.integers(low, high) | st.just(high))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                base = summarize(Series("x", (2000, 1), x))
            except DomainError:
                assume(False)
            ssd_exponent = math.frexp(base.sum_sq_dev)[1] + 2 * k
            in_range = sys.float_info.min_exp <= ssd_exponent <= sys.float_info.max_exp
            try:
                got = summarize(Series("x", (2000, 1), np.ldexp(x, k)))
            except DomainError as exc:
                assert not in_range
                assert str(exc) == "Sum Sq. Dev. of series 'x' leaves the normal float range"
                return
        assert in_range
        for name, power in SCALE_POWERS.items():
            want = getattr(base, name)
            if power:
                want = math.ldexp(want, power * k)
            assert getattr(got, name) == want, name

    def test_a_series_near_the_float_maximum(self):
        # once: mean and sum inf and every moment nan; the correlation nan
        x = [1e308, 1e308, 1e308, 9e307]
        with pytest.raises(DomainError, match=r"^Sum Sq\. Dev\. of series 'x' leaves"):
            summarize(Series("x", (2000, 1), x))
        corr = correlation(make_panel(x, [1.0, 2.0, 4.0, 3.0]))
        assert corr[0, 1] == correlation(make_panel(np.ldexp(x, -1000), [1.0, 2.0, 4.0, 3.0]))[0, 1]
        assert -1.0 <= corr[0, 1] <= 1.0
