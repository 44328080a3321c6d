import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from longrun.descriptive import correlation, jarque_bera, summarize
from longrun.distributions import chi2_sf
from longrun.errors import ConstantColumn, ConstantSeries, DomainError, TooShort
from longrun.series import Panel
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
