import math

import numpy as np
import pytest

from longrun.errors import DomainError, RankDeficient, TooShort
from longrun.linalg import log_det, ols_fit
from longrun.series import lag_matrix
from longrun.synth import ProcessSpec, Rng, generate
from longrun.varmodel import LN_2PI, _var_loglik, select_lag

from conftest import make_panel


def var_panel(seed, length, mats):
    return generate(ProcessSpec(kind="var", length=length, seed=seed, coefficients=mats))


IDENTITY = ((1.0, 0.0), (0.0, 1.0))
ZERO = ((0.0, 0.0), (0.0, 0.0))


def per_equation_fit(data, lag):
    """A VAR(lag) fitted as one ``ols_fit`` per equation: (coefficients k x m,
    residual covariance, loglik).  The reference for the fit that factors the
    shared design once."""
    n, m = data.shape
    X = np.hstack([np.ones((n - lag, 1)), lag_matrix(data, lag)])
    fits = [ols_fit(X, data[lag:, i]) for i in range(m)]
    resid = np.column_stack([f.residuals for f in fits])
    sigma = resid.T @ resid / (n - lag)
    loglik = -((n - lag) * m / 2.0) * (1.0 + LN_2PI) - ((n - lag) / 2.0) * log_det(sigma)
    return np.column_stack([f.coefficients for f in fits]), sigma, loglik


def mle_loglik(resid):
    """Gaussian log-likelihood of T x m residuals at their MLE covariance."""
    t, m = resid.shape
    return -(t * m / 2.0) * (1.0 + LN_2PI) - (t / 2.0) * log_det(resid.T @ resid / t)


class TestFitVar:
    """The VAR(lag) fit that scores each lag candidate."""

    def test_lag0_residual_cov_is_mle_covariance(self):
        data = var_panel(14, 200, (ZERO,)).data
        assert _var_loglik(data, 0) == pytest.approx(mle_loglik(data - data.mean(axis=0)),
                                                     rel=1e-12)

    def test_residual_cov_is_cross_product_over_t(self):
        data = var_panel(10, 150, (((0.4, 0.1), (0.0, 0.3)),)).data
        X = np.hstack([np.ones((149, 1)), data[:-1]])
        resid = np.column_stack([ols_fit(X, data[1:, i]).residuals for i in range(2)])
        assert _var_loglik(data, 1) == mle_loglik(resid)

    @pytest.mark.parametrize("seed, m, lag", [(3, 2, 0), (4, 2, 3), (5, 3, 2), (6, 6, 5)])
    def test_bit_identical_to_per_equation_ols(self, seed, m, lag):
        data = np.cumsum(np.random.default_rng(seed).standard_normal((180, m)), axis=0)
        _, _, loglik = per_equation_fit(data, lag)
        assert _var_loglik(data, lag) == loglik

    def test_rank_deficient_text_matches_ols_fit(self):
        x = np.cumsum(np.random.default_rng(7).standard_normal(60))
        data = np.column_stack([x, x])
        with pytest.raises(RankDeficient) as want:
            ols_fit(np.hstack([np.ones((59, 1)), lag_matrix(data, 1)]), data[1:, 0])
        with pytest.raises(RankDeficient) as got:
            _var_loglik(data, 1)
        assert str(got.value) == str(want.value)

    def test_too_short_and_domain_texts(self):
        with pytest.raises(TooShort, match=r"^need more observations \(2\) than regressors \(3\)$"):
            _var_loglik(np.ones((3, 2)), 1)
        with pytest.raises(DomainError, match=r"^non-finite values in regression inputs$"):
            _var_loglik(np.array([[1.0, np.nan], [2.0, 1.0], [3.0, 0.5]]), 0)

    def test_too_short(self):
        with pytest.raises(TooShort):
            _var_loglik(make_panel([1.0, 2.0, 3.0], [2.0, 1.0, 2.0]).data, 1)


class TestFloatRange:
    # a default_rng(0) walk pair at level 100, T = 240, scaled to the float range's edges:
    # the residual covariance once overflowed in numpy's matmul, then read as a non-finite M,
    # or underflowed to a matrix log_det called not positive definite
    PAIR = 100.0 + np.cumsum(np.random.default_rng(0).standard_normal((240, 2)), axis=0)

    def test_overflow(self):
        with pytest.raises(DomainError, match=r"^overflow: the residual covariance has an entry "
                                              r"past the float range$"):
            select_lag(make_panel(*(2.0 ** 1000 * self.PAIR).T), 5)

    @pytest.mark.parametrize("scale", [1e-200, 1e-300, 2.0 ** -1000],
                             ids=["1e-200", "1e-300", "2^-1000"])
    def test_underflow(self, scale):
        with pytest.raises(DomainError, match=r"^underflow: the residual covariance has a "
                                              r"variance below the float range$"):
            select_lag(make_panel(*(scale * self.PAIR).T), 5)


class TestInfoCriteria:
    def test_loglik_non_decreasing_in_lag(self):
        panel = var_panel(15, 500, (((0.5, 0.1), (0.1, 0.5)),))
        max_lag = 5
        logliks = [_var_loglik(panel.data[max_lag - j:], j) for j in range(max_lag + 1)]
        assert all(b >= a - 1e-12 * abs(a) for a, b in zip(logliks, logliks[1:]))


class TestSelectLag:
    def test_var2_with_strong_second_lag_seed12(self):
        panel = var_panel(12, 400, (((0.1, 0.0), (0.0, 0.1)), ((0.55, 0.0), (0.0, 0.55))))
        chosen, rows = select_lag(panel, 5)
        assert chosen == 2
        assert [r.lag for r in rows] == list(range(6))
        assert all(np.isfinite([r.aic, r.sbc]).all() for r in rows)

    def test_white_noise_panel_picks_zero_seed14(self):
        chosen, _ = select_lag(var_panel(14, 400, (ZERO,)), 5)
        assert chosen == 0

    def test_var1_panel_picks_one_seed15(self):
        chosen, _ = select_lag(var_panel(15, 500, (((0.5, 0.1), (0.1, 0.5)),)), 5)
        assert chosen == 1

    def test_max_lag_zero(self):
        chosen, rows = select_lag(var_panel(1, 100, (IDENTITY,)), 0)
        assert chosen == 0
        assert len(rows) == 1

    def test_common_sample_sizes(self):
        # aic - sbc = N (2 - ln t) / t: every row has t = 120 - max_lag
        max_lag, t = 4, 116
        _, rows = select_lag(var_panel(2, 120, (IDENTITY,)), max_lag)
        for row in rows:
            n_params = 2 * (2 * row.lag + 1)
            assert row.aic - row.sbc == pytest.approx(n_params * (2.0 - math.log(t)) / t,
                                                      rel=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            select_lag(make_panel(np.arange(8.0), np.arange(8.0)[::-1] ** 2), 4)

    def test_too_short_at_its_boundary_is_its_own_error(self):
        # t = n - max_lag = m max_lag + 1 leaves the widest design square; with m
        # more rows each equation of the widest VAR keeps m residual degrees of
        # freedom, its residual covariance can be nonsingular, and every lag is
        # compared; one row fewer is too short
        a, b = Rng(1).normals(12), Rng(2).normals(12)
        with pytest.raises(TooShort, match="^panel of length 11 cannot compare lags up to 3$"):
            select_lag(make_panel(a[:11], b[:11]), 3)
        _, rows = select_lag(make_panel(a, b), 3)
        assert [row.lag for row in rows] == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_fewer_residual_dof_than_equations_is_too_short(self, seed):
        # t = 8 rows and 7 regressors leave 1 < m residual degree of freedom, so
        # the widest residual covariance is singular and its log det is rounding
        panel = make_panel(Rng(seed).normals(11), Rng(seed + 10).normals(11))
        with pytest.raises(TooShort, match="^panel of length 11 cannot compare lags up to 3$"):
            select_lag(panel, 3)

    def test_negative_max_lag_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^max_lag must be >= 0$"):
            select_lag(var_panel(1, 100, (IDENTITY,)), -1)

    @pytest.mark.parametrize("seed, max_lag", [(12, 5), (15, 3)])
    def test_criteria_bit_identical_to_per_equation_ols(self, seed, max_lag):
        panel = var_panel(seed, 300, (((0.5, 0.1), (0.1, 0.5)),))
        chosen, rows = select_lag(panel, max_lag)
        t = len(panel) - max_lag
        for row in rows:
            _, _, loglik = per_equation_fit(panel.data[max_lag - row.lag:], row.lag)
            n_params = 2 * (2 * row.lag + 1)
            assert row.aic == -2.0 * loglik / t + 2.0 * n_params / t
            assert row.sbc == -2.0 * loglik / t + n_params * math.log(t) / t
        assert chosen == min(rows, key=lambda r: (r.sbc, r.lag)).lag

    @pytest.mark.parametrize("max_lag", [0, 1, 5])
    def test_one_qr_per_lag_candidate(self, qr_calls, max_lag):
        select_lag(var_panel(12, 200, (IDENTITY,)), max_lag)
        assert qr_calls[0] == max_lag + 1
