import math

import numpy as np
import pytest

from longrun.errors import DomainError, RankDeficient, TooShort
from longrun.linalg import LN_2PI, log_det, ols_fit
from longrun.series import lag_matrix
from longrun.synth import ProcessSpec, generate
from longrun.varmodel import fit_var, info_criteria, select_lag
from longrun.varmodel import _fit_var_data

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


def coefficient_block(fit):
    """The k x m coefficients of a VarFit, intercept row first."""
    return np.vstack([fit.intercept] + [a.T for a in fit.coef_matrices])


class TestFitVar:
    def test_lag0_residual_cov_is_mle_covariance(self):
        panel = var_panel(14, 200, (ZERO,))
        fit = fit_var(panel, 0)
        centered = panel.data - panel.data.mean(axis=0)
        expected = centered.T @ centered / len(panel)
        assert fit.residual_cov == pytest.approx(expected, abs=1e-12)
        assert fit.n_params == 2

    def test_var1_coefficient_recovery_seed10(self):
        panel = var_panel(10, 1000, (((0.5, 0.0), (0.0, 0.5)),))
        fit = fit_var(panel, 1)
        a1 = fit.coef_matrices[0]
        assert abs(a1[0, 0] - 0.5) < 0.1
        assert abs(a1[1, 1] - 0.5) < 0.1
        assert abs(a1[0, 1]) < 0.1
        assert abs(a1[1, 0]) < 0.1

    def test_equations_match_single_equation_ols(self):
        panel = var_panel(10, 150, (((0.4, 0.1), (0.0, 0.3)),))
        lag = 2
        fit = fit_var(panel, lag)
        data = panel.data
        n, m = data.shape
        X = np.hstack([np.ones((n - lag, 1))] + [data[lag - j: n - j] for j in range(1, lag + 1)])
        for i in range(m):
            single = ols_fit(X, data[lag:, i])
            assert fit.intercept[i] == single.coefficients[0]
            stacked = np.concatenate([a[i] for a in fit.coef_matrices])
            assert np.array_equal(stacked, single.coefficients[1:])

    def test_residual_cov_is_cross_product_over_t(self):
        panel = var_panel(10, 150, (((0.4, 0.1), (0.0, 0.3)),))
        lag = 1
        fit = fit_var(panel, lag)
        data = panel.data
        n = len(panel)
        X = np.hstack([np.ones((n - lag, 1)), data[:-1]])
        resid = np.column_stack(
            [ols_fit(X, data[lag:, i]).residuals for i in range(2)]
        )
        assert np.array_equal(fit.residual_cov, resid.T @ resid / (n - lag))

    @pytest.mark.parametrize("seed, m, lag", [(3, 2, 0), (4, 2, 3), (5, 3, 2), (6, 6, 5)])
    def test_bit_identical_to_per_equation_ols(self, seed, m, lag):
        data = np.cumsum(np.random.default_rng(seed).standard_normal((180, m)), axis=0)
        fit = _fit_var_data(data, lag)
        coefficients, sigma, loglik = per_equation_fit(data, lag)
        assert np.array_equal(coefficient_block(fit), coefficients)
        assert np.array_equal(fit.residual_cov, sigma)
        assert fit.loglik == loglik

    def test_rank_deficient_text_matches_ols_fit(self):
        x = np.cumsum(np.random.default_rng(7).standard_normal(60))
        data = np.column_stack([x, x])
        with pytest.raises(RankDeficient) as want:
            ols_fit(np.hstack([np.ones((59, 1)), lag_matrix(data, 1)]), data[1:, 0])
        with pytest.raises(RankDeficient) as got:
            _fit_var_data(data, 1)
        assert str(got.value) == str(want.value)

    def test_too_short_and_domain_texts(self):
        with pytest.raises(TooShort) as err:
            _fit_var_data(np.ones((3, 2)), 1)
        assert str(err.value) == "panel of length 3 cannot estimate a VAR(1) in 2 variables"
        with pytest.raises(DomainError, match=r"^non-finite values in regression inputs$"):
            _fit_var_data(np.array([[1.0, np.nan], [2.0, 1.0], [3.0, 0.5]]), 0)

    def test_effective_obs_and_params(self):
        panel = var_panel(2, 90, (IDENTITY,))
        fit = fit_var(panel, 3)
        assert fit.effective_obs == 87
        assert fit.n_params == 2 * (2 * 3 + 1)

    def test_too_short(self):
        with pytest.raises(TooShort):
            fit_var(make_panel([1.0, 2.0, 3.0], [2.0, 1.0, 2.0]), 1)


class TestInfoCriteria:
    def test_ordering_matches_log_det_at_fixed_n(self):
        fit_a = fit_var(var_panel(3, 300, (IDENTITY,)), 1)
        fit_b = fit_var(var_panel(4, 300, (ZERO,)), 1)
        assert fit_a.effective_obs == fit_b.effective_obs
        assert fit_a.n_params == fit_b.n_params
        aic_a, sbc_a = info_criteria(fit_a)
        aic_b, sbc_b = info_criteria(fit_b)
        det_order = log_det(fit_a.residual_cov) < log_det(fit_b.residual_cov)
        assert (aic_a < aic_b) == det_order
        assert (sbc_a < sbc_b) == det_order

    def test_log_det_non_increasing_in_lag(self):
        panel = var_panel(15, 500, (((0.5, 0.1), (0.1, 0.5)),))
        max_lag = 5
        dets = [log_det(_fit_var_data(panel.data[max_lag - j:], j).residual_cov)
                for j in range(max_lag + 1)]
        assert all(a >= b - 1e-10 for a, b in zip(dets, dets[1:]))


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
        panel = var_panel(2, 120, (IDENTITY,))
        max_lag = 4
        for lag in range(max_lag + 1):
            fit = _fit_var_data(panel.data[max_lag - lag:], lag)
            assert fit.effective_obs == 120 - max_lag

    def test_too_short(self):
        with pytest.raises(TooShort):
            select_lag(make_panel(np.arange(8.0), np.arange(8.0)[::-1] ** 2), 4)

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
