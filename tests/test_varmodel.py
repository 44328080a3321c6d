import numpy as np
import pytest

from longrun.errors import TooShort
from longrun.linalg import log_det, ols_fit
from longrun.synth import ProcessSpec, generate
from longrun.varmodel import fit_var, info_criteria, select_lag
from longrun.varmodel import _fit_var_data

from conftest import make_panel


def var_panel(seed, length, mats):
    return generate(ProcessSpec(kind="var", length=length, seed=seed, coefficients=mats))


IDENTITY = ((1.0, 0.0), (0.0, 1.0))
ZERO = ((0.0, 0.0), (0.0, 0.0))


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
            assert fit.intercept[i] == pytest.approx(single.coefficients[0], rel=1e-10)
            stacked = np.concatenate([a[i] for a in fit.coef_matrices])
            assert stacked == pytest.approx(single.coefficients[1:], rel=1e-10)

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
        assert fit.residual_cov == pytest.approx(resid.T @ resid / (n - lag), abs=1e-10)

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
