import math

import numpy as np
import pytest

from longrun.errors import DomainError, TooShort, UnsupportedCase
from longrun.series import diff
from longrun.synth import ProcessSpec, Rng, generate
from longrun.unitroot import (
    _df_design,
    _t_ratio_first,
    adf_test,
    bartlett_weights,
    long_run_variance,
    mackinnon_critical,
    mackinnon_pvalue,
    pp_test,
)

from conftest import make_series


def walk(seed, n=500):
    return generate(ProcessSpec(kind="random_walk", length=n, seed=seed))


class TestMacKinnonCritical:
    def test_constant_case_at_56(self):
        assert mackinnon_critical("constant", "1%", 56) == pytest.approx(-3.5504, abs=5e-3)
        assert mackinnon_critical("constant", "5%", 56) == pytest.approx(-2.9135, abs=5e-3)
        assert mackinnon_critical("constant", "10%", 56) == pytest.approx(-2.5945, abs=5e-3)

    def test_asymptote(self):
        assert mackinnon_critical("constant", "5%", 10 ** 9) == pytest.approx(-2.8621, abs=1e-4)

    def test_ordering(self):
        for t in (25, 56, 200, 5000):
            c1 = mackinnon_critical("constant", "1%", t)
            c5 = mackinnon_critical("constant", "5%", t)
            c10 = mackinnon_critical("constant", "10%", t)
            assert c1 < c5 < c10

    def test_unsupported(self):
        with pytest.raises(UnsupportedCase):
            mackinnon_critical("quadratic", "5%", 56)
        with pytest.raises(UnsupportedCase):
            mackinnon_critical("constant", "2.5%", 56)
        with pytest.raises(TooShort):
            mackinnon_critical("constant", "5%", 10)


class TestMacKinnonPvalue:
    def test_at_asymptotic_5pct_critical_value(self):
        cv = mackinnon_critical("constant", "5%", 10 ** 9)
        assert mackinnon_pvalue(cv, "constant") == pytest.approx(0.05, abs=0.01)

    def test_at_finite_sample_critical_value(self):
        cv = mackinnon_critical("constant", "5%", 56)
        assert mackinnon_pvalue(cv, "constant") == pytest.approx(0.05, abs=0.01)

    def test_deep_rejection(self):
        assert mackinnon_pvalue(-10.0, "constant") < 1e-4

    def test_gold_difference_statistic_prints_zero(self):
        p = mackinnon_pvalue(-7.245509, "constant")
        assert p < 1e-3
        assert f"{p:.4f}" == "0.0000"

    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    def test_monotone_increasing(self, case):
        grid = np.arange(-12.0, 0.6, 0.25)
        values = [mackinnon_pvalue(float(t), case) for t in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestAdf:
    def test_random_walk_keeps_unit_root_seed8(self):
        result = adf_test(walk(8))
        assert result.statistic > result.critical_values["5%"]
        assert result.decision_5pct == "unit_root"

    def test_reference_regression_oracle(self):
        # rebuild the ADF design by hand and compute the t ratio from the
        # normal equations; lags fixed so both paths align
        x = walk(8).values
        for lags in (0, 3):
            dx = np.diff(x)
            n = len(x)
            t_eff = n - 1 - lags
            y = dx[lags:]
            cols = [x[lags: n - 1], np.ones(t_eff)]
            for j in range(1, lags + 1):
                cols.append(dx[lags - j: len(dx) - j])
            X = np.column_stack(cols)
            xtx_inv = np.linalg.inv(X.T @ X)
            beta = xtx_inv @ X.T @ y
            e = y - X @ beta
            s2 = (e @ e) / (t_eff - X.shape[1])
            t_stat = beta[0] / math.sqrt(s2 * xtx_inv[0, 0])
            got = adf_test(make_series(x), lags=lags)
            assert got.statistic == pytest.approx(t_stat, abs=1e-9)
            assert got.effective_obs == t_eff

    def test_stationary_ar1_rejects_at_1pct_seed9(self):
        s = generate(ProcessSpec(kind="ar1", length=500, seed=9, phi=0.5))
        result = adf_test(s)
        assert result.statistic < result.critical_values["1%"]
        assert result.decision_5pct == "stationary"

    def test_first_difference_of_walk_rejects(self):
        result = adf_test(diff(walk(8)))
        assert result.decision_5pct == "stationary"

    @pytest.mark.parametrize("a,b", [(3.0, 100.0), (0.01, -5.0)])
    def test_affine_invariance(self, a, b):
        x = walk(8).values
        base = adf_test(make_series(x), lags=2)
        moved = adf_test(make_series(a * x + b), lags=2)
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_decision_consistent_with_critical_value(self):
        for seed in (8, 9, 40):
            r = adf_test(walk(seed, 200))
            expected = "stationary" if r.statistic < r.critical_values["5%"] else "unit_root"
            assert r.decision_5pct == expected

    def test_auto_lags_bounded_and_reported(self):
        r = adf_test(walk(8, 120))
        assert 0 <= r.lags_or_bandwidth <= 12
        assert r.effective_obs == 120 - 1 - r.lags_or_bandwidth

    def test_auto_lag_is_schwarz_minimum_on_common_sample(self):
        # brute-force oracle: every candidate regression rebuilt by hand on the
        # rows left after dropping the first cap + 1 points, SSR from the
        # normal equations
        rng = Rng(31)
        e = rng.normals(400)
        dx = np.zeros(400)
        for t in range(2, 400):
            dx[t] = 0.5 * dx[t - 1] + 0.3 * dx[t - 2] + e[t]
        x = np.cumsum(dx)
        chosen = []
        for cap in (3, 8):
            n = len(x)
            d = np.diff(x)
            y = d[cap:]
            t_common = n - 1 - cap
            sbcs = []
            for lag in range(cap + 1):
                cols = [x[cap: n - 1], np.ones(t_common)]
                cols += [d[cap - j: len(d) - j] for j in range(1, lag + 1)]
                X = np.column_stack(cols)
                beta = np.linalg.solve(X.T @ X, X.T @ y)
                r = y - X @ beta
                k = X.shape[1]
                sbcs.append(math.log(r @ r / t_common) + k * math.log(t_common) / t_common)
            got = adf_test(make_series(x), max_lags=cap)
            assert got.lags_or_bandwidth == int(np.argmin(sbcs))
            chosen.append(got.lags_or_bandwidth)
        assert min(chosen) >= 1  # the AR(2) differences need lags, so the search matters

    def test_too_short(self):
        with pytest.raises(TooShort):
            adf_test(make_series(np.arange(8.0)), lags=0)

    @pytest.mark.parametrize("case, lags", [("none", 0), ("constant", 2), ("constant_trend", 5)])
    def test_t_ratio_bit_identical_to_a_separate_r_factor(self, case, lags):
        # the standard error once came from a second QR of X (mode "r"); the
        # fit's own R factor must give the same bits
        y, X, _ = _df_design(walk(8).values, case, lags)
        fit, tau, se0 = _t_ratio_first(X, y)
        R = np.linalg.qr(X, mode="r")
        r_inv = np.linalg.solve(R, np.eye(R.shape[0]))
        want = math.sqrt(fit.sigma2 * (r_inv @ r_inv.T)[0, 0])
        assert se0 == want
        assert tau == fit.coefficients[0] / want

    def test_one_qr_for_a_fixed_lag_regression(self, qr_calls):
        adf_test(walk(8), lags=3)
        assert qr_calls[0] == 1

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            adf_test(walk(8), case="seasonal")


class TestExactFit:
    # a flat series with no deterministic terms: dx is all zeros, so the
    # Dickey-Fuller regression fits exactly and its t ratio is 0/0
    @pytest.mark.parametrize("test", [lambda s: adf_test(s, case="none"),
                                      lambda s: adf_test(s, case="none", lags=0),
                                      lambda s: pp_test(s, case="none")],
                             ids=["adf lag search", "adf final regression", "pp"])
    def test_is_a_domain_error(self, test):
        with pytest.raises(DomainError, match="exact fit"):
            test(make_series(np.full(120, 3.5)))

    # a straight line has a constant dx, so the regression fits to rounding
    # noise (ssr near 1e-32 y'y) whose t ratio once read -9.40 for x and
    # +4.89 for 3x + 7
    @pytest.mark.parametrize("test", [lambda s: adf_test(s, lags=0), pp_test], ids=["adf", "pp"])
    @pytest.mark.parametrize("line", [np.arange(1.0, 121.0), 3.0 * np.arange(1.0, 121.0) + 7.0],
                             ids=["x", "3x+7"])
    def test_a_fit_within_rounding_is_exact(self, test, line):
        with pytest.raises(DomainError, match="exact fit"):
            test(make_series(line))


class TestPhillipsPerron:
    def test_bartlett_weights(self):
        assert bartlett_weights(4) == pytest.approx([1.0, 0.8, 0.6, 0.4, 0.2])

    def test_long_run_variance_zero_bandwidth(self):
        e = Rng(12).normals(100)
        assert long_run_variance(e, 0) == pytest.approx(float(e @ e) / 100, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_zero_bandwidth_equals_zero_lag_adf(self, seed):
        s = walk(100 + seed, 120)
        a = adf_test(s, lags=0).statistic
        p = pp_test(s, bandwidth=0).statistic
        assert p == pytest.approx(a, abs=1e-9)

    def test_same_decision_as_adf_on_walk_seed8(self):
        s = walk(8)
        assert pp_test(s).decision_5pct == adf_test(s).decision_5pct == "unit_root"

    def test_first_difference_rejects(self):
        assert pp_test(diff(walk(8))).decision_5pct == "stationary"

    def test_critical_values_shared_with_adf(self):
        s = walk(8, 200)
        r = pp_test(s)
        for level, value in r.critical_values.items():
            assert value == mackinnon_critical("constant", level, r.effective_obs)

    def test_default_bandwidth_rule(self):
        r = pp_test(walk(8, 200))
        assert r.lags_or_bandwidth == int(math.floor(4.0 * (199 / 100.0) ** (2.0 / 9.0)))

    @pytest.mark.parametrize("a,b", [(3.0, 100.0), (0.01, -5.0)])
    def test_affine_invariance(self, a, b):
        x = walk(8).values
        base = pp_test(make_series(x))
        moved = pp_test(make_series(a * x + b))
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            pp_test(make_series(np.arange(10.0)))

    def test_one_qr_per_regression(self, qr_calls):
        pp_test(walk(8))
        assert qr_calls[0] == 1
