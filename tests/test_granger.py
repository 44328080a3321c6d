import math

import numpy as np
import pytest

from longrun.distributions import f_sf
from longrun.errors import DimensionMismatch, DomainError, TooShort
from longrun.granger import (
    GrangerResult,
    f_from_ssr,
    granger_test,
    hypothesis_verdict,
)
from longrun.linalg import ols_fit
from longrun.series import Panel, lag_matrix
from longrun.synth import ProcessSpec, generate

from conftest import make_panel


def causal_panel(length=500, seed=18):
    """x white noise, y_t = 0.8 x_{t-1} + noise; columns (y1=x, y2=y)."""
    mats = (((0.0, 0.0), (0.8, 0.0)),)
    return generate(ProcessSpec(kind="var", length=length, seed=seed, coefficients=mats))


def fake_result(direction, p_value):
    return GrangerResult(direction=direction, lag=1, f_statistic=1.0,
                         p_value=p_value, df=(1, 54), obs_used=57, on_levels=True)


class TestFStatistic:
    def test_equal_ssrs_give_zero(self):
        assert f_from_ssr(4.2, 4.2, 1, 54) == 0.0
        assert f_sf(f_from_ssr(4.2, 4.2, 1, 54), 1, 54) == 1.0

    def test_formula(self):
        assert f_from_ssr(10.0, 8.0, 2, 40) == pytest.approx(((10 - 8) / 2) / (8 / 40))

    def test_roundoff_clamped(self):
        assert f_from_ssr(5.0 - 1e-13, 5.0, 1, 30) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError, match=r"^unrestricted SSR must be positive$"):
            f_from_ssr(1.0, 0.0, 1, 10)
        for p, d2 in ((0, 10), (1, 0)):
            with pytest.raises(DomainError, match=r"^degrees of freedom must be >= 1$"):
                f_from_ssr(2.0, 1.0, p, d2)


class TestGrangerTest:
    def test_table8_shape_on_58_month_panel(self):
        mats = (((1.0, 0.0), (0.0, 1.0)),)
        panel = generate(ProcessSpec(kind="var", length=58, seed=21, coefficients=mats))
        forward, backward = granger_test(panel, lag=1, on_levels=True)
        for res in (forward, backward):
            assert res.obs_used == 57
            assert res.df == (1, 54)
            assert res.p_value == pytest.approx(f_sf(res.f_statistic, 1, 54), abs=1e-15)

    def test_causal_direction_detected_seed18(self):
        forward, backward = granger_test(causal_panel(), lag=1)
        assert forward.direction == ("y1", "y2")
        assert forward.p_value < 0.01
        assert 0.0 <= backward.p_value <= 1.0

    def test_against_normal_equations_oracle(self):
        panel = causal_panel(length=200, seed=77)
        lag = 2
        forward, _ = granger_test(panel, lag=lag)
        x, y = panel.data[:, 0], panel.data[:, 1]
        n = len(y)
        t_used = n - lag
        resp = y[lag:]
        own = np.column_stack([y[lag - 1 - j: n - 1 - j] for j in range(lag)])
        cross = np.column_stack([x[lag - 1 - j: n - 1 - j] for j in range(lag)])
        const = np.ones(t_used)

        def ssr(cols):
            X = np.column_stack(cols)
            beta = np.linalg.solve(X.T @ X, X.T @ resp)
            e = resp - X @ beta
            return float(e @ e)

        ssr_u = ssr([const, own, cross])
        ssr_r = ssr([const, own])
        d2 = t_used - 2 * lag - 1
        expected = ((ssr_r - ssr_u) / lag) / (ssr_u / d2)
        assert forward.f_statistic == pytest.approx(expected, rel=1e-9)
        assert ssr_r >= ssr_u - 1e-10

    @pytest.mark.parametrize("on_levels", [True, False], ids=["levels", "differences"])
    @pytest.mark.parametrize("seed, lag", [(5, 1), (6, 2), (7, 4)])
    def test_restricted_fit_on_the_designs_prefix_is_bit_identical(self, seed, lag, on_levels):
        # the restricted regression runs on the column prefix [1, own lags] of the one design
        # [1, own lags, cross lags]; F and p must be those of a restricted design built afresh
        data = np.cumsum(np.random.default_rng(seed).standard_normal((150, 2)), axis=0)
        a, b = data[:, 0], data[:, 1]
        if not on_levels:
            a, b = np.diff(a), np.diff(b)
        results = granger_test(make_panel(*data.T), lag, on_levels=on_levels)
        for (cause, effect), res in zip(((a, b), (b, a)), results):
            y, const = effect[lag:], np.ones((len(effect) - lag, 1))
            own, cross = lag_matrix(effect, lag), lag_matrix(cause, lag)
            d2 = len(y) - 2 * lag - 1
            f = f_from_ssr(ols_fit(np.hstack([const, own]), y).ssr,
                           ols_fit(np.hstack([const, own, cross]), y).ssr, lag, d2)
            assert res.f_statistic.hex() == f.hex()
            assert res.p_value.hex() == f_sf(f, lag, d2).hex()

    @pytest.mark.parametrize("seed", [18, 44, 91])
    def test_restriction_never_fits_better(self, seed):
        panel = causal_panel(length=150, seed=seed)
        for res in granger_test(panel, lag=3):
            assert res.f_statistic >= 0.0

    def test_column_permutation_swaps_results(self):
        panel = causal_panel(length=200, seed=7)
        swapped = Panel(panel.labels[::-1], panel.start, panel.data[:, ::-1])
        fwd, bwd = granger_test(panel, lag=2)
        fwd_s, bwd_s = granger_test(swapped, lag=2)
        assert fwd_s.f_statistic == bwd.f_statistic
        assert bwd_s.f_statistic == fwd.f_statistic
        assert fwd_s.direction == bwd.direction

    @pytest.mark.parametrize("a,b", [(100.0, 3.0), (0.001, -9.0)])
    def test_affine_invariance(self, a, b):
        panel = causal_panel(length=200, seed=7)
        moved = Panel(panel.labels, panel.start,
                      np.column_stack([a * panel.data[:, 0] + b, panel.data[:, 1]]))
        base = granger_test(panel, lag=1)
        rescaled = granger_test(moved, lag=1)
        for r0, r1 in zip(base, rescaled):
            assert r1.f_statistic == pytest.approx(r0.f_statistic, abs=1e-9)

    def test_on_differences(self):
        panel = causal_panel(length=200, seed=7)
        fwd, _ = granger_test(panel, lag=1, on_levels=False)
        assert fwd.obs_used == 200 - 1 - 1
        assert not fwd.on_levels

    def test_p_value_decreasing_in_f(self):
        values = [f_sf(f, 1, 54) for f in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_errors(self):
        three = make_panel([1.0, 2.0, 3.0, 2.0] * 5, [2.0, 1.0, 2.0, 4.0] * 5,
                           [0.0, 1.0, 0.5, 0.7] * 5)
        with pytest.raises(DimensionMismatch):
            granger_test(three, lag=1)
        tiny = causal_panel(length=10, seed=1)
        with pytest.raises(TooShort):
            granger_test(tiny, lag=4)
        # the unrestricted design has 2*lag + 1 columns and n - lag rows
        for lag in (3, 5):
            with pytest.raises(TooShort):
                granger_test(causal_panel(length=3 * lag + 1, seed=1), lag=lag)
            forward, backward = granger_test(causal_panel(length=3 * lag + 2, seed=1), lag=lag)
            assert forward.df == backward.df == (lag, 1)
        # the guard's own message: without it f_from_ssr raises a different DomainError
        for lag in (0, -1):
            with pytest.raises(DomainError, match=r"^lag must be >= 1$"):
                granger_test(causal_panel(length=50, seed=1), lag=lag)

    @pytest.mark.parametrize("lag", [30, 31, 40])
    def test_a_lag_at_or_past_the_panels_length_is_too_short(self, lag):
        # the lag block checks the length before any column is sized, so a lag past it is no
        # bare ValueError from a negative row count
        with pytest.raises(TooShort, match=rf"^series of length 30 has no rows with {lag} lags$"):
            granger_test(causal_panel(length=30, seed=1), lag=lag)

    @pytest.mark.parametrize("lag", [1, 2])
    def test_size_on_first_differences_of_independent_walks(self, lag):
        # under the null the 5% rule rejects 5% of the time: 2,000 pairs give a standard
        # error of 0.49 points, and the forward rate (5.5% at lag 1, 5.2% at lag 2) must fall
        # within 4 of them; on levels the F test over-rejects such walks, so they are left out
        pairs = np.cumsum(np.random.default_rng(0).standard_normal((2000, 120, 2)), axis=1)
        rate = np.mean([granger_test(make_panel(*pair.T), lag, on_levels=False)[0].p_value
                        < 0.05 for pair in pairs])
        assert abs(rate - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / 2000)


class TestExactFit:
    # e_t = 100 * 1.01^t is an exact function of its own lag, so the regression
    # of e fits to rounding noise; its F once read 0 (p 1) on e and 1000 e but
    # 29.32 (p 3.4e-7, "drives") on 3e + 7
    @pytest.mark.parametrize("a, b", [(1.0, 0.0), (1000.0, 0.0), (3.0, 7.0)],
                             ids=["e", "1000e", "3e+7"])
    def test_a_fit_within_rounding_is_a_domain_error(self, a, b):
        cause = np.cumsum(np.random.default_rng(1).standard_normal(120))
        effect = a * 100.0 * 1.01 ** np.arange(120) + b
        panel = Panel(("c", "e"), (2000, 1), np.column_stack([cause, effect]))
        with pytest.raises(DomainError, match="^exact fit: the regression of e on the lags"):
            granger_test(panel, lag=1)


class TestHypothesisVerdict:
    def test_paper_pvalues_give_none(self):
        results = (fake_result(("gold", "nepse"), 0.1304), fake_result(("nepse", "gold"), 0.2448))
        assert hypothesis_verdict(results, 0.05) == "none"

    def test_forward_only_is_h1(self):
        results = (fake_result(("gold", "nepse"), 0.01), fake_result(("nepse", "gold"), 0.20))
        assert hypothesis_verdict(results, 0.05) == "H1"

    def test_backward_only_is_h2(self):
        results = (fake_result(("gold", "nepse"), 0.20), fake_result(("nepse", "gold"), 0.01))
        assert hypothesis_verdict(results, 0.05) == "H2"

    def test_both_is_h3(self):
        results = (fake_result(("gold", "nepse"), 0.01), fake_result(("nepse", "gold"), 0.01))
        assert hypothesis_verdict(results, 0.05) == "H3"

    @pytest.mark.parametrize("p_values", [(0.05, 0.20), (0.20, 0.05)],
                             ids=["forward", "backward"])
    def test_a_p_value_equal_to_alpha_does_not_reject(self, p_values):
        results = (fake_result(("a", "b"), p_values[0]), fake_result(("b", "a"), p_values[1]))
        assert hypothesis_verdict(results, 0.05) == "none"

    def test_alpha_domain(self):
        results = (fake_result(("a", "b"), 0.5), fake_result(("b", "a"), 0.5))
        with pytest.raises(DomainError):
            hypothesis_verdict(results, 1.5)
