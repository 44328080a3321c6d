import math
import tracemalloc
import weakref

import numpy as np
import pytest

from longrun import linalg, unitroot
from longrun.errors import (
    DimensionMismatch,
    DomainError,
    LongrunError,
    RankDeficient,
    TooShort,
    UnsupportedCase,
)
from longrun.linalg import _t_ratio_first, ols_fit
from longrun.series import diff
from longrun.synth import ProcessSpec, Rng, generate
from longrun.unitroot import (
    CASES,
    _df_design,
    adf_test,
    bartlett_weights,
    long_run_variance,
    mackinnon_critical,
    mackinnon_pvalue,
    pp_test,
)

from conftest import make_series, search_corpus


def walk(seed, n=500):
    return generate(ProcessSpec(kind="random_walk", length=n, seed=seed))


def recorder(monkeypatch, name):
    """The input shapes of the ``np.linalg.<name>`` calls made while the test runs."""
    shapes, original = [], getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


@pytest.fixture
def fits(monkeypatch):
    """The shapes of the designs factorized (``np.linalg.qr`` calls) while the test runs."""
    return recorder(monkeypatch, "qr")


@pytest.fixture
def svds(monkeypatch):
    """The shapes of the ``np.linalg.svd`` inputs while the test runs."""
    return recorder(monkeypatch, "svd")


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

    @pytest.mark.parametrize("case, tau_max", [("constant", 2.74), ("constant_trend", 0.7)])
    def test_one_above_the_surface(self, case, tau_max):
        for tau in (math.nextafter(tau_max, math.inf), tau_max + 1.0, 50.0):
            assert mackinnon_pvalue(tau, case) == 1.0

    @pytest.mark.parametrize("case, tau_min", [("none", -19.04), ("constant", -18.83),
                                               ("constant_trend", -16.18)])
    def test_zero_below_the_surface_and_positive_from_its_edge(self, case, tau_min):
        assert mackinnon_pvalue(math.nextafter(tau_min, -math.inf), case) == 0.0
        assert mackinnon_pvalue(tau_min, case) > 0.0

    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    def test_monotone_increasing(self, case):
        grid = np.arange(-12.0, 0.6, 0.25)
        values = [mackinnon_pvalue(float(t), case) for t in grid]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            mackinnon_pvalue(-2.0, "bogus")


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

    def test_too_short_for_the_lag_search_fits_nothing(self, fits):
        # below 21 points even the lag-0 regression has fewer than the 20
        # observations the critical values need, so the search never starts
        for n in (12, 15, 18, 20):
            with pytest.raises(TooShort):
                adf_test(walk(8, n=n))
        assert fits == []

    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    def test_up_to_five_points_is_the_critical_value_error(self, fits, case):
        # below 4 points plus one per deterministic term the lag cap is negative,
        # so only the floor checked before the search keeps this a TooShort
        for n in range(6):
            with pytest.raises(TooShort, match=r"^critical-value surface needs an effective "
                                               r"sample of at least 20$"):
                adf_test(walk(8).values[:n], case=case)
        assert fits == []

    @pytest.mark.parametrize("test, n", [(lambda s: adf_test(s, lags=2), 22),
                                         (lambda s: adf_test(s, lags=0), 20), (pp_test, 20)],
                             ids=["adf 2 lags", "adf 0 lags", "pp"])
    def test_too_short_for_a_fixed_regression_fits_nothing(self, fits, test, n):
        with pytest.raises(TooShort, match=r"^critical-value surface needs an effective "
                                           r"sample of at least 20$"):
            test(walk(8, n=n))
        assert fits == []

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

    def test_a_statistic_equal_to_the_5pct_critical_value_keeps_the_unit_root(self):
        # the unit root is rejected only strictly below the critical value
        crit = mackinnon_critical("constant", "5%", 100)
        for stat, decision in ((crit, "unit_root"),
                               (math.nextafter(crit, -math.inf), "stationary")):
            result = unitroot._finish("adf", stat, "constant", 0, 100, {"5%": crit})
            assert result.decision_5pct == decision

    def test_auto_lags_bounded_and_reported(self):
        r = adf_test(walk(8, 120))
        assert 0 <= r.lags_or_bandwidth <= 12
        assert r.effective_obs == 120 - 1 - r.lags_or_bandwidth

    def test_auto_lag_is_schwarz_minimum_on_common_sample(self):
        # brute-force oracle: every candidate regression rebuilt by hand on the
        # rows left after dropping the first cap + 1 points, SSR from the
        # normal equations; Schwert's cap is 10 at n = 60 and 16 at n = 400
        rng = Rng(31)
        e = rng.normals(400)
        dx = np.zeros(400)
        for t in range(2, 400):
            dx[t] = 0.5 * dx[t - 1] + 0.3 * dx[t - 2] + e[t]
        chosen = []
        for n, cap in ((60, 10), (400, 16)):
            x = np.cumsum(dx[:n])
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
            got = adf_test(make_series(x))
            assert got.lags_or_bandwidth == int(np.argmin(sbcs))
            chosen.append(got.lags_or_bandwidth)
        assert min(chosen) >= 1  # the AR(2) differences need lags, so the search matters

    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    def test_short_sample_lag_is_schwarz_minimum_over_lags_that_keep_20(self, case):
        # just over the floor, the search scores only lags 0..min(cap, n - 21)
        # on the common sample of Schwert's cap, so every auto call answers;
        # each design is rebuilt by hand, with its SSR from the same ols_fit
        ndet = {"none": 0, "constant": 1, "constant_trend": 2}[case]
        for n in range(21, 31):
            cap = min(math.floor(12 * (n / 100) ** 0.25), (n - 2 - ndet) // 2 - 1)
            t_common = n - 1 - cap
            for seed in range(10):
                for kind in ("random_walk", "ar1"):
                    x = generate(ProcessSpec(kind=kind, length=n, seed=seed, phi=0.5)).values
                    d = np.diff(x)
                    dets = [np.ones(t_common), np.arange(1.0, t_common + 1.0)][:ndet]
                    sbcs = []
                    for lag in range(min(cap, n - 21) + 1):
                        lagged = [d[cap - j: len(d) - j] for j in range(1, lag + 1)]
                        X = np.column_stack([x[cap: n - 1], *dets, *lagged])
                        ssr = ols_fit(X, d[cap:]).ssr
                        k = X.shape[1]
                        sbcs.append(math.log(ssr / t_common) + k * math.log(t_common) / t_common)
                    got = adf_test(make_series(x), case=case)
                    assert got.lags_or_bandwidth == int(np.argmin(sbcs)), (n, seed, kind)
                    assert got.effective_obs >= 20

    # the cap at n = 21 is 8 lags (7 with a trend), leaving 12 (13) common rows
    @pytest.mark.parametrize("case, search_rows", [("none", 12), ("constant", 12),
                                                   ("constant_trend", 13)])
    def test_at_21_points_the_search_fits_lag_zero_only(self, fits, case, search_rows):
        # the lag-0 design is checked, then certified and scored from one QR of [X y]
        base = 1 + CASES.index(case)
        result = adf_test(walk(8, n=21), case=case)
        assert result.lags_or_bandwidth == 0
        assert fits == [(search_rows, base + 1), (20, base)]

    def test_at_22_points_the_search_fits_two_designs_on_the_common_sample(self, fits):
        # the widest (lag 1) design is certified and scored from one QR with y appended,
        # then lag 0 is scored from its own
        adf_test(walk(8, n=22), case="constant")
        assert fits[:2] == [(13, 4), (13, 3)]
        assert len(fits) == 3

    # Schwert's cap is 8 lags at n = 22, 12 at 120, 17 at 500 and 25 at 2000; the search
    # scores lags 0..min(cap, n - 21), each design x_{t-1}, the deterministic terms, the lags
    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    @pytest.mark.parametrize("n, cap", [(22, 8), (120, 12), (500, 17), (2000, 25)])
    def test_one_rank_certificate_per_search_and_one_per_final_regression(self, svds, monkeypatch,
                                                                          case, n, cap):
        inputs, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs: inputs.append(
            (np.shape(a), a.flags.f_contiguous)) or qr(a, *args, **kwargs))
        base, top, rows = 1 + CASES.index(case), min(cap, n - 21), n - 1 - cap
        result = adf_test(walk(8, n=n), case=case)
        final = base + result.lags_or_bandwidth
        assert svds == [(base + top, base + top), (final, final)]
        # one QR of [X y] per scored lag, the widest first (it also certifies), then down to
        # lag 0, each a column-major prefix of one buffer; then the final regression's
        assert inputs[:-1] == [((rows, base + lag + 1), True) for lag in range(top, -1, -1)]
        assert inputs[-1][0] == (n - 1 - result.lags_or_bandwidth, final)
        svds.clear()
        adf_test(walk(8, n=n), case=case, lags=0)
        assert svds == [(base, base)]

    def test_no_qr_output_outlives_its_corner_and_the_design_is_freed_first(self, monkeypatch):
        # each scored lag keeps only its corner, and the C-ordered design linalg builds for the
        # search (about 440 KB at T = 2000) is freed once it is copied into linalg's own buffer
        designs, outputs, seen = [], [], []
        df_design, qr = unitroot._df_design, np.linalg.qr

        def recording_design(*args):
            y, X = df_design(*args)
            designs.append(weakref.ref(X))
            return y, X

        def recording_qr(a, mode="reduced"):
            seen.append((sum(ref() is not None for ref in outputs), designs[0]() is not None))
            out = qr(a, mode=mode)
            if mode == "raw":
                outputs.append(weakref.ref(out[0].base))
            return out

        monkeypatch.setattr(unitroot, "_df_design", recording_design)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        adf_test(walk(8, n=2000))  # 26 scored lags (25..0), then the final regression
        assert len(designs) == 2 and len(outputs) == 26
        assert seen == [(0, False)] * 27

    def test_the_search_peaks_near_two_copies_of_its_buffer(self):
        # the [X y] buffer and the copy qr factors: 2.07 times the buffer's bytes at T = 2000,
        # where holding the C-ordered design as well read 3.01
        x = walk(8, n=2000).values
        top = unitroot.default_max_lags(2000)  # 25, the cap in every case, with 1974 common rows
        for case in CASES:
            buffer = 1974 * (1 + CASES.index(case) + top + 1) * 8
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                unitroot._select_lags(x, case)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * buffer, (case, peak / buffer)

    def test_schwerts_cap_at_and_just_below_its_whole_values(self):
        # 12 (n / 100)^(1/4) is exactly 12 at n = 100 and 24 at n = 1600
        caps = {n: unitroot.default_max_lags(n) for n in (99, 100, 120, 500, 1599, 1600, 2000)}
        assert caps == {99: 11, 100: 12, 120: 12, 500: 17, 1599: 23, 1600: 24, 2000: 25}

    def test_size_of_the_auto_lag_test_on_driftless_walks(self):
        # under the null the 5% rule rejects 5% of the time: 2,000 walks of T = 100 give a
        # standard error of 0.49 points, and the rate must fall within 4 of them
        walks = np.cumsum(np.random.default_rng(0).standard_normal((2000, 100)), axis=1)
        rate = np.mean([adf_test(w).decision_5pct == "stationary" for w in walks])
        assert abs(rate - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / 2000)

    @pytest.mark.parametrize("case", CASES)
    def test_size_of_pp_on_driftless_walks(self, case):
        # the same 2,000 walks and bound for Phillips-Perron at its default bandwidth, which
        # rejects 5.3% (none), 5.4% (constant) and 6.5% (constant_trend) of them
        walks = np.cumsum(np.random.default_rng(0).standard_normal((2000, 100)), axis=1)
        rate = np.mean([pp_test(w, case=case).decision_5pct == "stationary" for w in walks])
        assert abs(rate - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / 2000)

    def test_too_short(self):
        with pytest.raises(TooShort):
            adf_test(make_series(np.arange(8.0)), lags=0)

    def test_negative_lags_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^lags must be >= 0$"):
            adf_test(walk(8), lags=-1)

    @pytest.mark.parametrize("case, lags", [("none", 0), ("constant", 2), ("constant_trend", 5)])
    def test_t_ratio_bit_identical_to_a_separate_r_factor(self, case, lags):
        # the standard error once came from a second QR of X (mode "r"); the
        # fit's own R factor must give the same bits
        y, X = _df_design(walk(8).values, case, lags)
        fit, tau, se0 = _t_ratio_first(X, y, "the Dickey-Fuller regression")
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


class TestInputShape:
    # a T x 2 block, the T x 1 column that df[["x"]].values gives, a 0-d scalar and a 2 x T
    # block once raised a bare numpy ValueError or TypeError, or a misleading TooShort
    @pytest.mark.parametrize("test", [adf_test, pp_test], ids=["adf", "pp"])
    @pytest.mark.parametrize("shape", [(120, 2), (240, 1), (), (2, 120)],
                             ids=["Tx2", "Tx1", "0-d", "2xT"])
    def test_values_that_are_not_1d_are_a_dimension_mismatch(self, test, shape):
        values = walk(8, 240).values[:math.prod(shape)].reshape(shape)
        with pytest.raises(DimensionMismatch,
                           match=rf"^a unit-root test needs 1-D values, got {len(shape)}-D$"):
            test(values)


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


class TestOverflow:
    # a walk scaled by 2^1000 (values near 1e301) has residuals whose squares sum past the
    # float range: that is its own DomainError, neither a bare OverflowError from the lag
    # search's corner nor an exact fit read from an SSR of inf
    WALK = np.cumsum(np.random.default_rng(0).standard_normal(240)) * 2.0 ** 1000
    MESSAGE = (r"^overflow: the Dickey-Fuller regression has a sum of squared residuals past "
               r"the float range$")

    def test_adf_lag_search(self):
        with pytest.raises(DomainError, match=self.MESSAGE):
            adf_test(make_series(self.WALK), case="none")

    def test_pp(self):
        # PP's residual sum of squares overflows inside numpy's matmul, which must not warn:
        # this suite makes a RuntimeWarning an error
        with pytest.raises(DomainError, match=self.MESSAGE):
            pp_test(make_series(self.WALK), case="none")


class TestUnderflow:
    # a walk scaled to 1e-200 and below has squares below the float range: dx'dx and the SSR
    # underflow to 0, which once read as an exact fit; a flat series still is one
    WALK = 100.0 + np.cumsum(np.random.default_rng(0).standard_normal(240))

    @pytest.mark.parametrize("scale", [1e-200, 1e-300, 2.0 ** -1000],
                             ids=["1e-200", "1e-300", "2^-1000"])
    @pytest.mark.parametrize("test", [lambda s: adf_test(s, case="none"),
                                      lambda s: adf_test(s, case="none", lags=0),
                                      lambda s: pp_test(s, case="none")],
                             ids=["adf lag search", "adf final regression", "pp"])
    def test_is_its_own_domain_error(self, test, scale):
        with pytest.raises(DomainError, match=r"^underflow: the Dickey-Fuller regression has "
                                              r"sums of squares below the float range$"):
            test(make_series(scale * self.WALK))

    @pytest.mark.parametrize("test", [adf_test, pp_test], ids=["adf", "pp"])
    def test_a_flat_series_is_still_an_exact_fit(self, test):
        with pytest.raises(DomainError, match="^exact fit: "):
            test(make_series(np.full(120, 3.5e-300)), case="none")


class TestStatisticType:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("test", [adf_test, pp_test], ids=["adf", "pp"])
    def test_is_a_python_float_as_the_p_value_is(self, test, case):
        # it was the t ratio's numpy.float64
        result = test(walk(8), case=case)
        assert type(result.statistic) is float and type(result.p_value) is float


def per_prefix_search(x, case):
    """The lag search of every column prefix of the widest design through ols_fit's checks,
    in lag order, scored by each fit's own SSR: the differential oracle."""
    max_lags = min(unitroot.default_max_lags(len(x)), (len(x) - 2 - CASES.index(case)) // 2 - 1)
    y, widest = _df_design(x, case, max_lags)
    t_common = len(y)
    best_lag, best_sbc = 0, math.inf
    for lag in range(min(max_lags, len(x) - 21) + 1):
        k = widest.shape[1] - max_lags + lag
        ssr = linalg._refuse_exact_fit(ols_fit(widest[:, :k], y).ssr, y,
                                       "the Dickey-Fuller regression")
        sbc = math.log(ssr / t_common) + k * math.log(t_common) / t_common
        if sbc < best_sbc:
            best_lag, best_sbc = lag, sbc
    return best_lag


def outcome(monkeypatch, x, case, search=None):
    """(repr of adf_test's result, or the type and message it raises; every SSR it judges
    for an exact fit), with ``search`` in place of the lag search if given."""
    judged, judge = [], linalg._refuse_exact_fit

    def recording(ssr, y, what):
        judged.append(ssr)
        return judge(ssr, y, what)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_refuse_exact_fit", recording)
        if search is not None:
            patch.setattr(unitroot, "_select_lags", search)
        try:
            got = repr(adf_test(x, case=case))
        except LongrunError as exc:
            got = (type(exc), str(exc))
    return got, judged


def same_outcome(monkeypatch, x, case):
    """adf_test's outcome, checked against the per-prefix search's: the same result or error,
    the same number of SSRs judged, each within 1e-13 of the oracle's (the R corner and a
    residual vector round differently) and the final regression's bit for bit."""
    got, judged = outcome(monkeypatch, x, case)
    want, oracle = outcome(monkeypatch, x, case, per_prefix_search)
    assert got == want, (len(x), case)
    assert judged == pytest.approx(oracle, rel=1e-13, abs=0.0), (len(x), case)
    if not isinstance(got, tuple):
        assert judged[-1].hex() == oracle[-1].hex()
    return got, judged


class TestOneCertificateSearch:
    """The search checks its widest design once and scores each lag from the R factor of
    [X y]; every answer and error must be the per-prefix search's."""

    # 2^40 puts a walk's level about 1e12 times its constant column, so some designs
    # fail the rank check and the search falls back to checking each prefix
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 2.0 ** 40], ids=["1", "2^-30", "2^40"])
    @pytest.mark.parametrize("case", CASES)
    def test_same_result_and_fits_as_the_per_prefix_search(self, monkeypatch, case, scale):
        raised = 0
        for x in search_corpus():
            got, _ = same_outcome(monkeypatch, scale * x, case)
            raised += isinstance(got, tuple)
        if scale == 1.0:
            assert raised == 0
        if scale == 2.0 ** 40 and case != "none":
            assert raised > 100

    def test_a_flat_series_under_none_is_an_exact_fit_at_lag_zero(self, monkeypatch):
        got, judged = same_outcome(monkeypatch, np.full(120, 3.5), "none")
        assert got == (DomainError, "exact fit: the Dickey-Fuller regression has zero residuals")
        assert len(judged) == 1

    # dx alternates 1, 2 but for its last value, which only the response sees: lag columns
    # j and j + 2 repeat and j, j + 1 sum to 3, while no fit is exact; with a trend, x_{t-1}
    # is 1.5 t plus a zigzag that dx_{t-1} spans, so lag 1 is the first collinear design
    @pytest.mark.parametrize("case, lag", [("none", 3), ("constant", 2), ("constant_trend", 1)])
    def test_collinear_lagged_differences_raise_at_the_first_collinear_lag(self, monkeypatch,
                                                                           case, lag):
        dx = np.tile([1.0, 2.0], 60)
        dx[-1] = 5.0
        x = np.concatenate([[0.0], np.cumsum(dx)])
        got, judged = same_outcome(monkeypatch, x, case)
        assert got[0] is RankDeficient and len(judged) == lag

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("n", [25, 60, 500])
    def test_a_value_only_the_widest_lag_column_sees(self, monkeypatch, bad, case, n):
        # x[cap - top] enters only the first row of the widest scored lag column
        cap = min(unitroot.default_max_lags(n), (n - 2 - CASES.index(case)) // 2 - 1)
        top = min(cap, n - 21)
        x = walk(3, n).values.copy()
        x[cap - top] = bad
        got, judged = same_outcome(monkeypatch, x, case)
        assert got == (DomainError, "non-finite values in regression inputs")
        assert len(judged) == top


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

    def test_default_bandwidth_at_and_just_below_its_steps(self):
        # 4 ((n - 1) / 100)^(2/9) is exactly 4 at n = 101 and first passes 5 at n = 274
        bandwidths = {n: pp_test(walk(8, n)).lags_or_bandwidth for n in (100, 101, 273, 274)}
        assert bandwidths == {100: 3, 101: 4, 273: 4, 274: 5}

    @pytest.mark.parametrize("a,b", [(3.0, 100.0), (0.01, -5.0)])
    def test_affine_invariance(self, a, b):
        x = walk(8).values
        base = pp_test(make_series(x))
        moved = pp_test(make_series(a * x + b))
        assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(TooShort):
            pp_test(make_series(np.arange(10.0)))

    def test_unsupported_case(self):
        with pytest.raises(UnsupportedCase):
            pp_test(walk(8, n=30), case="bogus")

    def test_negative_bandwidth_is_a_domain_error(self, fits):
        # checked before the regression, so a flat series under case "none",
        # whose regression would fit exactly, gets this error too
        with pytest.raises(DomainError, match=r"^bandwidth must be >= 0$"):
            pp_test(walk(8), bandwidth=-1)
        with pytest.raises(DomainError, match=r"^bandwidth must be >= 0$"):
            pp_test(make_series(np.full(120, 3.5)), case="none", bandwidth=-1)
        assert fits == []

    def test_one_qr_per_regression(self, qr_calls):
        pp_test(walk(8))
        assert qr_calls[0] == 1
