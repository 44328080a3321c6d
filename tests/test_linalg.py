import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from longrun import linalg, unitroot
from longrun.errors import (
    DimensionMismatch,
    DomainError,
    LongrunError,
    NotPositiveDefinite,
    RankDeficient,
    TooShort,
)
from longrun.linalg import (
    RANK_RTOL,
    _corner_ssr,
    _factor,
    _prefix_ssrs,
    _refuse_exact_fit,
    _residual_covariance,
    _t_ratio_first,
    canonical_correlations,
    log_det,
    ols_fit,
    residuals_of,
)
from longrun.synth import Rng
from longrun.unitroot import adf_test

from conftest import normal_eq_solve


class TestOlsFit:
    def test_constant_fit(self):
        X = np.ones((5, 1))
        fit = ols_fit(X, np.full(5, 3.0))
        assert fit.coefficients == pytest.approx([3.0])
        assert fit.ssr == pytest.approx(0.0, abs=1e-20)

    def test_nested_lists_and_integer_arrays(self):
        want = ols_fit(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), np.array([1.0, 2.0, 4.0]))
        X, y = [[1, 0], [1, 1], [1, 2]], [1, 2, 4]
        for got in (ols_fit(X, y), ols_fit(np.array(X), np.array(y))):
            assert np.array_equal(got.coefficients, want.coefficients)
            assert np.array_equal(got.residuals, want.residuals)
            assert (got.ssr, got.sigma2) == (want.ssr, want.sigma2)

    def test_exact_line(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        fit = ols_fit(X, np.array([1.0, 3.0, 5.0]))
        assert fit.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert fit.residuals == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_matches_normal_equations_seed7(self):
        rng = Rng(7)
        X = rng.normals(60).reshape(20, 3)
        y = rng.normals(20)
        fit = ols_fit(X, y)
        assert fit.coefficients == pytest.approx(normal_eq_solve(X, y), abs=1e-10)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_normal_equations_many(self, seed):
        rng = Rng(1000 + seed)
        t = 10 + (seed * 7) % 41  # 10..50
        k = 1 + seed % 5
        X = rng.normals(t * k).reshape(t, k)
        y = rng.normals(t)
        fit = ols_fit(X, y)
        expected = normal_eq_solve(X, y)
        assert fit.coefficients == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_residuals_orthogonal_to_regressors(self):
        rng = Rng(99)
        X = np.column_stack([np.ones(40), rng.normals(40), rng.normals(40)])
        y = rng.normals(40) * 3.0 + 1.0
        fit = ols_fit(X, y)
        e = fit.residuals
        for j in range(X.shape[1]):
            bound = 1e-8 * np.linalg.norm(X[:, j]) * np.linalg.norm(e)
            assert abs(X[:, j] @ e) <= max(bound, 1e-12)

    def test_sigma2_formula(self):
        rng = Rng(3)
        X = np.column_stack([np.ones(30), rng.normals(30)])
        fit = ols_fit(X, rng.normals(30))
        assert fit.sigma2 == pytest.approx(fit.ssr / 28, rel=1e-12)

    def test_dimension_mismatch(self):
        for X, y, message in [(np.ones((5, 1)), np.ones(4), "X has 5 rows but y has 4"),
                              (np.ones((5, 1)), np.ones((5, 1)), "X must be 2-D and y 1-D"),
                              (np.ones((5, 0)), np.ones(5), "X needs at least one column")]:
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                ols_fit(X, y)

    def test_too_short(self):
        with pytest.raises(TooShort):
            ols_fit(np.ones((2, 2)), np.ones(2))

    def test_rank_deficient(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(RankDeficient):
            ols_fit(X, np.ones(10))

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_zero_design_is_rank_deficient(self, k):
        with pytest.raises(RankDeficient, match=r"\(sv ratio 0\.00e\+00\)$"):
            ols_fit(np.zeros((10, k)), np.ones(10))

    def test_one_dimensional_x_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit(np.arange(5.0), np.ones(5))

    def test_coef_covariance_matches_inverse(self):
        # the t ratio's variance is sigma2 times the [0, 0] entry of (X'X)^-1
        rng = Rng(8)
        X = np.column_stack([np.ones(25), rng.normals(25)])
        fit, _, se0 = _t_ratio_first(X, rng.normals(25), "this fit")
        assert se0 ** 2 / fit.sigma2 == pytest.approx(np.linalg.inv(X.T @ X)[0, 0], rel=1e-9)


def _svd_of_x_rule(X):
    """The message of the rank check on the SVD of X itself, or None if X passes."""
    sv = np.linalg.svd(X, compute_uv=False)
    ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
    if ratio <= RANK_RTOL:
        return f"design matrix is numerically singular (sv ratio {ratio:.2e})"
    return None


def mixed_design(rng, t, columns, tie):
    """A T x k design of (kind, scale) columns: a walk, noise, ones, or a near copy of an
    earlier column, off by ``tie`` times its largest magnitude in noise."""
    cols = []
    for kind, scale in columns:
        if kind == "near copy" and cols:
            base = cols[rng.integers(len(cols))]
            col = base + tie * np.abs(base).max() * rng.standard_normal(t)
        elif kind == "ones":
            col = np.ones(t)
        else:
            col = rng.standard_normal(t)
            col = np.cumsum(col) if kind == "walk" else col
        cols.append(scale * col)
    return np.column_stack(cols)


def rank_outcome(check, X, y):
    """None when ``check(X, y)`` passes, else the type and message it raises."""
    try:
        check(X, y)
    except LongrunError as exc:
        return type(exc), str(exc)
    return None


class TestRankCertificate:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(6, 400), extra=st.integers(0, 4),
           s=st.sampled_from([0.0, 1.0, -3.0, 1e-3, 1e3]),
           tie=st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]),
           scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]))
    def test_decides_as_the_svd_of_x_and_returns_numpys_qr(self, seed, t, extra, s, tie, scale):
        # [a, s a + tie b, ...]: a near copy of a column; scaling the pair
        # against unit columns is the other way a design loses conditioning
        rng = np.random.default_rng(seed)
        a, b = np.cumsum(rng.standard_normal((2, t)), axis=1)
        X = np.column_stack([scale * a, scale * (s * a + tie * b),
                             *rng.standard_normal((min(extra, t - 3), t))])
        y = rng.standard_normal(t)
        expected = _svd_of_x_rule(X)
        if expected is None:
            _, _, Q, R = _factor(X, y)
            want_q, want_r = np.linalg.qr(X)
            assert np.array_equal(Q, want_q) and np.array_equal(R, want_r)
        else:
            with pytest.raises(RankDeficient) as info:
                _factor(X, y)
            assert str(info.value) == expected

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), extra=st.integers(1, 300),
           columns=st.lists(st.tuples(
               st.sampled_from(["walk", "noise", "ones", "near copy"]),
               st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])),
               min_size=1, max_size=9),
           tie=st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-4]))
    def test_a_design_that_passes_passes_in_every_column_prefix(self, seed, extra, columns, tie):
        # the ADF lag search checks only its widest design: by interlacing, no column
        # prefix has a smaller singular-value ratio than the whole design
        rng = np.random.default_rng(seed)
        t = len(columns) + extra
        X, y = mixed_design(rng, t, columns, tie), rng.standard_normal(t)
        sv = np.linalg.svd(X, compute_uv=False)
        # within rounding of RANK_RTOL the computed ratios of X and a prefix may cross it
        assume(not abs(sv[-1] / sv[0] / RANK_RTOL - 1.0) < 0.01)
        try:
            _factor(X, y)
        except RankDeficient:
            return
        for k in range(1, X.shape[1]):
            _factor(X[:, :k], y)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(3, 200),
           columns=st.lists(st.tuples(
               st.sampled_from(["walk", "noise", "ones", "near copy"]),
               st.sampled_from([1.0, 2.0 ** -30, 2.0 ** 20, 2.0 ** 45, 2.0 ** 60,
                                1e-3, 1e3, 1e9, 1e17])),
               min_size=1, max_size=12),
           tie=st.sampled_from([0.0, 1e-16, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-8, 1e-4]))
    def test_the_raw_qr_of_x_and_y_certifies_as_factor_does(self, seed, t, columns, tie):
        # the ADF lag search checks a design with _corner_ssr, which certifies it from the
        # leading k x k block of LAPACK's raw QR of [X y], whose R lies on and above the
        # diagonal: it must raise exactly when _factor does, with the same message (both
        # fall back to the SVD of X)
        rng = np.random.default_rng(seed)
        X, y = mixed_design(rng, t, columns[:t - 1], tie), rng.standard_normal(t)
        assert rank_outcome(_factor, X, y) == rank_outcome(_corner_ssr, X, y)

    def test_a_ratio_of_exactly_rank_rtol_is_rank_deficient(self):
        # orthogonal columns of norms 1 and s: the SVD of X returns exactly 1 and s
        y = np.ones(3)
        with pytest.raises(RankDeficient, match=r"\(sv ratio 1\.00e-12\)$"):
            _factor(np.array([[1.0, 0.0], [0.0, RANK_RTOL], [0.0, 0.0]]), y)
        _factor(np.array([[1.0, 0.0], [0.0, math.nextafter(RANK_RTOL, 1.0)], [0.0, 0.0]]), y)

    def test_only_an_uncertified_design_pays_for_the_svd_of_x(self, monkeypatch):
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 4))])
        _factor(X, rng.standard_normal(200))
        assert shapes == [(5, 5)]
        shapes.clear()
        adf_test(np.cumsum(rng.standard_normal(300)), case="constant_trend")
        assert shapes and all(rows == cols for rows, cols in shapes)
        shapes.clear()
        # an R ratio near 1e-11: below the certificate, above RANK_RTOL
        a = rng.standard_normal(200)
        near = np.column_stack([np.ones(200), a, a + 1e-10 * rng.standard_normal(200)])
        _factor(near, rng.standard_normal(200))
        assert shapes == [(3, 3), (200, 3)]


class TestPrefixSsrs:
    """_prefix_ssrs scores every column prefix from ``first`` to the whole design, in order."""

    @pytest.mark.parametrize("first", [1, 3, 6])
    def test_each_prefix_is_scored_by_its_own_corner(self, first):
        rng = np.random.default_rng(first)
        X = np.column_stack([np.ones(80), rng.standard_normal((80, 5))])
        y = X @ rng.standard_normal(6) + rng.standard_normal(80)
        got = _prefix_ssrs(lambda: (y, X), first, "this fit")
        assert [ssr.hex() for ssr in got] == [_corner_ssr(X[:, :k], y).hex()
                                              for k in range(first, 7)]
        assert got == pytest.approx([ols_fit(X[:, :k], y).ssr for k in range(first, 7)],
                                    rel=1e-12)


def lag_order_prefix_ssrs(design, first, what):
    """_prefix_ssrs as it was before its column-major buffer, the differential oracle: X checked
    and certified by one raw QR of np.column_stack([X, y]), then one such stack and QR per
    prefix, in lag order, each checked as well if X failed, and each SSR judged as it comes."""
    y, X = design()

    def corner(X, y, check):
        X, y = linalg._checked(X, y) if check else (X, y)
        k = X.shape[1]
        H = np.linalg.qr(np.column_stack([X, y]), mode="raw")[0].T
        if check:
            linalg._certify(np.triu(H[:k, :k]), X)
        corner = float(H[k, k])
        return corner * corner

    K = X.shape[1]
    try:
        widest, check = corner(X, y, True), False
    except LongrunError:
        widest, check = None, True
    return [_refuse_exact_fit(corner(X[:, :k], y, check) if check or k < K else widest, y, what)
            for k in range(first, K + 1)]


def adf_search(x, case):
    """(X, y, first) of adf_test's lag search on x: the widest scored design on the common
    sample of Schwert's cap, its response, and the column count of lag 0."""
    n, base = len(x), 1 + unitroot.CASES.index(case)
    cap = min(unitroot.default_max_lags(n), (n - 2 - base + 1) // 2 - 1)
    y, X = unitroot._df_design(x, case, cap)
    return X[:, :base + min(cap, n - 21)], y, base


def ssrs_outcome(search, X, y, first):
    """The hex SSRs ``search`` returns, or the type and message it raises and whether that
    error is raised on its own (not chained to another it was handling)."""
    try:
        return [ssr.hex() for ssr in search(lambda: (y, X), first,
                                            "the Dickey-Fuller regression")]
    except LongrunError as exc:
        return type(exc), str(exc), exc.__context__ is None


class TestPrefixSsrsDifferential:
    """_prefix_ssrs scores the prefixes from one column-major buffer, widest first; every SSR
    and every error must be the lag-order stack-per-prefix search's, bit for bit."""

    def same_outcome(self, x, case):
        X, y, first = adf_search(x, case)
        before = X.copy()
        got = ssrs_outcome(_prefix_ssrs, X, y, first)
        assert got == ssrs_outcome(lag_order_prefix_ssrs, X, y, first), (len(x), case)
        assert np.array_equal(X, before)  # the caller's design is read, never written
        return got

    # 2^40 puts a walk's level about 1e12 times its constant column, so some widest designs
    # fail their check and every prefix is checked in lag order
    @pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40], ids=["2^-40", "1", "2^40"])
    @pytest.mark.parametrize("case", unitroot.CASES)
    @pytest.mark.parametrize("t", [25, 120, 500, 2000])
    def test_seeded_walks_and_ar1(self, t, case, scale):
        rng = np.random.default_rng(t)
        for _ in range(3):
            e = rng.standard_normal(t)
            ar1 = np.empty(t)
            ar1[0] = e[0]
            for i in range(1, t):
                ar1[i] = 0.5 * ar1[i - 1] + e[i]
            for x in (np.cumsum(e), ar1):
                self.same_outcome(scale * x, case)

    @pytest.mark.parametrize("case, lag", [("none", 3), ("constant", 2), ("constant_trend", 1)])
    def test_a_collinear_design_whose_widest_prefix_fails(self, case, lag):
        # dx alternates 1, 2 but for its last value: lag columns j and j + 2 repeat
        dx = np.tile([1.0, 2.0], 60)
        dx[-1] = 5.0
        got = self.same_outcome(np.concatenate([[0.0], np.cumsum(dx)]), case)
        assert got[0] is RankDeficient

    # (with a trend, x_{t-1} on a line is collinear with the deterministic terms)
    @pytest.mark.parametrize("line, case", [(np.arange(1.0, 121.0), "none"),
                                            (3.0 * np.arange(1.0, 121.0) + 7.0, "constant")],
                             ids=["x none", "3x+7 constant"])
    def test_a_straight_line_is_an_exact_fit(self, line, case):
        got = self.same_outcome(line, case)
        assert got[0] is DomainError and got[1].startswith("exact fit: ")

    def test_the_overflow_walk(self):
        walk = np.cumsum(np.random.default_rng(0).standard_normal(240)) * 2.0 ** 1000
        got = self.same_outcome(walk, "none")
        assert got[0] is DomainError and got[1].startswith("overflow: ")


class TestExactFitFloor:
    """_refuse_exact_fit judges an SSR, here _corner_ssr's (the squared R corner of [X y], as
    the ADF lag search scores it), against ssr <= (T eps)^2 y'y."""

    @pytest.mark.parametrize("seed", range(5))
    def test_y_in_the_span_of_a_full_rank_x_is_adfs_exact_fit(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(200), rng.standard_normal((200, 4))])
        y = X @ rng.standard_normal(5)
        _factor(X, y)  # full rank
        with pytest.raises(DomainError, match=r"^exact fit: the Dickey-Fuller regression has "
                                              r"zero residuals$"):
            _prefix_ssrs(lambda: (y, X), 5, "the Dickey-Fuller regression")

    def test_a_corner_past_the_float_range_squares_to_inf(self):
        y = np.array([1e200, -1e200, 1e200, -1e200])
        assert _corner_ssr(np.ones((4, 1)), y) == math.inf

    def test_an_overflowed_ssr_is_refused_before_y_y_is_formed(self):
        # y'y overflows too, and numpy's warning is an error in this suite
        with pytest.raises(DomainError, match=r"^overflow: this fit has a sum of squared "
                                              r"residuals past the float range$"):
            _refuse_exact_fit(math.inf, np.full(10, 1e300), "this fit")

    def test_a_floor_below_the_float_range_is_an_underflow_unless_y_is_zero(self):
        # y'y underflows to 0 (1e-300) or leaves the floor (T eps)^2 y'y subnormal (1e-145),
        # so an SSR of 0 may be a lost one; at 1e-130 the floor is normal and 0 is under it
        for scale in (1e-300, 1e-145):
            with pytest.raises(DomainError, match=r"^underflow: this fit has sums of squares "
                                                  r"below the float range$"):
                _refuse_exact_fit(0.0, np.array([scale, 0.0] * 5), "this fit")
        # at T = 2 and y'y = 2^-920 the floor is 2^-1022, the smallest normal float
        for y in (np.zeros(10), np.array([1e-130, 0.0] * 5), np.array([2.0 ** -460, 0.0])):
            with pytest.raises(DomainError, match=r"^exact fit: this fit has zero residuals$"):
                _refuse_exact_fit(0.0, y, "this fit")

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("t", [40, 200, 2000])
    def test_an_ssr_just_above_the_floor_passes(self, seed, t):
        # y = X b + d e with e orthogonal to X, sized so the SSR is twice the floor
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(t), rng.standard_normal((t, 3))])
        Q, _ = np.linalg.qr(X)
        z = rng.standard_normal(t)
        e = z - Q @ (Q.T @ z)
        fitted = X @ rng.standard_normal(4)
        floor = (t * np.finfo(float).eps) ** 2 * float(fitted @ fitted)
        y = fitted + math.sqrt(2.0 * floor / float(e @ e)) * e
        ssr = _corner_ssr(X, y)
        assert ssr == pytest.approx(2.0 * floor, rel=1e-2)
        assert _refuse_exact_fit(ssr, y, "this fit") == ssr
        # the rule itself: the floor raises, the next float up passes
        floor = (t * np.finfo(float).eps) ** 2 * float(y @ y)
        with pytest.raises(DomainError, match=r"^exact fit: this fit has zero residuals$"):
            _refuse_exact_fit(floor, y, "this fit")
        assert _refuse_exact_fit(math.nextafter(floor, math.inf), y, "this fit") > floor

    @pytest.mark.parametrize("case", ["none", "constant", "constant_trend"])
    def test_the_search_refuses_an_exact_prefix_of_a_certified_design(self, monkeypatch, case):
        # from x[8] on x halves each step, so on the common sample of 8 lags (n = 25) dx_t
        # is exactly -x_{t-1} / 2, while the earlier walk keeps the lag columns independent:
        # the widest design passes its one check and lag 0 fits exactly
        walk = np.cumsum(np.random.default_rng(0).standard_normal(8))
        x = np.concatenate([walk, 1024.0 * 0.5 ** np.arange(17)])
        fits = []
        monkeypatch.setattr(linalg, "ols_fit", lambda X, y: fits.append(X) or ols_fit(X, y))
        with pytest.raises(DomainError, match=r"^exact fit: the Dickey-Fuller regression"):
            adf_test(x, case=case)
        assert fits == []  # scored from the R corner alone, not by the fallback's fits

    # a flat series under "none" has zero lag columns and a straight line constant ones: the
    # widest design fails its check (its R, then the SVD of X), so every prefix is checked in
    # lag order through the QR it is scored from, one k x k certificate each, and none fitted
    @pytest.mark.parametrize("x, case, exact_lag", [(np.full(120, 3.5), "none", 0),
                                                    (np.arange(1.0, 121.0), "none", 1),
                                                    (np.arange(1.0, 121.0), "constant", 0),
                                                    (3.0 * np.arange(1.0, 121.0) + 7.0,
                                                     "constant", 0)],
                             ids=["flat", "x none", "x constant", "3x+7 constant"])
    def test_flat_and_straight_line_searches_refuse_through_the_fallback(self, monkeypatch,
                                                                         x, case, exact_lag):
        fits, svds, svd = [], [], np.linalg.svd
        monkeypatch.setattr(linalg, "ols_fit", lambda X, y: fits.append(X) or ols_fit(X, y))
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: svds.append(
            np.shape(a)) or svd(a, *args, **kwargs))
        with pytest.raises(DomainError, match=r"^exact fit: the Dickey-Fuller regression"):
            adf_test(x, case=case)
        base, top = 1 + unitroot.CASES.index(case), 12  # Schwert's cap at n = 120
        widest = [(base + top, base + top), (119 - top, base + top)]
        assert svds == [*widest, *[(base + lag, base + lag) for lag in range(exact_lag + 1)]]
        assert fits == []


def _walk_block(seed: int, t: int, p: int) -> np.ndarray:
    """T x p block of demeaned random walks, shaped like Johansen's residuals."""
    block = np.cumsum(Rng(seed).normals(t * p).reshape(t, p), axis=0)
    return block - block.mean(axis=0)


class TestCanonicalCorrelations:
    @pytest.mark.parametrize("seed, t, p0, p1", [(11, 40, 2, 2), (31, 120, 3, 3),
                                                 (77, 60, 2, 4), (5, 200, 4, 2)])
    def test_cos_squared_of_scipy_subspace_angles(self, seed, t, p0, p1):
        r0 = _walk_block(seed, t, p0)
        r1 = _walk_block(seed + 1, t, p1) + 0.5 * _walk_block(seed, t, p1)
        w, _ = canonical_correlations(r0, r1)
        angles = scipy.linalg.subspace_angles(r0, r1)  # largest angle first
        assert w == pytest.approx(np.cos(angles)[::-1] ** 2, abs=1e-12)
        assert np.all(np.diff(w) <= 0.0) and 0.0 <= w[-1] and w[0] <= 1.0

    def test_vectors_are_s11_orthonormal_and_solve_the_johansen_problem(self):
        r0 = _walk_block(3, 80, 3)
        r1 = _walk_block(4, 80, 3) + _walk_block(3, 80, 3) @ np.diag([1.0, -2.0, 0.5])
        w, V = canonical_correlations(r0, r1)
        s00, s11, s01 = r0.T @ r0 / 80, r1.T @ r1 / 80, r0.T @ r1 / 80
        assert V.T @ s11 @ V == pytest.approx(np.eye(3), abs=1e-12)
        # lambda S11 v = S10 S00^-1 S01 v, column by column
        assert s01.T @ np.linalg.solve(s00, s01) @ V == pytest.approx(s11 @ V * w, abs=1e-10)

    def test_identical_blocks_correlate_fully(self):
        r = _walk_block(9, 50, 2)
        w, _ = canonical_correlations(r, 3.0 * r)
        assert w == pytest.approx([1.0, 1.0], abs=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_one_column_space_gives_correlations_clipped_to_one(self, seed):
        # unclipped, the squared singular values reach 1 + 4.4e-16 on some draws
        r = _walk_block(seed, 60, 2)
        w, _ = canonical_correlations(r, r @ np.array([[2.0, 1.0], [-1.0, 3.0]]))
        assert np.all(w <= 1.0)

    def test_exactly_collinear_block_is_rank_deficient(self):
        r0 = _walk_block(6, 60, 2)
        a = _walk_block(7, 60, 1)
        with pytest.raises(RankDeficient):
            canonical_correlations(r0, np.hstack([a, 2.0 * a]))
        with pytest.raises(RankDeficient):
            canonical_correlations(np.hstack([a, -a]), r0)


class TestLogDet:
    def test_identity(self):
        assert log_det(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_nested_lists_and_integer_arrays(self):
        M = [[2, 1], [1, 2]]
        assert log_det(M) == log_det(np.array(M)) == log_det(np.array(M, dtype=float))
        assert log_det(M) == pytest.approx(math.log(3.0), rel=1e-15)

    def test_diag_exponentials(self):
        assert log_det(np.diag([math.e, math.e ** 2])) == pytest.approx(3.0, rel=1e-12)

    def test_cofactor_oracle_seed13(self):
        rng = Rng(13)
        G = rng.normals(9).reshape(3, 3)
        M = G.T @ G + np.eye(3)
        # cofactor expansion along the first row
        det = (
            M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
            - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
            + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
        )
        assert log_det(M) == pytest.approx(math.log(det), abs=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite, match="^M is not positive definite$"):
            log_det(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_symmetric_indefinite_m_is_not_positive_definite(self):
        # positive diagonal, eigenvalues 3 and -1: only the factorization sees it
        with pytest.raises(NotPositiveDefinite, match="^M is not positive definite$"):
            log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("M", [np.ones((2, 3)), np.ones(3)], ids=["2 x 3", "1-D"])
    def test_non_square_m_is_a_dimension_mismatch(self, M):
        with pytest.raises(DimensionMismatch, match="^M must be square$"):
            log_det(M)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_m_is_a_domain_error_before_the_symmetry_check(self, bad):
        # an inf entry would otherwise meet inf - inf in M - M.T
        for M in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [0.0, 1.0]]):
            with pytest.raises(DomainError, match="^non-finite value in M$"):
                log_det(np.array(M))

    def test_symmetry_tolerance_has_a_scale_floor_of_one(self):
        # 1.5e-10 of asymmetry passes 1e-10 * max|M| = 1e-13 by far, but not 1e-10 * 1
        with pytest.raises(NotPositiveDefinite, match="^M is not symmetric$"):
            log_det(np.array([[1e-3, 1.5e-10], [0.0, 1e-3]]))

    def test_asymmetric_m_is_rejected(self):
        # a Cholesky factorization reads only the lower triangle, so M's
        # symmetry must be checked before it
        with pytest.raises(NotPositiveDefinite, match="^M is not symmetric$"):
            log_det(np.array([[2.0, 1.0], [0.0, 2.0]]))


class TestResidualCovariance:
    # E'E once overflowed in numpy's matmul (an error in this suite) and then read as a
    # non-finite M in log_det, or underflowed to a covariance log_det called not positive
    # definite
    def test_an_entry_past_the_float_range_is_an_overflow(self):
        Y = np.array([[1e200, 1.0], [-1e200, 2.0], [3e200, 0.5], [-3e200, 1.0]])
        with pytest.raises(DomainError, match=r"^overflow: the residual covariance has an entry "
                                              r"past the float range$"):
            _residual_covariance(np.ones((4, 1)), Y)

    def test_a_nonzero_residual_column_below_the_float_range_is_an_underflow(self):
        Y = np.array([[1e-170, 1.0], [-1e-170, 2.0], [3e-170, 0.5], [-3e-170, 1.0]])
        with pytest.raises(DomainError, match=r"^underflow: the residual covariance has a "
                                              r"variance below the float range$"):
            _residual_covariance(np.ones((4, 1)), Y)

    def test_a_variance_of_the_smallest_normal_float_is_in_range(self):
        a = 2.0 ** -511  # residuals +-a have the variance a^2 = 2^-1022
        S = _residual_covariance(np.ones((4, 1)), np.array([[a, 1.0], [-a, 2.0], [a, 0.5],
                                                            [-a, 1.0]]))
        assert S[0, 0] == np.finfo(float).tiny

    def test_a_zero_residual_column_is_left_to_log_det(self):
        # an equation that fits exactly gives a singular covariance, not an underflow
        S = _residual_covariance(np.ones((4, 1)), np.array([[2.0, 1.0], [2.0, 2.0],
                                                            [2.0, 0.5], [2.0, 1.0]]))
        assert S[0, 0] == 0.0 and S[1, 1] > 0.0
        with pytest.raises(NotPositiveDefinite):
            log_det(S)


def test_residuals_of_annihilates_regressors():
    rng = Rng(21)
    Z = np.column_stack([np.ones(30), rng.normals(30)])
    Y = rng.normals(60).reshape(30, 2)
    R = residuals_of(Y, Z)
    assert Z.T @ R == pytest.approx(np.zeros((2, 2)), abs=1e-9)


def test_residuals_of_checks_its_design_as_ols_fit_does():
    x = np.arange(10.0)
    with pytest.raises(RankDeficient):
        residuals_of(np.ones((10, 2)), np.column_stack([np.ones(10), x, 2.0 * x]))
    with pytest.raises(TooShort):
        residuals_of(np.ones((3, 2)), Rng(4).normals(12).reshape(3, 4))
