import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun.errors import (
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
    RankDeficient,
    TooShort,
)
from longrun.linalg import (
    RANK_RTOL,
    _factor,
    _unscaled_covariance,
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

    def test_one_dimensional_x_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit(np.arange(5.0), np.ones(5))

    def test_coef_covariance_matches_inverse(self):
        rng = Rng(8)
        X = np.column_stack([np.ones(25), rng.normals(25)])
        cov = _unscaled_covariance(ols_fit(X, rng.normals(25)))
        assert cov == pytest.approx(np.linalg.inv(X.T @ X), rel=1e-9)


def _svd_of_x_rule(X):
    """The message of the rank check on the SVD of X itself, or None if X passes."""
    sv = np.linalg.svd(X, compute_uv=False)
    ratio = sv[-1] / sv[0] if sv[0] > 0.0 else 0.0
    if ratio <= RANK_RTOL:
        return f"design matrix is numerically singular (sv ratio {ratio:.2e})"
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

    def test_asymmetric_m_is_rejected(self):
        # a Cholesky factorization reads only the lower triangle, so M's
        # symmetry must be checked before it
        with pytest.raises(NotPositiveDefinite, match="^M is not symmetric$"):
            log_det(np.array([[2.0, 1.0], [0.0, 2.0]]))


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
