import math

import numpy as np
import pytest

from longrun.errors import DimensionMismatch, NotPositiveDefinite, RankDeficient, TooShort
from longrun.linalg import (
    _unscaled_covariance,
    log_det,
    ols_fit,
    residuals_of,
    solve_generalized_eig,
)
from longrun.synth import Rng

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

    def test_loglik_formula(self):
        rng = Rng(3)
        X = np.column_stack([np.ones(30), rng.normals(30)])
        y = rng.normals(30)
        fit = ols_fit(X, y)
        t = 30
        expected = -(t / 2.0) * (1.0 + math.log(2 * math.pi) + math.log(fit.ssr / t))
        assert fit.loglik == pytest.approx(expected, rel=1e-12)
        assert fit.df_resid == 28
        assert fit.sigma2 == pytest.approx(fit.ssr / 28, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ols_fit(np.ones((5, 1)), np.ones(4))

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


class TestGeneralizedEig:
    def test_identity_pair(self):
        w, _ = solve_generalized_eig(np.eye(2), np.eye(2))
        assert w == pytest.approx([1.0, 1.0])

    def test_diagonal_case(self):
        w, _ = solve_generalized_eig(np.diag([4.0, 1.0]), np.eye(2))
        assert w == pytest.approx([4.0, 1.0])

    def test_quadratic_formula_oracle_seed11(self):
        rng = Rng(11)
        G = rng.normals(4).reshape(2, 2)
        H = rng.normals(4).reshape(2, 2)
        A = G.T @ G
        B = H.T @ H + np.eye(2)
        w, V = solve_generalized_eig(A, B)
        # roots of det(A - lambda B) = 0 expanded by hand
        a = B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
        b = -(A[0, 0] * B[1, 1] + A[1, 1] * B[0, 0] - A[0, 1] * B[1, 0] - A[1, 0] * B[0, 1])
        c = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        disc = math.sqrt(b * b - 4 * a * c)
        roots = sorted([(-b + disc) / (2 * a), (-b - disc) / (2 * a)], reverse=True)
        assert w == pytest.approx(roots, abs=1e-10)
        for lam, v in zip(w, V.T):
            assert A @ v == pytest.approx(lam * (B @ v), abs=1e-8)

    @pytest.mark.parametrize("seed", [11, 31, 77])
    def test_psd_pair_nonnegative_eigenvalues(self, seed):
        rng = Rng(seed)
        G = rng.normals(9).reshape(3, 3)
        H = rng.normals(9).reshape(3, 3)
        w, _ = solve_generalized_eig(G.T @ G, H.T @ H + np.eye(3))
        assert np.all(w >= -1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_generalized_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_b_is_rejected(self):
        # a Cholesky factorization reads only the lower triangle, so B's
        # symmetry must be checked before it
        with pytest.raises(NotPositiveDefinite, match="B is not symmetric"):
            solve_generalized_eig(np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]]))


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
        with pytest.raises(NotPositiveDefinite):
            log_det(np.array([[1.0, 0.0], [0.0, -1.0]]))


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
