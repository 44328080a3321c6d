import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun import johansen
from longrun.errors import DomainError, LongrunError, TooShort, UnsupportedCase
from longrun.johansen import (
    NO_COINTEGRATION,
    JohansenResult,
    approx_pvalue,
    johansen_critical,
    johansen_test,
    max_eigen_statistics,
    rank_decision,
    trace_statistics,
)
from longrun.linalg import residuals_of
from longrun.series import Panel, lag_matrix
from longrun.synth import ProcessSpec, Rng, generate

from conftest import make_panel

PAPER_EIGS = (0.169895, 0.014806)
PAPER_T = 56


def tied_walks(seed: int, n: int, m: int, tie: float) -> np.ndarray:
    """n x m seeded random walks whose second column is the first plus tie times a walk."""
    data = np.cumsum(Rng(seed).normals(n * m).reshape(n, m), axis=0)
    data[:, 1] = data[:, 0] + tie * data[:, 1]
    return data


def mpmath_eigenvalues(data: np.ndarray, k: int) -> np.ndarray:
    """Johansen eigenvalues of the float64 residual blocks johansen_test builds,
    solved from S_ij in 50-digit arithmetic through the Cholesky factor of S11."""
    n = data.shape[0]
    dx = np.diff(data, axis=0)
    Z = np.hstack([np.ones((n - k - 1, 1)), lag_matrix(dx, k)])
    with mpmath.workdps(50):
        r0 = mpmath.matrix(residuals_of(dx[k:], Z).tolist())
        r1 = mpmath.matrix(residuals_of(data[k: n - 1], Z).tolist())
        s01 = r0.T * r1
        l_inv = mpmath.inverse(mpmath.cholesky(r1.T * r1))
        c = l_inv * s01.T * mpmath.inverse(r0.T * r0) * s01 * l_inv.T
        w = mpmath.eigsy((c + c.T) / 2, eigvals_only=True)
        return np.array(sorted((float(x) for x in w), reverse=True))


def result_from_paper_numbers() -> JohansenResult:
    trace = trace_statistics(PAPER_EIGS, PAPER_T)
    maxeig = max_eigen_statistics(PAPER_EIGS, PAPER_T)
    return JohansenResult(
        eigenvalues=np.array(PAPER_EIGS),
        eigenvectors=np.eye(2),
        trace_stats=trace,
        max_eigen_stats=maxeig,
        trace_crit_5pct=np.array([15.49471, 3.841466]),
        max_eigen_crit_5pct=np.array([14.26460, 3.841466]),
        trace_pvalues=np.array([approx_pvalue("trace", 2, trace[0]),
                                approx_pvalue("trace", 1, trace[1])]),
        max_eigen_pvalues=np.array([approx_pvalue("max_eigen", 2, maxeig[0]),
                                    approx_pvalue("max_eigen", 1, maxeig[1])]),
        effective_obs=PAPER_T,
        lagged_diffs=1,
        deterministic_case="constant",
        decided_rank=0,
    )


class TestStatisticsFromEigenvalues:
    def test_trace_and_max_eigen_reproduce_published_arithmetic(self):
        trace = trace_statistics(PAPER_EIGS, PAPER_T)
        maxeig = max_eigen_statistics(PAPER_EIGS, PAPER_T)
        assert trace[0] == pytest.approx(11.26272, abs=1e-4)
        assert maxeig[0] == pytest.approx(10.42736, abs=1e-4)
        # the eigenvalue is printed to 6 decimals, which propagates to ~3e-5
        # of slack in -T ln(1 - lambda)
        assert trace[1] == pytest.approx(0.835353, abs=5e-5)
        assert maxeig[1] == trace[1]

    def test_telescoping_identity(self):
        trace = trace_statistics(PAPER_EIGS, PAPER_T)
        maxeig = max_eigen_statistics(PAPER_EIGS, PAPER_T)
        assert trace[0] == pytest.approx(maxeig[0] + trace[1], abs=1e-10)
        assert trace[1] == pytest.approx(maxeig[1], abs=1e-12)


class TestCriticalValues:
    def test_trace_bivariate(self):
        assert johansen_critical("constant", 2, "trace") == pytest.approx(15.49471, abs=1e-4)

    def test_max_eigen_bivariate(self):
        assert johansen_critical("constant", 2, "max_eigen") == pytest.approx(14.26460, abs=1e-4)

    def test_univariate_equals_chi2_quantile(self):
        cv = johansen_critical("constant", 1, "trace")
        assert cv == pytest.approx(3.841466, abs=1e-4)
        # chi-square(1) is Z^2, so its 95% quantile is the squared 97.5% normal quantile
        assert cv == pytest.approx(statistics.NormalDist().inv_cdf(0.975) ** 2, abs=1e-5)

    def test_unsupported(self):
        with pytest.raises(UnsupportedCase):
            johansen_critical("constant_trend", 2, "trace")
        with pytest.raises(UnsupportedCase):
            johansen_critical("constant", 7, "trace")
        with pytest.raises(UnsupportedCase):
            johansen_critical("constant", 2, "median")


class TestApproxPvalues:
    def test_against_published_table_values(self):
        assert approx_pvalue("trace", 2, 11.26272) == pytest.approx(0.1958, abs=0.02)
        assert approx_pvalue("max_eigen", 2, 10.42736) == pytest.approx(0.1854, abs=0.02)
        assert approx_pvalue("trace", 1, 0.835353) == pytest.approx(0.3607, abs=0.02)

    def test_five_percent_consistency_with_critical_values(self):
        # every fitted gamma reproduces its own 5% quantile, within 2.2e-5; a
        # table entry one unit off moves its p-value by at least 0.0074
        for kind in ("trace", "max_eigen"):
            for dim in range(1, 7):
                cv = johansen_critical("constant", dim, kind)
                assert approx_pvalue(kind, dim, cv) == pytest.approx(0.05, abs=1e-4)

    def test_monotone(self):
        grid = np.linspace(0.0, 40.0, 81)
        values = [approx_pvalue("trace", 2, float(x)) for x in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", ["trace", "max_eigen"])
    def test_a_statistic_at_or_below_zero_has_p_value_one(self, kind):
        # gamma_sf rejects a negative x, so -1.0 needs the guard
        assert approx_pvalue(kind, 2, 0.0) == approx_pvalue(kind, 2, -1.0) == 1.0
        assert approx_pvalue(kind, 2, 0.5) < 1.0

    @pytest.mark.parametrize("m_minus_r", [0, 7])
    def test_unsupported_dimension(self, m_minus_r):
        with pytest.raises(UnsupportedCase,
                           match=r"^p-value approximation covers m - r in 1\.\.6$"):
            approx_pvalue("trace", m_minus_r, 5.0)


class TestJohansenTest:
    def test_independent_walks_rank_zero(self, walk_pair):
        result = johansen_test(walk_pair, lagged_diffs=1)
        assert result.decided_rank == 0
        assert result.effective_obs == 500 - 1 - 1

    def test_cointegrated_pair_rank_one_and_vector(self, coint_pair):
        result = johansen_test(coint_pair, lagged_diffs=1)
        assert result.decided_rank == 1
        v = result.eigenvectors[:, 0]
        # normalized on the y coefficient, the relation is y - 2x
        ratio = v[0] / v[1]
        assert abs(ratio - (-2.0)) < 0.2

    @pytest.mark.parametrize("lagged_diffs", [0, 1, 3])
    def test_eigenvalues_in_unit_interval(self, walk_pair, lagged_diffs):
        result = johansen_test(walk_pair, lagged_diffs=lagged_diffs)
        assert np.all(result.eigenvalues >= -1e-12)
        assert np.all(result.eigenvalues < 1.0 + 1e-12)
        assert result.effective_obs == 500 - lagged_diffs - 1

    def test_computed_telescoping(self, coint_pair):
        result = johansen_test(coint_pair, lagged_diffs=2)
        m = len(result.eigenvalues)
        for r in range(m):
            total = sum(result.max_eigen_stats[j] for j in range(r, m))
            assert result.trace_stats[r] == pytest.approx(total, abs=1e-10)

    def test_scale_invariance(self, coint_pair):
        base = johansen_test(coint_pair, lagged_diffs=1)
        scaled = Panel(coint_pair.labels, coint_pair.start,
                       coint_pair.data * np.array([100.0, 0.01]))
        moved = johansen_test(scaled, lagged_diffs=1)
        assert moved.trace_stats == pytest.approx(base.trace_stats, abs=1e-8)
        assert moved.max_eigen_stats == pytest.approx(base.max_eigen_stats, abs=1e-8)

    def test_rank_non_decreasing_as_relation_strengthens(self):
        ranks = []
        for scale in (4.0, 2.0, 1.0, 0.5):
            panel = generate(ProcessSpec(kind="cointegrated_pair", length=200, seed=5,
                                         beta=2.0, noise_scale=scale))
            ranks.append(johansen_test(panel, lagged_diffs=1).decided_rank)
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert ranks[-1] == 1

    def test_too_short(self, walk_pair):
        tiny = Panel(walk_pair.labels, walk_pair.start, walk_pair.data[:12])
        with pytest.raises(TooShort):
            johansen_test(tiny, lagged_diffs=1)

    def test_negative_lagged_diffs_is_a_domain_error(self, walk_pair):
        with pytest.raises(DomainError, match=r"^lagged_diffs must be >= 0$"):
            johansen_test(walk_pair, lagged_diffs=-1)

    def test_seven_series_are_unsupported_before_any_fit(self, qr_calls):
        # the tables cover m - r in 1..6, so m = 7 fails at r = 0 before the
        # short-run regressions run
        panel = make_panel(*np.cumsum(Rng(77).normals(7 * 60).reshape(7, 60), axis=1))
        with pytest.raises(UnsupportedCase, match=r"^critical values cover m - r in 1\.\.6$"):
            johansen_test(panel, lagged_diffs=1)
        assert qr_calls == [0]

    @pytest.mark.parametrize("n, m", [(120, 2), (500, 2), (60, 3), (200, 4)])
    def test_minimum_sample_counts_the_rows_lags_use(self, n, m):
        # Z has n - k - 1 rows and 1 + m k columns and must leave 2m + 8 over;
        # the old rule let k up to 53 through at n = 120
        k_max = (n - 2 * m - 10) // (m + 1)
        panel = make_panel(*np.cumsum(Rng(n + m).normals(n * m).reshape(m, n), axis=1))
        assert johansen_test(panel, lagged_diffs=k_max).effective_obs == n - k_max - 1
        with pytest.raises(TooShort):
            johansen_test(panel, lagged_diffs=k_max + 1)

    @pytest.mark.parametrize("lagged_diffs", [0, 1, 2])
    def test_near_collinear_pair_matches_the_mpmath_oracle(self, lagged_diffs):
        # the lagged-level residuals have a condition near 1e10, and the error
        # left is about eps times that
        w = np.cumsum(Rng(3).normals(300))
        data = np.column_stack([w, w + 1e-9 * np.cumsum(Rng(5).normals(300))])
        got = johansen_test(make_panel(*data.T), lagged_diffs=lagged_diffs).eigenvalues
        assert got == pytest.approx(mpmath_eigenvalues(data, lagged_diffs), abs=1e-6)

    @pytest.mark.parametrize("tie", [1e-4, 1e-5, 1e-6])
    def test_near_collinear_corpus_matches_the_mpmath_oracle(self, tie):
        for seed in range(20):
            n, m, k = 40 + (seed * 37) % 121, 2 + seed % 2, seed % 3
            data = tied_walks(seed, n, m, tie)
            got = johansen_test(make_panel(*data.T), lagged_diffs=k).eigenvalues
            assert got == pytest.approx(mpmath_eigenvalues(data, k), abs=1e-9), (seed, n, m, k)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(40, 160), m=st.integers(2, 3), k=st.integers(0, 2),
           seed=st.integers(0, 10_000), tie=st.sampled_from([1e-4, 1e-5, 1e-6]))
    def test_eigenvalues_invariant_when_the_tie_is_undone(self, n, m, k, seed, tie):
        # (a, b) -> (a, (b - a) / tie) is a nonsingular map of the levels, to
        # which the canonical correlations are invariant
        data = tied_walks(seed, n, m, tie)
        untied = data.copy()
        untied[:, 1] = (data[:, 1] - data[:, 0]) / tie
        got = johansen_test(make_panel(*data.T), lagged_diffs=k).eigenvalues
        want = johansen_test(make_panel(*untied.T), lagged_diffs=k).eigenvalues
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(40, 160), m=st.integers(2, 3), k=st.integers(0, 2),
           seed=st.integers(0, 10_000), tie=st.sampled_from([1e-4, 1e-5, 1e-6]),
           order=st.permutations(range(3)))
    def test_eigenvalues_invariant_under_column_permutation(self, n, m, k, seed, tie, order):
        data = tied_walks(seed, n, m, tie)
        permuted = data[:, [j for j in order if j < m]]
        got = johansen_test(make_panel(*data.T), lagged_diffs=k).eigenvalues
        want = johansen_test(make_panel(*permuted.T), lagged_diffs=k).eigenvalues
        assert got == pytest.approx(want, abs=1e-9)

    def test_a_unit_correlation_is_a_domain_error(self, walk_pair, monkeypatch):
        # ln(1 - 1) is -inf; reached by a deterministic AR(1) paired with a walk
        monkeypatch.setattr(johansen, "canonical_correlations",
                            lambda r0, r1: (np.array([1.0, 0.5]), np.eye(2)))
        with pytest.raises(DomainError, match="canonical correlation of 1"):
            johansen_test(walk_pair, lagged_diffs=1)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(12, 90), m=st.integers(2, 4), k=st.integers(0, 30),
           seed=st.integers(0, 10_000), tie=st.sampled_from([0.0, 1e-9, 1e-6]))
    def test_raises_or_returns_a_valid_table(self, n, m, k, seed, tie):
        data = np.cumsum(Rng(seed).normals(n * m).reshape(n, m), axis=0)
        if tie:  # the second series a near copy of the first
            data[:, 1] = data[:, 0] + tie * data[:, 1]
        try:
            result = johansen_test(make_panel(*data.T), lagged_diffs=k)
        except LongrunError:
            return
        assert np.all((result.eigenvalues >= 0.0) & (result.eigenvalues < 1.0))
        assert np.isfinite(result.trace_stats).all()
        assert np.isfinite(result.max_eigen_stats).all()

    @pytest.mark.parametrize("lagged_diffs", [0, 1])
    def test_size_on_walks_with_drift(self, lagged_diffs):
        # the unrestricted-intercept tables assume levels that drift: on 2,000 pairs of
        # independent walks with drift 0.5, T = 120, the 5% rule rejects r = 0 at 5.00% (trace)
        # and 5.05% (max-eigen) with 0 lagged differences, 4.95% and 5.20% with 1; each rate
        # must fall within 4 standard errors (0.49 points each) of 5%
        walks = np.cumsum(0.5 + np.random.default_rng(0).standard_normal((2000, 120, 2)), axis=1)
        results = [johansen_test(make_panel(*w.T), lagged_diffs) for w in walks]
        for pvalues in ("trace_pvalues", "max_eigen_pvalues"):
            rate = np.mean([getattr(r, pvalues)[0] < 0.05 for r in results])
            assert abs(rate - 0.05) <= 4.0 * math.sqrt(0.05 * 0.95 / 2000), pvalues


class TestTraceRank:
    def test_a_statistic_equal_to_its_critical_value_rejects(self):
        # the decision stops at the first trace(r) strictly below crit(r)
        assert johansen._trace_rank([15.5, 3.0], [15.5, 3.8]) == 1
        assert johansen._trace_rank([15.5, 3.8], [15.5, 3.8]) == 2


class TestRankDecision:
    def test_paper_numbers_decide_no_cointegration(self):
        rank, remark = rank_decision(result_from_paper_numbers())
        assert rank == 0
        assert remark == NO_COINTEGRATION

    def test_full_rank_boundary(self):
        res = result_from_paper_numbers()
        boosted = JohansenResult(
            eigenvalues=res.eigenvalues,
            eigenvectors=res.eigenvectors,
            trace_stats=np.array([99.0, 9.0]),
            max_eigen_stats=res.max_eigen_stats,
            trace_crit_5pct=res.trace_crit_5pct,
            max_eigen_crit_5pct=res.max_eigen_crit_5pct,
            trace_pvalues=res.trace_pvalues,
            max_eigen_pvalues=res.max_eigen_pvalues,
            effective_obs=res.effective_obs,
            lagged_diffs=res.lagged_diffs,
            deterministic_case=res.deterministic_case,
            decided_rank=2,
        )
        rank, remark = rank_decision(boosted)
        assert rank == 2
        assert "full rank" in remark

    def test_cointegrated_pair_rank_one(self, coint_pair):
        rank, remark = rank_decision(johansen_test(coint_pair, lagged_diffs=1))
        assert rank == 1
        assert remark != NO_COINTEGRATION
