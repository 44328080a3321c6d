import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrun.distributions import chi2_ppf
from longrun.errors import LongrunError, NotPositiveDefinite, TooShort, UnsupportedCase
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
from longrun.series import Panel
from longrun.synth import ProcessSpec, Rng, generate

from conftest import make_panel

PAPER_EIGS = (0.169895, 0.014806)
PAPER_T = 56


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
        assert cv == pytest.approx(chi2_ppf(0.95, 1), abs=1e-5)

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
        # the fitted gamma reproduces its own 5% quantile
        for kind, dim in (("trace", 1), ("trace", 2), ("max_eigen", 2)):
            cv = johansen_critical("constant", dim, kind)
            assert approx_pvalue(kind, dim, cv) == pytest.approx(0.05, abs=0.005)

    def test_monotone(self):
        grid = np.linspace(0.0, 40.0, 81)
        values = [approx_pvalue("trace", 2, float(x)) for x in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


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
        scaled = Panel(coint_pair.labels, coint_pair.periods,
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
        tiny = Panel(walk_pair.labels, walk_pair.periods[:12], walk_pair.data[:12])
        with pytest.raises(TooShort):
            johansen_test(tiny, lagged_diffs=1)

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
    def test_near_collinear_pair_is_not_positive_definite(self, lagged_diffs):
        # at one lagged difference S11 once passed its Cholesky check and the
        # reduction returned an eigenvalue of -565
        w = np.cumsum(Rng(3).normals(300))
        panel = make_panel(w, w + 1e-9 * np.cumsum(Rng(5).normals(300)))
        with pytest.raises(NotPositiveDefinite):
            johansen_test(panel, lagged_diffs=lagged_diffs)

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
