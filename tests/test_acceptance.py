"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) before
asserting, so a red criterion is still reported alongside the green ones.

Known red: criterion 3 pins the at-most-1 trace statistic to 0.835353 within
1e-5, but the input eigenvalue 0.014806 is itself a 6-decimal rounding, which
propagates to ~3e-5 of slack in -T ln(1 - lambda); the faithful computation
gives 0.8353354 and the assertion fails by ~8e-6.  See the sibling checks for
the parts of criterion 3 that do hold.
"""

import statistics

import numpy as np

from longrun.descriptive import jarque_bera
from longrun.distributions import chi2_sf, f_sf
from longrun.granger import GrangerResult, granger_test, hypothesis_verdict
from longrun.johansen import (
    johansen_critical,
    johansen_test,
    max_eigen_statistics,
    rank_decision,
    trace_statistics,
)
from longrun.linalg import ols_fit
from longrun.report import PipelineConfig, render, run_pipeline
from longrun.series import Panel, diff
from longrun.synth import ProcessSpec, Rng, generate
from longrun.unitroot import adf_test, mackinnon_critical, pp_test
from longrun.varmodel import select_lag

from conftest import normal_eq_solve


def report_line(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] acceptance {criterion}{suffix}")


def check(criterion: str, got, want, tol, detail=""):
    ok = abs(got - want) <= tol
    report_line(criterion, ok, detail or f"got {got!r}, want {want} +/- {tol}")
    assert ok, f"{criterion}: {got} not within {tol} of {want}"


class TestCriterion1JarqueBera:
    def test_gold_chain(self):
        jb = jarque_bera(-1.010310, 3.137694, 58)
        check("1: JB gold", jb, 9.9128, 5e-4)
        check("1: p gold", chi2_sf(jb, 2), 0.007038, 1e-5)

    def test_nepse_chain(self):
        jb = jarque_bera(0.598399, 1.789171, 58)
        check("1: JB index", jb, 7.0045, 5e-4)
        check("1: p index", chi2_sf(jb, 2), 0.030129, 1e-5)


class TestCriterion2SummaryIdentities:
    def test_mean_from_sum(self):
        check("2: gold mean", 2570952.0 / 58, 44326.76, 0.02)
        check("2: index mean", 33386.05 / 58, 575.6216, 0.001)

    def test_sum_sq_dev_from_std(self):
        check("2: sum sq dev", 57 * 237.9882 ** 2, 3228388.0, 2.0)


class TestCriterion3JohansenArithmetic:
    EIGS = (0.169895, 0.014806)
    T = 56

    def test_3a_trace_none(self):
        check("3a: trace(0)", trace_statistics(self.EIGS, self.T)[0], 11.26272, 1e-4)

    def test_3b_max_eigen_none(self):
        check("3b: max-eigen(0)", max_eigen_statistics(self.EIGS, self.T)[0], 10.42736, 1e-4)

    def test_3c_trace_at_most_one(self):
        # stated tolerance 1e-5; infeasible from the 6-decimal eigenvalue (see
        # module docstring), kept faithful rather than loosened
        check("3c: trace(1)", trace_statistics(self.EIGS, self.T)[1], 0.835353, 1e-5)

    def test_3d_telescoping(self):
        trace = trace_statistics(self.EIGS, self.T)
        maxeig = max_eigen_statistics(self.EIGS, self.T)
        gap = abs(trace[0] - (maxeig[0] + trace[1]))
        report_line("3d: telescoping", gap <= 1e-10, f"gap {gap:.2e}")
        assert gap <= 1e-10

    def test_3e_rank_decision(self):
        trace = trace_statistics(self.EIGS, self.T)
        crits = (15.49471, 3.841466)
        decided = 2
        for r in range(2):
            if trace[r] < crits[r]:
                decided = r
                break
        ok = decided == 0
        report_line("3e: rank decision", ok, f"rank {decided}, remark expected 'No Co Integration'")
        assert ok


class TestCriterion4CriticalValueTables:
    def test_trace_bivariate(self):
        check("4: trace cv (m-r=2)", johansen_critical("constant", 2, "trace"), 15.49471, 1e-4)

    def test_max_eigen_bivariate(self):
        check("4: max-eigen cv (m-r=2)", johansen_critical("constant", 2, "max_eigen"),
              14.26460, 1e-4)

    def test_trace_univariate_chi2(self):
        cv = johansen_critical("constant", 1, "trace")
        check("4: trace cv (m-r=1)", cv, 3.841466, 1e-4)
        # chi-square(1) is Z^2, so its 95% quantile is the squared 97.5% normal quantile
        check("4: cv equals chi2 quantile", cv, statistics.NormalDist().inv_cdf(0.975) ** 2, 1e-5)


class TestCriterion5FDistribution:
    def test_tail_probabilities(self):
        check("5: F tail 1.38296", f_sf(1.38296, 1, 54), 0.2448, 1e-3)
        check("5: F tail 2.35891", f_sf(2.35891, 1, 54), 0.1304, 1e-3)

    def test_verdict_none(self):
        results = (
            GrangerResult(("gold", "nepse"), 1, 2.35891, f_sf(2.35891, 1, 54), (1, 54), 57, True),
            GrangerResult(("nepse", "gold"), 1, 1.38296, f_sf(1.38296, 1, 54), (1, 54), 57, True),
        )
        verdict = hypothesis_verdict(results, 0.05)
        report_line("5: verdict", verdict == "none", f"verdict {verdict!r}")
        assert verdict == "none"


class TestCriterion6MacKinnonSurface:
    PAPER = {"1%": -3.5504, "5%": -2.9135, "10%": -2.5945}

    def test_surface_at_56(self):
        for level, value in self.PAPER.items():
            check(f"6: {level} cv", mackinnon_critical("constant", level, 56), value, 5e-3)

    def test_emitted_by_both_test_paths(self):
        walk = generate(ProcessSpec(kind="random_walk", length=58, seed=8))
        adf = adf_test(walk)
        pp = pp_test(walk)
        for level, value in self.PAPER.items():
            check(f"6: adf path {level}", adf.critical_values[level], value, 5e-3)
            check(f"6: pp path {level}", pp.critical_values[level], value, 5e-3)


class TestCriterion7PropertyAcceptance:
    def test_7a_random_walk_pair_full_verdict_chain(self, walk_pair):
        cols = [walk_pair.labels[j] for j in range(2)]
        from longrun.series import Series

        level_ok, diff_ok = [], []
        for j in range(2):
            s = Series(cols[j], walk_pair.start, walk_pair.data[:, j])
            level_ok.append(adf_test(s).decision_5pct == "unit_root")
            level_ok.append(pp_test(s).decision_5pct == "unit_root")
            diff_ok.append(adf_test(diff(s)).decision_5pct == "stationary")
            diff_ok.append(pp_test(diff(s)).decision_5pct == "stationary")
        chosen, _ = select_lag(walk_pair, 5)
        result = johansen_test(walk_pair, lagged_diffs=max(chosen - 1, 0))
        rank, remark = rank_decision(result)
        verdict = hypothesis_verdict(granger_test(walk_pair, lag=max(chosen, 1)), 0.05)
        ok = all(level_ok) and all(diff_ok) and rank == 0 and verdict == "none"
        report_line("7a: verdict chain", ok,
                    f"rank {rank}, remark {remark!r}, verdict {verdict!r}")
        assert all(level_ok), "level tests must fail to reject"
        assert all(diff_ok), "first differences must reject"
        assert rank == 0 and remark == "No Co Integration"
        assert verdict == "none"

    def test_7b_cointegrated_pair_rank_and_vector(self, coint_pair):
        result = johansen_test(coint_pair, lagged_diffs=1)
        v = result.eigenvectors[:, 0]
        ratio = v[0] / v[1]  # coefficient on x once y is normalized to 1
        ok = result.decided_rank == 1 and abs(ratio - (-2.0)) <= 0.2
        report_line("7b: cointegration", ok, f"rank {result.decided_rank}, ratio {ratio:.4f}")
        assert result.decided_rank == 1
        assert abs(ratio - (-2.0)) <= 0.2

    def test_7c_one_way_causal_system(self):
        panel = generate(ProcessSpec(kind="var", length=500, seed=18,
                                     coefficients=(((0.0, 0.0), (0.8, 0.0)),)))
        forward, backward = granger_test(panel, lag=1)
        ok = forward.p_value < 0.01 and backward.p_value > 0.01
        report_line("7c: causal direction", ok,
                    f"forward p {forward.p_value:.2e}, backward p {backward.p_value:.4f}")
        assert forward.p_value < 0.01
        assert backward.p_value > 0.01

    def test_7d_ols_vs_normal_equations_100_instances(self):
        worst = 0.0
        for seed in range(100):
            rng = Rng(5000 + seed)
            t = 12 + (seed * 3) % 39
            k = 1 + seed % 5
            X = rng.normals(t * k).reshape(t, k)
            y = rng.normals(t)
            got = ols_fit(X, y).coefficients
            want = normal_eq_solve(X, y)
            scale = max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, float(np.max(np.abs(got - want))) / scale)
        report_line("7d: OLS oracle x100", worst <= 1e-9, f"worst rel err {worst:.2e}")
        assert worst <= 1e-9

    def test_7e_adf0_equals_pp0_20_series(self):
        worst = 0.0
        for seed in range(20):
            s = generate(ProcessSpec(kind="random_walk", length=150, seed=7000 + seed))
            a = adf_test(s, lags=0).statistic
            p = pp_test(s, bandwidth=0).statistic
            worst = max(worst, abs(a - p))
        report_line("7e: ADF(0) == PP(0) x20", worst <= 1e-9, f"worst abs err {worst:.2e}")
        assert worst <= 1e-9

    def test_7f_scale_invariance_of_all_statistics(self, coint_pair):
        from longrun.series import Series

        x = Series("x", coint_pair.start, coint_pair.data[:, 0])
        scaled_x = Series("x", coint_pair.start, coint_pair.data[:, 0] * 250.0)
        worst = max(
            abs(adf_test(x, lags=1).statistic - adf_test(scaled_x, lags=1).statistic),
            abs(pp_test(x).statistic - pp_test(scaled_x).statistic),
        )
        rescaled = Panel(coint_pair.labels, coint_pair.start,
                         coint_pair.data * np.array([250.0, 0.004]))
        base_j = johansen_test(coint_pair, lagged_diffs=1)
        moved_j = johansen_test(rescaled, lagged_diffs=1)
        worst = max(worst, float(np.max(np.abs(base_j.trace_stats - moved_j.trace_stats))))
        worst = max(worst, float(np.max(np.abs(base_j.max_eigen_stats - moved_j.max_eigen_stats))))
        for b, m in zip(granger_test(coint_pair, lag=1), granger_test(rescaled, lag=1)):
            worst = max(worst, abs(b.f_statistic - m.f_statistic))
        report_line("7f: scale invariance", worst <= 1e-8, f"worst abs err {worst:.2e}")
        assert worst <= 1e-8


class TestCriterion8Determinism:
    def test_pipeline_byte_identical(self, tmp_path):
        from longrun.cli import main

        out = tmp_path / "demo"
        assert main(["synth", "--kind", "walks", "--seed", "16", "--length", "500",
                     "--out-dir", str(out)]) == 0
        cfg = PipelineConfig(inputs={"a": str(out / "walks_y1.csv"),
                                     "b": str(out / "walks_y2.csv")})
        runs_text = [render(run_pipeline(cfg), "text").encode() for _ in range(2)]
        runs_json = [render(run_pipeline(cfg), "json").encode() for _ in range(2)]
        ok = runs_text[0] == runs_text[1] and runs_json[0] == runs_json[1]
        report_line("8: determinism", ok,
                    f"text {len(runs_text[0])} bytes, json {len(runs_json[0])} bytes")
        assert runs_text[0] == runs_text[1]
        assert runs_json[0] == runs_json[1]
