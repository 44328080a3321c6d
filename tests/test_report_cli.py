import codecs
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longrun
from longrun.cli import _build_config, _to_bool, build_parser, main
from longrun.errors import ConfigError, GapError, NoOverlap, TooShort
from longrun.granger import granger_test
from longrun.johansen import johansen_test
from longrun.report import (
    SECTION_ORDER,
    PipelineConfig,
    Report,
    format_statistic,
    render,
    run_pipeline,
)
from longrun.series import aggregate_monthly, align, load_csv
from longrun.varmodel import select_lag

SECTION_NAMES = list(SECTION_ORDER)

# The slice of the pipeline report each subcommand prints.
SLICES = {
    "summary": ["summary_statistics"],
    "corr": ["correlation"],
    "unitroot": ["unit_root_adf", "unit_root_pp"],
    "lagselect": ["lag_selection"],
    "johansen": ["johansen_trace", "johansen_maxeig"],
    "granger": ["granger"],
    "pipeline": SECTION_NAMES,
}


def input_args(csvs):
    return [arg for name, path in csvs.items() for arg in ("--input", f"{name}={path}")]


@pytest.fixture
def walks_csvs(tmp_path):
    out = tmp_path / "walks"
    assert main(["synth", "--kind", "walks", "--seed", "16", "--length", "500",
                 "--out-dir", str(out)]) == 0
    return {"a": str(out / "walks_y1.csv"), "b": str(out / "walks_y2.csv")}


@pytest.fixture
def coint_csvs(tmp_path):
    out = tmp_path / "coint"
    assert main(["synth", "--kind", "coint", "--seed", "5", "--length", "500",
                 "--out-dir", str(out)]) == 0
    return {"x": str(out / "coint_x.csv"), "y": str(out / "coint_y.csv")}


class TestFormatStatistic:
    def test_eight_character_layout(self):
        assert format_statistic(11.262713) == "11.26271"
        assert format_statistic(0.169895) == "0.169895"
        assert format_statistic(-2.913549) == "-2.913549"
        assert format_statistic(44326.7586) == "44326.76"
        assert format_statistic(2570952.0) == "2570952"

    def test_extremes_fall_back_to_scientific(self):
        assert format_statistic(1.48e9) == "1.48E+09"
        assert format_statistic(3.15e-10) == "3.15E-10"
        assert format_statistic(0.0) == "0.000000"
        # fixed-point rounding that carries past 1e8 falls back as well
        assert format_statistic(99999999.5) == "1.00E+08"
        assert format_statistic(-99999999.7) == "-1.00E+08"


class TestPipeline:
    def test_walk_pair_mirrors_no_relationship_chain(self, walks_csvs):
        report = run_pipeline(PipelineConfig(inputs=walks_csvs))
        assert [s.name for s in report.sections] == SECTION_NAMES
        trace = report.section("johansen_trace")
        assert trace.rows[0][-1] == "No Co Integration"
        granger = report.section("granger")
        assert any("verdict" in n and "none" in n for n in granger.notes)
        assert any("Caveat" in n for n in granger.notes)
        adf = report.section("unit_root_adf")
        # level statistic above the 5% critical value, difference below
        crit5_level = adf.rows[-2][1]
        for row in adf.rows[:2]:
            assert row[1] > crit5_level
        assert adf.rows[0][3] < adf.rows[-2][3]

    def test_cointegrated_pair_reports_rank_one(self, coint_csvs):
        report = run_pipeline(PipelineConfig(inputs=coint_csvs))
        trace = report.section("johansen_trace")
        assert trace.rows[0][-1] != "No Co Integration"
        assert "1 co-integrating relation" in trace.rows[0][-1]
        granger = report.section("granger")
        assert not any("Caveat" in n for n in granger.notes)

    def test_missing_month_fails_at_ingest(self, tmp_path):
        good = tmp_path / "good.csv"
        good.write_text("".join(f"2000-{m:02d}-01,{m}\n" for m in range(1, 13)), encoding="utf-8")
        gappy = tmp_path / "gappy.csv"
        gappy.write_text("2000-01-01,1\n2000-02-01,2\n2000-04-01,4\n", encoding="utf-8")
        cfg = PipelineConfig(inputs={"a": str(good), "b": str(gappy)})
        with pytest.raises(GapError) as err:
            run_pipeline(cfg)
        assert "2000:03" in str(err.value)
        assert err.value.section == "ingest"

    def test_three_series_skips_granger_with_reason(self, walks_csvs, tmp_path):
        out = tmp_path / "extra"
        assert main(["synth", "--kind", "ar1", "--seed", "3", "--length", "500",
                     "--out-dir", str(out)]) == 0
        inputs = dict(walks_csvs)
        inputs["c"] = str(out / "ar1.csv")
        report = run_pipeline(PipelineConfig(inputs=inputs))
        granger = report.section("granger")
        assert granger.skipped
        assert "exactly 2" in granger.skip_reason
        text = render(report, "text")
        assert "skipped:" in text

    def test_lag_selection_flags_minimum(self, walks_csvs):
        report = run_pipeline(PipelineConfig(inputs=walks_csvs))
        rows = report.section("lag_selection").rows
        assert [r[0] for r in rows] == list(range(6))
        starred = [r for r in rows if r[3] == "*"]
        assert len(starred) == 1
        assert starred[0][0] == 1  # the seeded walk pair selects lag 1

    @pytest.mark.parametrize("max_lag", [0, 5])
    def test_johansen_and_granger_use_the_selected_lag(self, coint_csvs, max_lag):
        cfg = PipelineConfig(inputs=coint_csvs, max_lag=max_lag)
        report = run_pipeline(cfg)
        panel = align(*[aggregate_monthly(load_csv(path, name=name))
                        for name, path in coint_csvs.items()])
        chosen, _ = select_lag(panel, max_lag)
        lag = max(chosen, 1)
        johansen = johansen_test(panel, lagged_diffs=lag - 1)
        forward, backward = granger_test(panel, lag=lag)
        assert [row[2] for row in report.section("johansen_trace").rows] == \
            list(johansen.trace_stats)
        assert [row[2] for row in report.section("granger").rows] == \
            [backward.f_statistic, forward.f_statistic]
        assert chosen == (0 if max_lag == 0 else 2)  # both branches of max(chosen, 1)

    def test_stages_run_only_when_a_section_needs_them(self, walks_csvs):
        # a lag search up to 400 cannot run on 500 months
        cfg = PipelineConfig(inputs=walks_csvs, max_lag=400)
        assert run_pipeline(cfg, ["summary_statistics"]).sections[0].rows
        assert run_pipeline(cfg, ["granger"], lag=1).sections[0].rows
        with pytest.raises(TooShort) as err:
            run_pipeline(cfg, ["johansen_trace"])
        assert err.value.section == "lag_selection"

    def test_lag_below_one_rejected_before_ingest(self):
        cfg = PipelineConfig(inputs={"a": "/nonexistent/a.csv", "b": "/nonexistent/b.csv"})
        with pytest.raises(ConfigError):
            run_pipeline(cfg, lag=0)

    def test_unknown_section_rejected(self, walks_csvs):
        with pytest.raises(ConfigError):
            run_pipeline(PipelineConfig(inputs=walks_csvs), ("granger", "bogus"))

    def test_report_lookup_of_an_absent_section_is_a_key_error(self):
        with pytest.raises(KeyError, match=r"^'granger'$"):
            Report([]).section("granger")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(inputs={"a": "x.csv"}).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(inputs={"a": "x", "b": "y"}, alpha=2.0).validate()
        with pytest.raises(ConfigError):
            PipelineConfig(inputs={"a": "x", "b": "y"}, max_lag=-1).validate()
        with pytest.raises(ConfigError, match="unsupported output format 'xml'"):
            PipelineConfig(inputs={"a": "x", "b": "y"}, output_format="xml").validate()
        with pytest.raises(ConfigError, match="unsupported deterministic case 'trend'"):
            PipelineConfig(inputs={"a": "x", "b": "y"}, deterministic_case="trend").validate()


class TestRender:
    def test_unknown_format_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unsupported output format 'xml'"):
            render(Report([]), "xml")

    def test_text_uses_published_headers(self, walks_csvs):
        report = run_pipeline(PipelineConfig(inputs=walks_csvs))
        text = render(report, "text")
        for header in ("Hypothesized No. of CE(s)", "Eigenvalue", "Trace Statistic",
                       "0.05 Critical Value", "Prob.**", "Max-Eigen Statistic",
                       "F-Statistic", "Prob.", "Schwarz criterion",
                       "Akaike information criterion"):
            assert header in text
        assert "does not Granger Cause" in text

    def test_json_round_trips_exactly(self, walks_csvs):
        report = run_pipeline(PipelineConfig(inputs=walks_csvs))
        parsed = json.loads(render(report, "json"))
        assert parsed["schema_version"] == 1
        assert parsed == json.loads(json.dumps(report.to_dict()))
        # numeric cells survive bit-exactly
        for section, parsed_section in zip(report.sections, parsed["sections"]):
            for row, parsed_row in zip(section.rows, parsed_section["rows"]):
                assert list(row) == parsed_row

    def test_csv_stream_has_section_markers(self, walks_csvs):
        report = run_pipeline(PipelineConfig(inputs=walks_csvs))
        text = render(report, "csv")
        for name in SECTION_NAMES:
            assert f"# section: {name}" in text

    def test_deterministic_output(self, walks_csvs):
        cfg = PipelineConfig(inputs=walks_csvs)
        first = render(run_pipeline(cfg), "text")
        second = render(run_pipeline(cfg), "text")
        assert first == second
        assert render(run_pipeline(cfg), "json") == render(run_pipeline(cfg), "json")


class TestCli:
    def test_pipeline_json_to_stdout(self, walks_csvs, capsys):
        code = main(["pipeline", "--input", f"a={walks_csvs['a']}",
                     "--input", f"b={walks_csvs['b']}", "--format", "json"])
        assert code == 0
        parsed = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in parsed["sections"]] == SECTION_NAMES

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["pipeline", "--frobnicate"])
        assert err.value.code == 1

    def test_missing_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_johansen_subcommand_on_coint_demo(self, coint_csvs, capsys):
        code = main(["johansen", "--input", f"x={coint_csvs['x']}",
                     "--input", f"y={coint_csvs['y']}"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 co-integrating relation" in out

    def test_granger_subcommand_explicit_lag(self, walks_csvs, capsys):
        code = main(["granger", "--input", f"a={walks_csvs['a']}",
                     "--input", f"b={walks_csvs['b']}", "--lag", "1"])
        assert code == 0
        assert "does not Granger Cause" in capsys.readouterr().out

    def test_out_file_written(self, walks_csvs, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["summary", "--input", f"a={walks_csvs['a']}",
                     "--input", f"b={walks_csvs['b']}", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "Summary Statistics" in target.read_text(encoding="utf-8")

    def test_config_file_with_flag_override(self, walks_csvs, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# demo config\n"
            f"input = a={walks_csvs['a']}\n"
            f"input = b={walks_csvs['b']}\n"
            "format = json\n"
            "max-lag = 3\n",
            encoding="utf-8",
        )
        assert main(["corr", "--config", str(cfg)]) == 0
        json.loads(capsys.readouterr().out)  # config format honored
        assert main(["corr", "--config", str(cfg), "--format", "text"]) == 0
        assert "Correlation Matrix" in capsys.readouterr().out  # flag wins

    def test_unitroot_and_lagselect_subcommands(self, walks_csvs, capsys):
        common = ["--input", f"a={walks_csvs['a']}", "--input", f"b={walks_csvs['b']}"]
        assert main(["unitroot", *common]) == 0
        out = capsys.readouterr().out
        assert "Augmented Dickey Fuller" in out
        assert "Phillips-Perron" in out
        assert main(["lagselect", *common, "--max-lag", "3"]) == 0
        assert "Schwarz criterion" in capsys.readouterr().out

    def test_config_unknown_key_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = yes\n", encoding="utf-8")
        assert main(["corr", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line, key", [("max-lag = abc", "max_lag"),
                                           ("alpha = high", "alpha"),
                                           ("levels = maybe", "levels")])
    def test_config_bad_value_exits_one(self, walks_csvs, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input = a={walks_csvs['a']}\ninput = b={walks_csvs['b']}\n{line}\n",
                       encoding="utf-8")
        assert main(["corr", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("longrun: usage error:")
        assert repr(key) in err

    def test_config_line_without_equals_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# comment\nmax-lag 3\n", encoding="utf-8")
        assert main(["corr", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"longrun: usage error: {cfg}:2: expected 'key = value'\n")

    def test_missing_config_file_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "none.cfg"
        assert main(["summary", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"longrun: usage error: cannot read config file {cfg}: No such file or directory\n")

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
    def test_config_with_invalid_utf8_is_a_usage_error(self, walks_csvs, tmp_path, capsys,
                                                       newline):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(f"input = a={walks_csvs['a']}{newline}max-lag = 3\xff{newline}"
                        .encode("latin-1"))
        assert main(["summary", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"longrun: usage error: {cfg}:2: not valid UTF-8: byte 0xff (invalid start byte)\n")

    def test_config_with_a_byte_order_mark(self, walks_csvs, tmp_path, capsys):
        cfg = tmp_path / "bom.cfg"
        text = f"max_lag = 3\ninput = a={walks_csvs['a']}\ninput = b={walks_csvs['b']}\n"
        cfg.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert main(["lagselect", "--config", str(cfg)]) == 0
        with_bom = capsys.readouterr()
        cfg.write_text(text, encoding="utf-8")
        assert main(["lagselect", "--config", str(cfg)]) == 0
        assert capsys.readouterr() == with_bom
        cfg.write_bytes(codecs.BOM_UTF8 + b"max_lag = 3\nalpha = 0.1\xff\n")
        assert main(["summary", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"longrun: usage error: {cfg}:2: not valid UTF-8: byte 0xff (invalid start byte)\n")

    def test_missing_input_is_a_data_error_tagged_ingest(self, walks_csvs, tmp_path, capsys):
        none = tmp_path / "none.csv"
        assert main(["summary", "--input", f"a={walks_csvs['a']}", "--input", f"z={none}"]) == 2
        assert capsys.readouterr().err == (
            f"longrun: error [ingest]: [Errno 2] No such file or directory: '{none}'\n")

    def test_unwritable_out_is_a_data_error_without_a_tag(self, walks_csvs, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "report.txt"
        assert main(["summary", *input_args(walks_csvs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"longrun: error: [Errno 2] No such file or directory: '{out}'\n")

    def test_csv_with_invalid_utf8_is_a_data_error(self, walks_csvs, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"2000-01-01,1\n2000-02-01,2\xff\n")
        assert main(["summary", "--input", f"a={bad}", "--input", f"b={walks_csvs['b']}"]) == 2
        assert capsys.readouterr().err == ("longrun: error [ingest]: ParseError: line 2: "
                                           "not valid UTF-8: byte 0xff (invalid start byte)\n")

    def test_csv_field_over_the_limit_is_a_data_error(self, walks_csvs, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("2000-01-01,1\n2000-02-01," + "1" * 200_000 + "\n", encoding="utf-8")
        assert main(["summary", "--input", f"a={long}", "--input", f"b={walks_csvs['b']}"]) == 2
        assert capsys.readouterr().err == ("longrun: error [ingest]: ParseError: line 2: "
                                           "field larger than field limit (131072)\n")

    def test_month_sum_overflow_is_a_data_error_tagged_ingest(self, walks_csvs, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("2012-01-15,1e308\n2012-01-16,1e308\n2012-02-01,1\n", encoding="utf-8")
        assert main(["pipeline", "--input", f"a={big}", "--input", f"b={walks_csvs['b']}"]) == 2
        assert capsys.readouterr().err == ("longrun: error [ingest]: DomainError: values of month "
                                           "2012:01 overflow when summed\n")

    def test_exact_fit_is_a_data_error_naming_its_section(self, walks_csvs, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = Path(walks_csvs["a"]).read_text(encoding="utf-8").splitlines()
        flat.write_text("".join(f"{row.split(',')[0]},1.0\n" for row in rows), encoding="utf-8")
        code = main(["unitroot", "--input", f"a={flat}", "--input", f"b={walks_csvs['b']}",
                     "--case", "none"])
        assert code == 2
        assert capsys.readouterr().err == ("longrun: error [unit_root_adf]: DomainError: exact "
                                           "fit: the Dickey-Fuller regression has zero residuals\n")

    def test_repeated_input_name_exits_one(self, walks_csvs, capsys):
        code = main(["summary", "--input", f"a={walks_csvs['a']}",
                     "--input", f"a={walks_csvs['b']}", "--input", f"b={walks_csvs['b']}"])
        assert code == 1
        assert "'a'" in capsys.readouterr().err

    def test_data_error_exits_two(self, capsys):
        code = main(["pipeline", "--input", "a=/nonexistent/x.csv",
                     "--input", "b=/nonexistent/y.csv"])
        assert code == 2

    def test_usage_error_for_single_input(self, walks_csvs):
        assert main(["summary", "--input", f"a={walks_csvs['a']}"]) == 1

    def test_bad_input_syntax_exits_one(self, walks_csvs):
        assert main(["summary", "--input", "noequalsign"]) == 1


class TestSubcommandsAreSectionFilters:
    @pytest.mark.parametrize("pair", ["walks_csvs", "coint_csvs"])
    def test_each_subcommand_equals_its_slice_of_pipeline(self, pair, request, capsys):
        csvs = request.getfixturevalue(pair)
        full = run_pipeline(PipelineConfig(inputs=csvs))
        capsys.readouterr()  # the fixture's synth output
        for command, names in SLICES.items():
            for fmt in ("text", "csv", "json"):
                assert main([command, *input_args(csvs), "--format", fmt]) == 0
                want = render(Report([full.section(n) for n in names]), fmt)
                assert capsys.readouterr().out == want, (command, fmt)

    def test_lag_overrides_match_run_pipeline(self, coint_csvs, capsys):
        cfg = PipelineConfig(inputs=coint_csvs)
        capsys.readouterr()
        for k in (0, 2):
            assert main(["johansen", *input_args(coint_csvs), "--lagged-diffs", str(k)]) == 0
            want = render(run_pipeline(cfg, SLICES["johansen"], lag=k + 1))
            assert capsys.readouterr().out == want
            assert f"lagged differences: {k}" in want
        for lag in (1, 3):
            assert main(["granger", *input_args(coint_csvs), "--lag", str(lag)]) == 0
            want = render(run_pipeline(cfg, SLICES["granger"], lag=lag))
            assert capsys.readouterr().out == want
            assert f"Lag: {lag} (levels)" in want

    def test_granger_on_three_series_is_skipped(self, walks_csvs, tmp_path, capsys):
        out = tmp_path / "extra"
        assert main(["synth", "--kind", "ar1", "--seed", "3", "--length", "500",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        inputs = dict(walks_csvs, c=str(out / "ar1.csv"))
        assert main(["granger", *input_args(inputs)]) == 0
        assert "skipped: pairwise test needs exactly 2 series, panel has 3" in \
            capsys.readouterr().out

    def test_subcommand_errors_name_their_section(self, walks_csvs, capsys, monkeypatch):
        capsys.readouterr()
        # on a pair, granger --lag L first runs Johansen with L - 1 lagged
        # differences for its caveat, which needs more months than Granger does
        assert main(["granger", *input_args(walks_csvs), "--lag", "200"]) == 2
        assert capsys.readouterr().err.startswith("longrun: error [johansen_trace]: TooShort")
        assert main(["johansen", *input_args(walks_csvs), "--lagged-diffs", "300"]) == 2
        assert capsys.readouterr().err.startswith("longrun: error [johansen_trace]: TooShort")

        def failing_granger(*args, **kwargs):
            raise TooShort("stand-in failure")

        monkeypatch.setattr(longrun.granger, "granger_test", failing_granger)
        assert main(["granger", *input_args(walks_csvs)]) == 2
        assert capsys.readouterr().err.startswith("longrun: error [granger]: TooShort")

    @pytest.mark.parametrize("override", [["granger", "--lag", "0"],
                                          ["johansen", "--lagged-diffs", "-1"]])
    def test_lag_below_one_is_a_usage_error(self, walks_csvs, override, capsys):
        capsys.readouterr()
        assert main([override[0], *input_args(walks_csvs), *override[1:]]) == 1
        assert capsys.readouterr().err.startswith("longrun: usage error: lag must be >= 1")


class TestStageRules:
    """Which stages a request runs, in what order and how often."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        for module, name, keys in ((longrun.varmodel, "select_lag", ()),
                                   (longrun.johansen, "johansen_test", ("lagged_diffs",)),
                                   (longrun.granger, "granger_test", ("lag",)),
                                   (longrun.unitroot, "adf_test", ()),
                                   (longrun.descriptive, "summarize", ())):
            def spy(*args, _real=getattr(module, name), _name=name, _keys=keys, **kwargs):
                log.append((_name, *(kwargs[k] for k in _keys)))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        return log

    @pytest.mark.parametrize("argv, want", [
        (["johansen"], [("select_lag",), ("johansen_test", 1)]),
        (["johansen", "--lagged-diffs", "3"], [("johansen_test", 3)]),
        (["granger"], [("select_lag",), ("johansen_test", 1), ("granger_test", 2)]),
        (["granger", "--lag", "4"], [("johansen_test", 3), ("granger_test", 4)]),
        (["pipeline"], [("summarize",)] * 2 + [("adf_test",)] * 4
         + [("select_lag",), ("johansen_test", 1), ("granger_test", 2)]),
    ])
    def test_subcommand_runs_each_needed_stage_once_in_order(self, coint_csvs, calls, capsys,
                                                             argv, want):
        assert main([*argv, *input_args(coint_csvs)]) == 0
        assert calls == want

    def test_granger_on_three_series_runs_no_stage(self, coint_csvs, walks_csvs, calls, capsys):
        assert main(["granger", *input_args(dict(coint_csvs, c=walks_csvs["a"]))]) == 0
        assert calls == []

    def test_a_given_lag_wins_over_the_selected_one(self, coint_csvs, calls):
        report = run_pipeline(PipelineConfig(inputs=coint_csvs),
                              ["lag_selection", "johansen_trace", "granger"], lag=4)
        assert calls == [("select_lag",), ("johansen_test", 3), ("granger_test", 4)]
        assert report.section("lag_selection").notes == ["* Schwarz-criterion minimum: lag 2"]

    def test_no_sections_still_ingest_and_align(self, coint_csvs, calls, tmp_path):
        assert run_pipeline(PipelineConfig(inputs=coint_csvs), []).sections == []
        assert calls == []
        late = tmp_path / "late.csv"
        late.write_text("2100-01-01,1\n2100-02-01,2\n", encoding="utf-8")
        with pytest.raises(NoOverlap) as err:
            run_pipeline(PipelineConfig(inputs=dict(coint_csvs, z=str(late))), [])
        assert err.value.section == "align"


# Every setting: its config-file line, the flags that say the same, the
# PipelineConfig field both set and its value, then other flags and their value.
SETTINGS = {
    "date_format": ("date_format = %d/%m/%Y", ["--date-format", "%d/%m/%Y"], "date_format",
                    "%d/%m/%Y", ["--date-format", "%Y%m%d"], "%Y%m%d"),
    "max_lag": ("max-lag = 3", ["--max-lag", "3"], "max_lag", 3, ["--max-lag", "2"], 2),
    "alpha": ("alpha = 0.1", ["--alpha", "0.1"], "alpha", 0.1, ["--alpha", "0.01"], 0.01),
    "case": ("case = none", ["--case", "none"], "deterministic_case", "none",
             ["--case", "constant_trend"], "constant_trend"),
    "levels": ("levels = diffs", ["--diffs"], "granger_on_levels", False, ["--levels"], True),
    "format": ("format = json", ["--format", "json"], "output_format", "json",
               ["--format", "csv"], "csv"),
    "out": ("out = r.txt", ["--out", "r.txt"], "output_path", "r.txt", ["--out", "s.txt"],
            "s.txt"),
}


class TestSettings:
    def test_every_pipeline_setting_is_listed(self):
        assert {row[2] for row in SETTINGS.values()} == \
            {f.name for f in dataclasses.fields(PipelineConfig)} - {"inputs"}

    @staticmethod
    def config(tmp_path, argv, lines=()):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return _build_config(build_parser().parse_args(["pipeline", "--config", str(cfg), *argv]))

    @pytest.mark.parametrize("key", SETTINGS)
    def test_config_value_and_flag_build_the_same_config(self, tmp_path, key):
        line, flags, field, value, _, _ = SETTINGS[key]
        from_file = self.config(tmp_path, [], [line])
        assert getattr(from_file, field) == value
        assert from_file == self.config(tmp_path, flags)

    @pytest.mark.parametrize("key", SETTINGS)
    def test_unset_setting_keeps_the_pipeline_default(self, tmp_path, key):
        field = SETTINGS[key][2]
        assert getattr(self.config(tmp_path, []), field) == getattr(PipelineConfig({}), field)

    @pytest.mark.parametrize("spelling", ["true", "yes", "1", "levels", " Yes ", "TRUE"])
    def test_levels_true_spellings(self, tmp_path, spelling):
        assert _to_bool(spelling) is True  # True is also the default, so check the parser too
        assert self.config(tmp_path, [], [f"levels = {spelling}"]).granger_on_levels is True

    @pytest.mark.parametrize("key", SETTINGS)
    def test_flag_beats_the_config_file(self, tmp_path, key):
        line, _, field, _, other_flags, other = SETTINGS[key]
        assert getattr(self.config(tmp_path, other_flags, [line]), field) == other


class TestColdRunImports:
    def test_iso_pipeline_loads_neither_numpy_ma_nor_strptime(self, walks_csvs, tmp_path):
        # a fresh interpreter, so modules the test process already holds do not
        # count; scipy and mpmath are test-only oracles, never runtime imports,
        # and longrun.synth serves only the synth subcommand
        code = (
            "import json, sys\n"
            "from longrun.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, [m for m in ('numpy.ma', '_strptime', 'scipy', 'mpmath',"
            " 'longrun.synth') if m in sys.modules]]))\n"
        )
        src = str(Path(longrun.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--input", f"a={walks_csvs['a']}",
             "--input", f"b={walks_csvs['b']}", "--out", str(tmp_path / "report.txt")],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        assert json.loads(done.stdout) == [0, []]
