"""Pipeline orchestration and table rendering.

A Report is an ordered list of sections: all eight (summary statistics
through Granger causality) for the full pipeline, or the subset a caller
asks for, always in pipeline order.  Sections carry full-precision values plus per-column
format codes; the text renderer only rounds for display, the JSON renderer
emits the raw values, so every printed number is a rounding of a value that
is also available exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import asdict, dataclass, field

from . import descriptive, granger as granger_mod, johansen as johansen_mod
from . import unitroot as unitroot_mod, varmodel
from .errors import ConfigError, LongrunError
from .series import Panel, Series, _year_month, aggregate_monthly, align, diff, load_csv

SCHEMA_VERSION = 1

SECTION_ORDER = (
    "summary_statistics",
    "correlation",
    "unit_root_adf",
    "unit_root_pp",
    "lag_selection",
    "johansen_trace",
    "johansen_maxeig",
    "granger",
)

# Column format codes: "stat" = 8-character significant display, "pval" =
# 4 decimals, None = text.  Integer cells always render as plain integers.
FMT_STAT = "stat"
FMT_PVAL = "pval"


@dataclass
class Section:
    name: str
    title: str
    columns: tuple = ()
    formats: tuple = ()
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    skipped: bool = False
    skip_reason: str | None = None


@dataclass
class Report:
    sections: list

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                "sections": [asdict(s) for s in self.sections]}


@dataclass
class PipelineConfig:
    """Everything the pipeline needs: inputs, conventions, output shape."""

    inputs: dict  # name -> csv path, insertion-ordered
    date_format: str = "%Y-%m-%d"
    max_lag: int = 5
    deterministic_case: str = "constant"
    alpha: float = 0.05
    granger_on_levels: bool = True
    output_format: str = "text"
    output_path: str | None = None

    def validate(self):
        if len(self.inputs) < 2:
            raise ConfigError("need at least 2 input series")
        if self.max_lag < 0:
            raise ConfigError("max_lag must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.output_format not in RENDERERS:
            raise ConfigError(f"unsupported output format {self.output_format!r}")
        if self.deterministic_case not in unitroot_mod.CASES:
            raise ConfigError(f"unsupported deterministic case {self.deterministic_case!r}")


@contextlib.contextmanager
def _stage(section_name: str):
    """Tag any LongrunError or OSError escaping the block with the section it came from."""
    try:
        yield
    except (LongrunError, OSError) as exc:
        exc.section = section_name
        raise


def format_statistic(value: float) -> str:
    """Render a statistic into (up to) 8 significant characters, sign extra."""
    a = abs(value)
    if a >= 1e8 or (a != 0.0 and a < 1e-4):
        digits = f"{a:.2E}"
    else:
        digits = f"{a:.0f}"
        for d in range(6, 0, -1):
            cand = f"{a:.{d}f}"
            if len(cand) <= 8:
                digits = cand
                break
        if len(digits) > 8:  # rounding of .0f can spill past 1e8
            digits = f"{a:.2E}"
    return "-" + digits if value < 0 else digits


def format_cell(value, fmt) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if fmt == FMT_STAT:
        return format_statistic(value)
    if fmt == FMT_PVAL:
        return f"{value:.4f}"
    return str(value)


def _series_from_panel(panel: Panel, j: int) -> Series:
    return Series(panel.labels[j], _year_month(int(panel.periods[0])), panel.data[:, j])


# Summary-table row label -> SummaryStats field, in print order.
_SUMMARY_ROWS = (("Mean", "mean"), ("Median", "median"), ("Maximum", "maximum"),
                 ("Minimum", "minimum"), ("Std. Dev.", "std_dev"), ("Skewness", "skewness"),
                 ("Kurtosis", "kurtosis"), ("Jarque-Bera", "jarque_bera"),
                 ("Probability", "jb_probability"), ("Sum", "sum"),
                 ("Sum Sq. Dev.", "sum_sq_dev"), ("Observations", "observations"))


def summary_section(panel: Panel) -> Section:
    stats = [descriptive.summarize(_series_from_panel(panel, j)) for j in range(panel.m)]
    return Section(
        name="summary_statistics",
        title="Summary Statistics",
        columns=("Statistics", *panel.labels),
        formats=(None, *(FMT_STAT,) * panel.m),
        rows=[[label, *(getattr(s, name) for s in stats)] for label, name in _SUMMARY_ROWS],
    )


def correlation_section(panel: Panel) -> Section:
    corr = descriptive.correlation(panel)
    rows = [[label, *(float(v) for v in corr[i])] for i, label in enumerate(panel.labels)]
    return Section(
        name="correlation",
        title="Correlation Matrix",
        columns=("", *panel.labels),
        formats=(None, *(FMT_STAT,) * panel.m),
        rows=rows,
    )


def unit_root_section(panel: Panel, kind: str, case: str) -> Section:
    test, test_name, unit = ((unitroot_mod.adf_test, "Augmented Dickey Fuller", "lags")
                             if kind == "adf" else
                             (unitroot_mod.pp_test, "Phillips-Perron", "bandwidth"))
    rows = []
    notes = []
    results = []  # (level, first difference) per series
    for j, label in enumerate(panel.labels):
        s = _series_from_panel(panel, j)
        level = test(s, case=case)
        first = test(diff(s), case=case)
        results.append((level, first))
        rows.append([label, float(level.statistic), float(level.p_value),
                     float(first.statistic), float(first.p_value)])
        notes.append(
            f"{label}: level {unit} {level.lags_or_bandwidth} (obs {level.effective_obs}), "
            f"1st difference {unit} {first.lags_or_bandwidth} (obs {first.effective_obs})"
        )
    rows.append(["Critical Values", None, None, None, None])
    level, first = results[0]
    for lvl in unitroot_mod.LEVELS:
        rows.append([lvl, float(level.critical_values[lvl]), None,
                     float(first.critical_values[lvl]), None])
    notes.append(f"Critical values shown for the {panel.labels[0]} regression samples.")
    return Section(
        name=f"unit_root_{kind}",
        title=f"Unit Root Analysis ({test_name} test)",
        columns=("", f"{test_name} (Level)", "p-value",
                 f"{test_name} (1st Difference)", "p-value"),
        formats=(None, FMT_STAT, FMT_PVAL, FMT_STAT, FMT_PVAL),
        rows=rows,
        notes=notes,
    )


def lag_selection_section(panel: Panel, max_lag: int):
    chosen, table = varmodel.select_lag(panel, max_lag)
    rows = [[int(r.lag), float(r.aic), float(r.sbc), "*" if r.lag == chosen else ""]
            for r in table]
    section = Section(
        name="lag_selection",
        title="VAR Lag Order Selection Criteria",
        columns=("Lag", "Akaike information criterion", "Schwarz criterion", ""),
        formats=(None, FMT_STAT, FMT_STAT, None),
        rows=rows,
        notes=[f"* Schwarz-criterion minimum: lag {chosen}"],
    )
    return chosen, section


def johansen_sections(panel: Panel, lagged_diffs: int):
    result = johansen_mod.johansen_test(panel, lagged_diffs=lagged_diffs)
    rank, remark = johansen_mod.rank_decision(result)
    note = (f"Effective observations: {result.effective_obs}; "
            f"lagged differences: {result.lagged_diffs}")
    prefix = "Bivariate Co Integration Analysis" if panel.m == 2 else "Co Integration Analysis"
    sections = []
    for name, title, column, stats, crit, pvalues in (
        ("johansen_trace", "Trace Statistics", "Trace Statistic",
         result.trace_stats, result.trace_crit_5pct, result.trace_pvalues),
        ("johansen_maxeig", "Max-Eigen Value Statistics", "Max-Eigen Statistic",
         result.max_eigen_stats, result.max_eigen_crit_5pct, result.max_eigen_pvalues),
    ):
        rows = [["None" if r == 0 else f"At most {r}", float(result.eigenvalues[r]),
                 float(stats[r]), float(crit[r]), float(pvalues[r]), remark if r == 0 else ""]
                for r in range(panel.m)]
        sections.append(Section(
            name=name,
            title=f"{prefix} {title}",
            columns=("Hypothesized No. of CE(s)", "Eigenvalue", column,
                     "0.05 Critical Value", "Prob.**", "Remarks"),
            formats=(None, FMT_STAT, FMT_STAT, FMT_STAT, FMT_PVAL, None),
            rows=rows,
            notes=[note, "** p-values from a gamma approximation to the asymptotic distribution"],
        ))
    return rank, *sections


def granger_section(panel: Panel, lag: int, on_levels: bool, alpha: float,
                     decided_rank: int) -> Section:
    forward, backward = granger_mod.granger_test(panel, lag=lag, on_levels=on_levels)
    verdict = granger_mod.hypothesis_verdict((forward, backward), alpha)
    rows = []
    for res in (backward, forward):  # EViews pair order: second column first
        cause, effect = res.direction
        rows.append([
            f"{cause} does not Granger Cause {effect}",
            int(res.obs_used), float(res.f_statistic), float(res.p_value),
        ])
    verdict_text = {
        granger_mod.VERDICT_H1: f"{panel.labels[0]} drives {panel.labels[1]}",
        granger_mod.VERDICT_H2: f"{panel.labels[1]} drives {panel.labels[0]}",
        granger_mod.VERDICT_H3: "bilateral causal relationship",
        granger_mod.VERDICT_NONE: "no causal relationship exists",
    }[verdict]
    notes = [
        f"Lag: {lag} ({'levels' if on_levels else 'first differences'}); "
        f"verdict at alpha={alpha:g}: {verdict} ({verdict_text})",
    ]
    if decided_rank == 0:
        notes.append(
            "Caveat: with no cointegration the Granger test cannot establish the "
            "direction of a long-run causal relationship; results are reported "
            "for completeness."
        )
    return Section(
        name="granger",
        title="Granger Causality Analysis",
        columns=("Null Hypothesis:", "Obs", "F-Statistic", "Prob."),
        formats=(None, None, FMT_STAT, FMT_PVAL),
        rows=rows,
        notes=notes,
    )


def load_inputs(cfg: PipelineConfig) -> Panel:
    """Ingest, aggregate to monthly means and align the configured inputs."""
    series = []
    with _stage("ingest"):
        for name, path in cfg.inputs.items():
            raw = load_csv(path, date_format=cfg.date_format, name=name)
            series.append(aggregate_monthly(raw))
    with _stage("align"):
        return align(*series)


def run_pipeline(cfg: PipelineConfig, sections=SECTION_ORDER, *, lag: int | None = None) -> Report:
    """Run the stages the requested ``sections`` need and return those sections.

    Stages run in pipeline order: ingest, monthly aggregation, alignment,
    summary statistics, correlation, ADF and PP at level and first
    difference, lag selection, Johansen, Granger.  Lag selection runs for its
    own section, and for Johansen or Granger when no ``lag`` is given.
    Johansen runs for its own sections, and for the Granger caveat when the
    panel is a pair.  Granger uses ``lag`` (by default the selected lag, at
    least 1) and Johansen ``lag - 1`` lagged differences.  Sections come back
    in pipeline order; errors raised inside a stage carry a ``section``
    attribute naming it.
    """
    cfg.validate()
    wanted = set(sections)
    if not wanted <= set(SECTION_ORDER):
        raise ConfigError(f"unknown sections {sorted(wanted - set(SECTION_ORDER))}")
    if lag is not None and lag < 1:
        raise ConfigError(f"lag must be >= 1 (lagged differences >= 0), got lag {lag}")
    panel = load_inputs(cfg)
    granger_runs = "granger" in wanted and panel.m == 2
    johansen_runs = granger_runs or bool(wanted & {"johansen_trace", "johansen_maxeig"})
    built = {}

    def build(name, make):
        if name in wanted:
            with _stage(name):
                built[name] = make()

    build("summary_statistics", lambda: summary_section(panel))
    build("correlation", lambda: correlation_section(panel))
    build("unit_root_adf", lambda: unit_root_section(panel, "adf", cfg.deterministic_case))
    build("unit_root_pp", lambda: unit_root_section(panel, "pp", cfg.deterministic_case))
    if "lag_selection" in wanted or (lag is None and johansen_runs):
        with _stage("lag_selection"):
            chosen, built["lag_selection"] = lag_selection_section(panel, cfg.max_lag)
        if lag is None:
            lag = max(chosen, 1)
    if johansen_runs:
        with _stage("johansen_trace"):
            rank, built["johansen_trace"], built["johansen_maxeig"] = johansen_sections(
                panel, lag - 1)
    if granger_runs:
        build("granger", lambda: granger_section(panel, lag, cfg.granger_on_levels,
                                                 cfg.alpha, rank))
    elif "granger" in wanted:
        built["granger"] = Section(
            name="granger",
            title="Granger Causality Analysis",
            skipped=True,
            skip_reason=f"pairwise test needs exactly 2 series, panel has {panel.m}",
        )
    return Report([built[name] for name in SECTION_ORDER if name in wanted])


def _render_text(report: Report) -> str:
    out = []
    for s in report.sections:
        out.append(s.title)
        out.append("=" * len(s.title))
        if s.skipped:
            out.append(f"skipped: {s.skip_reason}")
            out.append("")
            continue
        cells = [[format_cell(v, f) for v, f in zip(row, s.formats)] for row in s.rows]
        widths = [
            max(len(s.columns[j]), *(len(r[j]) for r in cells)) if cells else len(s.columns[j])
            for j in range(len(s.columns))
        ]
        header = "  ".join(s.columns[j].ljust(widths[j]) for j in range(len(s.columns)))
        out.append(header.rstrip())
        for r in cells:
            line = "  ".join(
                r[j].ljust(widths[j]) if s.formats[j] is None else r[j].rjust(widths[j])
                for j in range(len(s.columns))
            )
            out.append(line.rstrip())
        for note in s.notes:
            out.append(f"Note: {note}")
        out.append("")
    return "\n".join(out)


def _render_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for s in report.sections:
        buf.write(f"# section: {s.name}\n")
        if s.skipped:
            buf.write(f"# skipped: {s.skip_reason}\n")
            continue
        writer.writerow(s.columns)
        for row in s.rows:
            writer.writerow(["" if v is None else v for v in row])
        for note in s.notes:
            buf.write(f"# note: {note}\n")
    return buf.getvalue()


# Output format -> its renderer, in the order usage text lists the formats.
RENDERERS = {"text": _render_text, "csv": _render_csv,
             "json": lambda report: json.dumps(report.to_dict(), indent=2) + "\n"}


def render(report: Report, output_format: str = "text") -> str:
    """Serialize a report to text, CSV (one stream with section markers) or JSON."""
    if output_format not in RENDERERS:
        raise ConfigError(f"unsupported output format {output_format!r}")
    return RENDERERS[output_format](report)
