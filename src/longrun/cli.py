"""Command-line interface.

The analysis subcommands (`summary`, `corr`, `unitroot`, `lagselect`,
`johansen`, `granger`) print their slice of the `pipeline` report, which has
every section; `synth` writes seeded demo datasets so the whole tool can be
exercised without any external data.  Exit codes: 0 success, 1 usage error,
2 data error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

from .errors import ConfigError, LongrunError, ParseError
from .report import RENDERERS, SECTION_ORDER, PipelineConfig, render, run_pipeline
from .series import RawSeries, _read_text, _year_month, month_index, save_csv
from .unitroot import CASES

# Each analysis subcommand is a filter over the pipeline's sections.
SUBCOMMANDS = {
    "summary": ("summary statistics table", ("summary_statistics",)),
    "corr": ("correlation matrix", ("correlation",)),
    "unitroot": ("ADF and Phillips-Perron tests at level and first difference",
                 ("unit_root_adf", "unit_root_pp")),
    "lagselect": ("VAR lag-order selection table", ("lag_selection",)),
    "johansen": ("Johansen cointegration rank test", ("johansen_trace", "johansen_maxeig")),
    "granger": ("pairwise Granger causality tests", ("granger",)),
    "pipeline": ("full report: all sections in order", SECTION_ORDER),
}

# synth --kind -> ProcessSpec kind and VAR coefficients; every spec gets --phi,
# --beta and --noise-scale, which only the kinds that use them read.
_SYNTH_KINDS = {
    "walks": ("var", (((1.0, 0.0), (0.0, 1.0)),)),
    "coint": ("cointegrated_pair", None),
    "causal": ("var", (((0.0, 0.0), (0.8, 0.0)),)),
    "ar1": ("ar1", None),
    "noise": ("white_noise", None),
}


class _Parser(argparse.ArgumentParser):
    """argparse parser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _common_flags() -> argparse.ArgumentParser:
    """The flags every analysis subcommand shares, built once as a parent parser."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--input", action="append", metavar="NAME=PATH",
                   help="named input series (repeat for each variable)")
    p.add_argument("--config", metavar="PATH",
                   help="key = value config file; explicit flags win")
    p.add_argument("--date-format", dest="date_format")
    p.add_argument("--max-lag", dest="max_lag", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--case", choices=CASES,
                   help="deterministic case for the unit-root regressions")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--levels", dest="levels", action="store_true", default=None,
                      help="run the Granger test on levels (default)")
    mode.add_argument("--diffs", dest="levels", action="store_false", default=None,
                      help="run the Granger test on first differences")
    p.add_argument("--format", choices=tuple(RENDERERS))
    p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="longrun",
                     description="Long-run time-series econometrics toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _common_flags()

    for name, (help_text, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "johansen":
            p.add_argument("--lagged-diffs", dest="lagged_diffs", type=int,
                           help="override the selection-derived lagged-difference count")
        if name == "granger":
            p.add_argument("--lag", type=int,
                           help="override the selection-derived lag order")

    p = sub.add_parser("synth", help="write seeded demo datasets as CSV files")
    p.add_argument("--kind", required=True, choices=tuple(_SYNTH_KINDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, default=500)
    p.add_argument("--beta", type=float, default=2.0, help="cointegration slope (coint)")
    p.add_argument("--phi", type=float, default=0.5, help="AR(1) coefficient (ar1)")
    p.add_argument("--noise-scale", dest="noise_scale", type=float, default=1.0)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    return parser


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "levels"):
        return True
    if low in ("false", "no", "0", "diffs"):
        return False
    raise ValueError(raw)


# Flag dest and config-file key of each setting -> its PipelineConfig field
# and the parser of its config-file value, in the order settings are read.
_SETTINGS = {
    "date_format": ("date_format", str),
    "max_lag": ("max_lag", int),
    "alpha": ("alpha", float),
    "case": ("deterministic_case", str),
    "levels": ("granger_on_levels", _to_bool),
    "format": ("output_format", str),
    "out": ("output_path", str),
}


def _read_config_file(path: str) -> dict:
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ParseError as exc:
        raise ConfigError(f"{path}:{exc.line_number}: {exc.reason}") from None
    values: dict = {"input": []}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key != "input" and key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "input":
            values["input"].append(value)
        else:
            values[key] = value
    return values


def _parse_inputs(pairs) -> dict:
    inputs = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name.strip() or not path.strip():
            raise ConfigError(f"--input expects NAME=PATH, got {pair!r}")
        if name.strip() in inputs:
            raise ConfigError(f"input name {name.strip()!r} given more than once")
        inputs[name.strip()] = path.strip()
    return inputs


def _build_config(args) -> PipelineConfig:
    """Layer flag values over config-file values; a setting given by neither
    keeps PipelineConfig's default."""
    cfg_file = _read_config_file(args.config) if args.config else {"input": []}
    settings = {}
    for key, (field, parse) in _SETTINGS.items():
        if getattr(args, key) is not None:
            settings[field] = getattr(args, key)
        elif key in cfg_file:
            try:
                settings[field] = parse(cfg_file[key])
            except ValueError:
                raise ConfigError(
                    f"config key {key!r}: cannot interpret {cfg_file[key]!r}") from None
    return PipelineConfig(inputs=_parse_inputs(args.input or cfg_file["input"]), **settings)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_sections(args) -> int:
    cfg = _build_config(args)
    lag = getattr(args, "lag", None)
    lagged_diffs = getattr(args, "lagged_diffs", None)
    if lagged_diffs is not None:
        lag = lagged_diffs + 1
    report = run_pipeline(cfg, SUBCOMMANDS[args.command][1], lag=lag)
    _emit(render(report, cfg.output_format), cfg.output_path)
    return 0


def _cmd_synth(args) -> int:
    from .synth import ProcessSpec, generate
    kind, coefficients = _SYNTH_KINDS[args.kind]
    result = generate(ProcessSpec(kind=kind, length=args.length, seed=args.seed, phi=args.phi,
                                  coefficients=coefficients, beta=args.beta,
                                  noise_scale=args.noise_scale))
    if hasattr(result, "labels"):  # Panel
        columns = zip([f"{args.kind}_{label}" for label in result.labels], result.data.T)
    else:
        columns = [(args.kind, result.values)]
    dates = [dt.date(*_year_month(month_index(*result.start) + i), 1) for i in range(args.length)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, values in columns:
        path = out_dir / f"{stem}.csv"
        save_csv(RawSeries(stem, tuple(zip(dates, map(float, values)))), path)
        sys.stdout.write(f"{path}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_sections(args)
    except ConfigError as exc:
        sys.stderr.write(f"longrun: usage error: {exc}\n")
        return 1
    except (LongrunError, OSError) as exc:
        section = getattr(exc, "section", None)
        where = f" [{section}]" if section else ""
        kind = f"{type(exc).__name__}: " if isinstance(exc, LongrunError) else ""
        sys.stderr.write(f"longrun: error{where}: {kind}{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
