"""The benchmark's three workloads: seeded inputs, one op, and its check.

Each workload draws the inputs of a run from a fixed pool of 16 synthetic
datasets, all generated with ``longrun.synth`` from fixed seeds; the run's
``--seed`` picks which of them the run uses and in what order.  The output of
every pool entry at the commit that defined the benchmark is stored under
``refs/``, so each op's output is checked against it (see ``capture_refs.py``).

One op is one full analysis, inputs to result:

* ``paper_cli``: a cold ``python -m longrun.cli pipeline --format text``
  subprocess on a daily-price cointegrated pair (about 21 trading-day rows a
  month for ten years, so 120 months, m=2).  This is the paper's scale and
  input shape: interpreter start, imports and CSV ingest dominate.
* ``long_pair``: in process, the README "Library" chain on an in-memory
  cointegrated pair, T=2000, m=2.  The ADF lag search dominates; no file
  I/O, no rendering, no start-up.
* ``wide_panel``: in process, ``run_pipeline`` + CSV ``render`` on six
  monthly CSVs, T=500 (3 random walks and 3 AR(0.5) series, so Johansen
  rank 3, Granger skipped).
"""

from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import longrun as lr
from longrun import synth

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
POOL_SIZE = 16
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 60  # a hung CLI child fails its op instead of stalling the run


class Workload:
    """Inputs, op and check of one workload.

    ``pool_seeds`` are the synth seeds of the pool entries; ``make_input``
    turns one of them into whatever ``run_op`` takes; ``canonical`` turns an
    op's output into the JSON-able form stored as its reference; ``compare``
    returns None when an output matches its reference, else the first
    difference.
    """

    name = ""
    first_seed = 0
    inputs_per_run = 4

    @property
    def pool_seeds(self):
        return list(range(self.first_seed, self.first_seed + POOL_SIZE))

    def choose(self, seed):
        """The pool seeds a run with ``seed`` uses, in op order."""
        return random.Random(seed).sample(self.pool_seeds, self.inputs_per_run)

    def make_input(self, pool_seed, workdir: Path):
        raise NotImplementedError

    def run_op(self, entry, tracer=None):
        raise NotImplementedError

    def canonical(self, output):
        return output

    def compare(self, output, ref):
        raise NotImplementedError

    def load_refs(self):
        with open(REFS / f"{self.name}.json", encoding="utf-8") as fh:
            return {int(k): v for k, v in json.load(fh)["outputs"].items()}


def _relative_mismatch(got: float, want: float) -> bool:
    if got == want:
        return False
    return not abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def compare_tree(got, want, path="$"):
    """First difference between two JSON-like trees, or None.

    Floats agree within REL_TOL relative; everything else must be equal and of
    the same type (so an int lag never matches a float).
    """
    if isinstance(want, float) and isinstance(got, float):
        return f"{path}: {got!r} != {want!r}" if _relative_mismatch(got, want) else None
    if type(got) is not type(want):
        return f"{path}: type {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            diff = compare_tree(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = compare_tree(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _plain(value):
    """numpy scalars and arrays, tuples and dataclasses as JSON-able values."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return _plain(value.tolist())
    return value


def _save_monthly(series: lr.Series, path: Path) -> None:
    start = series.start_index
    points = tuple((dt.date((start + i) // 12, (start + i) % 12 + 1, 1), float(v))
                   for i, v in enumerate(series.values))
    lr.save_csv(lr.RawSeries(series.name, points), path)


def _trading_days(first: dt.date, last: dt.date):
    day, days = first, []
    while day <= last:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


class PaperCli(Workload):
    name = "paper_cli"
    first_seed = 101
    inputs_per_run = 4
    days = _trading_days(dt.date(2010, 1, 1), dt.date(2019, 12, 31))
    price_level = {"x": 1000.0, "y": 2000.0}

    def make_input(self, pool_seed, workdir):
        panel = synth.generate(synth.ProcessSpec(kind="cointegrated_pair", length=len(self.days),
                                                 seed=pool_seed, beta=2.0))
        args = ["pipeline", "--format", "text"]
        for j, label in enumerate(panel.labels):
            path = workdir / f"{pool_seed}_{label}.csv"
            level = self.price_level[label]
            points = tuple((d, level + float(v)) for d, v in zip(self.days, panel.data[:, j]))
            lr.save_csv(lr.RawSeries(label, points), path)
            args += ["--input", f"{label}={path}"]
        return {"args": args, "spans": workdir / f"{pool_seed}.spans"}

    def run_op(self, entry, tracer=None):
        """Run the CLI cold; with a tracer, through ``cli_child.py`` and graft its spans."""
        if tracer is None:
            proc = subprocess.run([sys.executable, "-m", "longrun.cli", *entry["args"]],
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, proc.stdout.decode("utf-8")
        entry["spans"].unlink(missing_ok=True)
        spawn = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(entry["spans"]),
                               *entry["args"]], capture_output=True, timeout=CHILD_TIMEOUT_S)
        done = time.perf_counter_ns()
        with open(entry["spans"], encoding="utf-8") as fh:
            child = json.load(fh)
        tracer.add("startup.python", spawn, child["t0"])
        tracer.graft(child["spans"])
        tracer.add("process.exit", child["t_end"], done)
        return proc.returncode, proc.stdout.decode("utf-8")

    def canonical(self, output):
        returncode, text = output
        if returncode != 0:
            raise RuntimeError(f"longrun exited {returncode}")
        return text

    def compare(self, output, ref):
        returncode, text = output
        if returncode != 0:
            return f"exit code {returncode}"
        if text != ref:
            lines = text.splitlines()
            for i, want in enumerate(ref.splitlines()):
                got = lines[i] if i < len(lines) else "<missing>"
                if got != want:
                    return f"line {i + 1}: {got!r} != {want!r}"
            return "report differs after the reference's last line"
        return None


class LongPair(Workload):
    name = "long_pair"
    first_seed = 201
    inputs_per_run = 8
    length = 2000

    def make_input(self, pool_seed, workdir):
        return synth.generate(synth.ProcessSpec(kind="cointegrated_pair", length=self.length,
                                                seed=pool_seed, beta=2.0))

    def run_op(self, panel, tracer=None):
        series = [lr.Series(label, synth.START, panel.data[:, j])
                  for j, label in enumerate(panel.labels)]
        summaries = [lr.summarize(s) for s in series]
        corr = lr.correlation(panel)
        unit_roots = []
        for s in series:
            for x in (s, lr.diff(s)):
                unit_roots.append((lr.adf_test(x), lr.pp_test(x)))
        chosen, table = lr.select_lag(panel, max_lag=5)
        johansen = lr.johansen_test(panel, lagged_diffs=max(chosen - 1, 0))
        rank, remark = lr.rank_decision(johansen)
        forward, backward = lr.granger_test(panel, lag=max(chosen, 1))
        verdict = lr.hypothesis_verdict((forward, backward), alpha=0.05)
        return {
            "summaries": summaries,
            "correlation": corr,
            "unit_roots": unit_roots,
            "lag_selection": {"chosen": chosen, "table": table},
            "johansen": johansen,
            "rank": {"rank": rank, "remark": remark},
            "granger": {"forward": forward, "backward": backward, "verdict": verdict},
        }

    def canonical(self, output):
        tree = _plain(output)
        # Eigenvector scaling and sign are not part of any result longrun reports.
        del tree["johansen"]["eigenvectors"]
        return tree

    def compare(self, output, ref):
        return compare_tree(self.canonical(output), ref)


class WidePanel(Workload):
    name = "wide_panel"
    first_seed = 301
    inputs_per_run = 6
    length = 500

    def make_input(self, pool_seed, workdir):
        inputs = {}
        for j in range(3):
            walk = synth.generate(synth.ProcessSpec(kind="random_walk", length=self.length,
                                                    seed=pool_seed * 10 + j))
            ar = synth.generate(synth.ProcessSpec(kind="ar1", length=self.length,
                                                  seed=pool_seed * 10 + 3 + j, phi=0.5))
            for label, series in ((f"w{j + 1}", walk), (f"a{j + 1}", ar)):
                path = workdir / f"{pool_seed}_{label}.csv"
                _save_monthly(series, path)
                inputs[label] = str(path)
        return lr.PipelineConfig(inputs=inputs, output_format="csv")

    def run_op(self, cfg, tracer=None):
        return lr.render(lr.run_pipeline(cfg), cfg.output_format)

    def compare(self, output, ref):
        got_rows = list(csv.reader(output.splitlines()))
        want_rows = list(csv.reader(ref.splitlines()))
        if len(got_rows) != len(want_rows):
            return f"{len(got_rows)} rows != {len(want_rows)}"
        for i, (got, want) in enumerate(zip(got_rows, want_rows)):
            if len(got) != len(want):
                return f"row {i + 1}: {len(got)} cells != {len(want)}"
            for g, w in zip(got, want):
                if g == w:
                    continue
                try:
                    differs = _relative_mismatch(float(g), float(w))
                except ValueError:
                    differs = True
                if differs:
                    return f"row {i + 1}: {g!r} != {w!r}"
        return None


WORKLOADS = {w.name: w for w in (PaperCli(), LongPair(), WidePanel())}
