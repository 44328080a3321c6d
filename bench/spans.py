"""Spans around the public functions of every ``longrun`` module.

The tracer wraps the package from outside: it replaces each public function
of each module, in every module namespace that holds a reference to it, with
a wrapper that records a span and restores the originals on exit.  Nothing
under ``src/longrun`` is edited.

A span is ``[name, start_ns, end_ns, parent, op, error, value]``: ``parent``
is the index of the enclosing span (-1 for an op root), ``op`` the id of the
op it belongs to, ``error`` whether an exception escaped the call, ``value``
a count taken from the call's arguments or result (see ``_VALUES``).  Spans
stay in memory until ``dump``.  Timestamps come from ``perf_counter_ns``,
the system-wide monotonic clock on Linux, so spans recorded in a child
process line up with the parent's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time

MODULES = ("cli", "descriptive", "distributions", "granger", "johansen", "linalg",
           "report", "series", "synth", "unitroot", "varmodel")

# month_index runs once per input row inside aggregate_monthly; a wrapper there
# would cost more than the function and distort the series layer's time.
_UNWRAPPED = frozenset({"series.month_index"})


def _design_cells(args, result):
    shape = getattr(args[0], "shape", ())
    return shape[0] * (shape[1] if len(shape) > 1 else 1) if shape else 0


_VALUES = {
    "linalg.ols_fit": _design_cells,
    "series.load_csv": lambda args, result: len(result),
    "report.render": lambda args, result: len(result.encode("utf-8")),
    "report.run_pipeline": lambda args, result: sum(s.skipped for s in result.sections),
}

NAME, START, END, PARENT, OP, ERROR, VALUE = range(7)


class Tracer:
    """Records spans for one benchmark run; single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []

    def add(self, name, start_ns, end_ns):
        """Record a span measured outside a wrapper, under the current span."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self._op, False, None])

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one op; every span recorded inside belongs to it."""
        index = len(self.spans)
        record = ["op", time.perf_counter_ns(), 0, -1, op_id, False, None]
        self.spans.append(record)
        self._stack.append(index)
        self._op = op_id
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            self._stack.pop()
            self._op = None

    def graft(self, child_spans):
        """Append spans recorded by a child process under the current span."""
        parent = self._stack[-1] if self._stack else -1
        offset = len(self.spans)
        for name, start, end, child_parent, _, error, value in child_spans:
            self.spans.append([name, start, end,
                               parent if child_parent < 0 else child_parent + offset,
                               self._op, error, value])

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        value_of = _VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, self._op, False, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[ERROR] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if value_of is not None:
                record[VALUE] = value_of(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public longrun function for the duration of the block."""
        package = importlib.import_module("longrun")
        modules = [importlib.import_module(f"longrun.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in _UNWRAPPED):
                    continue
                wrapped[fn] = self._wrap(name, fn)
        for namespace in [package, *modules]:
            for attr, value in list(vars(namespace).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped[value])
        try:
            yield self
        finally:
            while self._saved:
                namespace, attr, value = self._saved.pop()
                setattr(namespace, attr, value)

    def dump(self, path):
        """Write the spans as JSON lines; ``parent`` is a line number."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, error, value in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "error": error,
                                     "value": value}) + "\n")


# Per-layer metrics: name -> (unit, how it is derived from one op's spans).
# "incl" is the op's total inclusive time in the named span, "self" the time
# not covered by child spans, "calls" the number of spans, "value" the sum of
# their values, "layer" the time in outermost spans of a module.
PER_LAYER = {
    "startup.python_ms": ("ms", "incl", "startup.python"),
    "startup.numpy_import_ms": ("ms", "incl", "startup.numpy_import"),
    "startup.longrun_import_ms": ("ms", "incl", "startup.longrun_import"),
    "cli.main_ms": ("ms", "incl", "cli.main"),
    "series.load_csv_ms": ("ms", "incl", "series.load_csv"),
    "series.aggregate_monthly_ms": ("ms", "incl", "series.aggregate_monthly"),
    "series.align_ms": ("ms", "incl", "series.align"),
    "series.rows_read": ("count", "value", "series.load_csv"),
    "unitroot.adf_test_ms": ("ms", "incl", "unitroot.adf_test"),
    "unitroot.adf_test.calls": ("count", "calls", "unitroot.adf_test"),
    "unitroot.adf_test.ols_fits_per_call": ("fits/call", "fits_per_call", "unitroot.adf_test"),
    "unitroot.pp_test_ms": ("ms", "incl", "unitroot.pp_test"),
    "linalg.ols_fit.calls": ("count", "calls", "linalg.ols_fit"),
    "linalg.ols_fit_ms": ("ms", "self", "linalg.ols_fit"),
    "linalg.ols_fit.design_cells": ("count", "value", "linalg.ols_fit"),
    "linalg.residuals_of.calls": ("count", "calls", "linalg.residuals_of"),
    "linalg.solve_generalized_eig.calls": ("count", "calls", "linalg.solve_generalized_eig"),
    "linalg.log_det.calls": ("count", "calls", "linalg.log_det"),
    "varmodel.select_lag_ms": ("ms", "incl", "varmodel.select_lag"),
    "varmodel.select_lag.ols_fits_per_call": ("fits/call", "fits_per_call", "varmodel.select_lag"),
    "johansen.johansen_test_ms": ("ms", "incl", "johansen.johansen_test"),
    "granger.granger_test_ms": ("ms", "incl", "granger.granger_test"),
    "descriptive.summarize_ms": ("ms", "incl", "descriptive.summarize"),
    "descriptive.correlation_ms": ("ms", "incl", "descriptive.correlation"),
    "distributions.calls": ("count", "module_calls", "distributions"),
    "distributions_ms": ("ms", "layer", "distributions"),
    "report.run_pipeline_ms": ("ms", "incl", "report.run_pipeline"),
    "report.render_ms": ("ms", "incl", "report.render"),
    "report.render_bytes": ("bytes", "value", "report.render"),
    "report.skipped_sections": ("count", "value", "report.run_pipeline"),
    **{f"{m}.errors": ("count", "errors", m) for m in MODULES},
}


def _module(name):
    return name.partition(".")[0]


def _op_tallies(spans, root, children):
    """Sums over the spans under one op root."""
    t = {"incl": {}, "self": {}, "calls": {}, "value": {}, "layer": {}, "module_calls": {},
         "errors": {}, "fits_under": {}}

    def bump(kind, key, amount):
        t[kind][key] = t[kind].get(key, 0) + amount

    todo = [(i, ()) for i in children.get(root, ())]
    while todo:
        i, ancestors = todo.pop()
        name, start, end, parent, _, error, value = spans[i]
        dur = end - start
        kids = children.get(i, ())
        bump("incl", name, dur)
        bump("self", name, dur - sum(spans[k][END] - spans[k][START] for k in kids))
        bump("calls", name, 1)
        bump("value", name, value or 0)
        bump("module_calls", _module(name), 1)
        bump("errors", _module(name), int(error))
        if not ancestors or _module(ancestors[-1]) != _module(name):
            bump("layer", _module(name), dur)
        if name == "linalg.ols_fit":
            for a in set(ancestors):
                bump("fits_under", a, 1)
        todo.extend((k, ancestors + (name,)) for k in kids)
    op_dur = spans[root][END] - spans[root][START]
    covered = sum(spans[k][END] - spans[k][START] for k in children.get(root, ()))
    return t, covered / op_dur if op_dur > 0 else 0.0


def per_layer_metrics(spans):
    """Per-layer metric values over the ops recorded in ``spans``.

    Times and counts are medians of the per-op values; ratios are totals
    over all ops; errors are totals.  Also returns the smallest share of an
    op's wall time covered by its direct child spans.
    """
    children = {}
    roots = []
    for i, s in enumerate(spans):
        if s[PARENT] < 0:
            roots.append(i)
        else:
            children.setdefault(s[PARENT], []).append(i)
    per_op = [_op_tallies(spans, r, children) for r in roots if spans[r][NAME] == "op"]
    metrics = {}
    for metric, (unit, kind, key) in PER_LAYER.items():
        if not per_op:
            value = 0
        elif kind == "errors":
            value = sum(t["errors"].get(key, 0) for t, _ in per_op)
        elif kind == "fits_per_call":
            calls = sum(t["calls"].get(key, 0) for t, _ in per_op)
            fits = sum(t["fits_under"].get(key, 0) for t, _ in per_op)
            value = fits / calls if calls else 0.0
        else:
            value = statistics.median(t[kind].get(key, 0) for t, _ in per_op)
            if unit == "ms":
                value /= 1e6
        metrics[metric] = (value, unit)
    coverage = min((c for _, c in per_op), default=0.0)
    return metrics, coverage
