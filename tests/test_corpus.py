"""Corpus digest: the answers of the statistical entry points on a fixed corpus, beyond the
golden CLI cases.

The corpus is the unit-root search corpus, 40 seeded walks and a flat, a straight-line and a
collinear-zigzag series, each at four scales, under ADF with the automatic lag and with two
lags and under Phillips-Perron in every deterministic case; then VAR lag selection, Johansen
and Granger on 30 seeded panels with m = 2..6, and the summary statistics and correlations of
those panels.  An outcome is the result written exactly (every float as ``repr(float(v))``,
so its bits count and its numpy type does not) or the error's type and message.  Each group
of outcomes (entry point x setting) is hashed with SHA-256 into ``corpus_manifest.json``,
beside the numpy and BLAS builds and the BLAS kernel, whose rounding every outcome carries;
on another build the test skips.

Rewrite the manifest only at a commit whose answers are known good:

    PYTHONPATH=src python tests/test_corpus.py --capture

To find the outcomes a change moved, print a group at both commits and diff the two:

    PYTHONPATH=src python tests/test_corpus.py --dump "adf auto/constant/x1"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import capture_golden
from conftest import make_panel, make_series, search_corpus
from longrun.descriptive import correlation, summarize
from longrun.errors import LongrunError
from longrun.granger import granger_test
from longrun.johansen import johansen_test
from longrun.unitroot import CASES, adf_test, pp_test
from longrun.varmodel import select_lag

MANIFEST = Path(__file__).with_name("corpus_manifest.json")

# 2^40 and 1e9 put some levels past the rank rule's reach next to the constant column
SCALES = {"x1": 1.0, "x2^-30": 2.0 ** -30, "x2^40": 2.0 ** 40, "x1e9": 1e9}


def _text(value) -> str:
    """``value`` written exactly: dataclasses by their fields, arrays by shape and entries,
    integers as ints and every other number as ``repr(float(v))``."""
    if dataclasses.is_dataclass(value):
        fields = (f"{f.name}={_text(getattr(value, f.name))}" for f in dataclasses.fields(value))
        return f"{type(value).__name__}({', '.join(fields)})"
    if isinstance(value, np.ndarray):
        return f"array{value.shape}({', '.join(map(_text, value.ravel().tolist()))})"
    if isinstance(value, (tuple, list)):
        return f"({', '.join(map(_text, value))})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key!r}: {_text(v)}" for key, v in value.items()) + "}"
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return repr(float(value))


def _outcome(call, *args, **kwargs) -> str:
    try:
        return _text(call(*args, **kwargs))
    except LongrunError as exc:
        return f"{type(exc).__name__}: {exc}"


def _series() -> list:
    """The search corpus, 40 seeded walks at level 100, and three series that fit exactly
    or collinearly: flat, a straight line, and a zigzag whose lagged differences repeat."""
    walks = [100.0 + np.cumsum(np.random.default_rng(seed).standard_normal(n))
             for seed, n in enumerate([60, 120, 240, 500] * 10)]
    zigzag = np.concatenate([[0.0], np.cumsum(np.tile([1.0, 2.0], 60))])
    zigzag[-1] += 3.0
    return [*search_corpus(), *walks, np.full(120, 3.5), np.arange(1.0, 121.0), zigzag]


def _panels() -> list:
    """30 seeded panels, six for each m = 2..6: walks at level 100, on odd seeds with the
    last column cointegrated with the first."""
    panels = []
    for seed in range(30):
        m, n = 2 + seed % 5, (120, 240, 500)[seed % 3]
        rng = np.random.default_rng(1000 + seed)
        data = 100.0 + np.cumsum(rng.standard_normal((n, m)), axis=0)
        if seed % 2:
            data[:, -1] = 2.0 * data[:, 0] + rng.standard_normal(n)
        panels.append(make_panel(*data.T))
    return panels


def outcomes() -> dict:
    """Every group's outcomes, in corpus order, by group name."""
    groups = {}
    series, panels = _series(), _panels()
    for label, scale in SCALES.items():
        scaled = [make_series(scale * x) for x in series]
        for case in CASES:
            groups[f"adf auto/{case}/{label}"] = [_outcome(adf_test, s, case) for s in scaled]
            groups[f"adf lags=2/{case}/{label}"] = [_outcome(adf_test, s, case, lags=2)
                                                    for s in scaled]
            groups[f"pp/{case}/{label}"] = [_outcome(pp_test, s, case) for s in scaled]
    pairs = [make_panel(*p.data[:, :2].T) for p in panels]
    for max_lag in (0, 2, 5):
        groups[f"select_lag max_lag={max_lag}"] = [_outcome(select_lag, p, max_lag)
                                                   for p in panels]
    for k in (0, 1, 2):
        groups[f"johansen lagged_diffs={k}"] = [_outcome(johansen_test, p, k) for p in panels]
    for lag in (1, 2, 4):
        for on_levels in (True, False):
            groups[f"granger lag={lag}/{'levels' if on_levels else 'differences'}"] = [
                _outcome(granger_test, p, lag, on_levels) for p in pairs]
    groups["summarize"] = [_outcome(summarize, make_series(column))
                           for p in panels for column in p.data.T]
    groups["correlation"] = [_outcome(correlation, p) for p in panels]
    return groups


def digest(groups: dict) -> dict:
    return {name: {"outcomes": len(texts),
                   "sha256": hashlib.sha256("\n".join(texts).encode()).hexdigest()}
            for name, texts in groups.items()}


def test_answers_match_the_corpus_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    here = capture_golden.versions()
    recorded = {key: manifest[key] for key in here}
    if here != recorded:
        pytest.skip(f"the corpus manifest was captured with {recorded}, this build has {here}; "
                    "its hashes hold only there")
    got = digest(outcomes())
    assert sorted(got) == sorted(manifest["groups"])
    changed = [name for name, want in manifest["groups"].items() if got[name] != want]
    assert not changed, f"{len(changed)} groups give other answers: {changed}"


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)  # as the test suite runs
    if sys.argv[1:] == ["--capture"]:
        MANIFEST.write_text(json.dumps({**capture_golden.versions(),
                                        "groups": digest(outcomes())}, indent=1) + "\n",
                            encoding="utf-8")
    elif sys.argv[1:2] == ["--dump"] and len(sys.argv) == 3:
        print("\n".join(outcomes()[sys.argv[2]]))
    else:
        sys.exit(__doc__)
