"""The package's public surface: ``from longrun import *``, every name in
``longrun.__all__`` (the synth names load lazily through the module's
``__getattr__``), README's Library example, run as written, and the result
fields the benchmark's reference outputs record."""

import copy
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import longrun

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports this longrun."""
    src = str(Path(longrun.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_star_import_binds_every_public_name():
    code = ("from longrun import *\n"
            "import longrun\n"
            "print([name for name in longrun.__all__ if name not in globals()])\n")
    assert run_python(code) == "[]\n"


def test_every_public_name_resolves():
    assert [name for name in longrun.__all__ if not hasattr(longrun, name)] == []
    assert longrun.generate is longrun.synth.generate


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'longrun' has no attribute 'VarFit'$"):
        longrun.VarFit


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert run_python(code) == "1 1 co-integrating relation(s) at the 0.05 level H3\n"


def test_result_fields_match_the_benchmark_refs():
    """bench/refs/long_pair.json stores each op's results key for key, so a renamed,
    added or dropped field fails here rather than every benchmark op."""
    refs = json.loads((ROOT / "bench" / "refs" / "long_pair.json").read_text(encoding="utf-8"))
    op = next(iter(refs["outputs"].values()))
    recorded = {
        longrun.SummaryStats: op["summaries"][0],
        longrun.UnitRootResult: op["unit_roots"][0][0],
        longrun.LagSelectionRow: op["lag_selection"]["table"][0],
        # the benchmark drops the eigenvectors: their scale and sign are not reported
        longrun.JohansenResult: {**op["johansen"], "eigenvectors": None},
        longrun.GrangerResult: op["granger"]["forward"],
    }
    for cls, record in recorded.items():
        assert {f.name for f in dataclasses.fields(cls)} == set(record), cls.__name__


@pytest.fixture(scope="module")
def records():
    """One of each result record by class name, from a seeded cointegrated pair (T = 200).
    Built when the first test runs, not at collection: a fault here fails those tests alone."""
    from longrun.synth import ProcessSpec, generate

    panel = generate(ProcessSpec(kind="cointegrated_pair", length=200, seed=5, beta=2.0))
    series = longrun.Series("x", panel.start, panel.data[:, 0])
    built = [longrun.summarize(series), longrun.adf_test(series),
             longrun.select_lag(panel, 3)[1][0], longrun.granger_test(panel, 2)[0],
             longrun.johansen_test(panel, 1)]
    return {type(record).__name__: record for record in built}


def _same(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))


@pytest.mark.parametrize("name", ["SummaryStats", "UnitRootResult", "LagSelectionRow",
                                  "GrangerResult", "JohansenResult"])
def test_result_records_are_slotted_and_still_copy_pickle_and_replace(records, name):
    record = records[name]
    # slots keep each record's fields without a per-instance __dict__ (or weakref slot)
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(record)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, dataclasses.fields(record)[0].name, None)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
                 dataclasses.replace(record)):
        assert _same(twin, record)
    last = dataclasses.fields(record)[-1].name
    changed = dataclasses.replace(record, **{last: "other"})
    assert getattr(changed, last) == "other" != getattr(record, last)
    plain = dataclasses.asdict(record)
    assert list(plain) == [f.name for f in dataclasses.fields(record)]
    assert all(np.array_equal(plain[name], getattr(record, name)) for name in plain)
