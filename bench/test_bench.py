"""Tests of the benchmark itself: python3 -m pytest bench"""

import copy
import json
import subprocess
import sys

import pytest

import run

run._use_checkout_source()

import longrun  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_emits_every_benchmark_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--smoke"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


@pytest.fixture(scope="module")
def first_outputs(tmp_path_factory):
    """(output, reference) of the first pool entry of each workload."""
    found = {}
    for name, workload in WORKLOADS.items():
        seed = workload.pool_seeds[0]
        entry = workload.make_input(seed, tmp_path_factory.mktemp(name))
        found[name] = workload.run_op(entry), workload.load_refs()[seed]
    return found


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_matches_its_reference(first_outputs, name):
    output, ref = first_outputs[name]
    assert WORKLOADS[name].compare(output, ref) is None


def test_paper_cli_check_rejects_a_changed_byte_and_a_failed_exit(first_outputs):
    (code, text), ref = first_outputs["paper_cli"]
    workload = WORKLOADS["paper_cli"]
    i = ref.index("Trace Statistic")
    assert workload.compare((code, text), ref[:i] + "t" + ref[i + 1:]) is not None
    assert workload.compare((code, text), ref + "\n") is not None
    assert workload.compare((2, text), ref) is not None


def _corrupt(tree, keys, change):
    bad = copy.deepcopy(tree)
    node = bad
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = change(node[keys[-1]])
    return bad


def test_long_pair_check_tolerance_and_exact_fields(first_outputs):
    output, ref = first_outputs["long_pair"]
    compare = WORKLOADS["long_pair"].compare
    stat = ("unit_roots", 0, 0, "statistic")
    assert compare(output, _corrupt(ref, stat, lambda v: v * (1 + 1e-12))) is None
    assert compare(output, _corrupt(ref, stat, lambda v: v * (1 + 1e-6))) is not None
    for keys, change in [
        (("lag_selection", "chosen"), lambda v: v + 1),
        (("rank", "rank"), lambda v: v + 1),
        (("granger", "verdict"), lambda v: "H1" if v == "none" else "none"),
        (("unit_roots", 0, 0, "lags_or_bandwidth"), float),
    ]:
        assert compare(output, _corrupt(ref, keys, change)) is not None, keys


def test_wide_panel_check_tolerance_and_text_cells(first_outputs):
    output, ref = first_outputs["wide_panel"]
    workload = WORKLOADS["wide_panel"]
    line = next(l for l in ref.splitlines() if l.startswith("Mean,"))
    cell = line.split(",")[1]
    assert workload.compare(output, ref.replace(line, line.replace(cell, repr(float(cell) * (1 + 1e-12)), 1))) is None
    assert workload.compare(output, ref.replace(line, line.replace(cell, repr(float(cell) * (1 + 1e-6)), 1))) is not None
    assert workload.compare(output, ref.replace("Mean,", "Average,", 1)) is not None
    assert workload.compare(output, ref.replace("# section: granger", "# section: grange", 1)) is not None


def test_corrupted_reference_file_fails_the_run(tmp_path, monkeypatch):
    refs = json.loads((workloads.REFS / "long_pair.json").read_text(encoding="utf-8"))
    for tree in refs["outputs"].values():
        tree["correlation"][0][1] *= 1.001
    (tmp_path / "long_pair.json").write_text(json.dumps(refs), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFS", tmp_path)
    result, _, _ = run.run("long_pair", seed=1, seconds=0.1, trace=0, setup_reps=1)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_traced_run_covers_each_op_and_restores_the_package():
    original = longrun.linalg.ols_fit
    result, _, _ = run.run("wide_panel", seed=2, seconds=0.6, trace=1, setup_reps=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["trace.span_coverage_min"] >= 0.9
    assert metrics["linalg.ols_fit.calls"] == 276  # 12 ADF x 19 + 12 PP + 6 lags x 6 equations
    assert metrics["report.skipped_sections"] == 1
    assert metrics["report_ms.p50"] > 0
    assert all(v == 0 for k, v in metrics.items() if k.endswith(".errors"))
    assert longrun.linalg.ols_fit is original
    assert longrun.unitroot.ols_fit is original


def test_tracer_counts_errors_and_nests_spans():
    tracer = spans.Tracer()
    with tracer.installed():
        with tracer.op(0):
            with pytest.raises(longrun.errors.TooShort):
                longrun.ols_fit([[1.0]], [1.0])
            longrun.log_det([[2.0, 0.0], [0.0, 2.0]])
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["op", "linalg.ols_fit", "linalg.log_det"]
    assert [s[spans.PARENT] for s in tracer.spans] == [-1, 0, 0]
    metrics, coverage = spans.per_layer_metrics(tracer.spans)
    assert metrics["linalg.errors"] == (1, "count")
    assert metrics["linalg.log_det.calls"] == (1, "count")
    assert 0.0 < coverage <= 1.0
