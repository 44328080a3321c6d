"""Golden report manifest: the byte-identity gate for every CLI report.

Each case runs ``longrun.cli.main`` in-process on seeded paper-scale (T=120)
``synth`` inputs and records the SHA-256 of its exit code, stdout and stderr,
plus any file the run writes, with the scratch directory's path replaced by
``<tmp>``.  ``test_golden.py`` recomputes every hash and compares it with
``golden_manifest.json``.  The numpy and BLAS builds, and the BLAS kernel
running them, are recorded with the hashes, because their rounding is part of
every printed digit.

Rewrite the manifest only at a commit whose reports are known good:

    PYTHONPATH=src python tests/capture_golden.py
"""

from __future__ import annotations

import codecs
import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy

from longrun.cli import main

MANIFEST = Path(__file__).with_name("golden_manifest.json")

LENGTH = "120"  # the paper's monthly sample
SYNTH = {  # synth kind -> seed; the inputs below are built from these files
    "walks": "16",
    "coint": "5",
    "causal": "7",
    "ar1": "3",
    "noise": "4",
}
INPUTS = {  # input set -> NAME=FILE pairs, relative to the scratch directory
    "walks": ("a=walks/walks_y1.csv", "b=walks/walks_y2.csv"),
    "coint": ("x=coint/coint_x.csv", "y=coint/coint_y.csv"),
    "causal": ("p=causal/causal_y1.csv", "q=causal/causal_y2.csv"),
    "panel3": ("a=walks/walks_y1.csv", "b=walks/walks_y2.csv", "x=coint/coint_x.csv"),
}
SUBCOMMANDS = ("summary", "corr", "unitroot", "lagselect", "johansen", "granger", "pipeline")
FORMATS = ("text", "csv", "json")
PIPELINE_FLAGS = (("--diffs",), ("--case", "none"), ("--max-lag", "3"))
DMY = "%d/%m/%Y"
BAD_INPUTS = {  # file stem -> text of a faulty second input, one fault each
    "impossible_date": "2010-01-31,1.0\n2010-02-30,2.0\n2010-03-01,3.0\n",
    "bad_value": "2010-01-01,1.0\n2010-02-01,1.0x\n",
    "inf": "2010-01-01,1.0\n2010-02-01,inf\n",
    "three_fields": "2010-01-01,1.0\n2010-02-01,2.0,3.0\n",
    "header_only": "date,value\n",
    "duplicate_date": "2010-01-01,1.0\n2010-01-01,2.0\n",
    "bad_date_on_line_1": "Date,1.5\n2010-02-01,2.0\n",
    "bad_value_on_line_1": "2000-01-01,1.0x\n2000-02-01,2.0\n",
    "dmy_iso": "date,value\n01/01/2010,1.0\n2010-02-01,2.0\n",
}


def blas_version() -> str:
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this CPU: a DYNAMIC_ARCH build picks one at
    load time (``OPENBLAS_CORETYPE`` overrides it), and kernels round differently."""
    here = Path(numpy.__file__).parent  # wheels bundle it in numpy.libs, or .dylibs on macOS
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"),
                        *here.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode("ascii")
    return "unknown"


def versions() -> dict:
    return {"numpy": numpy.__version__, "blas": blas_version(), "blas_kernel": blas_kernel()}


def _inputs(root: Path, name: str) -> list:
    return [arg for pair in INPUTS[name] for arg in ("--input", pair.replace("=", f"={root}/", 1))]


def _config(root: Path, name: str) -> str:
    """A config file that sets every key, on the day-first copies of the inputs."""
    lines = [f"input = {pair.replace('=', f'={root}/dmy_', 1)}" for pair in INPUTS[name]]
    lines += [f"date-format = {DMY}", "max_lag = 3", "alpha = 0.10", "case = constant_trend",
              "levels = diffs", "format = csv", f"out = {root}/out/{name}.csv"]
    path = root / f"{name}.cfg"
    path.write_text("# every key\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _write_day_first(root: Path) -> None:
    """Copy every synth CSV with its ISO dates rewritten day-first, under dmy_*."""
    for path in sorted(root.glob("*/*.csv")):
        rows = [f"{line[8:10]}/{line[5:7]}/{line[:4]}{line[10:]}"
                for line in path.read_text(encoding="utf-8").splitlines()]
        target = root / f"dmy_{path.parent.name}" / path.name
        target.parent.mkdir(exist_ok=True)
        target.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")


def cases(root: Path) -> dict:
    """Case id -> argv.  Inputs must exist (``prepare``) before a case runs."""
    out = {}
    for name in INPUTS:
        args = _inputs(root, name)
        for sub in SUBCOMMANDS:
            for fmt in FORMATS:
                out[f"{name}/{sub}/{fmt}"] = [sub, *args, "--format", fmt]
        for flags in PIPELINE_FLAGS:
            for fmt in FORMATS:
                out[f"{name}/pipeline/{fmt} {' '.join(flags)}"] = ["pipeline", *args, *flags,
                                                                  "--format", fmt]
        out[f"{name}/granger/text --lag 2"] = ["granger", *args, "--lag", "2"]
        out[f"{name}/johansen/text --lagged-diffs 2"] = ["johansen", *args, "--lagged-diffs", "2"]
        cfg = _config(root, name)
        out[f"{name}/pipeline --config"] = ["pipeline", "--config", cfg]
        out[f"{name}/pipeline --config + flags"] = [
            "pipeline", "--config", cfg, "--format", "text", "--levels",
            "--max-lag", "2", "--case", "constant", "--alpha", "0.01", "--out", ""]
    walks = _inputs(root, "walks")
    bad = root / "bad"
    bad.mkdir(exist_ok=True)
    (bad / "value.cfg").write_text("max-lag = abc\n", encoding="utf-8")
    (bad / "key.cfg").write_text("frobnicate = yes\n", encoding="utf-8")
    (bad / "long.csv").write_bytes(b"2000-01-01,1\n2000-02-01," + b"1" * 200_000 + b"\n")
    for stem, text in BAD_INPUTS.items():
        (bad / f"{stem}.csv").write_text(text, encoding="utf-8")
    rows = (root / "walks/walks_y1.csv").read_text(encoding="utf-8").splitlines()
    (bad / "flat.csv").write_text("".join(f"{row.split(',')[0]},1.0\n" for row in rows),
                                  encoding="utf-8")
    (bad / "doubled.csv").write_text(  # exactly 2 x walks_y1: a design on both is singular
        "".join(f"{row.split(',')[0]},{2 * float(row.split(',')[1])!r}\n" for row in rows),
        encoding="utf-8")
    bom = root / "bom_walks_y1.csv"
    bom.write_bytes(codecs.BOM_UTF8 + (root / "walks/walks_y1.csv").read_bytes())
    (root / "bom.cfg").write_bytes(codecs.BOM_UTF8 + b"max_lag = 3\n")
    out.update({
        "walks/summary/text, a with a byte-order mark": ["summary", "--input", f"a={bom}",
                                                         *walks[2:]],
        "walks/lagselect/text, config with a byte-order mark": [
            "lagselect", *walks, "--config", str(root / "bom.cfg")],
        "error/config bad value": ["corr", *walks, "--config", str(bad / "value.cfg")],
        "error/config unknown key": ["corr", "--config", str(bad / "key.cfg")],
        "error/config missing": ["summary", "--config", str(bad / "none.cfg")],
        "error/input missing": ["summary", *walks, "--input", f"z={bad}/none.csv"],
        "error/input field over the csv limit": ["summary", *walks, "--input", f"z={bad}/long.csv"],
        "error/input repeated name": ["summary", *walks, "--input", f"a={root}/coint/coint_x.csv"],
        "error/input one series": ["summary", *walks[:2]],
        "error/input no equals": ["summary", *walks, "--input", "noequalsign"],
        "error/granger --lag 0": ["granger", *walks, "--lag", "0"],
        "error/johansen --lagged-diffs -1": ["johansen", *walks, "--lagged-diffs", "-1"],
        # a pair of 120 months supports at most 35 lagged differences
        "error/johansen --lagged-diffs 36": ["johansen", *walks, "--lagged-diffs", "36"],
        "error/johansen --lagged-diffs 45": ["johansen", *walks, "--lagged-diffs", "45"],
        "error/pipeline --max-lag 400": ["pipeline", *walks, "--max-lag", "400"],
        "error/pipeline --alpha 2": ["pipeline", *walks, "--alpha", "2"],
        "error/unknown flag": ["summary", *walks, "--frobnicate"],
        "error/unitroot --case none, a flat input": [  # the ADF regression fits exactly
            "unitroot", "--input", f"a={bad}/flat.csv", *walks[2:], "--case", "none"],
        "error/lagselect, a doubled input": ["lagselect", *walks[:2], "--input",
                                             f"d={bad}/doubled.csv"],
        "error/johansen --lagged-diffs 0, a doubled input": [
            "johansen", *walks[:2], "--input", f"d={bad}/doubled.csv", "--lagged-diffs", "0"],
        "error/input day-first with an ISO row": [
            "summary", "--input", f"a={root}/dmy_walks/walks_y1.csv", "--input",
            f"z={bad}/dmy_iso.csv", "--date-format", DMY],
    })
    for stem in BAD_INPUTS:
        if stem != "dmy_iso":
            out[f"error/input {stem.replace('_', ' ')}"] = [
                "summary", *walks[:2], "--input", f"z={bad}/{stem}.csv"]
    return out


def prepare(root: Path) -> dict:
    """Write the synth inputs under ``root``; returns the synth cases' hashes."""
    hashes = {}
    for kind, seed in SYNTH.items():
        argv = ["synth", "--kind", kind, "--seed", seed, "--length", LENGTH, "--out-dir",
                str(root / kind)]
        hashes[f"synth/{kind}"] = digest(outputs(root, argv, root / kind))
    _write_day_first(root)
    return hashes


def outputs(root: Path, argv: list, written: Path) -> list:
    """The parts of one in-process CLI run, as bytes: its exit code, stdout and stderr, with
    the path of ``root`` replaced by ``<tmp>``, then the name and bytes of each file under
    ``written``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    parts = [part.replace(str(root), "<tmp>").encode("utf-8")
             for part in (str(code), stdout.getvalue(), stderr.getvalue())]
    for path in sorted(written.glob("*")):
        parts += [path.name.encode("utf-8"), path.read_bytes()]
    return parts


def digest(parts: list) -> str:
    """SHA-256 of a run's ``outputs``, each part followed by a NUL byte."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part + b"\0")
    return sha.hexdigest()


def case_outputs(root: Path):
    """(case id, ``outputs``) of every case but the synth ones, on inputs ``prepare`` wrote
    under ``root``; ``--out`` writes to ``root/out``, emptied after each case."""
    out = root / "out"
    out.mkdir(exist_ok=True)
    for case_id, argv in cases(root).items():
        yield case_id, outputs(root, argv, out)
        for path in out.iterdir():
            path.unlink()


def compute(root: Path) -> dict:
    """The manifest for this checkout, computed in the empty directory ``root``."""
    hashes = prepare(root)
    for case_id, parts in case_outputs(root):
        hashes[case_id] = digest(parts)
    return {**versions(), "cases": hashes}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = compute(Path(tmp).resolve())
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"{MANIFEST}: {len(manifest['cases'])} cases, numpy {manifest['numpy']}, "
                     f"{manifest['blas']} ({manifest['blas_kernel']})\n")
