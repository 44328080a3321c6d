"""Every golden CLI case still prints the bytes recorded in golden_manifest.json.

The manifest is rewritten only by ``capture_golden.py``, at a commit whose
reports are known good; see its docstring for the cases.

Those bytes hold on the OpenBLAS kernel they were captured on.  The
kernel-portable tier reruns every case but the synth ones, on the same
inputs, in a child process with ``OPENBLAS_CORETYPE`` set to another kernel,
and holds it to a looser rule: the same exit code and non-numeric text, and
every number within 1e-9 relative of this process's, except a singular-value
ratio, which both runs need only print at or below 1e-12.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import capture_golden
import longrun

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
SV_RATIO = re.compile(r"sv ratio $")
PORTABLE_RTOL = 1e-9
KERNEL_FLAGS = {"Haswell": {"avx2", "fma"}, "Sandybridge": {"avx"}}
CHILD = """
import json, sys
from pathlib import Path
import capture_golden
cases = capture_golden.case_outputs(Path(sys.argv[1]))
json.dump({"kernel": capture_golden.blas_kernel(),
           "cases": {case: [part.decode("latin-1") for part in parts] for case, parts in cases}},
          sys.stdout)
"""


def test_reports_match_the_golden_manifest(tmp_path):
    manifest = json.loads(capture_golden.MANIFEST.read_text(encoding="utf-8"))
    here = capture_golden.versions()
    recorded = {key: manifest[key] for key in here}
    if here != recorded:
        pytest.fail(f"the golden manifest was captured with {recorded}, this build has {here}; "
                    "its hashes cannot be compared here")
    got = capture_golden.compute(tmp_path)
    assert sorted(got["cases"]) == sorted(manifest["cases"])
    changed = [case for case, digest in manifest["cases"].items() if got["cases"][case] != digest]
    assert not changed, f"{len(changed)} cases print other bytes: {changed}"


def portable_mismatch(want: str, got: str):
    """None when ``got`` reads as ``want`` under the portable rule, else what differs."""
    want_text, got_text = NUMBER.split(want), NUMBER.split(got)
    if want_text != got_text:
        return "non-numeric text"
    # each number, with the text ahead of it
    for text, a, b in zip(want_text, NUMBER.findall(want), NUMBER.findall(got)):
        x, y = float(a), float(b)
        if SV_RATIO.search(text):
            if not (x <= 1e-12 and y <= 1e-12):
                return f"sv ratio {a} against {b}"
        elif abs(x - y) > PORTABLE_RTOL * max(abs(x), abs(y)):
            return f"{a} against {b}"
    return None


@pytest.fixture(scope="module")
def this_kernel(tmp_path_factory):
    """(the inputs' directory, every non-synth case's outputs on this process's kernel)."""
    root = tmp_path_factory.mktemp("golden").resolve()
    capture_golden.prepare(root)
    return root, dict(capture_golden.case_outputs(root))


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("kernel", sorted(KERNEL_FLAGS))
def test_reports_agree_in_their_portable_digits_on_another_kernel(this_kernel, kernel):
    if capture_golden.blas_kernel() == "unknown":
        pytest.skip("numpy's BLAS does not report its kernel")
    missing = KERNEL_FLAGS[kernel] - _cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))} for the {kernel} kernel")
    root, want = this_kernel
    paths = [str(Path(capture_golden.__file__).parent), str(Path(longrun.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=os.pathsep.join(paths))
    child = subprocess.run([sys.executable, "-c", CHILD, str(root)], env=env, check=True,
                           capture_output=True, text=True)
    ran = json.loads(child.stdout)
    if ran["kernel"].lower() != kernel.lower():
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} ran the {ran['kernel']} kernel")
    assert sorted(ran["cases"]) == sorted(want)
    failures = {}
    for case, parts in want.items():
        got = [part.encode("latin-1") for part in ran["cases"][case]]
        if len(got) != len(parts) or got[0] != parts[0]:
            failures[case] = "exit code or files written"
            continue
        for a, b in zip(parts[1:], got[1:]):
            why = portable_mismatch(a.decode("utf-8"), b.decode("utf-8"))
            if why:
                failures[case] = why
                break
    assert not failures, f"{len(failures)} cases break the portable rule on {kernel}: {failures}"
