"""Every golden CLI case still prints the bytes recorded in golden_manifest.json.

The manifest is rewritten only by ``capture_golden.py``, at a commit whose
reports are known good; see its docstring for the cases.
"""

import json

import pytest

import capture_golden


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
