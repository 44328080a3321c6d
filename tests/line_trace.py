"""List the statements of ``src/longrun`` that the test suite never executes.

Runs pytest in this process under ``sys.settrace``, then prints each
statement line that never ran as ``module:line: text`` and a summary.  A
module's statement lines are the lines that carry bytecode in its compiled
code objects, so docstrings, comments and blank lines never count.  Code
that runs only in a child process (the CLI's ``__main__`` guard, say) shows
as never executed.  No coverage package is needed.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

With no arguments it runs the tier-1 suite, ``-q
--continue-on-collection-errors`` over ``tests``.  The file name does not
match ``test_*.py``, so pytest never collects it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "longrun"


def statement_lines(code: CodeType) -> set:
    """Lines holding bytecode in ``code`` or in any code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= statement_lines(const)
    return lines


def run(pytest_args: list) -> tuple:
    """Run pytest under the tracer: (pytest exit code, {module path: executed lines})."""
    executed = {str(path): set() for path in PACKAGE.glob("*.py")}
    owner = {}  # co_filename -> its set in ``executed``, or None outside the package

    def lines_of(code):
        name = code.co_filename
        if name not in owner:
            owner[name] = executed.get(os.path.realpath(name))
        return owner[name]

    def trace_line(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code).add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        lines = lines_of(frame.f_code)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return trace_line

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, executed


def main(argv: list) -> int:
    os.chdir(ROOT)
    status, executed = run(argv or ["-q", "--continue-on-collection-errors", "tests"])
    missed = total = 0
    for name in sorted(executed):
        source = Path(name).read_text(encoding="utf-8")
        text = source.splitlines()
        statements = statement_lines(compile(source, name, "exec"))
        total += len(statements)
        for line in sorted(statements - executed[name]):
            missed += 1
            print(f"{Path(name).relative_to(ROOT / 'src')}:{line}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statement lines never executed (pytest exit code {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
