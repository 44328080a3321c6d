"""Mutation testing of ``src/longrun`` with the stdlib ``ast`` module.

A mutant changes one expression or statement on a statement line that the
tier-1 suite executes (as ``line_trace.py`` traces it), in one of four ways:

- a comparison operator is swapped (``<`` and ``<=``, ``>`` and ``>=``,
  ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``);
- an arithmetic operator is swapped (``+`` and ``-``, ``*`` and ``/``);
- a numeric constant gets 1 added to it;
- an ``if``, ``for``, assignment, augmented assignment or expression
  statement (a call, say) is replaced by ``pass``, its whole block with it.
  A docstring is not a site.  A deleted statement that no test misses is
  code that either needs a test or can go.

Each mutant is written into a copy of the repository under a temporary
directory, never into ``src/``, and tier-1 runs there with ``-x``, the
known-red ``3c`` deselected.  A mutant that no test fails survives; the
survivors are printed at the end.

    PYTHONPATH=src python tests/mutate.py [--module series] [--function diff] [--sample 20]

``--module`` (repeatable) limits the sites to the named modules,
``--function NAME`` (repeatable) to the lines inside a ``def NAME`` (a
method or nested function of that name counts too), and ``--sample N``
draws N of the sites at random, always with seed 0, so a run can be
repeated.  One change's pass is then one command, for example
``--module linalg --module unitroot --function _corner_ssr --function
_select_lags``.  A mutant whose tier-1 run takes more than 300 seconds
counts as killed.  The file name does not match ``test_*.py``, so pytest
never collects it.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # the traced run imports src/longrun; it leaves no __pycache__ there

import argparse
import ast
import os
import random
import shutil
import subprocess
import tempfile
import time
from pathlib import Path

from line_trace import PACKAGE, ROOT, run

KNOWN_RED = "tests/test_acceptance.py::TestCriterion3JohansenArithmetic::test_3c_trace_at_most_one"
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
STATEMENTS = (ast.If, ast.For, ast.Assign, ast.AugAssign, ast.Expr)
TIMEOUT = 300.0  # seconds per tier-1 run
COPY_IGNORE = shutil.ignore_patterns(".git", "out", "__pycache__", ".hypothesis", ".pytest_cache")


def _skipped(tree: ast.AST) -> set:
    """Ids of the nodes no mutant touches: annotations (never evaluated under
    ``from __future__ import annotations``) and f-strings (no exact source spans)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def _mutation(node: ast.AST):
    """The mutations of one node: (description, source that replaces the node's span) pairs."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            swap = SWAPS[type(op)]
            ops = [*node.ops[:i], swap(), *node.ops[i + 1:]]
            yield (f"{SYMBOLS[type(op)]} -> {SYMBOLS[swap]}",
                   f"({ast.unparse(ast.Compare(node.left, ops, node.comparators))})")
    elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
        swap = SWAPS[type(node.op)]
        yield (f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[swap]}",
               f"({ast.unparse(ast.BinOp(node.left, swap(), node.right))})")
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield f"{node.value!r} -> {node.value + 1!r}", f"({node.value + 1!r})"
    elif isinstance(node, STATEMENTS) and not (
            isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):  # a docstring
        yield f"{type(node).__name__.lower()} statement -> pass", "pass"


def _lines_inside(tree: ast.AST, functions) -> set:
    """The line numbers spanned by each ``def`` in ``tree`` named in ``functions``."""
    return {line for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.name in functions
            for line in range(node.lineno, node.end_lineno + 1)}


def mutants(path: Path, executed: set, functions=None) -> list:
    """(module, line, description, mutated source) for every site on an executed line, and
    only inside the named functions when ``functions`` is given."""
    source = path.read_text(encoding="utf-8")
    starts = [0]  # the offset of each line, lines split at "\n" as ast numbers them
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    tree = ast.parse(source)
    if functions:
        executed = executed & _lines_inside(tree, functions)
    skipped = _skipped(tree)
    out = []
    for node in ast.walk(tree):
        if id(node) in skipped or getattr(node, "lineno", None) not in executed:
            continue
        for description, replacement in _mutation(node):
            # offsets are in UTF-8 bytes; src/longrun is ASCII, where they are characters
            begin = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            text = source[:begin] + replacement + source[end:]
            out.append((path.stem, node.lineno, description, text))
    return out


def run_tier1(copy: Path) -> tuple:
    """Run tier-1 with ``-x`` in ``copy``: (True when every test passed, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    began = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--deselect", KNOWN_RED, "tests"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
        passed = done.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - began


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", help="mutate only this module (repeatable)")
    parser.add_argument("--function", action="append",
                        help="mutate only the lines inside a def of this name (repeatable)")
    parser.add_argument("--sample", type=int, help="mutate this many sites, drawn at random")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    paths = sorted(PACKAGE.glob("*.py"))
    if args.module:
        unknown = set(args.module) - {p.stem for p in paths}
        if unknown:
            parser.error(f"no module {', '.join(sorted(unknown))} in {PACKAGE}")
        paths = [p for p in paths if p.stem in args.module]
    if args.function:
        defined = {node.name for p in paths for node in ast.walk(ast.parse(p.read_text("utf-8")))
                   if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)}
        unknown = set(args.function) - defined
        if unknown:
            parser.error(f"no function {', '.join(sorted(unknown))} in the modules mutated")

    print("tracing tier-1 for executed lines ...", flush=True)
    _, executed = run(["-q", "-p", "no:cacheprovider", "--deselect", KNOWN_RED, "tests"])
    sites = [m for p in paths for m in mutants(p, executed[str(p)], args.function)]
    if args.sample is not None and args.sample < len(sites):
        sites = sorted(random.Random(0).sample(sites, args.sample), key=lambda m: m[:2])
    print(f"{len(sites)} mutants", flush=True)

    survivors = []
    with tempfile.TemporaryDirectory(prefix="longrun-mutate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        passed, seconds = run_tier1(copy)
        if not passed:
            print(f"tier-1 fails on the unmutated copy ({seconds:.0f} s); no mutant can be judged")
            return 1
        for module, line, description, text in sites:
            target = copy / "src" / "longrun" / f"{module}.py"
            original = target.read_text(encoding="utf-8")
            target.write_text(text, encoding="utf-8")
            try:
                passed, seconds = run_tier1(copy)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{module}.py:{line}: {description}: {'SURVIVED' if passed else 'killed'} "
                  f"({seconds:.0f} s)", flush=True)
            if passed:
                survivors.append(f"{module}.py:{line}: {description}")
    print(f"{len(sites) - len(survivors)} of {len(sites)} mutants killed; survivors:")
    for survivor in survivors:
        print(f"  {survivor}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
