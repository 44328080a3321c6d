"""Module boundaries of ``src/longrun``, read from the source with ``ast``.

``linalg`` owns every QR it takes: its factors, the raw corner of ``[X y]``, the
input checks and the rank certificate.  Another module asks ``linalg`` for an
answer (a fit, a list of SSRs, a t ratio, a covariance) and never drives the QR.

``series`` lays out every lagged regression: ``_lag_design`` stacks the deterministic
columns and the ``lag_matrix`` blocks, and no other module builds a lag block itself.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "longrun"
QR_PROTOCOL = frozenset({"_factor", "_corner_ssr", "_raw_corner", "_checked", "_certify"})


def protocol_uses(path: Path) -> list:
    """(line, use) for each name of linalg's QR protocol the module imports or reads, each
    read of an ``._r`` attribute and each use of ``numpy.linalg``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            uses += [(node.lineno, f"imports {name}") for name in sorted(names & QR_PROTOCOL)]
            if (node.module or "").startswith("numpy.linalg") or (
                    node.module == "numpy" and "linalg" in names):
                uses.append((node.lineno, "imports numpy.linalg"))
        elif isinstance(node, ast.Import):
            uses += [(node.lineno, "imports numpy.linalg") for alias in node.names
                     if alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Attribute):
            if node.attr in QR_PROTOCOL or node.attr == "_r":
                uses.append((node.lineno, f"reads .{node.attr}"))
            elif (node.attr == "linalg" and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                uses.append((node.lineno, "uses np.linalg"))
    return uses


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "linalg"))
def test_no_module_but_linalg_drives_its_qr(module):
    assert protocol_uses(PACKAGE / f"{module}.py") == []


def test_the_rule_sees_linalg_itself():
    # the same reader finds linalg's own uses, so an empty list elsewhere means something
    uses = {use for _, use in protocol_uses(PACKAGE / "linalg.py")}
    assert {"reads ._r", "uses np.linalg"} <= uses


def test_the_protocol_names_only_functions_linalg_defines():
    # a deleted function left in the list guards nothing
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    assert QR_PROTOCOL <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def lag_matrix_uses(path: Path) -> list:
    """The lines where the module imports or reads the name ``lag_matrix``."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            uses += [node.lineno for alias in node.names if alias.name == "lag_matrix"]
        elif (isinstance(node, ast.Name) and node.id == "lag_matrix"
              or isinstance(node, ast.Attribute) and node.attr == "lag_matrix"):
            uses.append(node.lineno)
    return uses


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem not in ("series", "__init__")))
def test_no_module_but_series_builds_a_lag_block(module):
    assert lag_matrix_uses(PACKAGE / f"{module}.py") == []


def test_the_lag_rule_sees_series_and_the_re_export():
    assert lag_matrix_uses(PACKAGE / "series.py")
    assert lag_matrix_uses(PACKAGE / "__init__.py")
