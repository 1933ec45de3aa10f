"""Import rules of the package, read from the source with :mod:`ast`.

The kernel uses the standard library alone, and :mod:`cmtensor.monomial`
is a leaf that depends on no part of the package but ``polyring``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cmtensor"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _imports(path):
    return [
        node for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def test_modules_found():
    assert PACKAGE / "monomial.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_absolute_imports_are_standard_library(path):
    for node in _imports(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif node.level == 0:
            names = [node.module]
        else:
            continue  # relative: inside the package
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}"
            )


def test_monomial_depends_only_on_polyring():
    used = set()
    for node in _imports(PACKAGE / "monomial.py"):
        if isinstance(node, ast.Import):
            used.update(a.name for a in node.names if a.name.startswith("cmtensor"))
        elif node.level == 0:
            if node.module.startswith("cmtensor"):
                used.add(node.module)
        elif node.module:
            used.add("cmtensor." + node.module)
        else:
            used.update("cmtensor." + a.name for a in node.names)
    assert used <= {"cmtensor.polyring"}
