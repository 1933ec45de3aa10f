"""Import rules of the package, read from the source with :mod:`ast`.

The kernel uses the standard library alone, and :mod:`cmtensor.monomial`
is a leaf that depends on no part of the package but ``polyring``.

No module imports :mod:`dataclasses`: it loads ``inspect``, ``ast`` and
``dis`` and builds each class's methods with ``exec``, which made up about
half of the time ``cmtensor run`` took to start.  The command line does
not load :mod:`pathlib` either, which imports ``urllib.parse``,
``ipaddress``, ``fnmatch`` and ``ntpath``.
"""

from __future__ import annotations

import ast
import subprocess
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_dataclasses(path):
    for node in _imports(path):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


def test_the_cli_loads_no_introspection_modules():
    # -S keeps the modules that the host's site imports out of the result.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import cmtensor.frontend.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'pathlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


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
