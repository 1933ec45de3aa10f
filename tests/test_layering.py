"""Import rules of the package, read from the source with :mod:`ast`.

The kernel uses the standard library alone, :mod:`cmtensor.monomial` is a
leaf that depends on no part of the package but ``polyring``, and the
session parser depends on no part but ``errors`` and ``polyring``.

Every ideal and algebra presentation is grevlex: their constructors take
no monomial order, and the layers above :mod:`cmtensor.groebner` import
none.

The work context, the limits and the memo scope, lives in
:mod:`cmtensor.context`, a leaf that depends on no part of the package but
``errors``.  Only it names ``_WORK``, the one context variable of the
package; every other module reaches the context through ``limits``,
``current_limits``, ``memo_scope``, ``memo_scoped``, ``scope_cached`` and
``_StepCounter``.  The theorem checks and the command line reach it
without the Groebner kernel.

A presentation's dimension and Hilbert numerator are read off its
initial ideal in one place, :class:`cmtensor.groebner.IdealPresentation`:
no other module reads ``monomial.codimension`` or
``monomial.hilbert_numerator``.

No module imports :mod:`dataclasses`: it loads ``inspect``, ``ast`` and
``dis`` and builds each class's methods with ``exec``, which made up about
half of the time ``cmtensor run`` took to start.  The command line does
not load :mod:`pathlib` either, which imports ``urllib.parse``,
``ipaddress``, ``fnmatch`` and ``ntpath``.

A check's report is built in one place, the driver
``cmtensor.theorems._report``: no other function of the package calls
``TheoremReport`` or ``GradeEvidence``.

JSON documents have one writer, ``json.dumps`` in
:mod:`cmtensor.frontend.report`: no module calls ``dumps`` elsewhere or
imports :mod:`json.encoder`, whose internals a second writer would need
to reproduce its bytes.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from cmtensor import LEX, IdealPresentation, PolyRing, PrimeField, make_algebra

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_json_encoder_internals(path):
    for node in _imports(path):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
        assert "json.encoder" not in names, f"{path.name}:{node.lineno}"


def test_only_the_report_module_writes_json():
    writers = [p for p in MODULES if "dumps" in _names(p)]
    assert [str(p.relative_to(PACKAGE)) for p in writers] == ["frontend/report.py"]


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


def _package_imports(path):
    """The modules of the package that `path` imports, by absolute name."""
    package = ["cmtensor", *path.parent.relative_to(PACKAGE).parts]
    used = set()
    for node in _imports(path):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif node.level == 0:
            names = [node.module]
        else:
            base = ".".join(package[: len(package) - node.level + 1])
            names = [f"{base}.{node.module}"] if node.module else [
                f"{base}.{a.name}" for a in node.names
            ]
        used.update(name for name in names if name.split(".")[0] == "cmtensor")
    return used


def test_monomial_depends_only_on_polyring():
    assert _package_imports(PACKAGE / "monomial.py") <= {"cmtensor.polyring"}


def test_context_depends_only_on_errors():
    assert _package_imports(PACKAGE / "context.py") == {"cmtensor.errors"}


@pytest.mark.parametrize("module", ["theorems.py", "frontend/cli.py"])
def test_no_groebner_import(module):
    assert "cmtensor.groebner" not in _package_imports(PACKAGE / module)


def test_parser_depends_only_on_errors_and_polyring():
    # the parser knows the session language and its literals, not the kernel's algorithms
    used = _package_imports(PACKAGE / "frontend" / "parser.py")
    assert used == {"cmtensor.errors", "cmtensor.polyring"}
    # relative imports of either depth resolve
    assert _package_imports(PACKAGE / "frontend" / "executor.py") >= {
        "cmtensor.algebra", "cmtensor.frontend.parser", "cmtensor.theorems"
    }


ORDER_NAMES = {"GREVLEX", "LEX", "DEGLEX", "MonomialOrder", "block_order"}


@pytest.mark.parametrize(
    "module", ["algebra.py", "theorems.py", "frontend/executor.py", "frontend/cli.py"]
)
def test_no_monomial_order_above_groebner(module):
    imported = {
        alias.name
        for node in _imports(PACKAGE / module) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint(ORDER_NAMES)


def test_presentations_take_no_order():
    ring = PolyRing(("x", "y"), PrimeField())
    x, y = ring.gens()
    with pytest.raises(TypeError):
        make_algebra(ring, (x * y,), LEX)
    with pytest.raises(TypeError):
        IdealPresentation(ring, (x * y,), LEX)


def _names(path):
    """Every identifier `path` reads, assigns, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


@pytest.mark.parametrize("name", ["_WORK", "ContextVar"])
def test_only_context_names_the_work_variable(name):
    assert name in _names(PACKAGE / "context.py")
    others = [p for p in MODULES if p != PACKAGE / "context.py"]
    assert [str(p.relative_to(PACKAGE)) for p in others if name in _names(p)] == []


def _monomial_reads(path):
    """The names `path` reads off :mod:`cmtensor.monomial`: as attributes
    of the module, or imported from it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "monomial":
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("monomial"):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("name", ["hilbert_numerator", "codimension"])
def test_only_groebner_reads_off_the_initial_ideal(name):
    readers = [p for p in MODULES if name in _monomial_reads(p)]
    assert [str(p.relative_to(PACKAGE)) for p in readers] == ["groebner.py"]


def _callers(path, name):
    """The top-level definitions of `path` that call `name`, "<module>" for
    a call outside every definition."""
    callers = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and name in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                callers.add(owner)
    return callers


@pytest.mark.parametrize("name", ["TheoremReport", "GradeEvidence"])
def test_only_the_driver_builds_reports(name):
    callers = {(str(p.relative_to(PACKAGE)), c) for p in MODULES for c in _callers(p, name)}
    assert callers == {("theorems.py", "_report")}
