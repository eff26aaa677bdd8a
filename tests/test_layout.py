"""Test modules share references and inputs through helper modules
(``forms``, ``linalg_reference``, ``restricted_reference``,
``weight_reference``, ``weyl_reference``), never by importing each other."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_test_modules(source):
    """The ``test_*`` modules that source imports, at any depth of nesting."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            names += [".".join(module + [alias.name]) for alias in node.names]
    return sorted({n for n in names if any(p.startswith("test_") for p in n.split("."))})


def test_the_check_sees_every_import_form():
    source = """
import test_a
import cartan_ds, test_b.sub as b
from test_c import x
from . import test_d
from helpers.test_e import y
def f():
    from test_f import z
"""
    found = imported_test_modules(source)
    assert found == ["helpers.test_e.y", "test_a", "test_b.sub", "test_c.x", "test_d", "test_f.z"]
    assert imported_test_modules("import forms\nfrom weight_reference import HALF") == []


def test_no_test_module_imports_another():
    paths = sorted(TESTS.glob("test_*.py"))
    assert len(paths) > 20
    offenders = {p.name: imported_test_modules(p.read_text()) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}
