"""Test modules share references and inputs through helper modules
(``forms``, ``linalg_reference``, ``restricted_reference``,
``weight_reference``, ``weyl_reference``), never by importing each other.

Every name that ``cartan_ds`` exports, and every field of an exported
dataclass, has a reader outside the tests: the package's own modules other
than ``__init__.py``, ``scripts/`` or ``perfbench/``.  A reader is a name or
attribute reference in the code, not a docstring, not the name's own ``def``
or ``class`` line and not a field's annotation in its class body; in
``perfbench/`` a string constant counts too, because the tracer looks up each
traced name with ``getattr``.  ``cli.encode_value`` serialises the dataclasses
of ``SERIALISED_WHOLE`` field by field, which reads every field of theirs."""

import ast
import dataclasses
from pathlib import Path

import cartan_ds

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent


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


def referenced_names(source, strings=False):
    """The names and attribute names that source's code reads, and with
    ``strings`` its string constants other than docstrings."""
    tree = ast.parse(source)
    docstrings = set()
    annotated = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
        if isinstance(node, ast.ClassDef):
            annotated |= {id(s.target) for s in node.body if isinstance(s, ast.AnnAssign)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in annotated:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            found.add(node.value)
    return found


def read_names(root):
    """Every name that the package's modules other than ``__init__.py``,
    ``scripts/`` and ``perfbench/`` read."""
    package = [p for p in (root / "src" / "cartan_ds").rglob("*.py") if p.name != "__init__.py"]
    found = set()
    for path in package + list((root / "scripts").rglob("*.py")):
        found |= referenced_names(path.read_text())
    for path in (root / "perfbench").rglob("*.py"):
        found |= referenced_names(path.read_text(), strings=True)
    return found


def test_the_reader_check_sees_code_not_docstrings():
    source = '''
"""unread_a"""
import mod
def unread_b():
    """unread_c"""
    return mod.read_a(read_b, "read_c")
class unread_d:
    unread_e: read_d = "read_e"
    def unread_f(self):
        return self.read_f
'''
    found = referenced_names(source)
    assert {"mod", "read_a", "read_b", "read_d", "read_f"} <= found
    assert not {"read_c", "read_e"} & found
    assert {"read_c", "read_e"} <= referenced_names(source, strings=True)
    unread = {"unread_a", "unread_b", "unread_c", "unread_d", "unread_e", "unread_f"}
    for strings in (False, True):
        assert not unread & referenced_names(source, strings)


def test_every_exported_name_has_a_reader():
    assert len(cartan_ds.__all__) > 50
    unread = sorted(set(cartan_ds.__all__) - read_names(ROOT))
    assert not unread, f"exported and read by nothing: {unread}"


#: Exported dataclasses that ``cli.encode_value`` serialises whole.
SERIALISED_WHOLE = {"TranslationStep", "SearchBest"}


def test_every_exported_dataclass_field_has_a_reader():
    read = read_names(ROOT)
    classes = [getattr(cartan_ds, name) for name in cartan_ds.__all__]
    classes = [c for c in classes if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert len(classes) > 10 and SERIALISED_WHOLE <= {c.__name__ for c in classes}
    unread = sorted(
        f"{c.__name__}.{f.name}"
        for c in classes
        if c.__name__ not in SERIALISED_WHOLE
        for f in dataclasses.fields(c)
        if f.name not in read
    )
    assert not unread, f"dataclass fields read by nothing: {unread}"
