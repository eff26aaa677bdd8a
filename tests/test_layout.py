"""Test modules share references and inputs through helper modules
(``forms``, ``linalg_reference``, ``restricted_reference``,
``weight_reference``, ``weyl_reference``), never by importing each other.

Every name that ``cartan_ds`` exports, every field of an exported dataclass
and every member of an exported class has a reader outside the tests: the
package's own modules other than ``__init__.py``, ``scripts/`` or
``perfbench/``.  A reader is a name or attribute reference in the code, not a
docstring, not the name's own ``def`` or ``class`` line, not a field's
annotation in its class body and not an assignment to an attribute; in
``perfbench/`` a string constant counts too, because the tracer looks up each
traced name with ``getattr``.  ``cli.encode_value`` serialises the dataclasses
of ``SERIALISED_WHOLE`` field by field, which reads every field of theirs.
A class's members are the public methods, properties, class and static
methods of its body and the public ``self.`` attributes its ``__init__`` sets.
The checks are by name, so a member that shares its name with something read
passes them."""

import ast
import dataclasses
import inspect
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
    augmented = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
        if isinstance(node, ast.ClassDef):
            annotated |= {id(s.target) for s in node.body if isinstance(s, ast.AnnAssign)}
        if isinstance(node, ast.AugAssign):
            augmented.add(id(node.target))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in annotated:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and (
            not isinstance(node.ctx, ast.Store) or id(node) in augmented
        ):
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


def class_members(source):
    """The public methods, properties, class and static methods defined in the
    body of the class that source defines, and the public ``self.``
    attributes that its ``__init__`` assigns."""
    (cls,) = ast.parse(source).body
    members = set()
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name != "__init__":
            members.add(node.name)
            continue
        members |= {
            t.attr
            for t in ast.walk(node)
            if isinstance(t, ast.Attribute)
            and isinstance(t.ctx, ast.Store)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        }
    return {name for name in members if not name.startswith("_")}


def unread_members(sources, read):
    """``Class.member`` for each member of the named class sources not in read."""
    return sorted(
        f"{name}.{member}"
        for name, source in sources.items()
        for member in class_members(source)
        if member not in read
    )


def test_the_member_check_sees_methods_properties_and_init_attributes():
    source = '''
class Thing:
    """unread_doc"""
    size: int

    def __init__(self, n):
        self.read_attr = n
        self.unread_attr: int = n
        self._private = n
        other.not_self = n

    def read_method(self):
        return self.read_attr

    def unread_method(self):
        self.unread_attr += 1

    @property
    def unread_property(self):
        return 1

    @classmethod
    def read_factory(cls):
        return cls(0)

    @staticmethod
    def _hidden():
        pass
'''
    members = class_members(source)
    assert members == {
        "read_attr", "unread_attr", "read_method", "unread_method", "unread_property",
        "read_factory",
    }
    reader = """
t = Thing.read_factory()
t.read_method()
t.unread_attr = 2
"""
    read = referenced_names(source) | referenced_names(reader)
    assert unread_members({"Thing": source}, read) == [
        "Thing.unread_method", "Thing.unread_property",
    ]
    # the augmented assignment in unread_method reads unread_attr; a plain one does not
    plain = source.replace("self.unread_attr += 1", "self.unread_attr = 1")
    read = referenced_names(plain) | referenced_names(reader)
    assert unread_members({"Thing": plain}, read) == [
        "Thing.unread_attr", "Thing.unread_method", "Thing.unread_property",
    ]


def test_every_member_of_an_exported_class_has_a_reader():
    classes = [getattr(cartan_ds, name) for name in cartan_ds.__all__]
    sources = {c.__name__: inspect.getsource(c) for c in classes if isinstance(c, type)}
    assert len(sources) > 30 and {"RootSystem", "WeylElement", "SignedSqrt"} <= set(sources)
    unread = unread_members(sources, read_names(ROOT))
    assert not unread, f"class members read by nothing: {unread}"
