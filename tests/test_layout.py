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
passes them; ``NAME_COLLISIONS`` pins every name that may pass that way."""

import ast
import dataclasses
import inspect
import pkgutil
from collections import Counter
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


def reader_sources(root):
    """(source, whether its strings count as reads) of the package's modules
    other than ``__init__.py``, of ``scripts/`` and of ``perfbench/``."""
    package = [p for p in (root / "src" / "cartan_ds").rglob("*.py") if p.name != "__init__.py"]
    for path in package + list((root / "scripts").rglob("*.py")):
        yield path.read_text(), False
    for path in (root / "perfbench").rglob("*.py"):
        yield path.read_text(), True


def read_names(root):
    """Every name that the readers of ``reader_sources`` read."""
    found = set()
    for source, strings in reader_sources(root):
        found |= referenced_names(source, strings)
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



def resolved_reads(source, strings=False):
    """The names that source reads as the package's, and the attribute names
    that it reads on any object.

    A name is read as the package's when an import from the package
    (absolute or relative) or a definition at the top of source binds it and
    source reads that binding, or an attribute of it (``cd.load_entry``,
    ``Weight.zero``).  An attribute of one of the package's modules is no
    attribute of an object.  With ``strings``, string constants other than
    docstrings count as the package's names, since the tracer looks them up
    on its modules."""
    modules = {"cartan_ds", *(m.name for m in pkgutil.iter_modules(cartan_ds.__path__))}
    tree = ast.parse(source)
    defined = (ast.FunctionDef, ast.ClassDef)
    bound = {node.name: node.name for node in tree.body if isinstance(node, defined)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cartan_ds")):
            bound |= {a.asname or a.name: a.name for a in node.names}
        elif isinstance(node, ast.Import):
            ours = [a for a in node.names if a.name.startswith("cartan_ds")]
            bound |= {a.asname or a.name: a.name for a in ours}
    resolved, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
            resolved.add(bound[node.id])
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            owner = bound.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if owner is not None:
                resolved.add(node.attr)
            if owner not in modules:
                attributes.add(node.attr)
    if strings:
        resolved |= referenced_names(source, strings=True) - referenced_names(source)
    return resolved, attributes


def test_the_collision_check_resolves_package_bindings():
    source = """
from cartan_ds import read_a
from . import mod
import cartan_ds as cd
def own():
    pass
def f(unresolved):
    read_a(own(), mod.read_b, cd.read_c)
    return unresolved.attribute_only
"""
    resolved, attributes = resolved_reads(source)
    assert {"read_a", "read_b", "read_c", "own"} <= resolved
    assert not {"f", "unresolved", "attribute_only"} & resolved
    # mod might be a module; cartan_ds is one, so read_c is no object's attribute
    assert "attribute_only" in attributes and "read_c" not in attributes
    assert "lit" in resolved_reads('x = "lit"', strings=True)[0]


def name_collisions(root):
    """The names that a reader gate may pass only by name: exported names
    that no reader reads as the package's, and members of exported classes
    (with the fields of dataclasses not serialised whole) that no reader reads
    as an attribute or that another exported class also has."""
    read, resolved, attributes = read_names(root), set(), set()
    for source, strings in reader_sources(root):
        names, attrs = resolved_reads(source, strings)
        resolved |= names
        attributes |= attrs
    members = {}
    for name in cartan_ds.__all__:
        c = getattr(cartan_ds, name)
        if isinstance(c, type):
            members[name] = class_members(inspect.getsource(c))
            if dataclasses.is_dataclass(c) and name not in SERIALISED_WHOLE:
                members[name] |= {f.name for f in dataclasses.fields(c)}
    owners = Counter(m for names in members.values() for m in names)
    found = [n for n in cartan_ds.__all__ if n in read and n not in resolved]
    found += [
        f"{c}.{m}"
        for c, names in members.items()
        for m in names
        if m in read and (m not in attributes or owners[m] > 1)
    ]
    return sorted(found)


#: Each name that ``name_collisions`` finds, with where it is read as itself.
#: A new name fails ``test_name_collisions_are_pinned`` until it is added here
#: with its readers, or its reader is made unambiguous, or it is deleted.
NAME_COLLISIONS = (
    ("CartanInvolution.root_system", "inv.root_system in realform"),
    ("CatalogEntry.cartan_type", "entry.cartan_type in catalog, cli and sweep_pipeline"),
    ("CatalogEntry.rank", "entry.rank and e.rank in perfbench/workloads.py"),
    ("CriterionVerdict.minus_sigma_in_weyl", "verdict.minus_sigma_in_weyl in cli and workloads"),
    ("CriterionVerdict.witness", "verdict.witness in cli and workloads"),
    ("ExtendedStabilizerReport.minus_sigma_in_weyl", "stab.minus_sigma_in_weyl in workloads"),
    ("ExtendedStabilizerReport.witness", "self.witness in its own minus_sigma_in_weyl"),
    ("RestrictedRootSystem.root_system", "rrs.root_system in realform and exponents"),
    ("RootSystem.cartan_type", "rs.cartan_type in realform and cli"),
    ("RootSystem.rank", "rs.rank throughout the package"),
    ("SignedSqrt.scale", "p.margin.scale in cli"),
    ("SignedSqrt.zero", "SignedSqrt.zero() in exponents"),
    ("TranslationConfig.integrality", "cfg.integrality in translation and cli"),
    ("TranslationResult.integrality", "result.integrality in cli and workloads"),
    ("Weight.rank", "lam.rank in rootdata"),
    ("Weight.scale", "datum.weight.scale and e.scale in translation"),
    ("Weight.zero", "Weight.zero in realform and translation"),
)


def test_name_collisions_are_pinned():
    assert name_collisions(ROOT) == [name for name, _ in NAME_COLLISIONS]
