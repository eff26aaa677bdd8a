"""A named form's lookup against the whole-directory reference it replaced.

``catalog.load_entry`` reads a form's canonical file (``entry_filename`` of a
packaged id) plus every file whose name is not canonical.  The reference
below is the earlier lookup: parse every ``*.json`` in the directory, reject
duplicate ids, then take the entry with the requested id.  Both run under
``cli.load_form``, so a form is resolved from the same spellings.
"""

import json
from pathlib import Path

import pytest

from cartan_ds import (
    CartanDSError,
    ParseError,
    catalog_form,
    default_catalog_ids,
    entry_to_document,
    load_catalog,
    packaged_catalog_dir,
    write_catalog,
)
from cartan_ds import catalog as cat
from cartan_ds import cli
from cartan_ds.catalog import document_to_entry, entry_filename, load_entry, read_json


def reference_load_catalog(directory):
    """Every *.json of the directory, duplicate ids rejected, sorted by id."""
    root = Path(directory)
    if not root.is_dir():
        raise ParseError(f"catalog directory not found: {root}")
    paths = {}
    entries = []
    for path in sorted(root.glob("*.json")):
        entry = document_to_entry(read_json(path))
        if entry.id in paths:
            raise ParseError(f"catalog id {entry.id!r} is in both {paths[entry.id]} and {path}")
        paths[entry.id] = path
        entries.append(entry)
    entries.sort(key=lambda e: e.id)
    return entries


def reference_load_entry(directory, form_id):
    return next((e for e in reference_load_catalog(directory) if e.id == form_id), None)


def resolved(monkeypatch, lookup, form, directory):
    """cli.load_form's entry and provenance under a lookup, or its error."""
    with monkeypatch.context() as m:
        m.setattr(cat, "load_entry", lookup)
        try:
            entry, _, _, source = cli.load_form(form, Path(directory))
        except CartanDSError as exc:
            return type(exc).__name__, str(exc)
    return entry, source


def assert_same_lookup(monkeypatch, directory, forms):
    for form in forms:
        expected = resolved(monkeypatch, reference_load_entry, form, directory)
        assert resolved(monkeypatch, load_entry, form, directory) == expected, form


def write_doc(path, form_id, **changes):
    doc = entry_to_document(catalog_form(form_id))
    doc.update(changes)
    path.write_text(json.dumps(doc))


def spaced(form_id):
    return " " + form_id.replace(",", " , ").replace("(", "( ") + " "


def test_packaged_ids_in_two_spellings_match_reference(monkeypatch):
    forms = [s for i in default_catalog_ids() for s in (i, spaced(i))]
    assert_same_lookup(monkeypatch, packaged_catalog_dir(), forms)


# forms present canonically, present hand-named, absent but built, absent
FORMS = ["su(2,1)", "sl(2,R)", "split(G2)", "su(5,1)", "my-form", " my-form ", "nope", "so(4,3)"]


def test_hand_named_and_missing_ids_match_reference(monkeypatch, tmp_path):
    write_catalog(tmp_path, [catalog_form("su(2,1)"), catalog_form("sl(2,R)")])
    write_doc(tmp_path / "anything.json", "su(3,1)", id="my-form")
    write_doc(tmp_path / "su_5_1.json", "su(5,1)")  # named, but not a packaged id
    assert_same_lookup(monkeypatch, tmp_path, FORMS)
    assert_same_lookup(monkeypatch, tmp_path / "missing", FORMS)


@pytest.mark.parametrize(
    "hand_named",
    [
        {"a_other.json": "su(2,1)"},  # a hand-named duplicate of a canonical id
        {"z_other.json": "su(2,1)"},
        {"a.json": "my-form", "b.json": "my-form"},  # two hand-named duplicates
        {"a.json": "sp(3,R)", "b.json": "sp(3,R)"},
    ],
)
def test_duplicate_ids_match_reference(monkeypatch, tmp_path, hand_named):
    write_catalog(tmp_path, [catalog_form("su(2,1)"), catalog_form("sl(2,R)")])
    for name, form_id in hand_named.items():
        write_doc(tmp_path / name, "sl(3,R)", id=form_id)
    assert_same_lookup(monkeypatch, tmp_path, FORMS)
    # every request is refused, with both files named
    for form in FORMS:
        error, message = resolved(monkeypatch, load_entry, form, tmp_path)
        assert error == "ParseError" and all(name in message for name in hand_named)


@pytest.mark.parametrize(
    "make_bad",
    [
        lambda d: (d / "bad.json").write_text("{not json"),
        lambda d: (d / "bad.json").write_bytes(b"\xff{"),
        lambda d: write_doc(d / "form.json", "su(2,1)", theta_matrix=["10", "01"]),
        lambda d: write_doc(d / "form.json", "su(2,1)", expected_verdict="false"),
        lambda d: (d / "x.json").mkdir(),  # listed with the .json names, unreadable
    ],
)
def test_malformed_hand_named_files_match_reference(monkeypatch, tmp_path, make_bad):
    write_catalog(tmp_path, [catalog_form("su(2,1)"), catalog_form("sl(2,R)")])
    make_bad(tmp_path)
    assert_same_lookup(monkeypatch, tmp_path, FORMS)
    for form in FORMS:
        assert resolved(monkeypatch, load_entry, form, tmp_path)[0] == "ParseError"


@pytest.mark.parametrize(
    "make_layout",
    [
        # not read by either lookup: no .json suffix, or an upper-case one
        lambda d: (d / "notes.txt").write_text("{not json"),
        lambda d: (d / "su_2_1.json.bak").write_text("{not json"),
        lambda d: (d / "X.JSON").write_text("{not json"),
        lambda d: write_doc(d / "Y.JSON", "su(3,1)", id="my-form"),
        # a hand-named file holding the id of a packaged form whose canonical
        # file is skipped (present) or absent
        lambda d: write_doc(d / "mine.json", "sl(2,R)"),
        lambda d: write_doc(d / "mine.json", "split(G2)"),
        lambda d: write_doc(d / "mine.json", "so(4,3)", id="su(2,1)"),
    ],
)
def test_listing_edge_cases_match_reference(monkeypatch, tmp_path, make_layout):
    write_catalog(tmp_path, [catalog_form("su(2,1)"), catalog_form("sl(2,R)")])
    make_layout(tmp_path)
    assert_same_lookup(monkeypatch, tmp_path, FORMS)


def test_canonical_file_holding_another_id_is_refused(monkeypatch, tmp_path):
    """The one intended difference from the reference: su_2_1.json must hold
    su(2,1), so holding su(3,1) is a ParseError naming the file and both ids."""
    write_catalog(tmp_path, [catalog_form("sl(2,R)")])
    write_doc(tmp_path / "su_2_1.json", "su(3,1)")
    assert reference_load_entry(tmp_path, "su(3,1)") == catalog_form("su(3,1)")
    with pytest.raises(ParseError) as caught:
        load_catalog(tmp_path)
    message = str(caught.value)
    assert "su_2_1.json" in message and "'su(2,1)'" in message and "'su(3,1)'" in message
    error, message = resolved(monkeypatch, load_entry, "su(2,1)", tmp_path)
    assert error == "ParseError" and "su_2_1.json" in message and "'su(3,1)'" in message
    # no other lookup reads that file: su(3,1) is not in this catalog
    assert resolved(monkeypatch, load_entry, "su(3,1)", tmp_path) == (catalog_form("su(3,1)"), "catalog")
    assert resolved(monkeypatch, load_entry, "sl(2,R)", tmp_path) == (catalog_form("sl(2,R)"), "catalog")


# ---------------------------------------------------------------------------
# the documents a request parses
# ---------------------------------------------------------------------------


@pytest.fixture
def parsed(monkeypatch):
    """The number of catalog documents parsed since the fixture was set up."""
    calls = []

    def counting(doc):
        calls.append(doc)
        return document_to_entry(doc)

    monkeypatch.setattr(cat, "document_to_entry", counting)
    return calls


def test_packaged_request_parses_one_document(capsys, parsed):
    assert cli.main(["criterion", "su(2,1)", "--json"]) == 0
    capsys.readouterr()
    assert len(parsed) == 1


@pytest.mark.parametrize("form,documents", [("su(2,1)", 3), ("my-form", 2), ("sl(2,R)", 2)])
def test_request_parses_its_canonical_file_and_hand_named_ones(
    capsys, tmp_path, parsed, form, documents
):
    write_catalog(tmp_path, [catalog_form("su(2,1)")])
    write_doc(tmp_path / "anything.json", "su(3,1)", id="my-form")
    write_doc(tmp_path / "other.json", "sl(3,R)", id="mine")
    assert cli.main(["criterion", form, "--catalog", str(tmp_path), "--json"]) == 0
    capsys.readouterr()
    assert len(parsed) == documents


def test_canonical_names_are_distinct_and_packaged():
    ids = default_catalog_ids()
    names = {entry_filename(i) for i in ids}
    assert len(names) == len(ids) == 56
    directory = packaged_catalog_dir()
    assert {p.name for p in directory.iterdir()} == names
    for form_id in ids:
        assert read_json(directory / entry_filename(form_id))["id"] == form_id
