"""The built-in catalog of real forms and its file format."""

import json

import pytest

from cartan_ds import (
    InputError,
    ParseError,
    build_default_catalog,
    catalog_form,
    default_catalog_ids,
    entry_involution,
    entry_root_system,
    entry_to_document,
    load_catalog,
    packaged_catalog_dir,
    resolve_catalog_dir,
    write_catalog,
)
from cartan_ds.catalog import ENV_CATALOG_DIR, document_to_entry, entry_filename


# ---------------------------------------------------------------------------
# form construction
# ---------------------------------------------------------------------------


def test_default_catalog_size_and_ids():
    ids = default_catalog_ids()
    assert len(ids) == len(set(ids)) == 56
    for expected in ["sl(2,R)", "su(2,1)", "so(4,4)", "sp(4,R)", "compact(F4)", "split(E8)"]:
        assert expected in ids


def test_frozen_involution_matrices():
    assert catalog_form("su(2,1)").theta_matrix == ((0, -1), (-1, 0))
    assert catalog_form("su(3,1)").theta_matrix == (
        (0, 0, -1),
        (-1, 1, -1),
        (-1, 0, 0),
    )
    assert catalog_form("so(4,1)").theta_matrix == ((-1, 0), (-2, 1))
    assert catalog_form("so(3,1)").theta_matrix == ((0, -1), (-1, 0))
    assert catalog_form("sl(3,R)").theta_matrix == ((-1, 0), (0, -1))
    assert catalog_form("compact(G2)").theta_matrix == ((1, 0), (0, 1))


def test_cartan_types():
    assert catalog_form("sl(4,R)").cartan_type == "A3"
    assert catalog_form("so(4,3)").cartan_type == "B3"
    assert catalog_form("so(4,4)").cartan_type == "D4"
    assert catalog_form("sp(3,R)").cartan_type == "C3"
    assert catalog_form("su(3,2)").cartan_type == "A4"


@pytest.mark.parametrize(
    "form_id,verdict",
    [
        ("sl(2,R)", True),
        ("sl(3,R)", False),
        ("sl(4,R)", False),
        ("su(2,1)", True),
        ("su(2,2)", True),
        ("so(3,1)", False),  # both odd: no compact Cartan
        ("so(3,3)", False),
        ("so(5,1)", False),
        ("so(4,1)", True),
        ("so(4,4)", True),
        ("sp(4,R)", True),
        ("compact(A3)", True),
        ("split(A2)", False),
        ("split(A3)", False),
        ("split(D4)", True),
        ("split(E6)", False),
        ("split(E7)", True),
        ("split(G2)", True),
    ],
)
def test_stored_verdicts(form_id, verdict):
    assert catalog_form(form_id).expected_verdict is verdict


def test_stored_verdict_equals_rank_equality_for_all_entries():
    for entry in build_default_catalog():
        assert entry.expected_verdict == (entry.compact_rank == entry.rank), entry.id


def test_every_entry_validates():
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        inv = entry_involution(entry, rs=rs)
        assert len(inv.theta) == rs.rank


def test_whitespace_in_ids_is_tolerated():
    assert catalog_form(" su( 2 , 1 ) ").id == catalog_form("su(2,1)").id


@pytest.mark.parametrize(
    "bad",
    [
        "sl(1,R)",  # no rank-zero algebra
        "su(1,2)",  # requires p >= q
        "su(0,1)",
        "so(1,1)",
        "sp(0,R)",
        "compact(E9)",
        "split(H3)",
        "gl(2,R)",
        "su(2;1)",
        "",
    ],
)
def test_malformed_ids_are_rejected(bad):
    with pytest.raises(InputError):
        catalog_form(bad)


def test_so22_is_reductive_but_legal():
    # so(2,2) is reductive-but-not-simple; the product system D2 = A1 x A1
    # is handled like any other type
    entry = catalog_form("so(2,2)")
    assert entry.cartan_type == "D2"
    assert entry.expected_verdict is True
    assert "so(2,2)" in default_catalog_ids()


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_document_roundtrip():
    entry = catalog_form("so(5,3)")
    doc = entry_to_document(entry)
    assert document_to_entry(doc) == entry
    # documents are JSON-serializable as-is
    assert document_to_entry(json.loads(json.dumps(doc))) == entry


def test_document_rejects_missing_fields():
    doc = entry_to_document(catalog_form("sl(2,R)"))
    del doc["theta_matrix"]
    with pytest.raises(ParseError):
        document_to_entry(doc)


def test_document_rejects_malformed_matrix():
    doc = entry_to_document(catalog_form("sl(2,R)"))
    doc["theta_matrix"] = [[1, 0]]
    with pytest.raises(ParseError):
        document_to_entry(doc)


@pytest.mark.parametrize(
    "key,value",
    [
        ("expected_verdict", "false"),
        ("expected_verdict", 0),
        ("expected_verdict", None),
        ("compact_rank", 1.9),
        ("compact_rank", "1"),
        ("compact_rank", True),
        ("id", 7),
        ("cartan_type", ["A1"]),
    ],
)
def test_document_rejects_mistyped_fields(key, value):
    doc = entry_to_document(catalog_form("sl(2,R)"))
    doc[key] = value
    with pytest.raises(ParseError):
        document_to_entry(doc)


MALFORMED_MATRICES = [
    ("su(2,1)", ["10", "01"]),  # string rows, read as the identity
    ("sl(2,R)", ["1"]),  # a string row, read as [[1]]
    ("sl(2,R)", [[True]]),  # a JSON true, read as 1
]


@pytest.mark.parametrize("form_id,matrix", MALFORMED_MATRICES)
def test_document_rejects_matrix_of_non_lists_or_bools(form_id, matrix):
    doc = entry_to_document(catalog_form(form_id))
    doc["theta_matrix"] = matrix
    with pytest.raises(ParseError):
        document_to_entry(doc)


def test_entry_filename_sanitizes():
    assert entry_filename("su(2,1)") == "su_2_1.json"
    assert entry_filename("split(E8)") == "split_E8.json"


def test_write_and_load_roundtrip(tmp_path):
    entries = [catalog_form("sl(2,R)"), catalog_form("su(2,1)")]
    paths = write_catalog(tmp_path, entries)
    assert all(p.exists() for p in paths)
    loaded = load_catalog(tmp_path)
    assert loaded == sorted(entries, key=lambda e: e.id)


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(ParseError):
        load_catalog(tmp_path / "nope")


def test_load_rejects_bad_json(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ParseError):
        load_catalog(tmp_path)


def test_packaged_catalog_matches_builder():
    packaged = load_catalog(packaged_catalog_dir())
    built = sorted(build_default_catalog(), key=lambda e: e.id)
    assert packaged == built


def test_resolve_catalog_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CATALOG_DIR, raising=False)
    assert resolve_catalog_dir(None) == packaged_catalog_dir()
    monkeypatch.setenv(ENV_CATALOG_DIR, str(tmp_path))
    assert resolve_catalog_dir(None) == tmp_path
    explicit = tmp_path / "explicit"
    assert resolve_catalog_dir(str(explicit)) == explicit


def test_compact_rank_values():
    assert catalog_form("sl(4,R)").compact_rank == 2
    assert catalog_form("su(3,2)").compact_rank == 4
    assert catalog_form("so(4,3)").compact_rank == 3
    assert catalog_form("so(3,3)").compact_rank == 2
    assert catalog_form("sp(2,R)").compact_rank == 2
    assert catalog_form("split(A4)").compact_rank == 2
    assert catalog_form("split(E6)").compact_rank == 4
    assert catalog_form("compact(D4)").compact_rank == 4
