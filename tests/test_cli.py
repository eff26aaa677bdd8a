"""End-to-end command-line interface tests, run in-process."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

import cartan_ds
from cartan_ds import (
    CartanDSError,
    ConsistencyError,
    InputError,
    ResourceError,
    WeylElement,
    build_default_catalog,
    build_root_system,
    catalog_form,
    cli,
    compact_cartan_verdict,
    entry_involution,
    packaged_catalog_dir,
    write_catalog,
)
from cartan_ds import exponents, realform, rootdata, translation
from cartan_ds.catalog import ENV_CATALOG_DIR, entry_to_document
from cartan_ds.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    return rc, json.loads(out), err


@pytest.fixture
def tiny_catalog(tmp_path):
    entries = [catalog_form("sl(2,R)"), catalog_form("su(2,1)")]
    write_catalog(tmp_path / "cat", entries)
    return tmp_path / "cat"


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

#: SHA-256 of the reports of ``test_reports_match_pinned_digest``.  A change
#: that alters any of these outputs on purpose updates it and says so.
REPORT_DIGEST = "bd9c59fe4327e0fe4ba2ce31086284d8bc04d1023929ddb58aa1058021802c90"


#: SHA-256 of the reports of ``test_worst_case_reports_match_pinned_digest``.
WORST_CASE_DIGEST = "6d1a8021c48f4f6b7b5d8213268ee848d28a84b43746dafade6296518fd09fb3"


#: SHA-256 of the reports of ``test_fw_shift_reports_match_pinned_digest``.
FW_SHIFT_DIGEST = "ba9d8c367de9c24823e2ad927a64713f6a473dcd1894d52f988a1e8123c14752"


#: SHA-256 of the report of ``test_exact_sequence_report_matches_pinned_digest``.
EXACT_SEQUENCE_DIGEST = "68777f45082f65042bc4be1dfdeda84c8d7a0123d8009dfcbd4be22beae46190"


def requests_digest(capsys, requests):
    """One SHA-256 over the ``--json`` reports of requests: the exit codes and
    the reports without ``timing_ms`` and the ``catalog_dir`` input, which
    name no output of the library."""
    digest = hashlib.sha256()
    for argv in requests:
        rc, doc, _ = run_json(capsys, *argv)
        doc.pop("timing_ms", None)
        doc.get("inputs", {}).pop("catalog_dir", None)
        digest.update(json.dumps([argv, rc, doc]).encode())
    return digest.hexdigest()


def report_digest(capsys):
    """The digest of ``verify all`` and, on the catalog forms, of ``inspect``
    and ``criterion`` (rank <= 6) and ``strong-reg`` (rank <= 4)."""
    requests = [("verify", "all")]
    for entry in build_default_catalog():
        if entry.rank <= 6:
            requests += [("inspect", entry.id), ("criterion", entry.id)]
        if entry.rank <= 4:
            requests.append(("strong-reg", entry.id))
    return requests_digest(capsys, requests)


def test_reports_match_pinned_digest(capsys):
    assert report_digest(capsys) == REPORT_DIGEST


def worst_case_requests():
    """``strong-reg --worst-case`` on every catalog form of rank <= 3 with a
    split part: reports that list many exponents, in the one weight order."""
    return [
        ("strong-reg", entry.id, "--worst-case")
        for entry in build_default_catalog()
        if entry.rank <= 3 and entry_involution(entry).split_rank > 0
    ]


def test_worst_case_reports_match_pinned_digest(capsys):
    assert requests_digest(capsys, worst_case_requests()) == WORST_CASE_DIGEST


def fw_shift_requests():
    """``strong-reg --lambda-fw e_i`` for each fundamental weight e_i of every
    catalog form of rank <= 4: singular weights, whose admissible sets lie on
    walls and whose searches shift on the fundamental-weight table, which is
    not symmetric on B, C, F and G.  A transposed table changes 15 reports."""
    return [
        ("strong-reg", entry.id, "--lambda-fw", ",".join(str(int(j == i)) for j in range(entry.rank)))
        for entry in build_default_catalog()
        if entry.rank <= 4
        for i in range(entry.rank)
    ]


def test_fw_shift_reports_match_pinned_digest(capsys):
    requests = fw_shift_requests()
    assert len(requests) == 152
    assert requests_digest(capsys, requests) == FW_SHIFT_DIGEST


def test_exact_sequence_report_matches_pinned_digest(capsys):
    # the orders of W^theta, W_0 and the restricted group for every catalog
    # form with |W| <= 46080, and whether each sequence is exact
    assert requests_digest(capsys, [("verify", "exact-sequence")]) == EXACT_SEQUENCE_DIGEST


# ---------------------------------------------------------------------------
# envelope shape
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "--filter", "su(2,1)"),
        ("inspect", "su(2,1)"),
        ("criterion", "su(2,1)"),
        ("strong-reg", "su(2,1)"),
        ("verify", "pipeline"),
    ],
)
def test_report_envelope_field_order(capsys, argv):
    rc, doc, _ = run_json(capsys, *argv)
    assert rc == 0
    assert list(doc.keys()) == [
        "command",
        "inputs",
        "results",
        "certificates",
        "timing_ms",
    ]
    assert isinstance(doc["timing_ms"], int)


def test_output_is_a_single_json_line(capsys):
    rc, out, err = run(capsys, "criterion", "su(2,1)", "--json")
    assert rc == 0 and err == ""
    assert out.count("\n") == 1 and out.endswith("\n")


def test_json_output_is_deterministic(capsys):
    rc1, doc1, _ = run_json(capsys, "strong-reg", "sl(3,R)")
    rc2, doc2, _ = run_json(capsys, "strong-reg", "sl(3,R)")
    assert rc1 == rc2 == 0
    doc1.pop("timing_ms"), doc2.pop("timing_ms")
    assert doc1 == doc2


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------


def test_criterion_frozen_su21(capsys):
    rc, doc, _ = run_json(capsys, "criterion", "su(2,1)")
    assert rc == 0
    res = doc["results"]
    assert res["minus_sigma_in_weyl"] is True
    assert res["witness"] == {"word": [0, 1, 0]}
    assert res["compact_cartan"] is True
    assert res["oracle"] is True and res["consistent"] is True
    assert res["source"] == "catalog" and res["realizability_note"] is None
    assert doc["certificates"] == {
        "witness_verified": True,
        "consistent_with_oracle": True,
    }


def test_criterion_negative_case(capsys):
    rc, doc, _ = run_json(capsys, "criterion", "split(A2)")
    assert rc == 0
    res = doc["results"]
    assert res["minus_sigma_in_weyl"] is False and res["witness"] is None
    assert res["compact_cartan"] is False and res["consistent"] is True


def test_criterion_witness_certificate_multiplies_the_word_out(capsys, monkeypatch):
    # the witness carries theta as its matrix, so only its word can be wrong
    def wrong_word(rs, inv, **kwargs):
        verdict = compact_cartan_verdict(rs, inv, **kwargs)
        return dataclasses.replace(verdict, witness=WeylElement(inv.theta, (0,)))

    monkeypatch.setattr(cli, "compact_cartan_verdict", wrong_word)
    rc, doc, _ = run_json(capsys, "criterion", "su(2,1)")
    assert doc["results"]["witness"] == {"word": [0]}
    assert doc["certificates"]["witness_verified"] is False
    assert rc == 1


def test_criterion_human_render(capsys):
    rc, out, _ = run(capsys, "criterion", "su(2,1)")
    assert rc == 0
    assert out.startswith("[criterion]\n")
    assert "  minus_sigma_in_weyl: True\n" in out
    assert "timing_ms:" in out


def test_strongreg_human_render_of_sets_steps_and_margins(capsys):
    rc, out, _ = run(capsys, "strong-reg", "sl(3,R)", "--worst-case")
    assert rc == 0 and out.startswith("[strong-reg]\n")
    _, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)", "--worst-case")
    assert doc["results"]["exponents"] == [["-1", "-1"]]
    assert '  exponents:\n    - ["-1","-1"]\n' in out
    assert "  base_margin:\n    sign: 1\n    square: 3/2\n" in out
    assert "      min_margin:\n        sign: 1\n        square: 1/6\n" in out
    assert "timing_ms:" in out


def test_criterion_accepts_whitespace_and_file_paths(capsys, tmp_path):
    rc, doc, _ = run_json(capsys, "criterion", " su( 2 , 1 ) ")
    assert rc == 0 and doc["results"]["id"] == "su(2,1)"
    path = tmp_path / "myform.json"
    path.write_text(json.dumps(entry_to_document(catalog_form("su(2,1)"))))
    rc, doc, _ = run_json(capsys, "criterion", str(path))
    assert rc == 0
    # the stored involution matches the built-in one, so it keeps its oracle
    assert doc["results"]["source"] == "catalog"
    assert doc["results"]["oracle"] is True


def test_criterion_user_involution_file(capsys, tmp_path):
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["theta_matrix"] = [[-1, 1], [0, 1]]  # the first simple reflection
    path = tmp_path / "userform.json"
    path.write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", str(path))
    assert rc == 0
    res = doc["results"]
    assert res["source"] == "user"
    assert res["realizability_note"] is not None
    assert res["oracle"] is None and res["consistent"] is None
    assert res["minus_sigma_in_weyl"] is True  # conjugate involution, same answer


def _rechosen_a2_document(tmp_path):
    """A2 with the first simple reflection, whose default positive system is
    not compatible: the restriction of alpha_1 + alpha_2 is half that of alpha_1."""
    path = tmp_path / "a2_reflection.json"
    path.write_text(json.dumps({
        "id": "a2-reflection", "cartan_type": "A2", "theta_matrix": [[-1, 1], [0, 1]],
        "compact_rank": 2, "expected_verdict": True,
    }))
    return str(path)


def test_criterion_on_rechosen_chamber_document(capsys, tmp_path):
    rc, doc, _ = run_json(capsys, "criterion", _rechosen_a2_document(tmp_path))
    assert rc == 0
    assert doc["results"]["witness"] == {"word": [0]}
    assert doc["certificates"]["witness_verified"] is True


# ---------------------------------------------------------------------------
# catalog and inspect
# ---------------------------------------------------------------------------


def test_catalog_full_sweep_consistent(capsys):
    rc, doc, _ = run_json(capsys, "catalog")
    assert rc == 0
    assert len(doc["results"]) == 56
    assert doc["certificates"] == {"all_consistent": True}
    assert all(row["consistent"] for row in doc["results"])


def test_empty_filter_is_a_parse_error(capsys):
    # an empty glob matches no id; it is bad input, not "no filter"
    rc, doc, _ = run_json(capsys, "catalog", "--filter", "")
    assert rc == 2
    assert doc["error"] == "ParseError" and doc["message"] == "--filter needs a glob, got ''"
    rc, out, err = run(capsys, "catalog", "--filter", "")
    assert rc == 2 and out == "" and "ParseError" in err


def test_catalog_filter_and_table(capsys):
    rc, doc, _ = run_json(capsys, "catalog", "--filter", "su*")
    assert rc == 0
    assert {row["id"] for row in doc["results"]} == {
        "su(1,1)", "su(2,1)", "su(2,2)", "su(3,1)", "su(3,2)", "su(4,1)",
    }
    rc, out, _ = run(capsys, "catalog", "--filter", "su*")
    assert rc == 0
    head = out.splitlines()[0].split()
    assert head == ["id", "type", "restricted", "|roots|", "verdict", "oracle", "consistent"]


def test_inspect_rechosen_chamber_document(capsys, tmp_path):
    rc, doc, _ = run_json(capsys, "inspect", _rechosen_a2_document(tmp_path))
    assert rc == 0
    res = doc["results"]
    assert res["default_positive_system_compatible"] is False
    assert res["chamber_word"] == {"word": [1]}
    assert res["restricted_type"] == "BC1"
    assert res["source"] == "user"


def test_inspect_restricted_roots_that_are_no_root_system(capsys, tmp_path):
    # an A5 involution whose 12 restricted roots have the norms 4, 6 and 8 of
    # no rank-3 type; verify_exact_sequence refuses it as no root system
    path = tmp_path / "a5_no_root_system.json"
    path.write_text(json.dumps({
        "id": "a5-no-root-system", "cartan_type": "A5",
        "theta_matrix": [[1, -1, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, -1, 0, 0],
                         [0, 0, 0, -1, 0], [0, 0, 0, -1, 1]],
        "compact_rank": 2, "expected_verdict": False,
    }))
    rc, doc, _ = run_json(capsys, "inspect", str(path))
    assert rc == 0
    res = doc["results"]
    assert res["restricted_type"] == "?3"
    assert res["restricted_root_count"] == 12 and res["split_rank"] == 3


def test_inspect_frozen_so41(capsys):
    rc, doc, _ = run_json(capsys, "inspect", "so(4,1)")
    assert rc == 0
    res = doc["results"]
    assert res["cartan_type"] == "B2" and res["rank"] == 2
    assert res["root_count"] == 8
    assert res["theta_matrix"] == [[-1, 0], [-2, 1]]
    assert res["split_rank"] == 1
    assert res["compact_torus_dimension"] == 1
    assert res["compact_subgroup_rank"] == 2
    assert res["restricted_type"] == "A1"
    assert res["restricted_root_count"] == 2
    assert res["vanishing_root_count"] == 2
    assert res["positive_restricted"] == [{"root": ["1", "1"], "multiplicity": 3}]
    assert res["rho_restricted"] == ["3/2", "3/2"]
    assert doc["certificates"] == {"multiplicity_identity": True}


# ---------------------------------------------------------------------------
# strong-reg
# ---------------------------------------------------------------------------


def test_strongreg_frozen_sl3(capsys):
    rc, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)")
    assert rc == 0
    res = doc["results"]
    assert res["lambda"] == ["1", "1"]
    assert res["exponents"] == [["-1", "-1"]]
    assert res["k"] == 0 and res["scale_factor"] == 1
    assert res["mus"] == [["1/3", "2/3"]]
    assert res["final_weight"] == ["4/3", "5/3"]
    certs = doc["certificates"]
    assert certs["strongly_regular"] and certs["cone_condition"]
    assert certs["base_margin"] == {"sign": 1, "square": "3/2"}
    assert certs["recheck_strongly_regular"] and certs["recheck_cone_condition"]
    (step,) = certs["steps"]
    assert step["direction"] == ["1/3", "2/3"]
    assert step["min_margin"] == {"sign": 1, "square": "1/6"}
    assert step["cone_ok"] is True


def test_strongreg_explicit_weight_flags(capsys):
    rc, doc, _ = run_json(
        capsys, "strong-reg", "sl(3,R)", "--lambda-fw", "1,1", "--label", "tagged"
    )
    assert rc == 0
    assert doc["results"]["lambda"] == ["1", "1"]  # fw (1,1) is the half-sum
    assert doc["results"]["label"] == "tagged"
    rc2, doc2, _ = run_json(
        capsys, "strong-reg", "sl(3,R)", "--lambda", "1,1", "--exponents=-1,-1"
    )
    assert rc2 == 0
    doc.pop("timing_ms"), doc2.pop("timing_ms")
    doc["inputs"].pop("label"), doc2["inputs"].pop("label")
    doc["results"].pop("label"), doc2["results"].pop("label")
    assert doc == doc2


def test_strongreg_datum_file(capsys, tmp_path):
    datum = {"lambda": ["1", "1"], "exponents": [["-1", "-1"]], "label": "from-file"}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    rc, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)", "--datum", str(path))
    assert rc == 0
    assert doc["results"]["label"] == "from-file"
    assert doc["results"]["final_weight"] == ["4/3", "5/3"]


@pytest.mark.parametrize(
    "datum",
    [
        {"lambda": ["1,1"], "exponents": [["-1", "-1"]]},  # one string, two coordinates
        {"lambda": ["1", "1"], "exponents": [["-1,-1"]]},  # the same in an exponent
        {"lambda": [1.0, 1], "exponents": [["-1", "-1"]]},  # a float is no rational
        {"lambda": [True, 1], "exponents": [["-1", "-1"]]},  # nor is a JSON true
    ],
)
def test_strongreg_datum_coordinates_are_ints_or_rational_strings(capsys, tmp_path, datum):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    rc, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)", "--datum", str(path))
    assert rc == 2 and doc["error"] == "ParseError"


@pytest.mark.parametrize("label", [None, 5, True, ["a"], {"a": 1}])
def test_strongreg_datum_label_must_be_a_string(capsys, tmp_path, label):
    datum = {"lambda": ["1", "1"], "exponents": [["-1", "-1"]], "label": label}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    rc, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)", "--datum", str(path))
    assert rc == 2 and doc["error"] == "ParseError"


def test_strongreg_datum_without_label_has_an_empty_label(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"lambda": ["1", "1"], "exponents": [["-1", "-1"]]}))
    rc, doc, _ = run_json(capsys, "strong-reg", "sl(3,R)", "--datum", str(path))
    assert rc == 0 and doc["results"]["label"] == ""


def test_strongreg_worst_case_exponents(capsys):
    rc, doc, _ = run_json(capsys, "strong-reg", "su(2,1)", "--worst-case")
    assert rc == 0
    assert doc["results"]["exponents"] == [["-1", "-1"], ["-1/2", "-1/2"]]
    assert doc["results"]["k"] == 0
    assert doc["certificates"]["strongly_regular"]


@pytest.mark.parametrize("flags", [(), ("--worst-case",)])
def test_strongreg_walks_the_admissible_points_once(capsys, monkeypatch, flags):
    # the search certifies the keys of its own walk: the command builds no
    # worst-case set of its own
    walks = []
    walk = exponents._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(exponents, "_walk", counted)
    rc, doc, _ = run_json(capsys, "strong-reg", "split(F4)", *flags)
    assert rc == 0 and len(walks) == 1
    assert len(doc["results"]["exponents"]) == (373 if flags else 1)


NOT_ADMISSIBLE = "exponent is not an admissible restriction of the weight's orbit"
RECHOSEN_A2 = object()


@pytest.mark.parametrize(
    "argv,exit_code,want",
    [
        # a restriction of rho's orbit that is not admissible is refused in
        # both modes, not dropped from the worst-case set
        (("su(3,2)", "--exponents=-2,-3"), 2, {"error": "InvalidDatum", "message": NOT_ADMISSIBLE}),
        (("su(2,1)", "--worst-case", "--exponents=1"), 2,
         {"error": "InvalidDatum", "message": NOT_ADMISSIBLE}),
        # the zero weight has no admissible exponent, which is reported first
        (("sl(3,R)", "--lambda", "0,0", "--exponents=5,5"), 2, {"error": "NoAdmissibleDirection"}),
        # an admissible exponent joins the admissible set it belongs to
        (("su(2,1)", "--worst-case", "--exponents=-1"), 0,
         {"exponents": [["-1", "-1"], ["-1/2", "-1/2"]]}),
        # with no exponent given, --worst-case takes the admissible set alone:
        # the default antidominant restriction, 0 here, is not admissible
        ((RECHOSEN_A2, "--lambda-fw", "1,0", "--worst-case"), 0, {"exponents": [["-1/2", "0"]]}),
    ],
)
def test_strongreg_applies_one_exponent_rule(capsys, tmp_path, argv, exit_code, want):
    argv = [_rechosen_a2_document(tmp_path) if a is RECHOSEN_A2 else a for a in argv]
    rc, doc, _ = run_json(capsys, "strong-reg", *argv)
    assert rc == exit_code
    found = doc if exit_code else doc["results"]
    assert {key: found[key] for key in want} == want
    if exit_code:
        assert doc["exit_code"] == exit_code


def test_strongreg_search_exhausted_reports_best(capsys):
    rc, out, err = run(
        capsys, "strong-reg", "sl(3,R)", "--max-mu-coeff", "0", "--json"
    )
    assert rc == 3
    doc = json.loads(out)
    assert doc["error"] == "SearchExhausted" and doc["exit_code"] == 3
    best = doc["best"]
    assert best["coefficients"] == [0, 0] and best["k"] == 0
    assert best["strongly_regular"] is False
    assert best["min_margin"] == {"sign": 1, "square": "3/2"}


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def test_verify_pipeline_suite(capsys):
    rc, doc, _ = run_json(capsys, "verify", "pipeline")
    assert rc == 0
    (suite,) = doc["results"]
    assert suite["name"] == "pipeline" and suite["passed"]
    rows = {r["form"]: r for r in suite["runs"]}
    assert set(rows) == {"sl(2,R)", "su(2,1)", "sp(2,R)"}
    for row in rows.values():
        assert row["k"] == 0 and row["mus"] == 0
        assert row["strongly_regular"] and row["cone_condition"]
        assert row["margin_linearity"] and row["passed"]


def test_verify_splitting_suite(capsys):
    rc, doc, _ = run_json(capsys, "verify", "splitting")
    assert rc == 0
    (suite,) = doc["results"]
    assert suite["name"] == "splitting" and suite["passed"]
    assert suite["violations"] == 0
    assert suite["cases"] > 0 and suite["solutions_checked"] >= suite["cases"]


def test_verify_all_on_tiny_catalog(capsys, tiny_catalog):
    rc, doc, _ = run_json(capsys, "verify", "all", "--catalog", str(tiny_catalog))
    assert rc == 0
    names = [s["name"] for s in doc["results"]]
    assert names == ["exact-sequence", "splitting", "pipeline"]
    assert all(s["passed"] for s in doc["results"])
    exact = doc["results"][0]
    assert [row["id"] for row in exact["forms"]] == ["sl(2,R)", "su(2,1)"]
    assert all(row["passed"] for row in exact["forms"])


# ---------------------------------------------------------------------------
# catalogue resolution and error paths
# ---------------------------------------------------------------------------


def test_env_var_selects_catalog(capsys, tiny_catalog, monkeypatch):
    monkeypatch.setenv(ENV_CATALOG_DIR, str(tiny_catalog))
    rc, doc, _ = run_json(capsys, "catalog")
    assert rc == 0
    assert [row["id"] for row in doc["results"]] == ["sl(2,R)", "su(2,1)"]
    assert doc["inputs"]["catalog_dir"] == str(tiny_catalog)


def test_flag_overrides_env_var(capsys, tiny_catalog, monkeypatch, tmp_path):
    other = tmp_path / "other"
    write_catalog(other, [catalog_form("sp(2,R)")])
    monkeypatch.setenv(ENV_CATALOG_DIR, str(tiny_catalog))
    rc, doc, _ = run_json(capsys, "catalog", "--catalog", str(other))
    assert rc == 0
    assert [row["id"] for row in doc["results"]] == ["sp(2,R)"]


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog",),
        ("verify", "exact-sequence"),
        ("inspect", "su(2,1)"),
        ("criterion", "su(2,1)"),
        ("strong-reg", "su(2,1)"),
    ],
)
def test_missing_catalog_dir_is_a_parse_error(capsys, monkeypatch, tmp_path, argv):
    missing = str(tmp_path / "missing")
    rc, out, _ = run(capsys, *argv, "--catalog", missing, "--json")
    assert rc == 2 and json.loads(out)["error"] == "ParseError"
    monkeypatch.setenv(ENV_CATALOG_DIR, missing)
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 2 and json.loads(out)["error"] == "ParseError"


#: a path name longer than a file system takes: stat and listdir raise
#: OSError (ENAMETOOLONG), not FileNotFoundError
LONG_NAME = "a" * 5000


@pytest.mark.parametrize("argv", [("catalog",), ("criterion", "su(2,1)")])
def test_over_long_catalog_dir_is_a_parse_error(capsys, monkeypatch, argv):
    rc, doc, _ = run_json(capsys, *argv, "--catalog", LONG_NAME)
    assert rc == 2 and doc["error"] == "ParseError"
    assert doc["message"].startswith(f"cannot list catalog directory {LONG_NAME}: ")
    monkeypatch.setenv(ENV_CATALOG_DIR, LONG_NAME)
    assert run_json(capsys, *argv)[:2] == (rc, doc)


@pytest.mark.parametrize("form", [LONG_NAME + ".json", f"dir/{LONG_NAME}"], ids=["json", "dir"])
def test_over_long_form_path_is_an_unknown_form(capsys, form):
    rc, doc, _ = run_json(capsys, "criterion", form)
    assert rc == 2 and doc["error"] == "UnknownForm"
    assert doc["message"] == f"form document not found: {form}"


def test_empty_catalog_flag_is_a_parse_error(capsys, monkeypatch, tiny_catalog):
    monkeypatch.setenv(ENV_CATALOG_DIR, str(tiny_catalog))
    for argv in [("criterion", "su(2,1)"), ("catalog",)]:
        rc, doc, _ = run_json(capsys, *argv, "--catalog", "")
        assert rc == 2 and doc["error"] == "ParseError"
    # an empty environment variable is unset
    monkeypatch.setenv(ENV_CATALOG_DIR, "")
    rc, doc, _ = run_json(capsys, "criterion", "su(2,1)")
    assert rc == 0 and doc["inputs"]["catalog_dir"] == str(packaged_catalog_dir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (("criterion",), "cartan-ds criterion: the following arguments are required: form"),
        (
            ("strong-reg", "sl(3,R)", "--max-k", "x"),
            "cartan-ds strong-reg: argument --max-k: invalid int value: 'x'",
        ),
        (("nonsense",), "cartan-ds: argument command: invalid choice: 'nonsense'"),
    ],
)
def test_usage_error_is_a_parse_error(capsys, argv, message):
    rc, out, err = run(capsys, *argv, "--json")
    assert rc == 2 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["error", "message", "exit_code"]
    assert doc["error"] == "ParseError" and doc["exit_code"] == 2
    assert doc["message"].startswith(message)
    # human mode prints argparse's usage and message and exits 2
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: cartan-ds")
    assert message.replace(": ", ": error: ", 1) in captured.err


def test_help_is_unchanged_with_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "-h", "--json"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cartan-ds criterion")


def test_unknown_form_is_an_input_error(capsys):
    rc, out, err = run(capsys, "criterion", "nonsense(", "--json")
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "UnknownForm" and doc["exit_code"] == 2
    rc_h, out_h, err_h = run(capsys, "criterion", "nonsense(")
    assert rc_h == 2 and out_h == "" and "UnknownForm" in err_h


def test_malformed_weight_is_an_input_error(capsys):
    rc, out, _ = run(capsys, "strong-reg", "sl(3,R)", "--lambda", "1,x", "--json")
    assert rc == 2
    assert json.loads(out)["error"] == "ParseError"


def test_cap_exhaustion_is_a_resource_error(capsys):
    rc, out, _ = run(capsys, "strong-reg", "split(B3)", "--cap", "10", "--json")
    assert rc == 3
    assert json.loads(out)["error"] == "CapExceeded"


def test_orbit_cap_refuses_an_e8_search_before_any_closure(capsys, monkeypatch):
    # rho is regular on E8: the predicted orbit has |W| points
    build_root_system("E8")

    def no_closure(*args, **kwargs):
        raise AssertionError("a closure ran")

    for module in (rootdata, realform, translation):
        monkeypatch.setattr(module, "closure", no_closure)
    rc, out, _ = run(capsys, "strong-reg", "split(E8)", "--cap", "100000", "--json")
    assert rc == 3
    assert json.loads(out) == {
        "error": "CapExceeded",
        "message": "orbit size exceeded cap 100000 (predicted size 696729600)",
        "exit_code": 3,
    }


@pytest.mark.parametrize("cap", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("catalog",),
        ("inspect", "su(2,1)"),
        ("criterion", "su(2,1)"),
        ("strong-reg", "su(2,1)"),
        ("verify", "exact-sequence"),
        ("verify", "splitting"),
        ("verify", "pipeline"),
    ],
)
def test_non_positive_cap_is_bad_parameters(capsys, argv, cap):
    rc, out, _ = run(capsys, *argv, "--cap", cap, "--json")
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "BadParameters" and doc["exit_code"] == 2


def test_every_error_class_has_the_readme_exit_code():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    table = "Exit codes: `0` success, `1` consistency conflict, `2` bad input, `3` resource limit"
    assert table in readme
    # each family's code in that table; any other package error is a conflict
    family = {ConsistencyError: 1, InputError: 2, ResourceError: 3}
    exported = [getattr(cartan_ds, name) for name in cartan_ds.__all__]
    errors = [c for c in exported if isinstance(c, type) and issubclass(c, CartanDSError)]
    assert len(errors) == 18
    for cls in errors:
        want = next((code for base, code in family.items() if issubclass(cls, base)), 1)
        assert cls.exit_code == want, cls.__name__


def test_stored_verdict_conflict_is_a_consistency_error(capsys, tmp_path):
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["expected_verdict"] = not doc_in["expected_verdict"]
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "su_2_1.json").write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "catalog", "--catalog", str(bad_dir))
    assert rc == 1
    assert doc["certificates"]["all_consistent"] is False
    rc2, doc2, _ = run_json(
        capsys, "criterion", "su(2,1)", "--catalog", str(bad_dir)
    )
    assert rc2 == 1
    assert doc2["results"]["consistent"] is False


@pytest.mark.parametrize("spelling", ["su(2,1)", "su(2, 1)", " su( 2 , 1 ) "])
def test_catalog_entry_found_under_any_spelling(capsys, tmp_path, spelling):
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["expected_verdict"] = False
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "su_2_1.json").write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", spelling, "--catalog", str(bad_dir))
    assert rc == 1
    assert doc["results"]["consistent"] is False


def test_catalog_entry_with_another_involution_is_user_supplied(capsys, tmp_path):
    changes = [
        ("theta_matrix", [[-1, 1], [0, 1]]),  # the first simple reflection
        ("cartan_type", "A1xA1"),  # where su(2,1)'s theta is valid too
    ]
    for key, value in changes:
        doc_in = entry_to_document(catalog_form("su(2,1)"))
        doc_in[key] = value
        directory = tmp_path / key
        directory.mkdir()
        path = directory / "su_2_1.json"
        path.write_text(json.dumps(doc_in))
        # a catalog entry, and the same document named by its path
        for form, catalog in [("su(2,1)", directory), (path, tmp_path)]:
            rc, doc, _ = run_json(capsys, "criterion", str(form), "--catalog", str(catalog))
            assert rc == 0, (key, form)
            res = doc["results"]
            assert res["source"] == "user" and res["realizability_note"] is not None
            assert res["oracle"] is None and res["consistent"] is None
            rc, doc, _ = run_json(capsys, "inspect", str(form), "--catalog", str(catalog))
            assert rc == 0 and doc["results"]["source"] == "user", (key, form)


def test_catalog_type_is_matched_parsed(capsys, tmp_path):
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["cartan_type"] = " a2 "
    path = tmp_path / "su_2_1.json"
    path.write_text(json.dumps(doc_in))
    for form in ["su(2,1)", str(path)]:
        rc, doc, _ = run_json(capsys, "criterion", form, "--catalog", str(tmp_path))
        assert rc == 0
        assert doc["results"]["source"] == "catalog" and doc["results"]["oracle"] is True


def test_hand_named_catalog_entry_resolves(capsys, tmp_path):
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["id"] = "my-form"
    directory = tmp_path / "named"
    directory.mkdir()
    (directory / "anything.json").write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", " my-form ", "--catalog", str(directory))
    assert rc == 0
    assert doc["results"]["id"] == "my-form"
    rc, doc, _ = run_json(capsys, "criterion", "nope", "--catalog", str(directory))
    assert rc == 2 and doc["error"] == "UnknownForm"


def test_string_verdict_in_catalog_is_a_parse_error(capsys, tmp_path):
    doc_in = entry_to_document(catalog_form("split(A2)"))
    doc_in["expected_verdict"] = "false"
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "split_A2.json").write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", "split(A2)", "--catalog", str(bad_dir))
    assert rc == 2
    assert doc["error"] == "ParseError"


@pytest.mark.parametrize(
    "form_id,matrix",
    [("su(2,1)", ["10", "01"]), ("sl(2,R)", ["1"]), ("sl(2,R)", [[True]])],
)
def test_malformed_catalog_matrix_exits_2(capsys, tmp_path, form_id, matrix):
    doc_in = entry_to_document(catalog_form(form_id))
    doc_in["theta_matrix"] = matrix
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", str(path))
    assert rc == 2 and doc["error"] == "ParseError"
    rc, doc, _ = run_json(capsys, "criterion", form_id, "--catalog", str(tmp_path))
    assert rc == 2 and doc["error"] == "ParseError"


@pytest.mark.parametrize("argv", [("criterion", "su(2,1)"), ("catalog",)])
def test_duplicate_catalog_id_exits_2(capsys, tmp_path, argv):
    other = entry_to_document(catalog_form("sl(3,R)"))
    other["id"] = "su(2,1)"
    directory = tmp_path / "dup"
    write_catalog(directory, [catalog_form("su(2,1)")])
    (directory / "a_other.json").write_text(json.dumps(other))
    rc, doc, _ = run_json(capsys, *argv, "--catalog", str(directory))
    assert rc == 2 and doc["error"] == "ParseError"
    assert "a_other.json" in doc["message"] and "su_2_1.json" in doc["message"]


# every JSON reader turns an unreadable or undecodable file into a ParseError


@pytest.mark.parametrize(
    "argv",
    [
        ("catalog", "--catalog", "{dir}"),
        ("inspect", "{dir}/bad.json"),
        ("strong-reg", "sl(3,R)", "--datum", "{dir}/bad.json"),
    ],
)
def test_undecodable_json_document_exits_2(capsys, tmp_path, argv):
    write_catalog(tmp_path, [catalog_form("su(2,1)")])
    (tmp_path / "bad.json").write_bytes(b"\xff{")
    rc, doc, _ = run_json(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert rc == 2 and doc["error"] == "ParseError"
    assert "bad.json" in doc["message"]


def test_directory_in_catalog_exits_2(capsys, tmp_path):
    write_catalog(tmp_path, [catalog_form("su(2,1)")])
    (tmp_path / "x.json").mkdir()
    rc, doc, _ = run_json(capsys, "criterion", "su(2,1)", "--catalog", str(tmp_path))
    assert rc == 2 and doc["error"] == "ParseError"
    assert "x.json" in doc["message"]
