"""End-to-end command-line interface tests, run in-process."""

import json

import pytest

from cartan_ds import catalog_form, write_catalog
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


def test_criterion_human_render(capsys):
    rc, out, _ = run(capsys, "criterion", "su(2,1)")
    assert rc == 0
    assert out.startswith("[criterion]\n")
    assert "  minus_sigma_in_weyl: True\n" in out
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


# ---------------------------------------------------------------------------
# catalog and inspect
# ---------------------------------------------------------------------------


def test_catalog_full_sweep_consistent(capsys):
    rc, doc, _ = run_json(capsys, "catalog")
    assert rc == 0
    assert len(doc["results"]) == 56
    assert doc["certificates"] == {"all_consistent": True}
    assert all(row["consistent"] for row in doc["results"])


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


def test_strongreg_worst_case_exponents(capsys):
    rc, doc, _ = run_json(capsys, "strong-reg", "su(2,1)", "--worst-case")
    assert rc == 0
    assert doc["results"]["exponents"] == [["-1", "-1"], ["-1/2", "-1/2"]]
    assert doc["results"]["k"] == 0
    assert doc["certificates"]["strongly_regular"]


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
    doc_in = entry_to_document(catalog_form("su(2,1)"))
    doc_in["theta_matrix"] = [[-1, 1], [0, 1]]  # the first simple reflection
    directory = tmp_path / "other"
    directory.mkdir()
    (directory / "su_2_1.json").write_text(json.dumps(doc_in))
    rc, doc, _ = run_json(capsys, "criterion", "su(2,1)", "--catalog", str(directory))
    assert rc == 0
    res = doc["results"]
    assert res["source"] == "user" and res["realizability_note"] is not None
    assert res["oracle"] is None and res["consistent"] is None


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
