"""Command-line interface.

Five subcommands:

``catalog``
    Sweep every form in the active catalog, print one row per form with its
    compact-Cartan verdict and the stored rank-equality oracle.
``inspect``
    Show the root-system and restricted-root data attached to one form.
``criterion``
    Run the compact-Cartan membership test (is ``-sigma`` restricted to the
    compact part realized by a Weyl element?) for one form.
``strong-reg``
    Run the full strong-regularization pipeline for one form and one formal
    datum, printing the translation certificate.
``verify``
    Re-run the built-in consistency suites (exact sequence, sum splitting,
    pipeline round-trip).

Every command emits either a human-readable rendering or, with ``--json``,
a single-line JSON report with a stable field order:
``{"command", "inputs", "results", "certificates", "timing_ms"}``.

Exit codes: 0 = success and all certificates pass; 1 = a mathematical
consistency check failed (treated as a bug); 2 = bad input; 3 = a resource
cap was exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Sequence

from . import catalog as cat
from .catalog import CatalogEntry
from .criterion import compact_cartan_verdict, extended_stabilizer
from .errors import (
    BadParameters,
    CartanDSError,
    ConsistencyError,
    InputError,
    ParseError,
    ResourceError,
    UnknownForm,
)
from .exponents import (
    FormalDSDatum,
    SignedSqrt,
    admissible_exponents,
    cone_position,
    dual_chamber,
    sorted_exponents,
    validate_datum,
)
from .linalg import format_rational, frac
from .realform import (
    CartanInvolution,
    classify_restricted_type,
    multiplicity_identity_holds,
    restricted_roots,
    verify_exact_sequence,
)
from .rootdata import (
    DEFAULT_CAP,
    RootSystem,
    Weight,
    WeylElement,
    apply,
    build_root_system,
    dominant_representative,
    longest_element,
    weyl_order,
    weyl_orbit,
)
from .translation import (
    TranslationConfig,
    strong_regularization,
    translate_line,
    verify_sum_splitting,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

#: Forms exercised by the ``verify pipeline`` suite: small enough to finish in
#: seconds, rich enough to cover the equal-rank, non-equal-rank-split, and
#: higher-rank split cases.
PIPELINE_FORMS = ("sl(2,R)", "su(2,1)", "sp(2,R)")

#: Grid for the ``verify splitting`` suite.
SPLITTING_TYPES = ("A2", "B2", "G2")
SPLITTING_SCALES = (Fraction(1, 2), Fraction(1), Fraction(2))

#: Forms whose Weyl group is too large for the exact-sequence enumeration.
EXACT_SEQUENCE_MAX_WEYL = 46080


# ---------------------------------------------------------------------------
# Reports and serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    """Uniform result envelope for every subcommand."""

    command: str
    inputs: dict[str, Any]
    results: Any
    certificates: dict[str, Any]
    timing_ms: int

    def to_document(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "inputs": encode_value(self.inputs),
            "results": encode_value(self.results),
            "certificates": encode_value(self.certificates),
            "timing_ms": self.timing_ms,
        }


def encode_value(value: Any) -> Any:
    """Recursively convert library objects to JSON-safe structures.

    Rationals become ``"p/q"`` strings, weights become coordinate lists,
    Weyl elements become reduced words, and exact margins become
    ``{"sign", "square"}`` pairs.  Field order is the declaration order of
    the source dataclass, so serialized output is stable.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Weight):
        return [format_rational(c) for c in value.coords]
    if isinstance(value, WeylElement):
        return {"word": list(value.word)}
    if isinstance(value, SignedSqrt):
        return {"sign": value.sign, "square": format_rational(value.square)}
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        items = list(value)
        if all(isinstance(x, Weight) for x in items):
            items.sort(key=lambda w: w.coords)
        else:
            items.sort(key=repr)
        return [encode_value(v) for v in items]
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {}
        for f in dataclasses.fields(value):
            if f.name.startswith("_"):
                continue
            out[f.name] = encode_value(getattr(value, f.name))
        return out
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_human(value: Any, indent: int = 0) -> list[str]:
    """Key/value rendering of an encoded document for terminal output."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(render_human(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_compact(item)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{pad}-")
                lines.extend(render_human(item, indent + 1))
            else:
                lines.append(f"{pad}- {_compact(item)}")
    else:
        lines.append(f"{pad}{_compact(value)}")
    return lines


def _compact(value: Any) -> str:
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    if value is None:
        return "-"
    return str(value)


def emit(report: Report, as_json: bool) -> None:
    doc = report.to_document()
    if as_json:
        print(json.dumps(doc, separators=(",", ": ")))
        return
    if report.command == "catalog":
        _print_catalog_table(doc)
        return
    print(f"[{report.command}]")
    for section in ("inputs", "results", "certificates"):
        print(f"{section}:")
        for line in render_human(doc[section], indent=1):
            print(line)
    print(f"timing_ms: {doc['timing_ms']}")


def _print_catalog_table(doc: dict[str, Any]) -> None:
    rows = doc["results"]
    headers = ["id", "type", "restricted", "|roots|", "verdict", "oracle", "consistent"]
    keys = [
        "id",
        "cartan_type",
        "restricted_type",
        "restricted_root_count",
        "verdict",
        "oracle",
        "consistent",
    ]
    table = [[_compact(row[k]) for k in keys] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table)) if table else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in table:
        print("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
    certs = doc["certificates"]
    print(f"forms: {len(table)}  all_consistent: {certs['all_consistent']}")


# ---------------------------------------------------------------------------
# Input parsing helpers
# ---------------------------------------------------------------------------


def parse_vector(text: str, rank: int, what: str) -> Weight:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != rank or any(not p for p in parts):
        raise ParseError(f"{what}: expected {rank} comma-separated rationals, got {text!r}")
    try:
        return Weight.of(frac(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def parse_vector_list(text: str, rank: int, what: str) -> list[Weight]:
    chunks = [c for c in (p.strip() for p in text.split(";")) if c]
    return [parse_vector(c, rank, f"{what}[{i}]") for i, c in enumerate(chunks)]


def resolve_form(form: str, catalog_dir: Path) -> tuple[CatalogEntry, str]:
    """Resolve a form (file path, catalog entry by canonical id, or builder
    entry) and its provenance.

    The provenance is "catalog" when the involution matches the builder's
    construction of the entry's id.  Entries whose matrix differs from (or has
    no) builder counterpart are "user": they passed algebraic validation but
    were not derived here from a named real form.
    """
    candidate = Path(form)
    if candidate.suffix == ".json" or os.sep in form:
        if not candidate.is_file():
            raise UnknownForm(f"form document not found: {form}")
        try:
            document = json.loads(candidate.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read form document {form}: {exc}") from exc
        entry = cat.document_to_entry(document)
        try:
            built: CatalogEntry | None = cat.catalog_form(entry.id)
        except InputError:
            built = None
    else:
        try:
            built = cat.catalog_form(form)
        except InputError as exc:
            built, error = None, exc
        key = built.id if built is not None else form.strip()
        entry = next((e for e in cat.load_catalog(catalog_dir) if e.id == key), built)
        if entry is None:
            raise error
    matches = built is not None and built.theta_matrix == entry.theta_matrix
    return entry, "catalog" if matches else "user"


def load_form(
    form: str, catalog_dir: Path
) -> tuple[CatalogEntry, RootSystem, CartanInvolution, str]:
    entry, source = resolve_form(form, catalog_dir)
    rs = cat.entry_root_system(entry)
    return entry, rs, cat.entry_involution(entry, rs=rs), source


def _realizability_note(source: str) -> str | None:
    if source == "user":
        return (
            "involution supplied by user: algebraically valid, but not "
            "re-derived from a named real form"
        )
    return None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_catalog(args: argparse.Namespace) -> tuple[Report, int]:
    start = time.monotonic()
    directory = cat.resolve_catalog_dir(args.catalog)
    entries = cat.load_catalog(directory)
    if args.filter:
        entries = [e for e in entries if fnmatch.fnmatch(e.id, args.filter)]
    rows: list[dict[str, Any]] = []
    all_consistent = True
    for entry in entries:
        rs = cat.entry_root_system(entry)
        inv = cat.entry_involution(entry, rs=rs)
        rrs = restricted_roots(rs, inv)
        verdict = compact_cartan_verdict(
            rs, inv, oracle_compact_rank_equal=entry.expected_verdict
        )
        consistent = bool(verdict.consistent)
        all_consistent = all_consistent and consistent
        rows.append(
            {
                "id": entry.id,
                "cartan_type": entry.cartan_type,
                "restricted_type": classify_restricted_type(rrs),
                "restricted_root_count": len(rrs.restricted_roots),
                "verdict": verdict.compact_cartan,
                "oracle": entry.expected_verdict,
                "consistent": consistent,
            }
        )
    report = Report(
        command="catalog",
        inputs={
            "catalog_dir": str(directory),
            "filter": args.filter,
        },
        results=rows,
        certificates={"all_consistent": all_consistent},
        timing_ms=_elapsed_ms(start),
    )
    return report, EXIT_OK if all_consistent else EXIT_INCONSISTENT


def cmd_inspect(args: argparse.Namespace) -> tuple[Report, int]:
    start = time.monotonic()
    directory = cat.resolve_catalog_dir(args.catalog)
    entry, rs, inv, source = load_form(args.form, directory)
    rrs = restricted_roots(rs, inv)
    identity_ok = multiplicity_identity_holds(rrs)
    multiplicities = [
        {"root": root, "multiplicity": rrs.multiplicity[root]}
        for root in sorted(rrs.positive_restricted, key=lambda w: w.coords)
    ]
    results = {
        "id": entry.id,
        "cartan_type": entry.cartan_type,
        "rank": rs.rank,
        "root_count": len(rs.all_roots),
        "theta_matrix": [list(row) for row in inv.theta],
        "split_rank": inv.split_rank,
        "compact_torus_dimension": rs.rank - inv.split_rank,
        "compact_subgroup_rank": entry.compact_rank,
        "default_positive_system_compatible": inv.default_compatible,
        "chamber_word": inv.chamber,
        "restricted_type": classify_restricted_type(rrs),
        "restricted_root_count": len(rrs.restricted_roots),
        "vanishing_root_count": len(rrs.vanishing_roots),
        "positive_restricted": multiplicities,
        "rho_restricted": rrs.rho_restricted,
        "source": source,
        "realizability_note": _realizability_note(source),
    }
    report = Report(
        command="inspect",
        inputs={"form": args.form, "catalog_dir": str(directory)},
        results=results,
        certificates={"multiplicity_identity": identity_ok},
        timing_ms=_elapsed_ms(start),
    )
    return report, EXIT_OK if identity_ok else EXIT_INCONSISTENT


def cmd_criterion(args: argparse.Namespace) -> tuple[Report, int]:
    start = time.monotonic()
    directory = cat.resolve_catalog_dir(args.catalog)
    entry, rs, inv, source = load_form(args.form, directory)
    oracle = entry.expected_verdict if source == "catalog" else None
    verdict = compact_cartan_verdict(rs, inv, oracle_compact_rank_equal=oracle)
    witness_verified: bool | None = None
    if verdict.witness is not None:
        witness_verified = verdict.witness.matrix == inv.theta
    results = {
        "id": entry.id,
        "minus_sigma_in_weyl": verdict.minus_sigma_in_weyl,
        "witness": verdict.witness,
        "compact_cartan": verdict.compact_cartan,
        "oracle": verdict.oracle_compact_rank_equal,
        "consistent": verdict.consistent,
        "source": source,
        "realizability_note": _realizability_note(source),
    }
    certificates = {
        "witness_verified": witness_verified,
        "consistent_with_oracle": verdict.consistent,
    }
    failed = verdict.consistent is False or witness_verified is False
    report = Report(
        command="criterion",
        inputs={"form": args.form, "catalog_dir": str(directory)},
        results=results,
        certificates=certificates,
        timing_ms=_elapsed_ms(start),
    )
    return report, EXIT_INCONSISTENT if failed else EXIT_OK


def _strongreg_weight(
    args: argparse.Namespace, rs: RootSystem, datum_doc: dict[str, Any] | None
) -> Weight:
    if args.weight is not None and args.weight_fw is not None:
        raise ParseError("give at most one of --lambda and --lambda-fw")
    if args.weight is not None:
        return parse_vector(args.weight, rs.rank, "--lambda")
    if args.weight_fw is not None:
        fw = parse_vector(args.weight_fw, rs.rank, "--lambda-fw")
        return rs.weight_from_fw(fw)
    if datum_doc is not None:
        coords = datum_doc.get("lambda")
        if not isinstance(coords, list):
            raise ParseError("datum document: 'lambda' must be a list")
        return parse_vector(",".join(str(c) for c in coords), rs.rank, "datum lambda")
    return rs.rho


def _strongreg_exponents(
    args: argparse.Namespace,
    rs: RootSystem,
    inv: CartanInvolution,
    lam: Weight,
    datum_doc: dict[str, Any] | None,
) -> frozenset[Weight]:
    if args.exponents is not None:
        vecs = parse_vector_list(args.exponents, inv.split_rank, "--exponents")
        return frozenset(inv.from_split_coords(v) for v in vecs)
    if datum_doc is not None:
        raw = datum_doc.get("exponents")
        if not isinstance(raw, list):
            raise ParseError("datum document: 'exponents' must be a list of lists")
        out = []
        for i, item in enumerate(raw):
            if not isinstance(item, list):
                raise ParseError(f"datum document: exponents[{i}] must be a list")
            vec = parse_vector(
                ",".join(str(c) for c in item), inv.split_rank, f"datum exponents[{i}]"
            )
            out.append(inv.from_split_coords(vec))
        return frozenset(out)
    # Default: the restriction of the antidominant element of the orbit.
    dom, _ = dominant_representative(rs, lam)
    anti = apply(longest_element(rs), dom)
    return frozenset({inv.restrict(anti)})


def cmd_strongreg(args: argparse.Namespace) -> tuple[Report, int]:
    start = time.monotonic()
    directory = cat.resolve_catalog_dir(args.catalog)
    entry, rs, inv, source = load_form(args.form, directory)
    rrs = restricted_roots(rs, inv)
    chamber = dual_chamber(rrs)

    datum_doc: dict[str, Any] | None = None
    if args.datum is not None:
        path = Path(args.datum)
        if not path.is_file():
            raise ParseError(f"datum document not found: {args.datum}")
        try:
            datum_doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read datum document: {exc}") from exc
        if not isinstance(datum_doc, dict):
            raise ParseError("datum document must be a JSON object")

    lam = _strongreg_weight(args, rs, datum_doc)
    exponents = _strongreg_exponents(args, rs, inv, lam, datum_doc)
    label = args.label
    if label is None and datum_doc is not None:
        label = str(datum_doc.get("label", ""))
    datum = FormalDSDatum(weight=lam, exponents=exponents, label=label or "")

    cfg = TranslationConfig(
        integrality=args.integrality,
        max_k=args.max_k,
        max_mu_coeff=args.max_mu_coeff,
        worst_case_exponents=args.worst_case,
        cap=args.cap,
    )
    validate_datum(rs, inv, datum, cap=cfg.cap)
    if args.worst_case:
        datum = FormalDSDatum(
            weight=datum.weight,
            exponents=admissible_exponents(rs, inv, chamber, datum.weight, cfg.cap),
            label=datum.label,
        )

    result = strong_regularization(rs, inv, rrs, datum, cfg)

    # Independent re-check of the final certificates before reporting.
    stab = extended_stabilizer(rs, inv, result.final_weight)
    recheck_sr = stab.is_trivial
    recheck_cone = all(
        cone_position(chamber, e).neg_interior
        for e in sorted_exponents(result.certificates.scaled_exponents)
    )
    cert_ok = (
        result.certificates.strongly_regular
        and result.certificates.cone_condition
        and recheck_sr
        and recheck_cone
    )
    results = {
        "id": entry.id,
        "label": datum.label,
        "lambda": datum.weight,
        "exponents": datum.exponents,
        "k": result.k,
        "integrality": result.integrality,
        "scale_factor": result.k * result.integrality + 1,
        "dominant_base": result.dominant_base,
        "mus": list(result.mus),
        "final_weight": result.final_weight,
        "source": source,
        "realizability_note": _realizability_note(source),
    }
    certificates = {
        "strongly_regular": result.certificates.strongly_regular,
        "cone_condition": result.certificates.cone_condition,
        "base_margin": result.certificates.base_margin,
        "steps": list(result.certificates.steps),
        "recheck_strongly_regular": recheck_sr,
        "recheck_cone_condition": recheck_cone,
    }
    report = Report(
        command="strong-reg",
        inputs={
            "form": args.form,
            "catalog_dir": str(directory),
            "lambda": datum.weight,
            "exponents": datum.exponents,
            "label": datum.label,
            "integrality": cfg.integrality,
            "max_k": cfg.max_k,
            "max_mu_coeff": cfg.max_mu_coeff,
            "worst_case": cfg.worst_case_exponents,
            "cap": cfg.cap,
        },
        results=results,
        certificates=certificates,
        timing_ms=_elapsed_ms(start),
    )
    return report, EXIT_OK if cert_ok else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# Verify suites
# ---------------------------------------------------------------------------


def suite_exact_sequence(catalog_dir: Path, cap: int) -> dict[str, Any]:
    entries = cat.load_catalog(catalog_dir)
    checked: list[dict[str, Any]] = []
    passed = True
    for entry in entries:
        if weyl_order(entry.cartan_type) > min(cap, EXACT_SEQUENCE_MAX_WEYL):
            continue
        rs = cat.entry_root_system(entry)
        inv = cat.entry_involution(entry, rs=rs)
        report = verify_exact_sequence(rs, inv, cap=cap)
        passed = passed and report.passed
        checked.append(
            {
                "id": entry.id,
                "order_commutant": report.order_commutant,
                "order_vanishing": report.order_vanishing,
                "order_restricted": report.order_restricted,
                "passed": report.passed,
            }
        )
    return {"name": "exact-sequence", "passed": passed, "forms": checked}


def suite_splitting(cap: int) -> dict[str, Any]:
    total_checked = 0
    total_violations = 0
    cases = 0
    for ct in SPLITTING_TYPES:
        rs = build_root_system(ct)
        seeds = list(rs.fundamental_weights) + [rs.rho]
        for mu in seeds:
            for mu0 in sorted(weyl_orbit(rs, mu, cap=cap), key=lambda w: w.coords):
                for t in SPLITTING_SCALES:
                    lam = mu0.scale(t)
                    rep = verify_sum_splitting(rs, lam, mu0, cap=cap)
                    total_checked += rep.solutions_checked
                    total_violations += len(rep.violations)
                    cases += 1
    return {
        "name": "splitting",
        "passed": total_violations == 0,
        "cases": cases,
        "solutions_checked": total_checked,
        "violations": total_violations,
    }


def suite_pipeline(cap: int) -> dict[str, Any]:
    runs: list[dict[str, Any]] = []
    passed = True
    for form in PIPELINE_FORMS:
        entry = cat.catalog_form(form)
        rs = cat.entry_root_system(entry)
        inv = cat.entry_involution(entry, rs=rs)
        rrs = restricted_roots(rs, inv)
        chamber = dual_chamber(rrs)
        lam = rs.rho
        dom, _ = dominant_representative(rs, lam)
        anti = apply(longest_element(rs), dom)
        datum = FormalDSDatum(
            weight=lam, exponents=frozenset({inv.restrict(anti)}), label=form
        )
        cfg = TranslationConfig(cap=cap)
        result = strong_regularization(rs, inv, rrs, datum, cfg)
        stab = extended_stabilizer(rs, inv, result.final_weight)
        cone_ok = all(
            cone_position(chamber, e).neg_interior
            for e in sorted_exponents(result.certificates.scaled_exponents)
        )
        # Margin linearity along the translated line, checked exactly.
        linear = True
        base_datum = FormalDSDatum(
            weight=dom, exponents=frozenset({inv.restrict(anti)}), label=form
        )
        base_positions = [
            cone_position(chamber, e)
            for e in sorted_exponents(base_datum.exponents)
        ]
        for k in range(11):
            moved = translate_line(rs, inv, chamber, base_datum, k, cfg)
            factor = k * cfg.integrality + 1
            got = [
                cone_position(chamber, e)
                for e in sorted_exponents(moved.exponents)
            ]
            want = [p.margin.scale(Fraction(factor)) for p in base_positions]
            if [p.margin for p in got] != want:
                linear = False
        ok = (
            result.certificates.strongly_regular
            and result.certificates.cone_condition
            and stab.is_trivial
            and cone_ok
            and linear
        )
        passed = passed and ok
        runs.append(
            {
                "form": form,
                "k": result.k,
                "mus": len(result.mus),
                "strongly_regular": result.certificates.strongly_regular,
                "cone_condition": result.certificates.cone_condition,
                "margin_linearity": linear,
                "passed": ok,
            }
        )
    return {"name": "pipeline", "passed": passed, "runs": runs}


def cmd_verify(args: argparse.Namespace) -> tuple[Report, int]:
    start = time.monotonic()
    directory = cat.resolve_catalog_dir(args.catalog)
    names = (
        ["exact-sequence", "splitting", "pipeline"]
        if args.suite == "all"
        else [args.suite]
    )
    suites: list[dict[str, Any]] = []
    for name in names:
        if name == "exact-sequence":
            suites.append(suite_exact_sequence(directory, cap=args.cap))
        elif name == "splitting":
            suites.append(suite_splitting(cap=args.cap))
        else:
            suites.append(suite_pipeline(cap=args.cap))
    all_passed = all(s["passed"] for s in suites)
    report = Report(
        command="verify",
        inputs={"suite": args.suite, "catalog_dir": str(directory), "cap": args.cap},
        results=suites,
        certificates={"all_passed": all_passed},
        timing_ms=_elapsed_ms(start),
    )
    return report, EXIT_OK if all_passed else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _elapsed_ms(start: float) -> int:
    return int((time.monotonic() - start) * 1000)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help=f"catalog directory (default: ${cat.ENV_CATALOG_DIR} or packaged data)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON report line"
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_CAP,
        metavar="N",
        help="orbit/enumeration size cap (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartan-ds",
        description="Exact combinatorics of the compact-Cartan / strong-regularity "
        "criterion for real reductive Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="sweep all catalog forms")
    _add_common(p_cat)
    p_cat.add_argument(
        "--filter", metavar="GLOB", default=None, help="only ids matching this glob"
    )
    p_cat.set_defaults(func=cmd_catalog)

    p_ins = sub.add_parser("inspect", help="show root and restricted-root data")
    p_ins.add_argument("form", help="form id (e.g. su(2,1)) or JSON document path")
    _add_common(p_ins)
    p_ins.set_defaults(func=cmd_inspect)

    p_cri = sub.add_parser("criterion", help="compact-Cartan membership test")
    p_cri.add_argument("form", help="form id or JSON document path")
    _add_common(p_cri)
    p_cri.set_defaults(func=cmd_criterion)

    p_str = sub.add_parser("strong-reg", help="run the strong-regularization pipeline")
    p_str.add_argument("form", help="form id or JSON document path")
    _add_common(p_str)
    p_str.add_argument(
        "--lambda",
        dest="weight",
        metavar="COORDS",
        default=None,
        help="infinitesimal character in simple-root coordinates, e.g. '1,1'",
    )
    p_str.add_argument(
        "--lambda-fw",
        dest="weight_fw",
        metavar="COORDS",
        default=None,
        help="same weight in fundamental-weight coordinates",
    )
    p_str.add_argument(
        "--exponents",
        metavar="VECS",
        default=None,
        help="formal exponents in split coordinates, ';'-separated, e.g. '-1;-1/2'",
    )
    p_str.add_argument(
        "--datum",
        metavar="PATH",
        default=None,
        help="JSON document {lambda, exponents, label} (simple-root / split coords)",
    )
    p_str.add_argument("--label", default=None, help="label for the datum")
    p_str.add_argument(
        "--N",
        dest="integrality",
        type=int,
        default=1,
        metavar="N",
        help="integrality of the translation lattice (scale factors kN+1)",
    )
    p_str.add_argument(
        "--max-k", type=int, default=40, metavar="K", help="largest line parameter"
    )
    p_str.add_argument(
        "--max-mu-coeff",
        type=int,
        default=3,
        metavar="C",
        help="largest fundamental-weight coefficient in shift candidates",
    )
    p_str.add_argument(
        "--worst-case",
        action="store_true",
        help="use every admissible restriction as an exponent, not just the given set",
    )
    p_str.set_defaults(func=cmd_strongreg)

    p_ver = sub.add_parser("verify", help="run built-in consistency suites")
    p_ver.add_argument(
        "suite",
        choices=["exact-sequence", "splitting", "pipeline", "all"],
        help="which suite to run",
    )
    _add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable[[argparse.Namespace], tuple[Report, int]] = args.func
    try:
        if args.cap < 1:
            raise BadParameters(f"--cap must be a positive integer, got {args.cap}")
        report, code = func(args)
    except CartanDSError as exc:
        code = _error_exit_code(exc)
        _emit_error(exc, code, as_json=getattr(args, "json", False))
        return code
    emit(report, as_json=args.json)
    return code


def _error_exit_code(exc: CartanDSError) -> int:
    if isinstance(exc, ConsistencyError):
        return EXIT_INCONSISTENT
    if isinstance(exc, ResourceError):
        return EXIT_RESOURCE
    if isinstance(exc, InputError):
        return EXIT_INPUT
    return EXIT_INCONSISTENT


def _emit_error(exc: CartanDSError, code: int, as_json: bool) -> None:
    if as_json:
        payload: dict[str, Any] = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": code,
        }
        best = getattr(exc, "best", None)
        if best is not None:
            payload["best"] = encode_value(best)
        print(json.dumps(payload, separators=(",", ": ")))
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
