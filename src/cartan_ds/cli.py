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
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Any, Callable, Sequence

from . import catalog as cat
from .catalog import CatalogEntry
from .criterion import compact_cartan_verdict, extended_stabilizer
from .errors import (
    BadParameters,
    CartanDSError,
    InputError,
    ParseError,
    UnknownForm,
)
from .exponents import (
    FormalDSDatum,
    SignedSqrt,
    antidominant_restriction,
    cone_position,
    sorted_exponents,
)
from .linalg import frac
from .realform import (
    CartanInvolution,
    RestrictedRootSystem,
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
    _weight,
    build_root_system,
    parse_cartan_type,
    weyl_order,
    weyl_orbit,
    word_element,
)
from .translation import (
    TranslationConfig,
    TranslationResult,
    strong_regularization,
    translate_line,
    verify_sum_splitting,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2

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


def encode_value(value: Any) -> Any:
    """The ``default`` hook of ``json.dumps``: a JSON-writable stand-in for a
    library value that ``json`` cannot write, which ``json`` then writes.

    Rationals become ``"p/q"`` strings, weights become coordinate lists,
    Weyl elements become reduced words, exact margins become
    ``{"sign", "square"}`` pairs, and sets become sorted lists.  Field order
    is the declaration order of the source dataclass, so serialized output is
    stable.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Weight):
        # as str(Fraction): "p/q" reduced by one gcd per coordinate, "p" when integral
        d = value.den
        return [str(x // g) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in value.nums]
    if isinstance(value, WeylElement):
        return {"word": list(value.word)}
    if isinstance(value, SignedSqrt):
        return {"sign": value.sign, "square": str(value.square)}
    if isinstance(value, (frozenset, set)):
        if all(isinstance(x, Weight) for x in value):
            return sorted_exponents(value)
        return sorted(value, key=repr)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        return {f.name: getattr(value, f.name) for f in fields if not f.name.startswith("_")}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dumps(value: Any) -> str:
    return json.dumps(value, default=encode_value, separators=(",", ": "))


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


def emit(text: str, as_json: bool) -> None:
    """Print a report envelope, encoded as JSON text, as it is or rendered."""
    if as_json:
        print(text)
        return
    doc = json.loads(text)
    if doc["command"] == "catalog":
        _print_catalog_table(doc)
        return
    print(f"[{doc['command']}]")
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


def parse_vector(values: Sequence[object], rank: int, what: str) -> Weight:
    """A weight from rank coordinates, each an int or a string holding one
    rational: command-line text split on ",", or a datum document's list (where
    a JSON true, a float or "1,1" is no coordinate)."""
    if len(values) != rank:
        raise ParseError(f"{what}: expected {rank} rationals, got {values!r}")
    if any(type(v) not in (int, str) for v in values):
        raise ParseError(f"{what}: coordinates must be integers or strings, got {values!r}")
    try:
        return Weight.of(frac(v) for v in values)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def load_form(
    form: str, catalog_dir: Path
) -> tuple[CatalogEntry, RootSystem, CartanInvolution, str]:
    """Resolve a form (file path, catalog entry by canonical id, or builder
    entry) to its entry, root system, validated involution and provenance.

    The provenance is "catalog" when the Cartan type and the involution match
    the builder's construction of the entry's id.  Entries whose type or
    matrix differs from (or has no) builder counterpart are "user": they
    passed algebraic validation but were not derived here from a named real
    form.
    """
    candidate = Path(form)
    if candidate.suffix == ".json" or os.sep in form:
        try:
            found = candidate.is_file()
        except OSError:  # a path the file system refuses, such as an over-long one
            found = False
        if not found:
            raise UnknownForm(f"form document not found: {form}")
        entry = cat.document_to_entry(cat.read_json(candidate))
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
        entry = cat.load_entry(catalog_dir, key) or built
        if entry is None:
            raise error
    rs = cat.entry_root_system(entry)
    matches = (
        built is not None
        and parse_cartan_type(built.cartan_type) == rs.cartan_type
        and built.theta_matrix == entry.theta_matrix
    )
    return entry, rs, cat.entry_involution(entry, rs=rs), "catalog" if matches else "user"


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


#: What a subcommand returns to ``main``: inputs, results, certificates and
#: whether every certificate passed.
Outcome = tuple[dict[str, Any], Any, dict[str, Any], bool]


def cmd_catalog(args: argparse.Namespace, directory: Path) -> Outcome:
    if args.filter == "":
        raise ParseError("--filter needs a glob, got ''")
    entries = cat.load_catalog(directory)
    if args.filter is not None:
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
                "restricted_root_count": len(rrs.doubled_multiplicity),
                "verdict": verdict.compact_cartan,
                "oracle": entry.expected_verdict,
                "consistent": consistent,
            }
        )
    inputs = {"catalog_dir": str(directory), "filter": args.filter}
    return inputs, rows, {"all_consistent": all_consistent}, all_consistent


def cmd_inspect(args: argparse.Namespace, directory: Path) -> Outcome:
    entry, rs, inv, source = load_form(args.form, directory)
    rrs = restricted_roots(rs, inv)
    identity_ok = multiplicity_identity_holds(rrs)
    mult = rrs.doubled_multiplicity
    multiplicities = [
        {"root": _weight(d, 2), "multiplicity": mult[d]}
        for d in sorted(rrs.doubled_positive)
    ]
    results = {
        "id": entry.id,
        "cartan_type": entry.cartan_type,
        "rank": rs.rank,
        "root_count": len(rs.roots),
        "theta_matrix": [list(row) for row in inv.theta],
        "split_rank": inv.split_rank,
        "compact_torus_dimension": rs.rank - inv.split_rank,
        "compact_subgroup_rank": entry.compact_rank,
        "default_positive_system_compatible": inv.default_compatible,
        "chamber_word": inv.chamber,
        "restricted_type": classify_restricted_type(rrs),
        "restricted_root_count": len(rrs.doubled_multiplicity),
        "vanishing_root_count": len(rrs.vanishing_indices),
        "positive_restricted": multiplicities,
        "rho_restricted": rrs.rho_restricted,
        "source": source,
        "realizability_note": _realizability_note(source),
    }
    inputs = {"form": args.form, "catalog_dir": str(directory)}
    return inputs, results, {"multiplicity_identity": identity_ok}, identity_ok


def cmd_criterion(args: argparse.Namespace, directory: Path) -> Outcome:
    entry, rs, inv, source = load_form(args.form, directory)
    oracle = entry.expected_verdict if source == "catalog" else None
    verdict = compact_cartan_verdict(rs, inv, oracle_compact_rank_equal=oracle)
    witness_verified: bool | None = None
    if verdict.witness is not None:
        # the witness's matrix is theta by construction; its word is the certificate
        witness_verified = word_element(rs, verdict.witness.word).matrix == inv.theta
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
    ok = verdict.consistent is not False and witness_verified is not False
    return {"form": args.form, "catalog_dir": str(directory)}, results, certificates, ok


def _strongreg_weight(
    args: argparse.Namespace, rs: RootSystem, datum_doc: dict[str, Any] | None
) -> Weight:
    if args.weight is not None and args.weight_fw is not None:
        raise ParseError("give at most one of --lambda and --lambda-fw")
    if args.weight is not None:
        return parse_vector(args.weight.split(","), rs.rank, "--lambda")
    if args.weight_fw is not None:
        fw = parse_vector(args.weight_fw.split(","), rs.rank, "--lambda-fw")
        return rs.weight_from_fw(fw)
    if datum_doc is not None:
        coords = datum_doc.get("lambda")
        if not isinstance(coords, list):
            raise ParseError("datum document: 'lambda' must be a list")
        return parse_vector(coords, rs.rank, "datum lambda")
    return rs.rho


def _strongreg_exponents(
    args: argparse.Namespace,
    inv: CartanInvolution,
    datum_doc: dict[str, Any] | None,
) -> frozenset[Weight] | None:
    """The exponents given by --exponents or the datum document, or None."""
    if args.exponents is not None:
        chunks = [c for c in (p.strip() for p in args.exponents.split(";")) if c]
        vectors = [(c.split(","), f"--exponents[{i}]") for i, c in enumerate(chunks)]
    elif datum_doc is not None:
        raw = datum_doc.get("exponents")
        if not isinstance(raw, list) or not all(isinstance(item, list) for item in raw):
            raise ParseError("datum document: 'exponents' must be a list of lists")
        vectors = [(item, f"datum exponents[{i}]") for i, item in enumerate(raw)]
    else:
        return None
    return frozenset(
        inv.from_split_coords(parse_vector(values, inv.split_rank, what))
        for values, what in vectors
    )


def _recheck(
    rs: RootSystem,
    inv: CartanInvolution,
    rrs: RestrictedRootSystem,
    result: TranslationResult,
) -> tuple[bool, bool]:
    """Independent re-check of a result: is the final weight strongly regular,
    and do the scaled exponents lie in the open negative cone?"""
    strongly_regular = extended_stabilizer(rs, inv, result.final_weight).is_trivial
    cone_ok = all(
        cone_position(rrs, e).neg_interior
        for e in sorted_exponents(result.certificates.scaled_exponents)
    )
    return strongly_regular, cone_ok


def cmd_strongreg(args: argparse.Namespace, directory: Path) -> Outcome:
    entry, rs, inv, source = load_form(args.form, directory)
    rrs = restricted_roots(rs, inv)

    datum_doc: dict[str, Any] | None = None
    if args.datum is not None:
        datum_doc = cat.read_json(Path(args.datum))
        if not isinstance(datum_doc, dict):
            raise ParseError("datum document must be a JSON object")

    lam = _strongreg_weight(args, rs, datum_doc)
    exponents = _strongreg_exponents(args, inv, datum_doc)
    label = args.label
    if label is None and datum_doc is not None:
        label = datum_doc.get("label", "")
        if type(label) is not str:
            raise ParseError(f"datum document: 'label' must be a string, got {label!r}")

    cfg = TranslationConfig(
        integrality=args.integrality,
        max_k=args.max_k,
        max_mu_coeff=args.max_mu_coeff,
        worst_case_exponents=args.worst_case,
        cap=args.cap,
    )
    if exponents is None and not args.worst_case:
        exponents = frozenset({antidominant_restriction(rs, inv, lam)})
    datum = FormalDSDatum(weight=lam, exponents=exponents or frozenset(), label=label or "")

    result = strong_regularization(rs, inv, rrs, datum, cfg)

    recheck_sr, recheck_cone = _recheck(rs, inv, rrs, result)
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
        "exponents": result.certified_exponents,
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
    inputs = {
        "form": args.form,
        "catalog_dir": str(directory),
        "lambda": datum.weight,
        "exponents": result.certified_exponents,
        "label": datum.label,
        "integrality": cfg.integrality,
        "max_k": cfg.max_k,
        "max_mu_coeff": cfg.max_mu_coeff,
        "worst_case": cfg.worst_case_exponents,
        "cap": cfg.cap,
    }
    return inputs, results, certificates, cert_ok


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
            for mu0 in sorted_exponents(weyl_orbit(rs, mu, cap=cap)):
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
        datum = FormalDSDatum(
            weight=rs.rho,
            exponents=frozenset({antidominant_restriction(rs, inv, rs.rho)}),
            label=form,
        )
        cfg = TranslationConfig(cap=cap)
        result = strong_regularization(rs, inv, rrs, datum, cfg)
        strongly_regular, cone_ok = _recheck(rs, inv, rrs, result)
        # Margin linearity along the translated line (rho is dominant), exactly.
        linear = True
        base_positions = [cone_position(rrs, e) for e in sorted_exponents(datum)]
        for k in range(11):
            moved = translate_line(rs, inv, rrs, datum, k, cfg)
            factor = k * cfg.integrality + 1
            got = [
                cone_position(rrs, e)
                for e in sorted_exponents(moved.exponents)
            ]
            want = [p.margin.scale(Fraction(factor)) for p in base_positions]
            if [p.margin for p in got] != want:
                linear = False
        ok = (
            result.certificates.strongly_regular
            and result.certificates.cone_condition
            and strongly_regular
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


def cmd_verify(args: argparse.Namespace, directory: Path) -> Outcome:
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
    inputs = {"suite": args.suite, "catalog_dir": str(directory), "cap": args.cap}
    return inputs, suites, {"all_passed": all_passed}, all_passed


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


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


class _UsageError(Exception):
    """A usage error found by argparse: the (sub)command parser and the message."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, raising its usage errors for ``main`` to report;
    subcommand parsers are built with the same class."""

    def error(self, message: str):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


# one parser serves every request of the process
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one request and print its report envelope; ``timing_ms`` covers
    the subcommand and the encoding of its outcome.  With --json, a usage
    error is a ParseError envelope; otherwise argparse reports it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        parser, message = exc.args
        if "--json" not in argv:
            argparse.ArgumentParser.error(parser, message)
        _emit_error(ParseError(f"{parser.prog}: {message}"), as_json=True)
        return EXIT_INPUT
    func: Callable[[argparse.Namespace, Path], Outcome] = args.func
    start = time.monotonic()
    try:
        if args.cap < 1:
            raise BadParameters(f"--cap must be a positive integer, got {args.cap}")
        directory = cat.resolve_catalog_dir(args.catalog)
        inputs, results, certificates, ok = func(args, directory)
    except CartanDSError as exc:
        _emit_error(exc, as_json=getattr(args, "json", False))
        return exc.exit_code
    text = _dumps(
        {"command": args.command, "inputs": inputs, "results": results, "certificates": certificates}
    )
    # timing_ms takes the place of the closing brace, so it covers the encoding
    timing_ms = int((time.monotonic() - start) * 1000)
    emit(f'{text[:-1]},"timing_ms": {timing_ms}}}', as_json=args.json)
    return EXIT_OK if ok else EXIT_INCONSISTENT


def _emit_error(exc: CartanDSError, as_json: bool) -> None:
    if as_json:
        payload: dict[str, Any] = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        best = getattr(exc, "best", None)
        if best is not None:
            payload["best"] = best
        print(_dumps(payload))
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
