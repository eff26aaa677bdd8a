"""Catalog of named real forms with frozen involution matrices.

Each entry pins down a classical or split/compact real form by its ambient
Cartan type, the involution matrix in simple-root coordinates, the rank of a
maximal compact subgroup, and the expected answer of the compact-Cartan test
(which for these forms is equivalent to that rank equalling the ambient rank).

Involution matrices are built from the standard orthonormal-coordinate models
of the classical root systems: a sign pattern for the indefinite orthogonal
forms, a product of disjoint transpositions for the special unitaries, and
plus or minus the identity for compact and split forms.

On disk a catalog is a directory of one JSON document per entry; matrix
entries are serialized as rational strings so files round-trip exactly.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import linalg
from .errors import BadParameters, ParseError, UnknownForm
from .realform import CartanInvolution, validate_involution
from .rootdata import IntMat, RootSystem, build_root_system, parse_cartan_type

ENV_CATALOG_DIR = "CARTAN_DS_CATALOG"

_SPLIT_COMPACT_RANK = {
    "B": lambda n: n,
    "C": lambda n: n,
    "G": lambda n: 2,
    "F": lambda n: 4,
}


@dataclass(frozen=True)
class CatalogEntry:
    """One named real form: involution matrix plus reference data."""

    id: str
    cartan_type: str
    theta_matrix: IntMat
    compact_rank: int
    expected_verdict: bool

    @property
    def rank(self) -> int:
        return len(self.theta_matrix)


def _simple_roots_in_ambient(family: str, rank: int) -> list[list[Fraction]]:
    """Simple roots in orthonormal ambient coordinates (classical types)."""
    dim = rank + 1 if family == "A" else rank
    rows = []
    for i in range(rank):
        v = [Fraction(0)] * dim
        if family == "A" or i < rank - 1:
            v[i] = Fraction(1)
            v[i + 1] = Fraction(-1)
        elif family == "B":
            v[rank - 1] = Fraction(1)
        elif family == "C":
            v[rank - 1] = Fraction(2)
        elif family == "D":
            v[rank - 2] = Fraction(1)
            v[rank - 1] = Fraction(1)
        else:
            raise BadParameters(f"no ambient model for family {family}")
        rows.append(v)
    return rows


def _theta_from_ambient_map(
    family: str, rank: int, ambient_map: list[list[Fraction]]
) -> IntMat:
    """Convert an ambient-coordinate involution to simple-root coordinates."""
    simples = _simple_roots_in_ambient(family, rank)
    dim = len(simples[0])
    basis_cols = tuple(
        tuple(simples[c][r] for c in range(rank)) for r in range(dim)
    )
    columns = []
    for i in range(rank):
        image = tuple(
            sum(ambient_map[r][k] * simples[i][k] for k in range(dim))
            for r in range(dim)
        )
        sol = linalg.solve(basis_cols, image)
        if sol is None:
            raise BadParameters("involution image leaves the root space")
        columns.append(sol)
    rows = tuple(
        tuple(columns[c][r] for c in range(rank)) for r in range(rank)
    )
    return linalg.as_int_matrix(rows)


def _diag(entries: list[int]) -> list[list[Fraction]]:
    n = len(entries)
    return [
        [Fraction(entries[i] if i == j else 0) for j in range(n)] for i in range(n)
    ]


def _transposition_product(n: int, swaps: int) -> list[list[Fraction]]:
    """Permutation matrix exchanging coordinate i with n+1-i for i <= swaps."""
    perm = list(range(n))
    for i in range(swaps):
        perm[i], perm[n - 1 - i] = perm[n - 1 - i], perm[i]
    return [
        [Fraction(1 if perm[j] == i else 0) for j in range(n)] for i in range(n)
    ]


_FORM_RE = re.compile(
    r"^\s*(sl|su|so|sp|compact|split)\s*\(\s*([^)]*?)\s*\)\s*$"
)


def catalog_form(form_id: str) -> CatalogEntry:
    """Build the entry for a named form id such as "su(2,1)" or "split(F4)"."""
    m = _FORM_RE.match(form_id)
    if not m:
        raise UnknownForm(f"unrecognized form id: {form_id!r}")
    head, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    if head == "sl":
        return _entry_sl(form_id, args)
    if head == "su":
        return _entry_su(form_id, args)
    if head == "so":
        return _entry_so(form_id, args)
    if head == "sp":
        return _entry_sp(form_id, args)
    if head == "compact":
        return _entry_constant(form_id, args, sign=+1)
    return _entry_constant(form_id, args, sign=-1)


def _int_args(args: list[str], count: int, form_id: str) -> list[int]:
    if len(args) != count or not all(re.fullmatch(r"[0-9]+", a) for a in args):
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    return [int(a) for a in args]


def _entry_sl(form_id: str, args: list[str]) -> CatalogEntry:
    if len(args) != 2 or args[1] != "R":
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    (n,) = _int_args(args[:1], 1, form_id)
    if n < 2:
        raise BadParameters("sl(n,R) requires n >= 2")
    rank = n - 1
    theta = tuple(
        tuple(-1 if i == j else 0 for j in range(rank)) for i in range(rank)
    )
    return CatalogEntry(
        id=f"sl({n},R)",
        cartan_type=f"A{rank}",
        theta_matrix=theta,
        compact_rank=n // 2,
        expected_verdict=(n // 2 == rank),
    )


def _entry_su(form_id: str, args: list[str]) -> CatalogEntry:
    p, q = _int_args(args, 2, form_id)
    if not (p >= q >= 1):
        raise BadParameters("su(p,q) requires p >= q >= 1")
    n = p + q
    rank = n - 1
    theta = _theta_from_ambient_map("A", rank, _transposition_product(n, q))
    return CatalogEntry(
        id=f"su({p},{q})",
        cartan_type=f"A{rank}",
        theta_matrix=theta,
        compact_rank=rank,
        expected_verdict=True,
    )


def _entry_so(form_id: str, args: list[str]) -> CatalogEntry:
    p, q = _int_args(args, 2, form_id)
    if not (p >= q >= 1) or p + q < 3:
        raise BadParameters("so(p,q) requires p >= q >= 1 and p + q >= 3")
    total = p + q
    m = total // 2
    family = "B" if total % 2 else "D"
    if family == "D" and m < 2:
        raise BadParameters("so(p,q) needs rank >= 2 in the even case")
    theta = _theta_from_ambient_map(
        family, m, _diag([-1] * q + [1] * (m - q))
    )
    compact_rank = p // 2 + q // 2
    return CatalogEntry(
        id=f"so({p},{q})",
        cartan_type=f"{family}{m}",
        theta_matrix=theta,
        compact_rank=compact_rank,
        expected_verdict=(compact_rank == m),
    )


def _entry_sp(form_id: str, args: list[str]) -> CatalogEntry:
    if len(args) != 2 or args[1] != "R":
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    (n,) = _int_args(args[:1], 1, form_id)
    if n < 1:
        raise BadParameters("sp(n,R) requires n >= 1")
    theta = tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
    return CatalogEntry(
        id=f"sp({n},R)",
        cartan_type=f"C{n}",
        theta_matrix=theta,
        compact_rank=n,
        expected_verdict=True,
    )


def _split_compact_rank(family: str, rank: int) -> int:
    if family == "A":
        return (rank + 1) // 2
    if family == "D":
        return 2 * (rank // 2)
    if family == "E":
        return {6: 4, 7: 7, 8: 8}[rank]
    return _SPLIT_COMPACT_RANK[family](rank)


def _entry_constant(form_id: str, args: list[str], sign: int) -> CatalogEntry:
    if len(args) != 1:
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    factors = parse_cartan_type(args[0])
    if len(factors) != 1:
        raise BadParameters("compact/split catalog forms take a single factor")
    family, rank = factors[0]
    theta = tuple(
        tuple(sign if i == j else 0 for j in range(rank)) for i in range(rank)
    )
    head = "compact" if sign > 0 else "split"
    compact_rank = rank if sign > 0 else _split_compact_rank(family, rank)
    return CatalogEntry(
        id=f"{head}({family}{rank})",
        cartan_type=f"{family}{rank}",
        theta_matrix=theta,
        compact_rank=compact_rank,
        expected_verdict=(compact_rank == rank),
    )


def default_catalog_ids() -> list[str]:
    """The ids packaged in the default catalog."""
    ids: list[str] = []
    ids += [f"sl({n},R)" for n in range(2, 6)]
    ids += [
        f"su({p},{q})"
        for p in range(1, 5)
        for q in range(1, p + 1)
        if p + q <= 5
    ]
    ids += [
        f"so({p},{q})"
        for p in range(1, 8)
        for q in range(1, p + 1)
        if 3 <= p + q <= 8
    ]
    ids += [f"sp({n},R)" for n in range(1, 5)]
    small = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
    ids += [f"compact({t})" for t in small]
    ids += [f"split({t})" for t in small + ["E6", "E7", "E8"]]
    return ids


def build_default_catalog() -> list[CatalogEntry]:
    return [catalog_form(i) for i in default_catalog_ids()]


def entry_root_system(entry: CatalogEntry) -> RootSystem:
    return build_root_system(entry.cartan_type)


def entry_involution(
    entry: CatalogEntry,
    rs: RootSystem | None = None,
) -> CartanInvolution:
    """Validate and return the involution of a catalog entry."""
    if rs is None:
        rs = entry_root_system(entry)
    return validate_involution(rs, entry.theta_matrix)


# ---------------------------------------------------------------------------
# serialization


def entry_to_document(entry: CatalogEntry) -> dict:
    return {
        "id": entry.id,
        "cartan_type": entry.cartan_type,
        "theta_matrix": [
            [linalg.format_rational(x) for x in row] for row in entry.theta_matrix
        ],
        "compact_rank": entry.compact_rank,
        "expected_verdict": entry.expected_verdict,
    }


def _field(doc: dict, key: str, kind: type):
    """doc[key], whose type must be exactly kind (so a JSON true is no int)."""
    if type(doc[key]) is not kind:
        raise TypeError(f"{key} must be a JSON {kind.__name__}, got {doc[key]!r}")
    return doc[key]


def document_to_entry(doc: dict) -> CatalogEntry:
    try:
        rows = doc["theta_matrix"]
        # else a string row would be iterated, and a JSON true read as 1
        if not all(
            type(row) is list and all(type(x) in (int, str) for x in row) for row in rows
        ):
            raise TypeError("theta_matrix must be a list of lists of JSON integers or strings")
        rows = tuple(tuple(linalg.frac(x) for x in row) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("theta_matrix must be square")
        return CatalogEntry(
            id=_field(doc, "id", str),
            cartan_type=_field(doc, "cartan_type", str),
            theta_matrix=linalg.as_int_matrix(rows),
            compact_rank=_field(doc, "compact_rank", int),
            expected_verdict=_field(doc, "expected_verdict", bool),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed catalog document: {exc}") from exc


def entry_filename(form_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", form_id).strip("_") + ".json"


def write_catalog(directory: str | os.PathLike, entries) -> list[Path]:
    """Write one JSON document per entry; returns the paths written."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in entries:
        path = out / entry_filename(entry.id)
        path.write_text(
            json.dumps(entry_to_document(entry), indent=2, sort_keys=False) + "\n"
        )
        paths.append(path)
    return paths


def load_catalog(directory: str | os.PathLike) -> list[CatalogEntry]:
    """Read every *.json in a catalog directory, sorted by entry id."""
    root = Path(directory)
    if not root.is_dir():
        raise ParseError(f"catalog directory not found: {root}")
    entries = []
    for path in sorted(root.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
        entries.append(document_to_entry(doc))
    entries.sort(key=lambda e: e.id)
    return entries


def packaged_catalog_dir() -> Path:
    return Path(__file__).resolve().parent / "catalog_data"


def resolve_catalog_dir(explicit: str | None = None) -> Path:
    """Catalog directory precedence: CLI flag, environment variable, packaged."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CATALOG_DIR)
    if env:
        return Path(env)
    return packaged_catalog_dir()
