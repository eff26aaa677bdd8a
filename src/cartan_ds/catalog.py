"""Catalog of named real forms with frozen involution matrices.

Each entry pins down a classical or split/compact real form by its ambient
Cartan type, the involution matrix in simple-root coordinates, the rank of a
maximal compact subgroup, and the expected answer of the compact-Cartan test
(which for these forms is equivalent to that rank equalling the ambient rank).

Involution matrices are built from the standard orthonormal-coordinate models
of the classical root systems: a sign pattern for the indefinite orthogonal
forms, a product of disjoint transpositions for the special unitaries, and
plus or minus the identity for compact and split forms.  The models are int
matrices, taken to simple-root coordinates by one int elimination.

On disk a catalog is a directory of one JSON document per entry; matrix
entries are written as integer strings and read back as JSON integers or
integer strings, and ids are unique within a directory.  A file name is
canonical when it is ``entry_filename(id)`` of a packaged id, and such a file
must hold that id; so a named lookup reads the form's canonical file and every
file whose name is not canonical, not the whole directory.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

from . import linalg
from .errors import BadParameters, ParseError, UnknownForm
from .realform import CartanInvolution, validate_involution
from .rootdata import IntMat, RootSystem, _int_mat_vec, build_root_system, parse_cartan_type

ENV_CATALOG_DIR = "CARTAN_DS_CATALOG"
_PACKAGED_CATALOG_DIR = Path(__file__).resolve().parent / "catalog_data"

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


def _simple_roots_in_ambient(family: str, rank: int) -> list[list[int]]:
    """Simple roots in orthonormal ambient coordinates (classical types)."""
    dim = rank + 1 if family == "A" else rank
    rows = []
    for i in range(rank):
        v = [0] * dim
        if family == "A" or i < rank - 1:
            v[i] = 1
            v[i + 1] = -1
        elif family == "B":
            v[rank - 1] = 1
        elif family == "C":
            v[rank - 1] = 2
        elif family == "D":
            v[rank - 2] = 1
            v[rank - 1] = 1
        else:
            raise BadParameters(f"no ambient model for family {family}")
        rows.append(v)
    return rows


def _theta_from_ambient_map(
    family: str, rank: int, ambient_map: list[list[int]]
) -> IntMat:
    """Convert an ambient-coordinate involution to simple-root coordinates."""
    simples = _simple_roots_in_ambient(family, rank)
    images = [_int_mat_vec(ambient_map, s) for s in simples]
    # columns [simple roots | images]: the simple roots are independent, so
    # the top rank rows reduce to d [1 | theta] and the others to [0 | 0]
    rows = [list(row) for row in zip(*simples, *images)]
    _, d = linalg.row_reduce(rows, rank)
    if any(any(row[rank:]) for row in rows[rank:]):
        raise BadParameters("involution image leaves the root space")
    if any(x % d for row in rows[:rank] for x in row[rank:]):
        raise BadParameters("involution image leaves the root lattice")
    return tuple(tuple(x // d for x in row[rank:]) for row in rows[:rank])


def _diag(entries: list[int]) -> list[list[int]]:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _transposition_product(n: int, swaps: int) -> list[list[int]]:
    """Permutation matrix exchanging coordinate i with n+1-i for i <= swaps."""
    perm = list(range(n))
    for i in range(swaps):
        perm[i], perm[n - 1 - i] = perm[n - 1 - i], perm[i]
    return [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]


_FORM_RE = re.compile(
    r"^\s*(sl|su|so|sp|compact|split)\s*\(\s*([^)]*?)\s*\)\s*$"
)


def catalog_form(form_id: str) -> CatalogEntry:
    """Build the entry for a named form id such as "su(2,1)" or "split(F4)"."""
    m = _FORM_RE.match(form_id)
    if not m:
        raise UnknownForm(f"unrecognized form id: {form_id!r}")
    head, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    if head in ("sl", "sp"):
        return _entry_split_classical(form_id, args, head)
    if head == "su":
        return _entry_su(form_id, args)
    if head == "so":
        return _entry_so(form_id, args)
    if head == "compact":
        return _entry_constant(form_id, args, sign=+1)
    return _entry_constant(form_id, args, sign=-1)


def _int_args(args: list[str], count: int, form_id: str) -> list[int]:
    if len(args) != count or not all(re.fullmatch(r"[0-9]+", a) for a in args):
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    return [int(a) for a in args]


def _entry_split_classical(form_id: str, args: list[str], head: str) -> CatalogEntry:
    """sl(n,R) and sp(n,R): the split forms, theta = -1, on A_{n-1} and C_n."""
    if len(args) != 2 or args[1] != "R":
        raise UnknownForm(f"bad parameters in form id: {form_id!r}")
    (n,) = _int_args(args[:1], 1, form_id)
    least = 2 if head == "sl" else 1
    if n < least:
        raise BadParameters(f"{head}(n,R) requires n >= {least}")
    cartan_type = f"A{n - 1}" if head == "sl" else f"C{n}"
    return replace(_entry_constant(form_id, [cartan_type], sign=-1), id=f"{head}({n},R)")


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


def _split_compact_rank(family: str, rank: int) -> int:
    """The full rank, except on A_n, odd D_n and E6, where -1 is not in W."""
    if family == "A":
        return (rank + 1) // 2
    if family == "D":
        return 2 * (rank // 2)
    return 4 if (family, rank) == ("E", 6) else rank


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


_INT_TEXT = re.compile(r"-?[0-9]+")


def _matrix_entry(x: object) -> int:
    """An int, or a string "-?[0-9]+" as entry_to_document writes it (a JSON
    true is no int)."""
    if type(x) is int:
        return x
    if type(x) is str and _INT_TEXT.fullmatch(x):
        return int(x)
    raise ValueError(f"theta_matrix entry must be a JSON integer or integer string, got {x!r}")


def document_to_entry(doc: dict) -> CatalogEntry:
    try:
        rows = doc["theta_matrix"]
        # else a string row would be iterated
        if not all(type(row) is list for row in rows):
            raise TypeError("theta_matrix must be a list of lists")
        theta = tuple(tuple(_matrix_entry(x) for x in row) for row in rows)
        if any(len(row) != len(theta) for row in theta):
            raise ValueError("theta_matrix must be square")
        compact_rank = _field(doc, "compact_rank", int)
        if not 0 <= compact_rank <= len(theta):
            raise ValueError(f"compact_rank must lie in [0, {len(theta)}], got {compact_rank}")
        return CatalogEntry(
            id=_field(doc, "id", str),
            cartan_type=_field(doc, "cartan_type", str),
            theta_matrix=theta,
            compact_rank=compact_rank,
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


def read_json(path: Path) -> object:
    """The JSON document at path; a file that cannot be read, is not UTF-8 or
    is not JSON is a ParseError naming the path."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON document {path}: {exc}") from exc


#: packaged id -> its canonical file name, and canonical file name -> the id it must hold
_CANONICAL_NAMES = {i: entry_filename(i) for i in default_catalog_ids()}
_CANONICAL_IDS = {name: i for i, name in _CANONICAL_NAMES.items()}


def _read_catalog(root: Path, form_id: str | None = None) -> list[CatalogEntry]:
    """The entries of root's *.json files, read in name order; with form_id,
    the canonical files of other ids are skipped.  A root that cannot be
    listed is a ParseError."""
    try:
        listing = set(os.listdir(root))
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ParseError(f"catalog directory not found: {root}") from exc
    except OSError as exc:
        raise ParseError(f"cannot list catalog directory {root}: {exc.strerror}") from exc
    skipped = set() if form_id is None else listing.intersection(_CANONICAL_IDS)
    skipped.discard(_CANONICAL_NAMES.get(form_id))
    paths: dict[str, Path] = {}
    entries = []
    for name in sorted(n for n in listing - skipped if n.endswith(".json")):
        named_for = _CANONICAL_IDS.get(name)
        path = root / name
        entry = document_to_entry(read_json(path))
        if named_for not in (None, entry.id):
            raise ParseError(f"catalog file {path} is named for {named_for!r} but holds {entry.id!r}")
        if entry.id in paths:
            raise ParseError(f"catalog id {entry.id!r} is in both {paths[entry.id]} and {path}")
        paths[entry.id] = path
        entries.append(entry)
    # a hand-named file holds the id of a skipped canonical file: the whole
    # read raises, naming both files (or the other id the canonical one holds)
    if any(_CANONICAL_NAMES.get(i) in skipped for i in paths):
        _read_catalog(root)
    return entries


def load_catalog(directory: str | os.PathLike) -> list[CatalogEntry]:
    """Read every *.json in a catalog directory, sorted by entry id.

    Two documents with the same id are a ParseError naming both files, and so
    is a canonically named file (``entry_filename`` of a packaged id) that
    holds another id.
    """
    return sorted(_read_catalog(Path(directory)), key=lambda e: e.id)


def load_entry(directory: str | os.PathLike, form_id: str) -> CatalogEntry | None:
    """The entry with id form_id in a catalog directory, or None.

    Reads the canonical file of form_id and every file whose name is not
    canonical, with load_catalog's errors; the canonical files of other ids
    are read only when a hand-named file holds one of their ids.
    """
    return next((e for e in _read_catalog(Path(directory), form_id) if e.id == form_id), None)


def packaged_catalog_dir() -> Path:
    return _PACKAGED_CATALOG_DIR


def resolve_catalog_dir(explicit: str | None = None) -> Path:
    """Catalog directory precedence: CLI flag, environment variable, packaged.

    An empty flag is a ParseError; an empty environment variable is unset.
    """
    if explicit == "":
        raise ParseError("--catalog needs a directory, got ''")
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CATALOG_DIR)
    if env:
        return Path(env)
    return packaged_catalog_dir()
