"""The restricted type against the Cartan matrices of the types it names.

``classify_restricted_type`` names a reduced component of the simple
restricted roots after the first type, in family order, that
``build_root_system`` builds with as many positive roots and proportional
simple-root norms, and a component with doubles BC_r when its indivisible
roots pass that test against B_r and it has r doubles, each twice a short
root.  The reference is the classification itself (Humphreys, *Introduction
to Lie Algebras and Representation Theory*, 11.4): the Cartan matrix
2 (b_i, b_j) / (b_i, b_i) of the component's simple restricted roots b_i
equals ``build_root_system(T).cartan_matrix`` up to a permutation of the
nodes, and under that permutation the component's positive roots, in the
coordinates of its simple ones, are T's positive roots; for BC_r, T is B_r
and the roots are B_r's and twice each short one.  Every named component is
checked on the catalog forms, the +-w of ``PM_W_TYPES`` and the involutive
automorphisms of A5, D5 and C5, and split(T), theta = -1, is labeled T on
every irreducible type of rank <= 8, with B2 for C2 and A3 for D3.  Two
hand-made sets, neither a root system, check the doubles of BC_r: one
double too few, and a double of a long root in place of a short one's.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the restricted-type group there.
"""

import dataclasses
import re
from collections import Counter
from fractions import Fraction

import pytest

from cartan_ds import (
    build_default_catalog,
    build_root_system,
    classify_restricted_type,
    restricted_roots,
    validate_involution,
)
from forms import PM_W_TYPES, form, involutive_automorphisms, pm_w_involutions
import linalg_reference

IRREDUCIBLE_UP_TO_RANK_8 = [
    *(f"A{n}" for n in range(1, 9)),
    *(f"B{n}" for n in range(2, 9)),
    *(f"C{n}" for n in range(2, 9)),
    *(f"D{n}" for n in range(3, 9)),
    "E6", "E7", "E8", "F4", "G2",
]


def _pair(rs, u, v):
    return sum(x * f * y for x, row in zip(u, rs.form) for f, y in zip(row, v))


def reference_components(rrs):
    """(Cartan matrix, positive roots in simple coordinates) per connected
    component of the simple restricted roots, found on Fraction coordinates."""
    rs, simple = rrs.root_system, rrs.doubled_simple
    gram = [[_pair(rs, b, c) for c in simple] for b in simple]
    columns = list(zip(*simple))
    coords = {d: linalg_reference.solve(columns, d) for d in rrs.doubled_positive}
    comps, left = [], set(range(len(simple)))
    while left:
        comp, grow = set(), {min(left)}
        while grow:
            comp |= grow
            grow = {j for i in grow for j in left - comp if gram[i][j]}
        left -= comp
        nodes = sorted(comp)
        cartan = tuple(
            tuple(Fraction(2 * gram[i][j], gram[i][i]) for j in nodes) for i in nodes
        )
        roots = {
            tuple(c[i] for i in nodes)
            for c in coords.values()
            if c is not None and any(c[i] for i in nodes)
            and not any(x for j, x in enumerate(c) if j not in comp)
        }
        comps.append((cartan, roots))
    return comps


def _permutation(a, b):
    """A node permutation p with a[i][j] = b[p[i]][p[j]], or None."""
    n = len(a)

    def extend(p):
        if len(p) == n:
            return p
        k = len(p)
        for m in range(n):
            fits = all(a[k][i] == b[m][p[i]] and a[i][k] == b[p[i]][m] for i in range(k))
            if m not in p and fits:
                found = extend(p + [m])
                if found is not None:
                    return found
        return None

    return extend([]) if len(a) == len(b) else None


def _matches(component, cartan, roots):
    """Whether a component has the Cartan matrix and, in its node order,
    the positive roots of a type."""
    matrix, found = component
    p = _permutation(matrix, cartan)
    if p is None:
        return False
    moved = set()
    for c in found:
        v = [0] * len(c)
        for i, x in enumerate(c):
            v[p[i]] = x
        moved.add(tuple(v))
    return moved == roots


def expected_roots(label):
    """The Cartan matrix and positive roots, in simple coordinates, that a
    component label names: B_r's and twice each short one for BC_r."""
    family, rank = re.fullmatch(r"([A-Z]+)(\d+)", label).groups()
    rs = build_root_system(f"B{rank}" if family == "BC" else label)
    positive = rs.roots[: len(rs.roots) // 2]
    roots = set(positive)
    if family == "BC":
        short = min(_pair(rs, a, a) for a in positive)
        roots |= {tuple(2 * x for x in a) for a in positive if _pair(rs, a, a) == short}
    return rs.cartan_matrix, roots


def assert_named_components_match(rrs, name):
    """Each named component of the label has the Cartan matrix and the roots
    of its type; returns the label."""
    label = classify_restricted_type(rrs)
    if label == "0":
        assert not rrs.doubled_multiplicity, name
        return label
    comps = reference_components(rrs)
    named = [part for part in label.split("x") if not part.startswith("?")]
    assert len(label.split("x")) == len(comps), name
    for part in named:
        expected = expected_roots(part)
        k = next((k for k, c in enumerate(comps) if _matches(c, *expected)), None)
        assert k is not None, (name, part)
        del comps[k]
    return label


def test_catalog_components_match_their_types():
    labels = Counter()
    for entry in build_default_catalog():
        labels[assert_named_components_match(form(entry.id)[2], entry.id)] += 1
    assert sum(labels.values()) == 56 and not any("?" in label for label in labels)


def test_pm_weyl_components_match_their_types():
    checked, unnamed = 0, Counter()
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            label = assert_named_components_match(restricted_roots(rs, inv), (t, inv.theta))
            checked += 1
            if "?" in label:
                unnamed[t, label] += 1
    assert checked == 252
    assert unnamed == {
        ("A3", "?2"): 6, ("B3", "?2"): 12, ("C3", "?2"): 12, ("G2", "?1"): 6, ("D4", "?3"): 24,
    }


@pytest.mark.parametrize("cartan_type", ["A5", "D5", "C5"])
def test_involutive_automorphism_components_match_their_types(cartan_type):
    labels = Counter(
        assert_named_components_match(restricted_roots(rs, inv), (cartan_type, inv.theta))
        for rs, inv in involutive_automorphisms(cartan_type)
    )
    assert sum(labels.values()) == {"A5": 152, "D5": 312, "C5": 312}[cartan_type]


@pytest.mark.parametrize("cartan_type", IRREDUCIBLE_UP_TO_RANK_8)
def test_split_form_is_labeled_by_its_type(cartan_type):
    rs = build_root_system(cartan_type)
    minus_one = [[-int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    rrs = restricted_roots(rs, validate_involution(rs, minus_one))
    label = assert_named_components_match(rrs, cartan_type)
    assert label == {"C2": "B2", "D3": "A3"}.get(cartan_type, cartan_type)


def _with_positive(rrs, positive):
    """rrs with another set of doubled positive restricted roots."""
    negative = {tuple(-x for x in d) for d in positive}
    return dataclasses.replace(
        rrs,
        doubled_multiplicity=dict.fromkeys(positive | negative, 1),
        doubled_positive=frozenset(positive),
    )


# su(3,2) restricts to BC2: short roots (0,1,1,0) and (1,1,1,1), long roots
# (1,0,0,1) and (1,2,2,1), doubled, and twice each short root
SU32_B2 = {(0, 1, 1, 0), (1, 1, 1, 1), (1, 0, 0, 1), (1, 2, 2, 1)}


def test_bc_needs_a_double_of_every_short_root():
    rrs = form("su(3,2)")[2]
    assert rrs.doubled_positive == SU32_B2 | {(0, 2, 2, 0), (2, 2, 2, 2)}
    assert classify_restricted_type(rrs) == "BC2"
    assert classify_restricted_type(_with_positive(rrs, SU32_B2 | {(0, 2, 2, 0)})) == "?2"


def test_bc_doubles_are_twice_short_roots():
    rrs = form("su(3,2)")[2]
    # two doubles, but (2,0,0,2) is twice the long root (1,0,0,1)
    doubled_long = _with_positive(rrs, SU32_B2 | {(0, 2, 2, 0), (2, 0, 0, 2)})
    assert classify_restricted_type(doubled_long) == "?2"
