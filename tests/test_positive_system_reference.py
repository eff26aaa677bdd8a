"""The compatible positive system and the restricted type against the
references they replaced.

``validate_involution`` stores one int table aligned with the root table
``rs.roots``, alpha - theta(alpha) at the index of alpha, and chooses the
positive system, a set of root indices, by signs on it: a root is positive by
its restriction's pairing with a regular split vector, or, restricting to
zero, by its pairing with a regular compact vector; the chamber is the chase
of 2 rho of that system.  ``classify_restricted_type`` finds components,
supports and norms from int pairings of the doubled restricted roots.
The references below are the same table and positive system keyed by
``Weight`` (``reference_weight_table``, ``reference_weight_positive_system``),
the Fraction restriction dict with a scaled regular weight, and the component
split, support test and norm-ratio branches on Fraction pairings.

Two differences are intended, and each labels a component "?r" in place of
the reference's label.  First, a component that the reference labels BC_r
without the 2r(r+1) roots of BC_r: 12 involutions +-w of B3, 6 of G2, 19
random ones of G2 and 120 involutive automorphisms of D5.  Second, any other
component whose roots have no type's count and simple-root norms, which
only involutions that ``verify_exact_sequence`` refuses as no root system
have: 45 involutive automorphisms of A5 labeled B3 by the reference, 60 of
D5 labeled B3 and 120 of C5 labeled BC2 or BC3.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the positive-system group there.
"""

import dataclasses
import operator
import random
from collections import Counter
from fractions import Fraction

import pytest

from cartan_ds import (
    CartanDSError,
    NotRootPreserving,
    PreconditionFailed,
    Weight,
    build_default_catalog,
    build_root_system,
    classify_restricted_type,
    entry_involution,
    entry_root_system,
    restricted_roots,
    validate_involution,
    verify_exact_sequence,
)
from cartan_ds.realform import _dot, _regular_covector
from cartan_ds.rootdata import (
    _int_mat_vec,
    apply,
    apply_matrix,
    dominant_representative,
    format_cartan_type,
    word_element,
)
from forms import PM_W_TYPES, involutive_automorphisms, pm_w_involutions, random_matrix
import linalg_reference
from restricted_reference import reference_vanishing
from weight_reference import pairing, restricted_weights
from weyl_reference import assert_checks_match

HALF = Fraction(1, 2)


def _restrict(theta, lam):
    return (lam - apply_matrix(theta, lam)).scale(HALF)


def reference_weight_table(rs, theta):
    """The doubled restrictions keyed by Weight: root -> alpha - theta(alpha)."""
    roots = {a: Weight(a) for a in rs.roots}
    doubled = {}
    for a, root in roots.items():
        image = tuple(_int_mat_vec(theta, a))
        if image not in roots:
            raise NotRootPreserving("matrix does not permute the roots")
        doubled[root] = tuple(map(operator.sub, a, image))
    return doubled


def reference_compact_basis(theta):
    """The +1 eigenbasis of theta: the Fraction kernel basis of theta - 1."""
    shifted = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(theta)]
    return tuple(Weight(v) for v in linalg_reference.nullspace(shifted))


def reference_weight_positive_system(rs, theta, doubled, split_basis):
    """(positive roots, chamber, default compatible) chosen on the Weight-keyed
    table by the same signs as ``validate_involution``."""
    zero = (0,) * rs.rank
    positive_roots = frozenset(Weight(a) for a in rs.roots[: len(rs.roots) // 2])
    default = {doubled[r] for r in positive_roots} - {zero}
    if not any(tuple(-x for x in d) in default for d in default):
        return positive_roots, rs.identity, True
    ints = {r: [c.numerator for c in r.coords] for r in doubled}
    split = _regular_covector(rs, split_basis, set(doubled.values()) - {zero})
    fixed = [ints[r] for r, d in doubled.items() if d == zero]
    compact = _regular_covector(rs, reference_compact_basis(theta), fixed)
    positive = frozenset(
        r for r, d in doubled.items() if (_dot(split, d) or _dot(compact, ints[r])) > 0
    )
    assert len(positive) == len(positive_roots)
    two_rho = [sum(col) for col in zip(*(ints[r] for r in positive))]
    _, to_dominant = dominant_representative(rs, Weight.of(two_rho))
    chamber = word_element(rs, to_dominant.word[::-1])
    assert {apply(chamber, r) for r in positive_roots} == positive
    return positive, chamber, False


def _regular_combination(rs, basis, targets):
    """Deterministic vector in span(basis) pairing nonzero with every target."""
    if not targets:
        return Weight.zero(rs.rank) if not basis else basis[0].scale(0)
    t = 1
    while True:
        v = Weight.zero(rs.rank)
        for i, b in enumerate(basis):
            v = v + b.scale(Fraction(t) ** i)
        if all(pairing(rs, v, x) != 0 for x in targets):
            return v
        t += 1


def reference_positive_system(rs, inv):
    """(positive roots, chamber, default compatible) from a scaled regular weight."""
    theta = inv.theta
    all_roots = frozenset(Weight(a) for a in rs.roots)
    positive_roots = frozenset(Weight(a) for a in rs.roots[: len(rs.roots) // 2])
    restrictions = {root: _restrict(theta, root) for root in all_roots}
    default_restr = {
        restrictions[r] for r in positive_roots if not restrictions[r].is_zero()
    }
    if not any(-v in default_restr for v in default_restr):
        return positive_roots, rs.identity, True

    nonzero = [v for v in set(restrictions.values()) if not v.is_zero()]
    fixed = [r for r in all_roots if restrictions[r].is_zero()]
    lam_split = _regular_combination(rs, inv.split_basis, nonzero)
    lam_compact = (
        _regular_combination(rs, reference_compact_basis(theta), fixed)
        if fixed
        else Weight.zero(rs.rank)
    )
    # scale the split part until it dominates the compact part on every root
    min_split = min(
        abs(pairing(rs, restrictions[r], lam_split))
        for r in all_roots
        if not restrictions[r].is_zero()
    )
    max_compact = max(
        (abs(pairing(rs, r, lam_compact)) for r in all_roots), default=Fraction(0)
    )
    scale = max_compact / min_split + 1
    regular = lam_split.scale(scale) + lam_compact
    positive = frozenset(r for r in all_roots if pairing(rs, r, regular) > 0)
    assert len(positive) == len(positive_roots)
    _, to_dominant = dominant_representative(rs, regular)
    chamber = word_element(rs, to_dominant.word[::-1])
    assert {apply(chamber, r) for r in positive_roots} == positive
    return positive, chamber, False


def _component_split(rs, simple):
    """Connected components of the simple restricted roots."""
    comps = []
    remaining = list(simple)
    while remaining:
        comp = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            for v in list(remaining):
                if any(pairing(rs, v, u) != 0 for u in comp):
                    comp.append(v)
                    remaining.remove(v)
                    changed = True
        comps.append(comp)
    return comps


def _supported_on(rs, simple, v, comp):
    others = [u for u in simple if u not in comp]
    return all(pairing(rs, v, u) == 0 for u in others) and any(
        pairing(rs, v, u) != 0 for u in comp
    )


def _reference_spans(rrs):
    """(rank, positive restricted roots) of each component, on Fraction
    pairings."""
    rs = rrs.root_system
    weights = restricted_weights(rrs)
    simple, positive = weights.simple_restricted, weights.positive_restricted
    for comp in _component_split(rs, simple):
        yield len(comp), [v for v in positive if _supported_on(rs, simple, v, comp)]


def reference_short_bc(rrs):
    """The reference's BC_r labels of components short of the 2r(r+1) roots
    of BC_r."""
    restricted = frozenset(restricted_weights(rrs).multiplicity)
    return Counter(
        f"BC{r}"
        for r, span_pos in _reference_spans(rrs)
        if any(v.scale(2) in restricted for v in span_pos) and len(span_pos) != r * (r + 1)
    )


def reference_restricted_type(rrs):
    """The type label from Fraction pairings of the restricted roots."""
    restricted = frozenset(restricted_weights(rrs).multiplicity)
    if not restricted:
        return "0"
    rs = rrs.root_system
    labels = []
    for r, span_pos in _reference_spans(rrs):
        if any(v.scale(2) in restricted for v in span_pos):
            labels.append(f"BC{r}")
            continue
        count = 2 * len(span_pos)
        norms = sorted({pairing(rs, v, v) for v in span_pos})
        ratio = norms[-1] / norms[0]
        if r == 1:
            labels.append("A1")
        elif ratio == 1:
            if count == r * (r + 1):
                labels.append(f"A{r}")
            elif count == 2 * r * (r - 1):
                labels.append(f"D{r}")
            elif (r, count) in {(6, 72), (7, 126), (8, 240)}:
                labels.append(f"E{r}")
            else:
                labels.append(f"?{r}")
        elif ratio == 2:
            if r == 4 and count == 48:
                labels.append("F4")
            elif r == 2:
                labels.append("B2")
            else:
                long_count = sum(1 for v in span_pos if pairing(rs, v, v) == norms[-1])
                labels.append(f"C{r}" if 2 * long_count == 2 * r else f"B{r}")
        elif ratio == 3:
            labels.append("G2")
        else:
            labels.append(f"?{r}")
    return "x".join(sorted(labels))


def _rank(label):
    return int(label.lstrip("ABCDEFG?"))


def assert_matches_reference(rs, inv, name, relabels):
    """Compare one involution with the references; returns the restricted type
    and counts its relabels as ``assert_type_matches_reference`` does."""
    assert len(inv.doubled_restrictions) == len(rs.roots), name
    table = reference_weight_table(rs, inv.theta)
    for a, d in zip(rs.roots, inv.doubled_restrictions):
        assert table[Weight.of(a)] == d, name
        assert Weight.of(d) == _restrict(inv.theta, Weight.of(a)).scale(2), name
    by_weight = reference_weight_positive_system(rs, inv.theta, table, inv.split_basis)
    for positive, chamber, default_ok in (by_weight, reference_positive_system(rs, inv)):
        assert {Weight(rs.roots[k]) for k in inv.positive_indices} == positive, name
        assert (inv.chamber.matrix, inv.chamber.word) == (chamber.matrix, chamber.word), name
        assert inv.default_compatible == default_ok, name
    rrs = restricted_roots(rs, inv)
    assert restricted_weights(rrs).vanishing_roots == reference_vanishing(table), name
    return assert_type_matches_reference(rs, inv, rrs, name, relabels)


def assert_type_matches_reference(rs, inv, rrs, name, relabels):
    """Compare the restricted type with the reference's; returns it and counts,
    by Cartan type and difference, the involutions with components relabeled
    "?r"."""
    label = classify_restricted_type(rrs)
    expected = reference_restricted_type(rrs)
    if label != expected:
        mine, theirs = Counter(label.split("x")), Counter(expected.split("x"))
        assert all(part.startswith("?") for part in mine - theirs), name
        assert sorted(map(_rank, mine - theirs)) == sorted(map(_rank, theirs - mine)), name
        if (theirs - mine) - reference_short_bc(rrs):
            # the second difference: restricted roots that are no root system
            with pytest.raises(PreconditionFailed, match="not a root system"):
                verify_exact_sequence(rs, inv)
            relabels[format_cartan_type(rs.cartan_type), "no root system"] += 1
        else:
            relabels[format_cartan_type(rs.cartan_type), "BC short"] += 1
    return label


def test_catalog_matches_reference():
    labels = set()
    relabels = Counter()
    catalog = build_default_catalog()
    for entry in catalog:
        rs = entry_root_system(entry)
        inv = entry_involution(entry, rs=rs)
        labels.add(assert_matches_reference(rs, inv, entry.id, relabels))
    assert len(catalog) == 56 and not relabels
    # reduced and non-reduced, simple and reducible, every norm-ratio branch
    assert {"0", "A1", "A1xA1", "A2", "B2", "B3", "BC1", "BC2", "C3", "D4", "E6",
            "F4", "G2"} <= labels


def test_pm_weyl_involutions_match_reference():
    checked = rechosen = rechosen_with_fixed = 0
    relabels = Counter()
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            assert_matches_reference(rs, inv, (t, inv.theta), relabels)
            checked += 1
            if not inv.default_compatible:
                rechosen += 1
                zero = (0,) * rs.rank
                rechosen_with_fixed += zero in inv.doubled_restrictions
    assert checked == 252 and relabels == {("B3", "BC short"): 12, ("G2", "BC short"): 6}
    # the re-choice branch, and its compact sign, stay covered
    assert rechosen >= 150 and rechosen_with_fixed >= 140


def test_random_involutions_match_reference():
    # the draws of the random-matrix test of validate_involution
    rng = random.Random(20)
    types = [build_root_system(t) for t in ["A1", "A1xA1", "A2", "B2", "G2", "A3", "B3"]]
    passed = rechosen = 0
    relabels = Counter()
    for k in range(2400):
        rs = rng.choice(types)
        try:
            inv = validate_involution(rs, random_matrix(rng, rs))
        except CartanDSError:
            continue
        assert_matches_reference(rs, inv, k, relabels)
        passed += 1
        rechosen += not inv.default_compatible
    assert passed >= 600 and rechosen >= 100 and relabels == {("G2", "BC short"): 19}


def test_involutive_automorphism_types_match_reference():
    relabels = Counter()
    for t in ("A5", "D5", "C5"):
        for rs, inv in involutive_automorphisms(t):
            rrs = restricted_roots(rs, inv)
            assert_type_matches_reference(rs, inv, rrs, (t, inv.theta), relabels)
    assert relabels == {
        ("A5", "no root system"): 45,
        ("D5", "no root system"): 60,
        ("C5", "no root system"): 120,
        ("D5", "BC short"): 120,
    }


def test_isometric_involution_that_does_not_permute_the_roots():
    # on B2xA1 (short roots +-e1, +-e2, long +-e1 +- e2, and +-e3 of the same
    # length as the short ones) swapping e1 and e3 is an integral isometric
    # involution that maps the long root e1 + e2 to e3 + e2, which is no root
    rs = build_root_system("B2xA1")
    theta = [[0, 0, 1], [-1, 1, 1], [1, 0, 0]]
    assert assert_checks_match(rs, theta) is NotRootPreserving
    with pytest.raises(NotRootPreserving, match="^matrix does not permute the roots$"):
        reference_weight_table(rs, theta)


def test_root_straddling_two_components_counts_in_neither():
    # not a root system: e1 + e2 pairs nonzero with both orthogonal simple
    # roots, so neither A1 component takes it or its double
    rs = build_root_system("A1xA1")
    rrs = restricted_roots(rs, validate_involution(rs, [[-1, 0], [0, -1]]))
    # e1, e2, e1 + e2 and 2 (e1 + e2), doubled
    positive = frozenset({(2, 0), (0, 2), (2, 2), (4, 4)})
    straddling = dataclasses.replace(
        rrs,
        doubled_multiplicity=dict.fromkeys(positive | {(-x, -y) for x, y in positive}, 1),
        doubled_positive=positive,
    )
    assert classify_restricted_type(straddling) == "A1xA1"
    assert reference_restricted_type(straddling) == "A1xA1"
