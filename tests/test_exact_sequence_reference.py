"""The exact-sequence check against the Fraction reference it replaced.

``verify_exact_sequence`` reads the involution's int table
alpha -> alpha - theta(alpha): the vanishing roots are the positive roots with
a zero entry, the restricted roots are the distinct nonzero entries in sorted
order, and a reflection s_b sends v to (nb v - 2 (v, b) b) / nb, an image only
when nb = (b, b) divides every numerator.  The reference below is the check as
it was before: it builds the whole restricted root system, reads its Weights
back as ints and reflects with Fraction coefficients.

The kernel names each w in W by the root indices of w applied to the
compatible simple roots and their theta images, and finds the theta-commutant
by comparing indices; the reference keeps the two full matrix products
w theta = theta w.  Both commutants are compared on every form, outer theta
(theta not in W) among them: the reference's matrices are mapped to the same
index tuples by matrix-vector products.  The vanishing group is closed on
these tuples under the reflections in its simple roots u(alpha_j), u theta's
chamber transform, each the root permutation u s_j u^-1 walked through the
simple reflections' tables, and the kernel compared with it; the reference
closes it as matrix products and compares Weyl elements.  The
references enumerate W through ``reference_enumerate_weyl``.  This is the one
exact-sequence reference: it also reproduces the order of the errors
(``PreconditionFailed``, ``CapExceeded``).  Its inputs are the catalog forms
with |W| <= 46080, every theta = +-w on ``PM_W_TYPES`` (theta = s_i among
them, which re-chooses the chamber and leaves vanishing roots), the seeded
random involutions and drawn conjugates w theta w^-1 of the catalog forms
with |W| <= 192.

The check that the restricted roots are a root system goes by conjugacy:
``verify_exact_sequence`` reflects in the simple restricted roots, closes
their indices under those reflections and reflects in a positive
indivisible root only outside that orbit, since s_(w b) = w s_b w^-1
permutes the roots when s_b and w do.  The reference reflects in every
positive indivisible root.  Two tests count the reflections built: one per
simple restricted root on every catalog form, and on three G2 thetas among
the +-w involutions one more, in the root 3v/2 outside the orbit +-v/2.

Every refusal comes before the commutant is enumerated.  One test stubs
``_theta_commuting`` with a failure and still gets PreconditionFailed on
two involutions whose restricted roots are no root system, one on B3 and
one on A5; closing the commutant first changes no outcome, and only that
test catches it.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``: the exact-sequence group there.  One of them, the
roots outside the orbit not reflected, changes no outcome on any input
tried: of the 8,438 involutive automorphisms named below, 48 reach that
branch (3 on G2, 6 on A1xG2, 39 on G2xG2) and in every one the outside
root's reflection permutes the restricted roots.  Only the reflection count
catches it.

Retired from this list, because their target is gone: a fundamental weight in
place of 2 rho, the commutant keyed by w (theta 2 rho) and the vanishing
orbit started at theta 2 rho, since no element is keyed by a weight any more;
and vanishing roots taken from all roots in place of the positive ones, since
the simple vanishing roots are read off the chamber's columns, with no
difference search over positive roots.

Flooring the numerators without the divisibility test (``any(r)`` dropped
from the reflection's guard) is not caught, and no known input catches it.
The guard stays as an input check, but on every involution tried the floor
alone refuses the same involutions with the same error.  That is every
involutive automorphism of the simple root systems of rank <= 6 and of ten
products of rank <= 4 (A1xA1, A2xA1, A1xA1xA1, A2xA2, B2xB2, A1xG2, A1xB2,
A3xA1, A1xA1xA1xA1, G2xG2): 8,438 involutions.  With the guard by
conjugacy, the floor alone refuses the same 5,554 of them and builds the
same simple reflections on the other 2,884.
"""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    CartanDSError,
    ExactSequenceReport,
    PreconditionFailed,
    Weight,
    build_default_catalog,
    build_root_system,
    restricted_roots,
    validate_involution,
    verify_exact_sequence,
    weyl_order,
    word_element,
)
from cartan_ds import realform
from cartan_ds.realform import _positive_and_simple, _theta_commuting
from cartan_ds.rootdata import DEFAULT_CAP, _int_mat_mul, _int_mat_vec, closure
from forms import PM_W_TYPES, form, pm_w_involutions, random_matrix
from weight_reference import restricted_weights
from weyl_reference import reference_enumerate_weyl, reference_reflection

# on G2 the restricted roots of this theta are +-v/2, +-v and +-3v/2: the
# reflection coefficient 2 (v, b) / nb is 2/3, yet the image is integral
G2_THETA = ((2, -3), (1, -2))
# the G2 thetas with those restricted roots: 3v/2 is indivisible and lies
# outside the orbit +-v/2 of the simple restricted root
G2_OUTSIDE_ORBIT = (G2_THETA, ((-1, 0), (-1, 1)), ((-1, 3), (0, 1)))

# an involutive automorphism of A5 whose restricted roots are no root system
A5_NO_ROOT_SYSTEM = (
    (1, -1, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, -1, 1)
)

# the restricted reflection nested in verify_exact_sequence
REFLECTION = next(
    c
    for c in realform.verify_exact_sequence.__code__.co_consts
    if getattr(c, "co_name", None) == "reflection"
)


def _doubled(v):
    return tuple(int(2 * c) for c in v.coords)


def reference_commutant(theta, group):
    """The elements of group commuting with theta, by two matrix products each."""
    return [w for w in group if _int_mat_mul(w.matrix, theta) == _int_mat_mul(theta, w.matrix)]


def reference_exact_sequence(rs, inv, cap=DEFAULT_CAP):
    """The check through restricted_roots, with Fraction reflections."""
    rrs = restricted_roots(rs, inv)
    views = restricted_weights(rrs)
    group = reference_enumerate_weyl(rs, cap)
    commutant = reference_commutant(inv.theta, group)
    fixed = views.vanishing_roots & {Weight(rs.roots[k]) for k in inv.positive_indices}
    simple_fixed = [b for b in fixed if not any(b - a in fixed for a in fixed)]
    gens = [
        word_element(rs, reference_reflection(rs, b)[1])
        for b in sorted(simple_fixed, key=lambda w: w.coords)
    ]
    vanishing_group = closure(
        (rs.identity,),
        lambda w: (word_element(rs, w.word + g.word) for g in gens),
        cap,
        "vanishing Weyl group",
    )
    roots = sorted(views.multiplicity, key=lambda w: w.coords)
    index = {_doubled(v): k for k, v in enumerate(roots)}
    doubled_roots = list(index)

    def reflection(b):
        pairings = _int_mat_vec(doubled_roots, _int_mat_vec(rs.form, b))
        nb = pairings[index[b]]
        perm = []
        for v, pairing in zip(doubled_roots, pairings):
            # an integral Fraction hashes and compares equal to its int
            c = Fraction(2 * pairing, nb)
            image = index.get(tuple(x - c * y for x, y in zip(v, b)))
            if image is None:
                raise PreconditionFailed(
                    "the restricted roots are not a root system: a reflection"
                    " in an indivisible restricted root does not permute them"
                )
            perm.append(image)
        return tuple(perm)

    reflections = [
        reflection(_doubled(beta)) for beta in views.indivisible & views.positive_restricted
    ]
    simple = [_doubled(s) for s in views.simple_restricted]
    identity = tuple(index[s] for s in simple)
    restricted_group = closure(
        (identity,),
        lambda t: (tuple(p[k] for k in t) for p in reflections),
        cap,
        "restricted Weyl group",
    )
    images = {
        w: tuple(index[tuple(_int_mat_vec(w.matrix, s))] for s in simple)
        for w in commutant
    }
    kernel = {w for w, image in images.items() if image == identity}
    return ExactSequenceReport(
        order_commutant=len(commutant),
        order_vanishing=len(vanishing_group),
        order_restricted=len(restricted_group),
        kernel_matches=kernel == set(vanishing_group),
        image_matches=set(images.values()) == set(restricted_group),
        order_identity=len(commutant) == len(vanishing_group) * len(restricted_group),
    )


def _outcome(check, rs, inv, cap=DEFAULT_CAP):
    """The report, or the error's type and message."""
    try:
        return check(rs, inv, cap)
    except CartanDSError as exc:
        return type(exc), str(exc)


def reflected_roots(rs, inv):
    """The outcome of verify_exact_sequence, and the doubled roots it builds a
    restricted reflection in, one entry per reflection."""
    roots = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is REFLECTION:
            roots.append(frame.f_locals["b"])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        outcome = _outcome(verify_exact_sequence, rs, inv)
    finally:
        sys.setprofile(previous)
    return outcome, roots


def assert_matches_reference(rs, inv, name, tally, outer):
    """The report (or error) and the commutant set match the references; outer
    counts the involutions that are not Weyl elements."""
    outcome = _outcome(verify_exact_sequence, rs, inv)
    assert outcome == _outcome(reference_exact_sequence, rs, inv), name
    if isinstance(outcome, ExactSequenceReport):
        tally["failed" if not outcome.passed else "passed"] += 1
    else:
        tally[outcome[0].__name__] += 1
    group = reference_enumerate_weyl(rs)
    # the compatible simple roots, then their theta images, by matrix products
    simple = list(zip(*inv.chamber.matrix))
    tracked, commutant = _theta_commuting(rs, inv, [rs.root_index[b] for b in simple])
    roots = simple + [tuple(_int_mat_vec(inv.theta, b)) for b in simple]
    assert [rs.roots[k] for k in tracked] == roots, name
    # each commuting w is named by the indices of w applied to those roots
    expected = {
        tuple(rs.root_index[tuple(_int_mat_vec(w.matrix, b))] for b in roots)
        for w in reference_commutant(inv.theta, group)
    }
    assert len(set(commutant)) == len(commutant) and set(commutant) == expected, name
    outer[inv.theta not in {w.matrix for w in group}] += 1


def _tally():
    return {"passed": 0, "failed": 0, "PreconditionFailed": 0}


def test_catalog_matches_reference():
    tally, outer = _tally(), Counter()
    for entry in build_default_catalog():
        if weyl_order(entry.cartan_type) <= 46080:
            assert_matches_reference(*form(entry.id)[:2], entry.id, tally, outer)
    # every catalog form is a real form, and its sequence is exact
    assert tally == {"passed": 53, "failed": 0, "PreconditionFailed": 0}
    # theta is outer on sl(n,R) and split(A_n) for n >= 3 and on so(p,q) with p, q odd
    assert outer == {False: 42, True: 11}


def test_pm_weyl_involutions_match_reference():
    tally, outer = _tally(), Counter()
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            assert_matches_reference(rs, inv, (t, inv.theta), tally, outer)
    # of the 20 or more reports that do not pass, 5 or more come from here
    assert sum(tally.values()) == 252
    # -w is outer on A2, A3 and A2xA1, where -1 is not in W
    assert outer == {False: 230, True: 22}
    assert tally["PreconditionFailed"] >= 50 and tally["failed"] >= 5


def test_one_restricted_reflection_per_simple_restricted_root():
    # the restricted roots of a real form are a root system, where every root
    # is conjugate to a simple one: no other root is reflected
    for entry in build_default_catalog():
        if weyl_order(entry.cartan_type) <= 46080:
            rs, inv, rrs = form(entry.id)
            report, roots = reflected_roots(rs, inv)
            assert report.passed and sorted(roots) == list(rrs.doubled_simple), entry.id


def test_a_root_outside_the_simple_orbit_is_reflected_too():
    # of the +-w involutions only three G2 thetas, each reached as w and as
    # -w', reflect a root past the simple ones: 3v/2, three times the simple one
    reached = Counter()
    for t in PM_W_TYPES:
        for rs, inv in pm_w_involutions(t):
            outcome, roots = reflected_roots(rs, inv)
            simple = _positive_and_simple(inv)[1]
            if len(roots) > len(simple):
                reached[t, inv.theta] += 1
                assert outcome == reference_exact_sequence(rs, inv) and outcome.passed
                (s,) = simple
                assert roots == [s, tuple(3 * x for x in s)]
    assert reached == {("G2", theta): 2 for theta in G2_OUTSIDE_ORBIT}


def test_simple_reflection_involutions_pass():
    # theta = s_i re-chooses the chamber and leaves vanishing roots; each is
    # compared with the reference among the +-w involutions above
    for t in ("A2", "B2", "G2", "A3", "B3"):
        rs = build_root_system(t)
        for i in range(rs.rank):
            inv = validate_involution(rs, word_element(rs, (i,)).matrix)
            assert verify_exact_sequence(rs, inv).passed, (t, i)


def test_random_involutions_match_reference():
    # the draws of the random-matrix test of validate_involution
    rng = random.Random(20)
    types = [build_root_system(t) for t in ["A1", "A1xA1", "A2", "B2", "G2", "A3", "B3"]]
    tally, outer = _tally(), Counter()
    for k in range(2400):
        rs = rng.choice(types)
        try:
            inv = validate_involution(rs, random_matrix(rng, rs))
        except CartanDSError:
            continue
        assert_matches_reference(rs, inv, k, tally, outer)
    assert sum(tally.values()) >= 600 and tally["failed"] >= 15
    assert outer == {False: 620, True: 82}


def test_integral_image_of_a_fractional_coefficient():
    rs = build_root_system("G2")
    inv = validate_involution(rs, G2_THETA)
    report = verify_exact_sequence(rs, inv)
    assert report == reference_exact_sequence(rs, inv)
    assert report.passed
    orders = (report.order_commutant, report.order_vanishing, report.order_restricted)
    assert orders == (4, 2, 2)


def test_errors_come_in_the_reference_order():
    # another root system before the cap, and the cap before the reflections
    b2, b3 = build_root_system("B2"), build_root_system("B3")
    minus_one = validate_involution(b2, [[-1, 0], [0, -1]])
    no_root_system = validate_involution(b3, ((1, -1, 0), (0, -1, 0), (0, 0, -1)))
    cases = [
        (build_root_system("A2"), minus_one, 1, "PreconditionFailed"),
        (b3, no_root_system, 47, "CapExceeded"),
        (b3, no_root_system, 48, "PreconditionFailed"),
    ]
    for rs, inv, cap, error in cases:
        outcome = _outcome(verify_exact_sequence, rs, inv, cap)
        assert outcome == _outcome(reference_exact_sequence, rs, inv, cap)
        assert outcome[0].__name__ == error


def test_no_root_system_is_refused_before_the_commutant(monkeypatch):
    # every refusal comes before W is closed: with the commutant's enumerator
    # failing, the no-root-system involutions still raise PreconditionFailed
    b3, a5 = build_root_system("B3"), build_root_system("A5")
    no_root_system = validate_involution(b3, ((1, -1, 0), (0, -1, 0), (0, 0, -1)))
    a5_theta = validate_involution(a5, A5_NO_ROOT_SYSTEM)

    def no_commutant(*args):
        raise AssertionError("the commutant was closed")

    monkeypatch.setattr(realform, "_theta_commuting", no_commutant)
    for rs, inv in ((b3, no_root_system), (a5, a5_theta)):
        with pytest.raises(PreconditionFailed, match="not a root system"):
            verify_exact_sequence(rs, inv)
    # a check that passes the guard does close it
    with pytest.raises(AssertionError, match="commutant"):
        verify_exact_sequence(b3, validate_involution(b3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1))))


def _scalar(theta):
    """Whether theta is +1 or -1, which every conjugation fixes."""
    c = theta[0][0]
    return all(x == (i == j) * c for i, row in enumerate(theta) for j, x in enumerate(row))


# the catalog forms with |W| <= 192 whose conjugates may differ from theta
SMALL_FORMS = sorted(
    e.id
    for e in build_default_catalog()
    if weyl_order(e.cartan_type) <= 192 and not _scalar(e.theta_matrix)
)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(form_id=st.sampled_from(SMALL_FORMS), data=st.data())
def test_conjugate_involutions_match_reference(form_id, data):
    # w theta w^-1 is the same real form: its sequence has the same orders,
    # though its chamber transform and tracked roots are other ones
    rs, inv, _ = form(form_id)
    word = data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=12))
    w, w_inv = word_element(rs, word), word_element(rs, word[::-1])
    conjugate = _int_mat_mul(_int_mat_mul(w.matrix, inv.theta), w_inv.matrix)
    conjugate = validate_involution(rs, conjugate)
    report = verify_exact_sequence(rs, conjugate)
    assert report == reference_exact_sequence(rs, conjugate)
    assert report == verify_exact_sequence(rs, inv)
