"""The int Weyl-orbit kernel against the Fraction references it replaced.

``weyl_orbit`` and the root system close int coordinate tuples;
``admissible_exponents`` and ``orbit_plus`` restrict int orbit points on ints
and test the open negative cone by the signs of int covector products.  The
references below are the Fraction closure through the Fraction simple
reflection of ``linalg_reference``, ``CartanInvolution.restrict`` per orbit
point and ``cone_position(...).neg_interior`` as the filter, kept here to
compare against.  ``restricted_reference.orbit_restrictions``, the
``weyl_orbit`` closure restricted on ints, gives the cone-margin references
their shift sets; it is compared with the Fraction restrictions here, with
the orbit functions.

``admissible_exponents`` and ``orbit_plus`` read the admissible points off
one walk (``exponents._walk``): up from the antidominant point, in the
coordinates of theta's chamber transform, through admissible points only.
It is compared with the reference on the catalog, on drawn weights, and on
catalog involutions conjugated by drawn Weyl words, w theta w^-1, whose
default positive system is not compatible; no catalog form re-chooses its
positive system, so only these reach the chamber transform.  Each admissible
point is walked once, and ``strong_regularization`` refuses a weight with
NoAdmissibleDirection exactly when the reference admissible set is empty;
on drawn data it then refuses, with InvalidDatum, exactly the exponents
outside that set, the one exponent rule of the library.

When |W| exceeds the cap, an orbit is refused before its closure if its
predicted size |W| / |W_J| does; J is the set of walls of the dominant
representative and |W_J| comes from the height partition of the positive
roots supported on J.  The prediction is compared with the enumerated orbit.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    BadParameters,
    CapExceeded,
    FormalDSDatum,
    InvalidDatum,
    NoAdmissibleDirection,
    RankMismatch,
    SearchExhausted,
    TranslationConfig,
    Weight,
    admissible_exponents,
    apply,
    build_default_catalog,
    build_root_system,
    cone_position,
    orbit_plus,
    restricted_roots,
    strong_regularization,
    validate_involution,
    weyl_orbit,
    weyl_order,
    word_element,
)
from cartan_ds.exponents import _walk
from cartan_ds.rootdata import DEFAULT_CAP, _int_mat_mul, _wall_group_order, closure
from forms import form
from linalg_reference import reflect
from restricted_reference import orbit_restrictions

CAP = 2000


def reference_orbit(rs, lam, cap=DEFAULT_CAP):
    return frozenset(
        closure((lam,), lambda nu: [reflect(rs, i, nu) for i in range(rs.rank)], cap, "orbit size")
    )


def reference_results(rs, inv, rrs, lam, cap):
    """The four results from the Fraction orbit, restriction and cone test."""
    orbit = reference_orbit(rs, lam, cap)
    restricted = {nu: inv.restrict(nu) for nu in orbit}
    inside = {e: cone_position(rrs, e).neg_interior for e in set(restricted.values())}
    return {
        "weyl_orbit": orbit,
        "orbit_restrictions": frozenset(inside),
        "admissible_exponents": frozenset(e for e, ok in inside.items() if ok),
        "orbit_plus": frozenset(nu for nu, e in restricted.items() if inside[e]),
    }


def int_results(rs, inv, rrs, lam, cap):
    return {
        "weyl_orbit": lambda: weyl_orbit(rs, lam, cap),
        "orbit_restrictions": lambda: orbit_restrictions(rs, inv, lam, cap),
        "admissible_exponents": lambda: admissible_exponents(rs, inv, rrs, lam, cap),
        "orbit_plus": lambda: orbit_plus(rs, inv, lam, cap, chamber=rrs),
    }


def assert_matches_reference(rs, inv, rrs, lam, cap=CAP):
    """Compare the four functions with the references; False if over ``cap``.

    An orbit over ``cap`` must make all four raise; the reference is not run
    then, since its closure would stop at the same count.
    """
    calls = int_results(rs, inv, rrs, lam, cap)
    try:
        calls["weyl_orbit"]()
    except CapExceeded:
        pattern = rf"^orbit size exceeded cap {cap} \(predicted size ([0-9]+)\)$"
        for name, call in calls.items():
            with pytest.raises(CapExceeded, match=pattern) as info:
                call()
            assert int(re.match(pattern, str(info.value))[1]) > cap
        return False
    want = reference_results(rs, inv, rrs, lam, cap)
    for name, call in calls.items():
        got = call()
        assert isinstance(got, frozenset), name
        assert got == want[name], (name, lam)
    return True


def test_orbit_functions_match_reference_on_catalog():
    rng = random.Random(9)
    forms = compared = 0
    for entry in build_default_catalog():
        rs, inv, rrs = form(entry.id)
        seeded = [
            Weight.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank))
            for _ in range(3)
        ]
        for lam in [rs.rho, Weight.zero(rs.rank), *rs.fundamental_weights, *seeded]:
            compared += assert_matches_reference(rs, inv, rrs, lam)
        forms += 1
    assert forms == 56
    assert compared > 400


def conjugated_involutions(seed, per_form=10):
    """The distinct conjugates w theta w^-1 of catalog involutions with a
    split part and |W| <= CAP by drawn Weyl words w, where the conjugate's
    default positive system is not compatible, so that its chamber transform
    is not 1."""
    rng = random.Random(seed)
    seen = set()
    for entry in build_default_catalog():
        rs, inv, _ = form(entry.id)
        if inv.split_rank == 0 or rs.weyl_order > CAP:
            continue
        for _ in range(per_form):
            word = [rng.randrange(rs.rank) for _ in range(rng.randint(1, 2 * rs.rank))]
            w, w_inv = word_element(rs, word), word_element(rs, word[::-1])
            theta = _int_mat_mul(_int_mat_mul(w.matrix, inv.theta), w_inv.matrix)
            conjugate = validate_involution(rs, theta)
            if not conjugate.default_compatible and (rs.cartan_type, theta) not in seen:
                seen.add((rs.cartan_type, theta))
                yield rs, conjugate, restricted_roots(rs, conjugate)


def refuses_for_no_direction(rs, inv, rrs, lam, admissible):
    """Does the search refuse lam with NoAdmissibleDirection?  Its datum
    takes one reference admissible exponent, when there is one."""
    exponents = frozenset(sorted(admissible, key=lambda w: w.coords)[:1])
    try:
        strong_regularization(
            rs, inv, rrs, FormalDSDatum(lam, exponents), TranslationConfig(max_k=0, max_mu_coeff=0)
        )
    except NoAdmissibleDirection:
        return True
    except (SearchExhausted, BadParameters):
        pass
    return False


def assert_walk_matches_reference(rs, inv, rrs, lam):
    """The walk visits each admissible orbit point once, the reference's
    ``orbit_plus``, and the search refuses lam when there is none."""
    want = reference_results(rs, inv, rrs, lam, CAP)
    walked = _walk(rrs, lam, CAP)
    assert len(set(walked)) == len(walked), lam
    points = {apply(inv.chamber, Weight(Fraction(x, lam.den) for x in u)) for u in walked}
    assert points == want["orbit_plus"], lam
    admissible = want["admissible_exponents"]
    assert refuses_for_no_direction(rs, inv, rrs, lam, admissible) == (not admissible), lam
    return len(walked)


def test_walk_matches_reference_on_rechosen_chambers():
    rng = random.Random(26)
    involutions = compared = walked = 0
    for rs, inv, rrs in conjugated_involutions(seed=26):
        assert inv.chamber.matrix != rs.identity.matrix
        seeded = [
            Weight.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rs.rank))
            for _ in range(3)
        ]
        for lam in [rs.rho, -rs.rho, Weight.zero(rs.rank), *rs.fundamental_weights, *seeded]:
            assert assert_matches_reference(rs, inv, rrs, lam)
            walked += assert_walk_matches_reference(rs, inv, rrs, lam)
            compared += 1
        involutions += 1
    assert involutions >= 35 and compared >= 300 and walked >= 5000


def test_walk_matches_reference_on_catalog():
    refused = walked = 0
    for form_id in SMALL_FORMS:
        rs, inv, rrs = form(form_id)
        moved = [apply(word_element(rs, (i,)), w) for i, w in enumerate(rs.fundamental_weights)]
        for lam in [rs.rho, Weight.zero(rs.rank), *rs.fundamental_weights, *moved]:
            count = assert_walk_matches_reference(rs, inv, rrs, lam)
            walked += count
            refused += not count
    assert refused > 100 and walked > 1500


SMALL_FORMS = tuple(
    entry.id
    for entry in build_default_catalog()
    if weyl_order(entry.cartan_type) <= CAP
)
coefficient = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=6)
)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(SMALL_FORMS), data=st.data())
def test_orbit_functions_match_reference_on_drawn_weights(form_id, data):
    rs, inv, rrs = form(form_id)
    lam = Weight(tuple(data.draw(st.lists(coefficient, min_size=rs.rank, max_size=rs.rank))))
    assert assert_matches_reference(rs, inv, rrs, lam)


def search_outcome(rs, inv, rrs, datum):
    """The search's refusal of a datum: its error's name and message, or None."""
    try:
        strong_regularization(rs, inv, rrs, datum, TranslationConfig(max_k=0, max_mu_coeff=0))
    except (NoAdmissibleDirection, InvalidDatum) as exc:
        return type(exc).__name__, str(exc)
    except (SearchExhausted, BadParameters):
        pass
    return None


@settings(deadline=None, derandomize=True, max_examples=300)
@given(form_id=st.sampled_from(SMALL_FORMS), data=st.data())
def test_search_refuses_exactly_the_exponents_outside_the_reference_set(form_id, data):
    # the one exponent rule: each exponent must be in the reference admissible
    # set, checked after the weight is found to have one
    rs, inv, rrs = form(form_id)
    vector = st.lists(coefficient, min_size=rs.rank, max_size=rs.rank)
    lam = Weight(tuple(data.draw(vector)))
    reference = reference_results(rs, inv, rrs, lam, CAP)
    admissible = reference["admissible_exponents"]
    kinds = st.sampled_from(["admissible"] * 3 + ["restriction", "half", "drawn", "rank"])
    exponents = set()
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(kinds)
        if kind == "rank":
            exponents.add(Weight.zero(rs.rank + 1))
        elif kind == "drawn":
            exponents.add(Weight(tuple(data.draw(vector))))
        else:
            pool = reference["orbit_restrictions"]
            if kind == "admissible" and admissible:
                pool = admissible
            e = data.draw(st.sampled_from(sorted(pool, key=lambda w: w.coords)))
            exponents.add(e.scale(Fraction(1, 2)) if kind == "half" else e)
    if not admissible:
        want = "NoAdmissibleDirection", "no orbit element restricts into the negative cone interior"
    elif not exponents <= admissible:
        want = "InvalidDatum", "exponent is not an admissible restriction of the weight's orbit"
    elif not exponents:
        want = "InvalidDatum", "datum has no exponents to certify"
    else:
        want = None
    assert search_outcome(rs, inv, rrs, FormalDSDatum(lam, frozenset(exponents))) == want


@pytest.mark.parametrize(
    "cartan_type",
    ["A1", "A2", "A5", "A8", "B2", "B3", "B6", "C3", "C5", "D4", "D5", "D7",
     "E6", "E7", "E8", "F4", "G2", "A1xA1", "A2xB3xG2"],
)
def test_roots_match_reference_closure(cartan_type):
    rs = build_root_system(cartan_type)
    simple = [Weight(e) for e in rs.identity.matrix]
    want = closure(simple, lambda nu: [reflect(rs, i, nu) for i in range(rs.rank)])
    assert {Weight(a) for a in rs.roots} == set(want)


ORBIT_FUNCTIONS = ("weyl_orbit", "orbit_restrictions", "admissible_exponents", "orbit_plus")


@pytest.mark.parametrize("name", ORBIT_FUNCTIONS)
def test_orbit_cap_counts_elements(name):
    # rho is regular on split B3, so its orbit has |W| = 48 elements
    rs, inv, rrs = form("split(B3)")
    assert len(reference_orbit(rs, rs.rho)) == 48
    int_results(rs, inv, rrs, rs.rho, 48)[name]()
    with pytest.raises(CapExceeded, match=r"^orbit size exceeded cap 47 \(predicted size 48\)$"):
        int_results(rs, inv, rrs, rs.rho, 47)[name]()


@pytest.mark.parametrize("name", ORBIT_FUNCTIONS)
def test_orbit_functions_reject_a_weight_of_the_wrong_rank(name):
    rs, inv, rrs = form("split(B3)")
    for lam in (Weight.zero(rs.rank + 1), Weight.of([1, 1])):
        with pytest.raises(RankMismatch):
            int_results(rs, inv, rrs, lam, CAP)[name]()


@pytest.mark.parametrize(
    "cartan_type",
    ["A1", "A3", "A7", "B2", "B4", "B8", "C3", "C6", "D4", "D6", "D8", "E6", "E7", "E8",
     "F4", "G2", "A1xA1", "A2xG2", "B3xC2xA1", "D4xE6"],
)
def test_all_walls_give_the_group_order(cartan_type):
    rs = build_root_system(cartan_type)
    assert _wall_group_order(rs, range(rs.rank)) == rs.weyl_order == weyl_order(cartan_type)
    assert _wall_group_order(rs, ()) == 1


def test_predicted_orbit_size_matches_the_orbit_on_catalog():
    compared = 0
    for form_id in SMALL_FORMS:
        rs, inv, rrs = form(form_id)
        # s_i omega_i lies on fewer walls than its dominant representative
        moved = [apply(word_element(rs, (i,)), w) for i, w in enumerate(rs.fundamental_weights)]
        for lam in [rs.rho, Weight.zero(rs.rank), *rs.fundamental_weights, *moved]:
            size = len(weyl_orbit(rs, lam))
            # a cap of the orbit size passes; one less lies below |W|, so the
            # orbit is refused with its size predicted
            assert len(weyl_orbit(rs, lam, cap=size)) == size
            if size > 1:
                with pytest.raises(CapExceeded, match=rf" \(predicted size {size}\)$"):
                    weyl_orbit(rs, lam, cap=size - 1)
            compared += 1
    assert compared > 400
