"""The int cone decisions of the translation search against the Fraction
rules they replaced.

``exponents._position`` finds the least margin -p/|X| over the facet rays on
ints: by sign, then by p^2 n' against p'^2 n, with one SignedSqrt built for
the ray chosen.  ``reference_margin`` is the rule it replaced, one SignedSqrt
per ray from the Fraction pairings, the least kept; the two are compared on
catalog vectors and on drawn int products with zeros, ties, mixed signs, and
forms with no rays.

``translation._cone_margin`` decides whether every exponent + shift sum lies
in the open negative cone, and finds the least margin over the sums, from one
tuple of ray pairings: on each ray, the largest exponent pairing plus the
largest shift pairing, each set's maxima taken once, as int products at one
scale (``_ray_maxima`` of int tuples, and ``exponents._orbit_maxima`` over a
weight's orbit restrictions).  The search holds its exponents as int tuples
at the admissible walk's scale; the tests put their weight sets at one scale
with ``weight_reference.ray_maxima``.  The search scales the exponent maxima
by the line factor kN + 1 instead of scaling the exponents.  The reference is
the pair loop it replaced: one Fraction sum e + s per pair, each located from
scratch by ``reference_cone_position`` (``tests/restricted_reference.py``,
the same margin rule), which reads neither the ray covectors nor the ray
norms.  Its shift sets are the restrictions of the closed int orbit
(``restricted_reference.orbit_restrictions``), which
``test_orbit_reference.py`` compares with the Fraction closure.  Every set
the search and its certificates decide on is nonempty: the search refuses a
datum with no exponents, and a shift orbit always has a point.  The search
and its certificates are checked against the search as it was:
``extended_stabilizer`` on every candidate and the same pair loop on every
scaled exponent for every line parameter k.
``translation._strongly_regular``, the search's int test of each candidate,
is compared with ``extended_stabilizer(...).is_trivial`` directly.

``exponents._orbit_maxima`` closes no orbit: it chases the weight once and
pairs its dominant point with each ray's dominant covector, stored by
``restricted_roots``.  ``reference_orbit_maxima`` is the closure it replaced,
each ray's largest product over the distinct doubled restrictions of the
whole int orbit (``restricted_reference.doubled_orbit_restrictions``).  The two are compared on every catalog form with
|W| <= 1152, for rho, the fundamental weights and seeded rationals, on
drawn weights, and on the +-w involutions whose chamber is re-chosen (where
the rays are not dominant); so are their refusals of an orbit past ``cap``,
message included, and the search's refusal of a shift orbit past ``cap``.
The search is also run from a weight off the dominant chamber, on catalog
forms and on those involutions.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``.
"""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartan_ds import (
    DEFAULT_CAP,
    CapExceeded,
    FormalDSDatum,
    SearchExhausted,
    SignedSqrt,
    TranslationConfig,
    Weight,
    admissible_exponents,
    antidominant_restriction,
    apply,
    build_default_catalog,
    cone_position,
    dominant_representative,
    extended_stabilizer,
    restricted_roots,
    stabilizer_generators,
    strong_regularization,
    weyl_orbit,
    weyl_order,
    word_element,
)
from cartan_ds.exponents import (
    NEG_INTERIOR,
    _orbit_maxima,
    _position,
    _ray_products,
)
from cartan_ds.rootdata import _int_mat_vec
from cartan_ds.translation import (
    SearchBest,
    _candidate_coefficients,
    _cone_margin,
    _strongly_regular,
)
from forms import form, pm_w_involutions
from restricted_reference import (
    doubled_orbit_restrictions,
    orbit_restrictions,
    reference_cone_position,
    reference_margin,
)
from weight_reference import pairings_of, ray_maxima, restricted_weights


def reference_cone_margin(chamber, exponents, shifts):
    """Whether all exponent+shift sums are cone-interior, and their least margin."""
    passed = True
    least = None
    for e in exponents:
        for s in shifts:
            kind, margin, _ = reference_cone_position(chamber, e + s)
            if least is None or margin < least:
                least = margin
            passed = passed and kind == NEG_INTERIOR
    return passed, least


def cone_margin(chamber, exponents, shifts):
    """_cone_margin of the two sets' ray maxima."""
    return _cone_margin(chamber, ray_maxima(chamber, exponents), ray_maxima(chamber, shifts))


SPLIT_FORMS = [
    e.id
    for e in build_default_catalog()
    if e.rank <= 4 and form(e.id)[1].split_rank > 0
]


def test_position_matches_the_parent_rule_on_the_catalog():
    for entry in build_default_catalog():
        rs, inv, rrs = form(entry.id)
        vectors = [rs.rho, *rs.fundamental_weights]
        vectors += [-v for v in vectors]
        vectors += [inv.restrict(v) for v in vectors] + [Weight.zero(rs.rank)]
        for v in vectors:
            products, scale = _ray_products(rrs, v)
            got = _position(rrs, products, scale)
            pairings = pairings_of(rrs, products, scale)
            want = reference_margin(pairings, rrs.ray_norms, rrs.fulldim)
            assert got == want, (entry.id, v)
            pos = cone_position(rrs, v)
            assert (pos.kind, pos.margin, pairings) == reference_cone_position(rrs, v)


# sl(3,R) and split(B3) have rays of equal norm, where equal products tie;
# compact(A2) has no rays
POSITION_FORMS = ["sl(3,R)", "su(2,1)", "sp(2,R)", "split(G2)", "so(4,3)", "split(B3)",
                  "su(2,2)", "compact(A2)"]


@settings(deadline=None, derandomize=True, max_examples=400)
@given(form_id=st.sampled_from(POSITION_FORMS), data=st.data())
def test_position_matches_the_parent_rule_on_drawn_products(form_id, data):
    rrs = form(form_id)[2]
    rays = len(rrs.ray_norms)
    products = data.draw(st.lists(st.integers(-4, 4), min_size=rays, max_size=rays))
    scale = data.draw(st.sampled_from([1, 2, 3, 12]))
    pairings = pairings_of(rrs, products, scale)
    want = reference_margin(pairings, rrs.ray_norms, rrs.fulldim)
    assert _position(rrs, products, scale) == want


@pytest.mark.parametrize(
    "products, interior, margin",
    [
        # the least margin is on the later ray, and ties keep their value
        ((-3, -1), True, SignedSqrt(1, Fraction(3, 2))),
        ((-1, -3), True, SignedSqrt(1, Fraction(3, 2))),
        ((-2, -2), True, SignedSqrt(1, Fraction(6))),
        ((1, 3), False, SignedSqrt(-1, Fraction(27, 2))),
        ((2, 2), False, SignedSqrt(-1, Fraction(6))),
        # mixed signs: a positive product makes the least margin negative
        ((-3, 1), False, SignedSqrt(-1, Fraction(3, 2))),
        ((0, -5), False, SignedSqrt.zero()),
        ((0, 0), False, SignedSqrt.zero()),
    ],
)
def test_position_on_the_two_equal_rays_of_sl3(products, interior, margin):
    # both rays of sl(3,R) have |X|^2 = 2/3 and scale 1: margin^2 = 3 x^2 / 2
    rrs = form("sl(3,R)")[2]
    assert rrs.ray_scales == (1, 1) and rrs.ray_norms == (Fraction(2, 3),) * 2
    assert _position(rrs, products, 1) == (interior, margin)
    pairings = pairings_of(rrs, products, 1)
    assert reference_margin(pairings, rrs.ray_norms, rrs.fulldim) == (interior, margin)


def reference_orbit_maxima(rs, inv, chamber, lam, cap=DEFAULT_CAP):
    """The ray maxima of lam's orbit restrictions, and their number: each ray's
    largest int product over the distinct doubled restrictions d of the closed
    int orbit, at the scale 2s that makes d / 2s the restriction."""
    scale, distinct = doubled_orbit_restrictions(rs, inv, lam, cap)
    products = (_int_mat_vec(chamber.ray_covectors, d) for d in distinct)
    return (tuple(map(max, zip(*products))), scale), len(distinct)


def orbit_maxima(chamber, lam, cap=DEFAULT_CAP):
    """``_orbit_maxima`` of lam's int numerators, with its denominator."""
    return _orbit_maxima(chamber, list(lam.nums), cap), lam.den


def as_fractions(maxima):
    products, scale = maxima
    return tuple(Fraction(x, scale) for x in products)


@pytest.mark.parametrize("form_id", SPLIT_FORMS)
def test_orbit_maxima_match_the_restricted_orbit(form_id):
    rs, inv, rrs = form(form_id)
    for mu in (rs.rho, *rs.fundamental_weights):
        shifts = orbit_restrictions(rs, inv, mu)
        products, scale = orbit_maxima(rrs, mu)
        pairings = [reference_cone_position(rrs, s)[2] for s in shifts]
        assert pairings_of(rrs, products, scale) == tuple(map(max, zip(*pairings)))


# every +-w involution of these types whose compatible chamber is re-chosen
RECHOSEN = [
    (rs, inv, restricted_roots(rs, inv))
    for t in ("A2", "B2", "G2", "A3", "B3")
    for rs, inv in pm_w_involutions(t)
    if not inv.default_compatible
]

# split(F4) and the other rank-4 forms up to |W| = 1152; E6 and up close
# orbits of tens of thousands of points
MAXIMA_FORMS = [e.id for e in build_default_catalog() if weyl_order(e.cartan_type) <= 1152]


def seeded_weights(rs, seed, count=6):
    rng = random.Random(seed)
    return [
        Weight.of(Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(rs.rank))
        for _ in range(count)
    ]


@pytest.mark.parametrize("form_id", MAXIMA_FORMS)
def test_orbit_maxima_match_the_closure_on_the_catalog(form_id):
    rs, inv, rrs = form(form_id)
    weights = [rs.rho, *rs.fundamental_weights, *seeded_weights(rs, form_id)]
    for lam in weights + [-lam for lam in weights] + [Weight.zero(rs.rank)]:
        want, _ = reference_orbit_maxima(rs, inv, rrs, lam)
        assert as_fractions(orbit_maxima(rrs, lam)) == as_fractions(want), (form_id, lam)


@pytest.mark.parametrize("form_id", MAXIMA_FORMS)
def test_orbit_maxima_refuse_an_orbit_past_the_cap_as_the_closure(form_id):
    # at caps just below, at and above each orbit's size, and below |W|
    rs, inv, rrs = form(form_id)
    for lam in (rs.rho, *rs.fundamental_weights):
        size = len(weyl_orbit(rs, lam))
        for cap in {size - 1, size, size + 1, rs.weyl_order - 1} - {0}:
            try:
                want = reference_orbit_maxima(rs, inv, rrs, lam, cap)[0]
            except CapExceeded as exc:
                with pytest.raises(CapExceeded, match=f"^{re.escape(str(exc))}$"):
                    orbit_maxima(rrs, lam, cap)
                assert cap < size
                continue
            assert cap >= size
            assert as_fractions(orbit_maxima(rrs, lam, cap)) == as_fractions(want)


DRAWN_MAXIMA_FORMS = ["sl(3,R)", "su(2,1)", "split(G2)", "so(4,3)", "su(2,2)", "sp(2,R)",
                      "split(F4)", "compact(A2)"]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(form_id=st.sampled_from(DRAWN_MAXIMA_FORMS), data=st.data())
def test_orbit_maxima_match_the_closure_on_drawn_weights(form_id, data):
    rs, inv, rrs = form(form_id)
    lam = data.draw(st.lists(COEFFICIENTS, min_size=rs.rank, max_size=rs.rank).map(Weight.of))
    want, _ = reference_orbit_maxima(rs, inv, rrs, lam)
    assert as_fractions(orbit_maxima(rrs, lam)) == as_fractions(want)


def test_orbit_maxima_match_the_closure_on_rechosen_chambers():
    # every catalog form keeps the default positive system, whose facet rays
    # are already dominant; on the +-w involutions with a re-chosen chamber
    # restricted_roots chases each ray to its dominant point
    moved = 0
    for rs, inv, rrs in RECHOSEN:
        moved += rrs.dominant_covectors != rrs.ray_covectors
        for lam in [rs.rho, *rs.fundamental_weights, *seeded_weights(rs, repr(inv.theta), 3)]:
            want, _ = reference_orbit_maxima(rs, inv, rrs, lam)
            assert as_fractions(orbit_maxima(rrs, lam)) == as_fractions(want), (inv.theta, lam)
    assert moved == len(RECHOSEN) >= 50


def test_a_shift_orbit_past_the_cap_stops_the_search():
    # lam = F_1 on sl(4,R) has an orbit of 4, but the first shift the search
    # takes, F_2 + F_3, has one of 24 / 2 = 12
    rs, inv, rrs = form("sl(4,R)")
    lam = rs.fundamental_weights[0]
    datum = FormalDSDatum(lam, admissible_exponents(rs, inv, rrs, lam, cap=4))
    shift = rs.fundamental_weights[1] + rs.fundamental_weights[2]
    message = r"^orbit size exceeded cap 11 \(predicted size 12\)$"
    with pytest.raises(CapExceeded, match=message):
        reference_orbit_maxima(rs, inv, rrs, shift, cap=11)
    with pytest.raises(CapExceeded, match=message):
        strong_regularization(rs, inv, rrs, datum, TranslationConfig(cap=11))
    result = strong_regularization(rs, inv, rrs, datum, TranslationConfig(cap=12))
    assert result.mus and result.certificates.strongly_regular


# The pair loop makes one position per pair, about 0.13 ms each.  A larger grid
# cell takes a seeded sample of the exponents: split(F4)'s 373 admissible
# exponents against its 1152 restrictions of the rho orbit would take 56 s.
MAX_PAIRS = 20_000


def grid(form_id):
    """The exponent sets and the shift sets of a form's grid."""
    rs, inv, rrs = form(form_id)
    exponent_sets = [
        [antidominant_restriction(rs, inv, rs.rho)],
        sorted(admissible_exponents(rs, inv, rrs, rs.rho), key=lambda w: w.coords),
    ]
    shift_sets = [
        sorted(orbit_restrictions(rs, inv, mu), key=lambda w: w.coords)
        for mu in (rs.rho, *rs.fundamental_weights)
    ] + [[Weight.zero(rs.rank)]]
    return exponent_sets, shift_sets


@pytest.mark.parametrize("form_id", SPLIT_FORMS)
def test_catalog_exponents_and_shifts_match_the_pair_loop(form_id):
    rrs = form(form_id)[2]
    exponent_sets, shift_sets = grid(form_id)
    verdicts = set()
    for exponents in exponent_sets:
        for shifts in shift_sets:
            cell = exponents
            if len(cell) * len(shifts) > MAX_PAIRS:
                cell = random.Random(form_id).sample(cell, MAX_PAIRS // len(shifts))
            got = cone_margin(rrs, cell, shifts)
            assert got == reference_cone_margin(rrs, cell, shifts), (form_id, shifts)
            verdicts.add(got[0])
    # the grid reaches both verdicts on every form with a split part
    assert verdicts == {True, False}, form_id


LINE_PARAMETERS = range(41)


def extremes(chamber, vectors):
    """For each facet ray, the first vector with the largest pairing there."""
    pairings = [reference_cone_position(chamber, v)[2] for v in vectors]
    keep = {
        max(range(len(vectors)), key=lambda i: pairings[i][j])
        for j in range(len(chamber.ray_norms))
    }
    return [vectors[i] for i in sorted(keep)]


@pytest.mark.parametrize("form_id", SPLIT_FORMS)
def test_scaled_exponent_maxima_match_the_pair_loop(form_id):
    # The pair loop of every cell for 41 line parameters would take minutes,
    # so each cell keeps, for each ray, one exponent and one shift with the
    # largest pairing: the same maxima as the whole cell.  The whole cells are
    # checked at k = 0 above.
    rrs = form(form_id)[2]
    exponent_sets, shift_sets = grid(form_id)
    for exponents in exponent_sets:
        top_exponent = ray_maxima(rrs, exponents)
        exponents = extremes(rrs, exponents)
        for shifts in shift_sets:
            top_shift = ray_maxima(rrs, shifts)
            shifts = extremes(rrs, shifts)
            for k in LINE_PARAMETERS:
                factor = k + 1
                got = _cone_margin(rrs, top_exponent, top_shift, factor)
                scaled = [e.scale(factor) for e in exponents]
                assert got == reference_cone_margin(rrs, scaled, shifts), (form_id, k)


HYPOTHESIS_FORMS = ["su(2,1)", "so(4,3)", "split(B3)", "compact(A2)"]

# small rationals, 0 among them, so that sums land on cone walls
COEFFICIENTS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))


def vectors(rs, rrs):
    """Weights anywhere in the weight space, and combinations of the simple
    restricted roots (whose coefficients are the ray pairings)."""
    anywhere = st.lists(COEFFICIENTS, min_size=rs.rank, max_size=rs.rank).map(Weight.of)
    simple = restricted_weights(rrs).simple_restricted
    if not simple:
        return anywhere

    def combination(coefficients):
        v = Weight.zero(rs.rank)
        for c, s in zip(coefficients, simple):
            v = v + s.scale(c)
        return v

    in_span = st.lists(COEFFICIENTS, min_size=len(simple), max_size=len(simple)).map(combination)
    return st.one_of(in_span, anywhere)


@pytest.mark.parametrize("form_id", HYPOTHESIS_FORMS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_sets_match_the_pair_loop(form_id, data):
    rs, _, rrs = form(form_id)
    vector_sets = st.lists(vectors(rs, rrs), min_size=1, max_size=4)
    exponents = data.draw(vector_sets, label="exponents")
    shifts = data.draw(vector_sets, label="shifts")
    assert cone_margin(rrs, exponents, shifts) == reference_cone_margin(
        rrs, exponents, shifts
    )
    factor = data.draw(st.sampled_from(LINE_PARAMETERS), label="k") + 1
    got = _cone_margin(rrs, ray_maxima(rrs, exponents), ray_maxima(rrs, shifts), factor)
    assert got == reference_cone_margin(rrs, [e.scale(factor) for e in exponents], shifts)


def test_a_sum_on_a_wall_is_not_interior():
    rs, _, rrs = form("so(4,3)")
    exponent = -rrs.rho_restricted
    wall = [rrs.rho_restricted - restricted_weights(rrs).simple_restricted[0]]
    passed, margin = cone_margin(rrs, [exponent], wall)
    assert not passed and margin == SignedSqrt.zero()
    assert reference_cone_margin(rrs, [exponent], wall) == (passed, margin)


def test_a_compact_cartan_has_no_interior():
    rs, _, rrs = form("compact(A2)")
    assert not rrs.fulldim and not rrs.ray_norms
    assert ray_maxima(rrs, [-rs.rho]) == ([], 1)
    assert cone_margin(rrs, [-rs.rho], [Weight.zero(rs.rank)]) == (False, SignedSqrt.zero())


def reference_key(entry):
    """A search candidate's rank: strongly regular first, then the larger margin."""
    return entry.strongly_regular, entry.min_margin


def reference_search(rs, inv, rrs, datum, cfg):
    """The search as it was: every line parameter k scales the exponents and
    runs the pair loop against the candidate shift's restricted orbit.  The k
    and final weight found, or the best candidate seen."""
    base_dom_default, _ = dominant_representative(rs, datum.weight)
    base_dom = apply(inv.chamber, base_dom_default)
    best = None
    for coeffs in _candidate_coefficients(rs.rank, cfg.max_mu_coeff):
        shift_default = Weight.zero(rs.rank)
        for c, fw in zip(coeffs, rs.fundamental_weights):
            shift_default = shift_default + fw.scale(c)
        if not stabilizer_generators(rs, base_dom_default + shift_default).is_regular:
            continue
        shift = apply(inv.chamber, shift_default)
        shifts = orbit_restrictions(rs, inv, shift_default, cfg.cap)
        for k in range(cfg.max_k + 1) if any(coeffs) else range(1):
            factor = Fraction(k * cfg.integrality + 1)
            final_weight = base_dom.scale(factor) + shift
            strongly_regular = extended_stabilizer(rs, inv, final_weight).is_trivial
            scaled = [e.scale(factor) for e in datum.exponents]
            cone_ok, margin = reference_cone_margin(rrs, scaled, shifts)
            candidate = SearchBest(coeffs, k, strongly_regular, margin)
            if best is None or reference_key(candidate) > reference_key(best):
                best = candidate
            if strongly_regular and cone_ok:
                return k, final_weight
    return best


def assert_certificates_match_the_pair_loop(rs, inv, rrs, certificates):
    scaled = certificates.scaled_exponents
    passed, base_margin = reference_cone_margin(rrs, scaled, [Weight.zero(rs.rank)])
    assert certificates.base_margin == base_margin
    partial = Weight.zero(rs.rank)
    for step in certificates.steps:
        partial = partial + step.direction
        ok, margin = reference_cone_margin(rrs, scaled, orbit_restrictions(rs, inv, partial))
        assert (step.cone_ok, step.min_margin) == (ok, margin)
        passed = passed and ok
    assert certificates.cone_condition == passed


SEARCH_FORMS = [form_id for form_id in SPLIT_FORMS if form(form_id)[0].rank <= 3]

SEARCH_CONFIGS = [
    TranslationConfig(),
    TranslationConfig(integrality=2, max_k=6, max_mu_coeff=2),
    TranslationConfig(max_k=1, max_mu_coeff=1),
    TranslationConfig(max_k=0, max_mu_coeff=0),
]


def test_search_matches_the_pair_loop():
    outcomes = Counter()
    for form_id in SEARCH_FORMS:
        rs, inv, rrs = form(form_id)
        data = [
            FormalDSDatum(rs.rho, frozenset({antidominant_restriction(rs, inv, rs.rho)})),
            FormalDSDatum(rs.rho, admissible_exponents(rs, inv, rrs, rs.rho)),
        ]
        for datum in data:
            for cfg in SEARCH_CONFIGS:
                expected = reference_search(rs, inv, rrs, datum, cfg)
                try:
                    result = strong_regularization(rs, inv, rrs, datum, cfg)
                except SearchExhausted as exc:
                    assert exc.best == expected, (form_id, datum, cfg)
                    outcomes["exhausted"] += 1
                    continue
                assert (result.k, result.final_weight) == expected, (form_id, datum, cfg)
                assert_certificates_match_the_pair_loop(rs, inv, rrs, result.certificates)
                outcomes["k > 0" if result.k else "shifted" if result.mus else "base"] += 1
    # every outcome is reached: the base weight, a shift at k = 0, a shift at
    # k > 0, and an exhausted search
    assert outcomes == {"base": 168, "shifted": 33, "k > 0": 9, "exhausted": 14}


def assert_steps_are_chased(rs, result):
    """The final weight is (kN + 1) B + sum mus, and each step's target the
    dominant point of the running sum."""
    factor = result.k * result.integrality + 1
    running = result.dominant_base.scale(factor)
    for mu, step in zip(result.mus, result.certificates.steps):
        running = running + mu
        assert step.target == dominant_representative(rs, running)[0]
    assert running == result.final_weight


def test_search_matches_the_pair_loop_from_other_chambers():
    # a weight off the dominant chamber, whose base the search chases, on the
    # catalog and on +-w involutions whose compatible chamber is re-chosen
    cases = [form(form_id) for form_id in SEARCH_FORMS] + RECHOSEN
    outcomes = Counter()
    for rs, inv, rrs in cases:
        weight = apply(word_element(rs, (0,)), -rs.rho)
        admissible = sorted(admissible_exponents(rs, inv, rrs, weight), key=lambda w: w.coords)
        if not admissible:
            outcomes["no direction"] += 1
            continue
        for exponents in (admissible[:1], admissible):
            datum = FormalDSDatum(weight, frozenset(exponents))
            for cfg in SEARCH_CONFIGS[:3]:
                expected = reference_search(rs, inv, rrs, datum, cfg)
                try:
                    result = strong_regularization(rs, inv, rrs, datum, cfg)
                except SearchExhausted as exc:
                    assert exc.best == expected, (inv.theta, datum, cfg)
                    outcomes["exhausted"] += 1
                    continue
                assert (result.k, result.final_weight) == expected, (inv.theta, datum, cfg)
                assert_certificates_match_the_pair_loop(rs, inv, rrs, result.certificates)
                assert_steps_are_chased(rs, result)
                key = "default" if inv.default_compatible else "rechosen"
                outcomes[(key, "shifted" if result.mus else "base")] += 1
    assert set(outcomes) == {(c, r) for c in ("default", "rechosen") for r in ("base", "shifted")}


SMALL_FORMS = [e.id for e in build_default_catalog() if e.rank <= 4]
NO_WITNESS_FORMS = [f for f in SMALL_FORMS if form(f)[1].weyl_witness is None]


def assert_strong_regularity_matches(rs, inv, lam):
    """The int predicate on lam's int numerators against the extended
    stabilizer; the verdict."""
    coords = list(lam.nums)
    want = extended_stabilizer(rs, inv, lam).is_trivial
    assert _strongly_regular(rs, inv, coords) == want, lam
    # any positive multiple has the same verdict
    assert _strongly_regular(rs, inv, [3 * x for x in coords]) == want, lam
    return want


@pytest.mark.parametrize("form_id", SMALL_FORMS)
def test_strong_regularity_matches_the_extended_stabilizer(form_id):
    rs, inv, _ = form(form_id)
    rho = rs.rho
    for lam in (rho, -rho, apply(inv.chamber, rho), inv.act(rho) + rho.scale(2)):
        assert_strong_regularity_matches(rs, inv, lam)
    for fw in rs.fundamental_weights:
        singular = not stabilizer_generators(rs, fw).is_regular
        assert singular == (rs.rank > 1), (form_id, fw)
        assert_strong_regularity_matches(rs, inv, fw)
        assert_strong_regularity_matches(rs, inv, apply(inv.chamber, fw + rho))


def test_a_regular_weight_with_a_twisted_fixer_is_not_strongly_regular():
    # theta is not a Weyl element on these forms, so the regular rho, whose
    # theta image chases back to rho, has a twisted fixer
    assert "sl(3,R)" in NO_WITNESS_FORMS
    for form_id in NO_WITNESS_FORMS:
        rs, inv, _ = form(form_id)
        coords = list(rs.rho.nums)
        assert stabilizer_generators(rs, rs.rho).is_regular
        assert not _strongly_regular(rs, inv, coords), form_id
        assert not extended_stabilizer(rs, inv, rs.rho).is_trivial, form_id


@pytest.mark.parametrize("form_id", ["sl(3,R)", "sl(4,R)", "so(3,3)", "su(2,1)", "split(B3)", "so(4,3)"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_strong_regularity_matches_on_drawn_weights(form_id, data):
    rs, inv, _ = form(form_id)
    lam = data.draw(st.lists(COEFFICIENTS, min_size=rs.rank, max_size=rs.rank).map(Weight.of))
    assert_strong_regularity_matches(rs, inv, lam)
