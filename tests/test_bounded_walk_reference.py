"""The search's bounded walk against the whole walk it replaced.

``exponents._walk`` carries each admissible orbit point u with its doubled
restriction d and its ray products p = c' u, and in default mode
``strong_regularization`` bounds it by the datum's exponents: a step is taken
only while every 2 p stays at or below the exponents' largest product with
its ray.  The products rise along the walk, so every admissible point that
restricts to a datum exponent is still reached; the start is always kept, so
NoAdmissibleDirection and InvalidDatum come out as before.  The reference is
the same search over the whole walk.  The two are compared, results and
raised errors alike, on every catalog form of rank <= 4 at lam in
{rho, omega_i}, with datum exponents drawn from lam's admissible set (none,
one or two of them), a cone-interior vector that is no admissible
exponent, alone and beside a member, and a restriction of lam's orbit
outside the open cone, under the default search bounds and
under bounds that leave most searches exhausted: 3,396 calls.

Each walked point's d and p are also compared with the products they stand
for: d = ``chamber_restriction`` u, p = ``chamber_covectors`` u, and
``ray_covectors`` d = 2 p, since a ray covector c is a positive multiple of
F X with theta X = -X.

The mutations these tests catch are listed, and run, in
``scripts/mutants.py``.
"""

import itertools
import random

from cartan_ds import (
    CartanDSError,
    FormalDSDatum,
    TranslationConfig,
    admissible_exponents,
    antidominant_restriction,
    build_default_catalog,
    exponents,
    strong_regularization,
    weyl_orbit,
)
from cartan_ds.rootdata import DEFAULT_CAP, _int_mat_vec
from forms import form

SMALL_FORMS = [e.id for e in build_default_catalog() if e.rank <= 4]
WALK = exponents._walk


def whole_walk(chamber, lam, cap, bound=None):
    """``_walk`` with its bound ignored."""
    return WALK(chamber, lam, cap)


def outcome(*args):
    """The search's result, or the type and message of the library error
    raised, with the best candidate of an exhausted search."""
    try:
        return strong_regularization(*args)
    except CartanDSError as error:
        return type(error), str(error), getattr(error, "best", None)


def reference_outcome(monkeypatch, *args):
    """``outcome`` of the search over the whole walk."""
    with monkeypatch.context() as patched:
        patched.setattr(exponents, "_walk", whole_walk)
        return outcome(*args)


def weights(rs):
    return (rs.rho, *rs.fundamental_weights)


def exponent_sets(rs, inv, rrs, lam, allowed, rng):
    """No exponent; the first, the last and up to six more single members of
    the admissible set, and four pairs; a cone-interior non-member, alone and
    beside a member; a restriction of lam's orbit outside the open cone."""
    members = sorted(allowed, key=lambda e: e.coords)
    candidates = [e.scale(2) for e in members] + [-rrs.rho_restricted]
    outsider = next(v for v in candidates if v not in allowed)
    sets = [(), (outsider,)]
    restrictions = {inv.restrict(v) for v in weyl_orbit(rs, lam)} - allowed
    if restrictions:
        sets.append((rng.choice(sorted(restrictions, key=lambda e: e.coords)),))
    if members:
        sets += [(members[0],), (members[-1],), (outsider, members[0])]
        sets += [(e,) for e in rng.sample(members, min(6, len(members)))]
    if len(members) > 1:
        sets += [tuple(rng.sample(members, 2)) for _ in range(4)]
    return sets


def test_bounded_walk_matches_the_whole_walk_on_the_catalog(monkeypatch):
    rng = random.Random(40)
    # the default bounds, and bounds that leave most searches exhausted, whose
    # best candidate is ranked on the exponent maxima too
    configs = TranslationConfig(), TranslationConfig(max_k=1, max_mu_coeff=0)
    counts = {}
    for form_id in SMALL_FORMS:
        rs, inv, rrs = form(form_id)
        for lam in weights(rs):
            allowed = admissible_exponents(rs, inv, rrs, lam)
            for chosen, cfg in itertools.product(exponent_sets(rs, inv, rrs, lam, allowed, rng), configs):
                args = rs, inv, rrs, FormalDSDatum(lam, frozenset(chosen)), cfg
                got = outcome(*args)
                assert got == reference_outcome(monkeypatch, *args), (form_id, lam, chosen)
                kind = got[0].__name__ if isinstance(got, tuple) else "result"
                counts[kind] = counts.get(kind, 0) + 1
    assert counts == {
        "result": 1221,
        "SearchExhausted": 635,
        "InvalidDatum": 1240,
        "NoAdmissibleDirection": 300,
    }


def test_walked_products_and_restrictions_are_the_matrix_products():
    points = 0
    for form_id in SMALL_FORMS:
        rs, inv, rrs = form(form_id)
        for lam in weights(rs):
            for u, d, p in exponents._walk(rrs, lam, DEFAULT_CAP):
                assert d == tuple(_int_mat_vec(rrs.chamber_restriction, u)), form_id
                assert p == _int_mat_vec(rrs.chamber_covectors, u), form_id
                assert _int_mat_vec(rrs.ray_covectors, d) == [2 * x for x in p], form_id
                points += 1
    assert points == 1461


def test_default_mode_walks_fewer_points_than_the_whole_walk(monkeypatch):
    # so(6,1) at rho: the whole walk has 24 admissible points, and the
    # default datum's one exponent is reached well before the last of them
    rs, inv, rrs = form("so(6,1)")
    walked = []

    def counted(*args):
        points = WALK(*args)
        walked.append(len(points))
        return points

    monkeypatch.setattr(exponents, "_walk", counted)
    exponent = antidominant_restriction(rs, inv, rs.rho)
    datum = FormalDSDatum(rs.rho, frozenset({exponent}))
    strong_regularization(rs, inv, rrs, datum)
    strong_regularization(rs, inv, rrs, datum, TranslationConfig(worst_case_exponents=True))
    assert walked[1] == 24
    assert walked[0] < 24
