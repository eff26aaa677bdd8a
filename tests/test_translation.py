"""Weight spectra, sum splitting, tensor margins, and strong regularization."""

from fractions import Fraction

import pytest

from cartan_ds import criterion, rootdata
from cartan_ds import (
    DEFAULT_CAP,
    BadParameters,
    CapExceeded,
    FormalDSDatum,
    InvalidDatum,
    NoAdmissibleDirection,
    NotDominantIntegral,
    PreconditionFailed,
    SearchExhausted,
    SignedSqrt,
    TranslationConfig,
    Weight,
    admissible_exponents,
    antidominant_restriction,
    apply,
    build_root_system,
    cone_position,
    dominant_representative,
    dual_chamber,
    enumerate_weyl,
    extended_stabilizer,
    longest_element,
    orbit_plus,
    sorted_exponents,
    strong_regularization,
    translate_line,
    verify_exact_sequence,
    verify_sum_splitting,
    weight_spectrum,
    weyl_orbit,
    word_element,
)
from cartan_ds.exponents import _orbit_maxima
from cartan_ds.translation import _cone_margin
from forms import form
from weight_reference import ray_maxima

F = Fraction


def default_datum(rs, inv, label):
    anti = apply(longest_element(rs), rs.rho)
    return FormalDSDatum(
        weight=rs.rho, exponents=frozenset({inv.restrict(anti)}), label=label
    )


# ---------------------------------------------------------------------------
# weight spectrum
# ---------------------------------------------------------------------------


def test_spectrum_counts_frozen():
    rs = build_root_system("A2")
    assert len(weight_spectrum(rs, rs.rho)) == 7
    assert len(weight_spectrum(rs, rs.fundamental_weights[0])) == 3


def test_spectrum_cap_binds_at_the_exact_size():
    rs = build_root_system("A2")
    assert len(weight_spectrum(rs, rs.rho, cap=7)) == 7
    with pytest.raises(CapExceeded, match="weight spectrum exceeded cap 6"):
        weight_spectrum(rs, rs.rho, cap=6)


def test_spectrum_of_minuscule_weight_is_its_orbit():
    rs = build_root_system("A2")
    fw1 = rs.fundamental_weights[0]
    assert weight_spectrum(rs, fw1) == weyl_orbit(rs, fw1)


def test_spectrum_of_rho_adds_the_origin():
    rs = build_root_system("A2")
    assert weight_spectrum(rs, rs.rho) == weyl_orbit(rs, rs.rho) | {Weight.zero(2)}


def test_spectrum_against_dominance_oracle_on_grid():
    """Independent characterisation: nu belongs to the spectrum of mu exactly
    when mu - dom_rep(nu) is a nonnegative integer combination of simple
    roots.  Checked exhaustively on a grid covering the support."""
    rs = build_root_system("A2")
    for mu in (rs.rho, rs.fundamental_weights[0]):
        spectrum = weight_spectrum(rs, mu)
        for a in range(-6, 7):
            for b in range(-6, 7):
                nu = Weight.of([F(a, 3), F(b, 3)])
                dom, _ = dominant_representative(rs, nu)
                diff = mu - dom
                expected = all(c.denominator == 1 and c >= 0 for c in diff.coords)
                assert (nu in spectrum) == expected, (mu.coords, nu.coords)


def test_spectrum_is_weyl_invariant():
    rs = build_root_system("B2")
    spectrum = weight_spectrum(rs, rs.rho)
    for i in range(rs.rank):
        assert {apply(word_element(rs, (i,)), nu) for nu in spectrum} == spectrum


# ---------------------------------------------------------------------------
# sum splitting
# ---------------------------------------------------------------------------


def test_splitting_holds_on_the_ray():
    rs = build_root_system("A2")
    mu0 = apply(longest_element(rs), rs.rho)
    report = verify_sum_splitting(rs, mu0.scale(F(2)), mu0)
    assert report.solutions_checked == 6  # one trivial solution per group element
    assert report.violations == ()


def test_splitting_accepts_fractional_scale():
    rs = build_root_system("A2")
    report = verify_sum_splitting(rs, rs.rho.scale(F(1, 2)), rs.rho)
    assert report.violations == ()


def test_splitting_over_whole_orbit():
    rs = build_root_system("B2")
    mu = rs.fundamental_weights[0]
    for mu0 in weyl_orbit(rs, mu):
        assert verify_sum_splitting(rs, mu0, mu0).violations == ()


def test_splitting_preconditions():
    rs = build_root_system("A2")
    with pytest.raises(PreconditionFailed):
        verify_sum_splitting(rs, rs.rho, Weight.zero(2))
    with pytest.raises(PreconditionFailed):
        verify_sum_splitting(rs, rs.rho, -rs.rho)  # negative multiple
    half = rs.fundamental_weights[0].scale(F(1, 2))
    with pytest.raises(NotDominantIntegral):
        verify_sum_splitting(rs, half, half)


# ---------------------------------------------------------------------------
# tensor margin condition
# ---------------------------------------------------------------------------


def tensor_margin(rrs, exponents, mu):
    """Whether every exponent shifted by every restriction of mu's orbit lies
    in the open negative cone, and the least margin: the search's
    ``_cone_margin`` of the exponents' ray maxima and mu's orbit maxima."""
    shift = _orbit_maxima(rrs, list(mu.nums), DEFAULT_CAP), mu.den
    return _cone_margin(rrs, ray_maxima(rrs, exponents), shift)


def test_tensor_condition_margin_on_su21():
    rs, inv, rrs = form("su(2,1)")
    margin = SignedSqrt(1, F(1, 2))
    assert tensor_margin(rrs, [-rs.rho], rs.fundamental_weights[0]) == (True, margin)


def test_tensor_condition_detects_escape():
    rs, inv, rrs = form("su(2,1)")
    thin = [inv.restrict(Weight.of([-1, 0]))]
    margin = SignedSqrt(1, F(1, 2)).scale(F(-1))
    assert tensor_margin(rrs, thin, rs.rho) == (False, margin)


# ---------------------------------------------------------------------------
# translation along a line
# ---------------------------------------------------------------------------


def test_translate_line_scales_weight_and_exponents():
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    datum = default_datum(rs, inv, "sl3")
    cfg = TranslationConfig()
    at0 = translate_line(rs, inv, ch, datum, 0, cfg)
    assert at0.weight == rs.rho and at0.exponents == datum.exponents
    at2 = translate_line(rs, inv, ch, datum, 2, cfg)
    assert at2.weight == rs.rho.scale(F(3))
    assert at2.exponents == frozenset({e.scale(F(3)) for e in datum.exponents})


def test_translate_line_margins_scale_exactly():
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    datum = default_datum(rs, inv, "sl3")
    cfg = TranslationConfig(integrality=2)
    base = {e: cone_position(ch, e).margin for e in datum.exponents}
    for k in range(6):
        factor = F(k * cfg.integrality + 1)
        moved = translate_line(rs, inv, ch, datum, k, cfg)
        got = sorted(cone_position(ch, e).margin for e in moved.exponents)
        want = sorted(m.scale(factor) for m in base.values())
        assert got == want, k


def test_translate_line_worst_case_covers_scaled_exponents():
    rs, inv, rrs = form("su(2,1)")
    ch = dual_chamber(rrs)
    datum = default_datum(rs, inv, "su21")
    plain = translate_line(rs, inv, ch, datum, 3, TranslationConfig())
    worst = translate_line(
        rs, inv, ch, datum, 3, TranslationConfig(worst_case_exponents=True)
    )
    assert plain.exponents <= worst.exponents


def test_translate_line_rejects_bad_inputs():
    rs, inv, rrs = form("sl(3,R)")
    ch = dual_chamber(rrs)
    cfg = TranslationConfig()
    bad = FormalDSDatum(
        weight=rs.rho, exponents=frozenset({rs.fundamental_weights[0]}), label="bad"
    )
    with pytest.raises(InvalidDatum):
        translate_line(rs, inv, ch, bad, 1, cfg)
    # k is an int that is not a bool, and nonnegative
    for k in (-1, True, 1.5, "2", None):
        with pytest.raises(BadParameters, match="line parameter k"):
            translate_line(rs, inv, ch, default_datum(rs, inv, "x"), k, cfg)


def test_config_validation():
    with pytest.raises(BadParameters):
        TranslationConfig(integrality=0)
    with pytest.raises(BadParameters):
        TranslationConfig(max_k=-1)
    with pytest.raises(BadParameters):
        TranslationConfig(cap=0)
    # field types: ints that are not bools, and a bool switch
    for bad in (
        {"worst_case_exponents": "no"},
        {"worst_case_exponents": 0},
        {"integrality": True},
        {"max_k": 1.5},
        {"max_mu_coeff": 1.0},
        {"cap": 2.5},
        {"cap": "10"},
    ):
        with pytest.raises(BadParameters):
            TranslationConfig(**bad)
    TranslationConfig(max_mu_coeff=0)  # legal: search only the ray itself


@pytest.mark.parametrize("cap", [True, False, 6.5, "10", None, 0, -1])
def test_every_cap_argument_follows_the_config_rule(cap):
    # an int, not a bool, at least 1: True once ran as a cap of 1, 6.5 was
    # taken, and "10" and None raised a bare TypeError
    with pytest.raises(BadParameters) as expected:
        TranslationConfig(cap=cap)
    rs, inv, ch = form("su(2,1)")
    calls = (
        lambda: enumerate_weyl(rs, cap),
        lambda: weyl_orbit(rs, rs.rho, cap),
        lambda: weight_spectrum(rs, rs.rho, cap),
        lambda: verify_sum_splitting(rs, rs.rho, rs.rho, cap),
        lambda: verify_exact_sequence(rs, inv, cap),
        lambda: admissible_exponents(rs, inv, ch, rs.rho, cap),
        lambda: orbit_plus(rs, inv, rs.rho, cap, chamber=ch),
    )
    for call in calls:
        with pytest.raises(BadParameters) as got:
            call()
        assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# strong regularization pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("form_id", ["sl(2,R)", "su(2,1)", "sp(2,R)"])
def test_pipeline_needs_no_shift_when_theta_is_inner(form_id):
    rs, inv, rrs = form(form_id)
    result = strong_regularization(rs, inv, rrs, default_datum(rs, inv, form_id))
    assert result.k == 0 and result.mus == ()
    assert result.final_weight == rs.rho
    assert result.certificates.strongly_regular
    assert result.certificates.cone_condition
    assert result.certificates.steps == ()


def test_pipeline_su21_frozen_certificates():
    rs, inv, rrs = form("su(2,1)")
    result = strong_regularization(rs, inv, rrs, default_datum(rs, inv, "su21"))
    assert result.certificates.base_margin == SignedSqrt(1, F(2))
    assert [w.coords for w in result.certificates.scaled_exponents] == [(F(-1), F(-1))]


def test_pipeline_sl3_needs_one_shift():
    rs, inv, rrs = form("sl(3,R)")
    result = strong_regularization(rs, inv, rrs, default_datum(rs, inv, "sl3"))
    assert result.k == 0
    assert [m.coords for m in result.mus] == [(F(1, 3), F(2, 3))]
    assert result.final_weight.coords == (F(4, 3), F(5, 3))
    assert result.certificates.strongly_regular
    assert result.certificates.base_margin == SignedSqrt(1, F(3, 2))
    (step,) = result.certificates.steps
    assert step.direction.coords == (F(1, 3), F(2, 3))
    assert step.target == result.final_weight
    assert step.min_margin == SignedSqrt(1, F(1, 6))
    assert step.cone_ok


def test_the_translation_callers_build_no_weyl_element(monkeypatch):
    """The default exponent, the splitting check's dominant direction, the
    search and its step targets come from int chases: no Weyl element is
    built from a chase word."""
    rs, inv, rrs = form("sl(3,R)")
    datum = default_datum(rs, inv, "sl3")

    def refuse(*_):
        raise AssertionError("a Weyl element was built from a word")

    for module in (rootdata, criterion):
        monkeypatch.setattr(module, "word_element", refuse)
    assert antidominant_restriction(rs, inv, rs.rho) == inv.restrict(-rs.rho)
    assert verify_sum_splitting(rs, -rs.rho, -rs.rho).violations == ()
    result = strong_regularization(rs, inv, rrs, datum)
    assert result.certificates.steps and result.certificates.strongly_regular


def test_pipeline_output_satisfies_the_asserted_properties():
    """Re-verify the result through the membership and cone modules."""
    rs, inv, rrs = form("sl(3,R)")
    result = strong_regularization(rs, inv, rrs, default_datum(rs, inv, "sl3"))
    report = extended_stabilizer(rs, inv, result.final_weight)
    assert report.is_trivial
    ch = dual_chamber(rrs)
    for e in result.certificates.scaled_exponents:
        assert cone_position(ch, e).margin > SignedSqrt.zero()


def test_pipeline_final_weight_identity():
    rs, inv, rrs = form("sl(3,R)")
    cfg = TranslationConfig(integrality=2)
    result = strong_regularization(rs, inv, rrs, default_datum(rs, inv, "sl3"), cfg)
    factor = result.k * result.integrality + 1
    rebuilt = result.dominant_base.scale(F(factor))
    for m in result.mus:
        rebuilt = rebuilt + m
    assert rebuilt == result.final_weight


def test_pipeline_rejects_non_integral_line():
    rs, inv, rrs = form("su(2,1)")
    half = FormalDSDatum(
        weight=rs.rho.scale(F(1, 2)),
        exponents=frozenset({inv.restrict(-rs.rho).scale(F(1, 2))}),
        label="half",
    )
    with pytest.raises(BadParameters):
        strong_regularization(rs, inv, rrs, half)


@pytest.mark.parametrize(
    "exponent",
    [
        Weight.of([1, 0, 0]),  # of another rank
        Weight.of([1, 0]),  # no orbit restriction
        Weight.zero(2),  # the apex of the cone
        Weight.of([1, 1]),  # the restriction of rho, outside the cone
    ],
)
def test_pipeline_refuses_an_exponent_that_is_not_admissible(exponent):
    # in both modes: the worst case certifies the whole admissible set, but
    # a given exponent outside it is refused, not dropped
    rs, inv, rrs = form("su(2,1)")
    datum = FormalDSDatum(weight=rs.rho, exponents=frozenset({inv.restrict(-rs.rho), exponent}))
    for worst in (False, True):
        with pytest.raises(InvalidDatum, match="not an admissible restriction"):
            strong_regularization(rs, inv, rrs, datum, TranslationConfig(worst_case_exponents=worst))


@pytest.mark.parametrize("form_id", ["su(2,1)", "so(4,3)", "sp(3,R)"])
def test_the_worst_case_search_certifies_the_whole_admissible_set(form_id):
    rs, inv, rrs = form(form_id)
    worst = TranslationConfig(worst_case_exponents=True)
    admissible = admissible_exponents(rs, inv, rrs, rs.rho)
    datum = default_datum(rs, inv, form_id)
    result = strong_regularization(rs, inv, rrs, datum, worst)
    assert result.certified_exponents == sorted_exponents(admissible)
    factor = result.k * result.integrality + 1
    assert result.certificates.scaled_exponents == tuple(
        e.scale(factor) for e in sorted_exponents(admissible)
    )
    # the same search from no exponents, and without the flag from the whole set
    empty = FormalDSDatum(rs.rho, frozenset(), form_id)
    assert strong_regularization(rs, inv, rrs, empty, worst) == result
    assert strong_regularization(rs, inv, rrs, FormalDSDatum(rs.rho, admissible, form_id)) == result
    # without the flag the search certifies the datum's own exponents
    own = strong_regularization(rs, inv, rrs, datum)
    assert own.certified_exponents == sorted_exponents(datum) != result.certified_exponents


def test_pipeline_refuses_a_datum_with_no_exponents():
    # the search and its certificates never see an empty exponent set
    rs, inv, rrs = form("su(2,1)")
    empty = FormalDSDatum(weight=rs.rho, exponents=frozenset(), label="empty")
    with pytest.raises(InvalidDatum, match="no exponents"):
        strong_regularization(rs, inv, rrs, empty)


def test_pipeline_compact_form_has_no_direction():
    rs, inv, rrs = form("compact(A2)")
    datum = FormalDSDatum(weight=rs.rho, exponents=frozenset(), label="cpt")
    with pytest.raises(NoAdmissibleDirection):
        strong_regularization(rs, inv, rrs, datum)


def test_pipeline_reports_best_attempt_when_search_space_empty():
    rs, inv, rrs = form("sl(3,R)")
    cfg = TranslationConfig(max_mu_coeff=0)
    with pytest.raises(SearchExhausted) as err:
        strong_regularization(rs, inv, rrs, default_datum(rs, inv, "sl3"), cfg)
    best = err.value.best
    assert best.coefficients == (0, 0)
    assert best.k == 0
    assert not best.strongly_regular
    assert best.min_margin == SignedSqrt(1, F(3, 2))
