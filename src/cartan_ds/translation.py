"""Translation-principle arithmetic for formal discrete-series data.

Tensoring with a finite-dimensional representation shifts a character by the
weights of that representation.  This module computes saturated weight sets,
verifies the uniqueness lemma that pins down how orbit elements split across
such a sum, checks the exponent-cone condition after tensoring, scales data
along integral lines, and searches for a translate with strongly regular
character — producing exact certificates for every claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection

from .criterion import extended_stabilizer
from .errors import (
    BadParameters,
    ConsistencyError,
    InvalidDatum,
    NoAdmissibleDirection,
    NotDominantIntegral,
    PreconditionFailed,
    SearchExhausted,
)
from .exponents import (
    FormalDSDatum,
    SignedSqrt,
    admissible_exponents,
    cone_position,
    orbit_restrictions,
    sorted_exponents,
)
from .realform import CartanInvolution, RestrictedRootSystem
from .rootdata import (
    DEFAULT_CAP,
    RootSystem,
    Weight,
    apply,
    closure,
    dominant_representative,
    enumerate_weyl,
    stabilizer_generators,
    weyl_orbit,
)


@dataclass(frozen=True)
class TranslationConfig:
    """Bounds and conventions for the translation search.

    ``integrality`` is the positive integer making the base weight integral
    (the caller knows the relevant lattice); scaling steps move along
    (k*integrality + 1) times the weight.  ``worst_case_exponents`` switches
    translate_line from canonical scaling to the full admissible restriction
    set of the scaled weight.
    """

    integrality: int = 1
    max_k: int = 40
    max_mu_coeff: int = 3
    worst_case_exponents: bool = False
    cap: int = DEFAULT_CAP

    def __post_init__(self) -> None:
        if self.integrality < 1:
            raise BadParameters("integrality constant must be a positive integer")
        if self.max_k < 0 or self.max_mu_coeff < 0:
            raise BadParameters("search bounds must be nonnegative")
        if self.cap < 1:
            raise BadParameters("enumeration cap must be positive")


def _assert_dominant_integral(rs: RootSystem, mu: Weight) -> None:
    for c in rs.fw_coords(mu):
        if c < 0 or c.denominator != 1:
            raise NotDominantIntegral(
                "weight is not dominant integral in the default chamber"
            )


def weight_spectrum(
    rs: RootSystem, mu: Weight, cap: int = DEFAULT_CAP
) -> frozenset[Weight]:
    """Saturated weight set of the irreducible with highest weight mu.

    Closure of {mu} under all simple reflections and under subtracting a
    simple root wherever the corresponding chamber coordinate is positive;
    this reaches exactly the lattice translates of mu below it in dominance
    order, with no multiplicities.
    """
    _assert_dominant_integral(rs, mu)

    def steps(nu: Weight):
        pairings = rs.fw_coords(nu)
        for i in range(rs.rank):
            yield rs.reflect(i, nu)
            if pairings[i] > 0:
                yield nu - rs.simple_roots[i]

    return frozenset(closure((mu,), steps, cap, "weight spectrum"))


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

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_sum_splitting(
    rs: RootSystem, lam: Weight, mu0: Weight, cap: int = DEFAULT_CAP
) -> SplittingReport:
    """Brute-force the componentwise-splitting property over the whole group.

    Preconditions: lam = t*mu0 with rational t > 0, and the dominant
    representative of mu0 integral.  Enumerates the group, the orbit and the
    spectrum exactly; every accidental coincidence w(lam+mu0) = nu + sigma is
    tested against nu = w(lam), sigma = w(mu0).
    """
    if mu0.is_zero():
        raise PreconditionFailed("direction weight must be nonzero")
    t: Fraction | None = None
    for a, b in zip(lam.coords, mu0.coords):
        if b != 0:
            t = a / b
            break
    if t is None or t <= 0 or mu0.scale(t) != lam:
        raise PreconditionFailed(
            "weight must be a positive rational multiple of the direction"
        )
    mu_dom, _ = dominant_representative(rs, mu0)
    spectrum = weight_spectrum(rs, mu_dom, cap)
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


@dataclass(frozen=True)
class TensorL2Report:
    """Margin report for the exponent-cone condition after tensoring."""

    passed: bool
    mode: str
    pairs_checked: int
    min_margin: SignedSqrt | None


def _cone_margin(
    chamber: RestrictedRootSystem, exponents: Collection[Weight], shifts: Collection[Weight]
) -> tuple[bool, SignedSqrt | None]:
    """Whether all exponent+shift sums are cone-interior, and their least margin."""
    passed = True
    least: SignedSqrt | None = None
    for e in exponents:
        for s in shifts:
            pos = cone_position(chamber, e + s)
            if least is None or pos.margin < least:
                least = pos.margin
            passed = passed and pos.neg_interior
    return passed, least


def tensor_l2_condition(
    chamber: RestrictedRootSystem,
    inv: CartanInvolution,
    datum: FormalDSDatum,
    mu: Weight,
    exact: bool = True,
    cap: int = DEFAULT_CAP,
) -> TensorL2Report:
    """Do all exponents stay in the negative cone interior after tensoring?

    Exact mode shifts every exponent by the restriction of every orbit point
    of mu (the extreme points of the tensor factor's weight hull, which
    suffice by convexity).  Fast mode is a sufficient criterion with no
    enumeration: each margin must exceed the norm of mu, which dominates the
    norm of every restricted orbit point because restriction is an orthogonal
    projection.
    """
    rs = chamber.root_system
    _assert_dominant_integral(rs, mu)
    exponents = sorted_exponents(datum)
    if exact:
        shifts = orbit_restrictions(rs, inv, mu, cap)
        passed, min_margin = _cone_margin(chamber, exponents, shifts)
        return TensorL2Report(passed, "exact", len(exponents) * len(shifts), min_margin)
    bound = SignedSqrt.sqrt_of(rs.norm_sq(mu))
    _, min_margin = _cone_margin(chamber, exponents, [Weight.zero(rs.rank)])
    passed = min_margin is None or (chamber.fulldim and bound < min_margin)
    return TensorL2Report(
        passed=passed,
        mode="fast",
        pairs_checked=len(exponents),
        min_margin=min_margin,
    )


def translate_line(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    datum: FormalDSDatum,
    k: int,
    cfg: TranslationConfig,
) -> FormalDSDatum:
    """Scale a datum along its integral line to parameter k.

    The weight becomes (k*integrality + 1) times the original; exponents are
    scaled by the same factor, or replaced by the full admissible restriction
    set of the scaled weight in worst-case mode.  Requires every input
    exponent to be an admissible restriction (the scaled containment
    guarantee needs it); the output is re-verified against the scaled
    admissible set.
    """
    if k < 0:
        raise BadParameters("line parameter k must be nonnegative")
    factor = Fraction(k * cfg.integrality + 1)
    base_allowed = admissible_exponents(rs, inv, chamber, datum.weight, cfg.cap)
    for e in datum.exponents:
        if e not in base_allowed:
            raise InvalidDatum(
                "exponent is not an admissible restriction of the weight's orbit"
            )
    new_weight = datum.weight.scale(factor)
    scaled_allowed = admissible_exponents(rs, inv, chamber, new_weight, cfg.cap)
    if cfg.worst_case_exponents:
        new_exponents = scaled_allowed
    else:
        new_exponents = frozenset(e.scale(factor) for e in datum.exponents)
    for e in new_exponents:
        if e not in scaled_allowed:
            raise ConsistencyError(
                "scaled exponent left the admissible set of the scaled weight"
            )
    label = datum.label or "datum"
    return FormalDSDatum(
        weight=new_weight,
        exponents=new_exponents,
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
    base_margin: SignedSqrt | None
    scaled_exponents: tuple[Weight, ...]


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of the strong-regularization search.

    ``final_weight`` equals (k*integrality + 1) times the chamber-dominant
    base weight plus the sum of ``mus``; the certificates are produced by
    re-running the stabilizer and cone checks on the final data, not copied
    from the search loop.
    """

    k: int
    integrality: int
    dominant_base: Weight
    mus: tuple[Weight, ...]
    final_weight: Weight
    certificates: TranslationCertificates


@dataclass(frozen=True)
class SearchBest:
    """Best candidate seen by a failed search, for the exhaustion report."""

    coefficients: tuple[int, ...]
    k: int
    strongly_regular: bool
    min_margin: SignedSqrt | None


def _best_key(entry: SearchBest) -> tuple[bool, SignedSqrt]:
    return (entry.strongly_regular, entry.min_margin or SignedSqrt.zero())


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
    certificates are re-verified on the result.
    """
    allowed = admissible_exponents(rs, inv, rrs, datum.weight, cfg.cap)
    if not allowed:
        raise NoAdmissibleDirection(
            "no orbit element restricts into the negative cone interior"
        )
    for e in datum.exponents:
        if e not in allowed:
            raise InvalidDatum(
                "exponent is not an admissible restriction of the weight's orbit"
            )
    if not datum.exponents:
        raise InvalidDatum("datum has no exponents to certify")
    n = cfg.integrality
    base_dom_default, _ = dominant_representative(rs, datum.weight)
    for c in rs.fw_coords(base_dom_default.scale(n)):
        if c.denominator != 1:
            raise BadParameters(
                "integrality constant does not make the weight integral"
            )
    base_dom = apply(inv.chamber, base_dom_default)
    exponents = sorted_exponents(datum)
    best: SearchBest | None = None
    for coeffs in _candidate_coefficients(rs.rank, cfg.max_mu_coeff):
        shift_default = Weight.zero(rs.rank)
        for i, c in enumerate(coeffs):
            if c:
                shift_default = shift_default + rs.fundamental_weights[i].scale(c)
        if not stabilizer_generators(rs, base_dom_default + shift_default).is_regular:
            continue
        shift = apply(inv.chamber, shift_default)
        shifts = orbit_restrictions(rs, inv, shift_default, cfg.cap)
        k_values = range(cfg.max_k + 1) if any(coeffs) else range(1)
        for k in k_values:
            factor = Fraction(k * n + 1)
            final_weight = base_dom.scale(factor) + shift
            stab = extended_stabilizer(rs, inv, final_weight)
            cone_ok, margin = _cone_margin(
                rrs, [e.scale(factor) for e in exponents], shifts
            )
            candidate = SearchBest(
                coefficients=coeffs,
                k=k,
                strongly_regular=stab.is_trivial,
                min_margin=margin,
            )
            if best is None or _best_key(candidate) > _best_key(best):
                best = candidate
            if not (stab.is_trivial and cone_ok):
                continue
            mus = []
            for i, c in enumerate(coeffs):
                mus.extend([apply(inv.chamber, rs.fundamental_weights[i])] * c)
            return TranslationResult(
                k=k,
                integrality=n,
                dominant_base=base_dom,
                mus=tuple(mus),
                final_weight=final_weight,
                certificates=_certify(
                    rs, inv, rrs, exponents, base_dom, factor, mus, cfg
                ),
            )
    raise SearchExhausted(
        "no strongly regular translate within the configured bounds",
        best=best,
    )


def _certify(
    rs: RootSystem,
    inv: CartanInvolution,
    chamber: RestrictedRootSystem,
    exponents: tuple[Weight, ...],
    base_dom: Weight,
    factor: Fraction,
    mus: list[Weight],
    cfg: TranslationConfig,
) -> TranslationCertificates:
    """Re-verify the search outcome step by step, from scratch.

    The step ledger walks the tensoring sequence: after each direction the
    cumulative shift's whole orbit is tested against every scaled exponent.
    The step checks are nested (each partial sum is dominated by the next in
    its chamber), so the last entry implies the earlier ones; all are
    recorded anyway as independent certificates.
    """
    scaled = [e.scale(factor) for e in exponents]
    cone_all, base_margin = _cone_margin(chamber, scaled, [Weight.zero(rs.rank)])
    running = base_dom.scale(factor)
    partial = Weight.zero(rs.rank)
    steps = []
    for direction in mus:
        partial = partial + direction
        running = running + direction
        target, _ = dominant_representative(rs, running)
        shifts = orbit_restrictions(rs, inv, partial, cfg.cap)
        ok, worst = _cone_margin(chamber, scaled, shifts)
        cone_all = cone_all and ok
        steps.append(
            TranslationStep(
                direction=direction,
                partial_sum=partial,
                target=target,
                min_margin=worst if worst is not None else SignedSqrt.zero(),
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
        scaled_exponents=tuple(sorted(scaled, key=lambda w: w.coords)),
    )
