"""Weyl-group enumeration and the involution checks as they were, kept as
references.

``reference_enumerate_weyl`` is the closure that ``enumerate_weyl`` replaced:
every right multiple is built as a ``WeylElement`` and deduplicated by its
matrix.  The exact-sequence references enumerate through it, so none of them
shares the kernel under test.  ``reference_checks`` are the Fraction checks
of ``validate_involution``, in the same order, and ``assert_checks_match``
compares the two.  ``reference_reflection`` gives the reflection in a root
as a Fraction matrix, column by column, and as the word u^-1 s_i u of the
Fraction walk u of the root down to a simple root alpha_i.
"""

import pytest

from cartan_ds import (
    CapExceeded,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    RankMismatch,
    Weight,
    validate_involution,
    weyl_order,
)
from cartan_ds import linalg
from cartan_ds.rootdata import DEFAULT_CAP, WeylElement, apply_matrix, closure
import linalg_reference
from weight_reference import pairing


def reference_enumerate_weyl(rs, cap=DEFAULT_CAP):
    """All Weyl-group elements, breadth first under right multiplication,
    each right multiple built and deduplicated by its matrix."""
    order = weyl_order(rs.cartan_type)
    if order > cap:
        raise CapExceeded(f"Weyl group order {order} exceeded cap {cap}")
    a = rs.cartan_matrix
    n = rs.rank

    def right_multiples(w):
        m = w.matrix
        for i in range(n):
            ai = a[i]
            yield WeylElement(
                tuple(tuple(m[k][j] - m[k][i] * ai[j] for j in range(n)) for k in range(n)),
                w.word + (i,),
            )

    return frozenset(closure((rs.identity,), right_multiples))


def reference_checks(rs, rows):
    """The Fraction checks of validate_involution, in the same order."""
    theta = linalg.matrix(rows)
    n = rs.rank
    if len(theta) != n or any(len(r) != n for r in theta):
        raise RankMismatch("involution matrix size does not match rank")
    if linalg.mat_mul(theta, theta) != linalg.int_identity(n):
        raise NotInvolution("matrix does not square to the identity")
    transpose = tuple(zip(*theta))
    if linalg.mat_mul(linalg.mat_mul(transpose, rs.form), theta) != rs.form:
        raise NotIsometric("matrix does not preserve the invariant pairing")
    if any(x.denominator != 1 for row in theta for x in row):
        raise NotRootPreserving("matrix does not preserve the root lattice")
    theta = linalg_reference.as_int_matrix(theta)
    all_roots = {Weight(a) for a in rs.roots}
    for root in all_roots:
        if apply_matrix(theta, root) not in all_roots:
            raise NotRootPreserving("matrix does not permute the roots")
    return theta


def reference_reflection(rs, root):
    """The matrix of s_root column by column, and the word of the Fraction walk."""
    simple = [Weight(e) for e in rs.identity.matrix]

    def coroot_pairing(lam, beta):
        return 2 * pairing(rs, lam, beta) / pairing(rs, beta, beta)

    cols = [(e - root.scale(coroot_pairing(e, root))).coords for e in simple]
    mat = tuple(tuple(cols[j][k] for j in range(rs.rank)) for k in range(rs.rank))
    beta = root if all(c >= 0 for c in root.coords) else -root
    steps = []
    while beta not in simple:
        i = next(j for j in range(rs.rank) if coroot_pairing(beta, simple[j]) > 0)
        beta = linalg_reference.reflect(rs, i, beta)
        steps.append(i)
    i = simple.index(beta)
    return linalg_reference.as_int_matrix(mat), tuple(steps) + (i,) + tuple(reversed(steps))


def assert_checks_match(rs, rows):
    """validate_involution raises what the reference raises, or accepts."""
    try:
        expected = reference_checks(rs, rows)
    except (RankMismatch, NotInvolution, NotIsometric, NotRootPreserving) as exc:
        with pytest.raises(type(exc)) as info:
            validate_involution(rs, rows)
        assert str(info.value) == str(exc)
        return type(exc)
    assert validate_involution(rs, rows).theta == expected
    return None
