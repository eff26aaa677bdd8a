"""Weyl-group enumeration and the involution checks as they were, kept as
references.

``reference_enumerate_weyl`` is the closure that ``enumerate_weyl`` replaced:
every right multiple is built as a ``WeylElement`` and deduplicated by its
matrix.  The exact-sequence references enumerate through it, so none of them
shares the kernel under test.  ``reference_checks`` are the Fraction checks
of ``validate_involution``, in the same order, and ``assert_checks_match``
compares the two.
"""

import pytest

from cartan_ds import (
    CapExceeded,
    NotInvolution,
    NotIsometric,
    NotRootPreserving,
    RankMismatch,
    validate_involution,
    weyl_order,
)
from cartan_ds import linalg
from cartan_ds.rootdata import DEFAULT_CAP, WeylElement, apply_matrix, closure
import linalg_reference


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
    all_roots = rs.all_roots
    for root in all_roots:
        if apply_matrix(theta, root) not in all_roots:
            raise NotRootPreserving("matrix does not permute the roots")
    return theta


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
