#!/usr/bin/env python3
"""Run the mutations that the tests claim to catch, and fail on a survivor.

Each mutation is data: the file it edits, the exact old text (which must
occur there once), the new text and the test modules, or test ids, that
should catch it.
The script copies the checkout to a temporary directory, runs the test
modules once unmutated (they must pass), then applies each mutation in turn
and runs its modules with ``-x``.  A mutant is caught when the run fails, or
when it runs longer than ten times the unmutated run of the same modules
plus 60 s: it is stopped then and reported as ``timeout``, since a mutant
may loop forever.

Usage, from the root of a checkout:

    python scripts/mutants.py

The exit code is 1 when a mutant survives, when an old text no longer
matches exactly once or when the unmutated tests fail; 0 otherwise.
Standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


REALFORM = "src/cartan_ds/realform.py"
LINALG = "src/cartan_ds/linalg.py"
CLI = "src/cartan_ds/cli.py"
EXPONENTS = "src/cartan_ds/exponents.py"
ROOTDATA = "src/cartan_ds/rootdata.py"
TRANSLATION = "src/cartan_ds/translation.py"
EXACT_SEQUENCE_TESTS = (
    "tests/test_exact_sequence_reference.py",
    "tests/test_realform.py",
    "tests/test_acceptance.py",
)
CONE_MARGIN_TESTS = ("tests/test_cone_margin_reference.py",)
ORBIT_TESTS = ("tests/test_orbit_reference.py",)
WORST_CASE_TESTS = ("tests/test_translation.py", "tests/test_cli.py")
TRANSLATE_LINE_TESTS = ("tests/test_translate_line_reference.py",)
CRITERION = "src/cartan_ds/criterion.py"
STABILIZER_TESTS = ("tests/test_stabilizer_reference.py", "tests/test_criterion.py")
ENUMERATE_WEYL_TESTS = ("tests/test_enumerate_weyl_reference.py",)
INT_KERNEL_TESTS = ("tests/test_int_kernel_reference.py",)
POSITIVE_SYSTEM_TESTS = ("tests/test_positive_system_reference.py",)
RESTRICTED_TYPE_TESTS = ("tests/test_restricted_type_reference.py",)
ELIMINATION_TESTS = ("tests/test_elimination_reference.py",)
REQUEST_KERNEL_TESTS = ("tests/test_request_kernels_reference.py",)

NO_DIRECTION = (
    "    if not doubled:\n"
    "        raise NoAdmissibleDirection(\n"
    "            \"no orbit element restricts into the negative cone interior\"\n"
    "        )\n"
)
EXPONENT_CHECK = (
    "    keys = [_key(admissible, e) for e in datum.exponents]\n"
    "    if None in keys:\n"
    "        raise InvalidDatum(\"exponent is not an admissible restriction"
    " of the weight's orbit\")\n"
)
WALK_COVECTORS = (
    "    products = _int_mat_vec(chamber.chamber_covectors, start)\n"
    "    if max(products) >= 0:\n"
    "        return []\n"
    "    columns = tuple(zip(*chamber.chamber_covectors))\n"
)
WALL_ORDER = (
    "        size = rs.weyl_order // _wall_group_order(rs, [i for i, f in enumerate(fws)"
    " if not f])\n"
)
WORST_CASE_KEYS = "    keys = sorted(doubled if cfg.worst_case_exponents else keys)\n"
STABILIZER_CHASE = (
    "    fws, word = _chase(rs, coords)\n"
    "    back = word[::-1]\n"
    "    gens = tuple(word_element(rs, word + [i] + back) for i, f in enumerate(fws) if not f)\n"
)
OUTSIDE_ORBIT = "        if index[b] not in orbit and _indivisible(b, index):\n"
RIGHT_MULTIPLE_KEY = (
    "            u = list(v)\n"
    "            u[i] -= sum(map(operator.mul, row, v))\n"
)
WORD_BOUNDS = (
    "    if any(not 0 <= i < rs.rank for i in word):\n"
    "        raise RankMismatch(\"word names a simple reflection outside the rank\")\n"
)
ROOT_CHECK = "    if not all(col in rs.root_index for col in zip(*theta)):\n"
ENCODED_COORDINATE = 'str(x // g) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}"'
IMAGE_THEN_CHASE = (
    "    image = _int_mat_vec(inv.theta, coords) if witness is None else None\n"
    "    fws, word, gens = _stabilizer_chase(rs, coords)\n"
)

MUTATIONS = (
    # the exact-sequence kernel of realform.py
    Mutation(
        "restricted reflection tests divisibility of the coefficient 2 (v, b) / nb",
        REALFORM,
        "            q, r = zip(*(divmod(nb * x - 2 * pairing * y, nb) for x, y in zip(v, b)))\n"
        "            if any(r) or q not in index:\n",
        "            c, rem = divmod(2 * pairing, nb)\n"
        "            q = tuple(x - c * y for x, y in zip(v, b))\n"
        "            if rem or q not in index:\n",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "kernel compares only the first simple image",
        REALFORM,
        "if image == identity}",
        "if image[:1] == identity[:1]}",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "theta dropped from the left of the commutant test",
        REALFORM,
        "if tuple(map(theta.__getitem__, t[:r])) == t[r:]]",
        "if t[:r] == t[r:]]",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "theta dropped from the right of the commutant test",
        REALFORM,
        "if tuple(map(theta.__getitem__, t[:r])) == t[r:]]",
        "if tuple(map(theta.__getitem__, t[:r])) == t[:r]]",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "commutant test reads theta beta_j in place of w theta beta_j",
        REALFORM,
        "if tuple(map(theta.__getitem__, t[:r])) == t[r:]]",
        "if tuple(map(theta.__getitem__, t[:r])) == tracked[r:]]",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "theta alpha built as alpha + d",
        REALFORM,
        "rs.root_index[tuple(map(operator.sub, a, d))]",
        "rs.root_index[tuple(map(operator.add, a, d))]",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "tracked roots are the default simple roots, not the chamber's columns",
        REALFORM,
        "    beta = [rs.root_index[b] for b in zip(*inv.chamber.matrix)]\n",
        "    beta = [rs.root_index[b] for b in rs.identity.matrix]\n",
        EXACT_SEQUENCE_TESTS,
    ),
    # the outcome is the same, only later: the refusal-first test catches it
    Mutation(
        "commutant closed before the guard",
        REALFORM,
        "    roots = sorted({d for d in doubled if any(d)})\n",
        "    _theta_commuting(rs, inv, beta)\n"
        "    roots = sorted({d for d in doubled if any(d)})\n",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "vanishing reflections walked as s_j, with theta's chamber transform dropped",
        REALFORM,
        "for i in (*word, j, *reversed(word)):",
        "for i in (j,):",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "vanishing reflections walked as u s_j u, the inverse left unreversed",
        REALFORM,
        "for i in (*word, j, *reversed(word)):",
        "for i in (*word, j, *word):",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "images read from the theta block",
        REALFORM,
        "columns = list(simple.values())",
        "columns = [rs.rank + j for j in simple.values()]",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "one simple restricted reflection left out of the closure",
        REALFORM,
        "generators = [reflection(s) for s in simple]",
        "generators = [reflection(s) for s in list(simple)[1:]]",
        EXACT_SEQUENCE_TESTS,
    ),
    # of the involutions tried, only some with a G2 factor have a positive
    # indivisible restricted root outside the simple roots' orbit
    Mutation(
        "a root outside the orbit refused outright",
        REALFORM,
        OUTSIDE_ORBIT + "            reflection(b)\n",
        OUTSIDE_ORBIT + "            raise PreconditionFailed(\"outside the orbit\")\n",
        EXACT_SEQUENCE_TESTS,
    ),
    # its reflection permutes the roots on every input tried, so no outcome
    # differs: only the reflection count tells
    Mutation(
        "roots outside the orbit not reflected",
        REALFORM,
        OUTSIDE_ORBIT,
        "        if False:\n",
        EXACT_SEQUENCE_TESTS,
    ),
    # the positive system: the compatible chamber and the components of the
    # restricted type
    Mutation(
        "the compact sign checked before the split sign",
        REALFORM,
        "(_dot(split, d) or _dot(compact, a))",
        "(_dot(compact, a) or _dot(split, d))",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "the chamber chased from the default 2 rho in place of 2 rho of the chosen system",
        REALFORM,
        "    _, word = _chase(rs, two_rho)\n",
        "    _, word = _chase(rs, list(rs.two_rho))\n",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "a default positive system kept without its compatibility test",
        REALFORM,
        "    if not any(tuple(-x for x in d) in nonzero for d in nonzero):\n",
        "    if True:\n",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "the doubled table shifted by one index against the root table",
        REALFORM,
        "for a in rs.roots)\n",
        "for a in rs.roots[1:] + rs.roots[:1])\n",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "the vanishing test inverted",
        REALFORM,
        "enumerate(doubled) if not any(d)),",
        "enumerate(doubled) if any(d)),",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "a theta column missing from root_index accepted as a root",
        REALFORM,
        ROOT_CHECK,
        "    if False:\n",
        POSITIVE_SYSTEM_TESTS,
    ),
    # in a restricted root system no positive root straddles two components,
    # so only the hand-made set of the straddling test sees this one
    Mutation(
        "the support test without its \"pairs zero with the other components\" clause",
        REALFORM,
        "            and not any(x for j, x in enumerate(p) if j not in comp)\n",
        "",
        POSITIVE_SYSTEM_TESTS,
    ),
    Mutation(
        "simple roots never merged into components",
        REALFORM,
        "        linked = [c for c in comps if any(pairings[s][j] for j in c)]\n",
        "        linked = []\n",
        POSITIVE_SYSTEM_TESTS,
    ),
    # the restricted type: the rule that names a component.  Retired, because its
    # target is gone: a long-root count taken at the shortest norm, which told
    # B_r from C_r before the symmetrizers were compared
    Mutation(
        "C tried before B",
        REALFORM,
        "_first_fit(rootdata._FAMILY_MIN_RANK, r,",
        "_first_fit(sorted(rootdata._FAMILY_MIN_RANK, key=\"ACBDEFG\".index), r,",
        RESTRICTED_TYPE_TESTS,
    ),
    Mutation(
        "the norm guard dropped",
        REALFORM,
        "        if not ({norm[d] for d in indivisible} if doubles else norms)"
        " <= set(simple_norms):\n",
        "        if False:\n",
        RESTRICTED_TYPE_TESTS,
    ),
    Mutation(
        "the symmetrizer not compared, only the root count",
        REALFORM,
        "        if [n * sym[0] for n in simple_norms] == [s * simple_norms[0] for s in sym]:\n",
        "        if True:\n",
        RESTRICTED_TYPE_TESTS,
    ),
    # no involutive automorphism tried reaches the next two: only the
    # hand-made sets of the BC tests do
    Mutation(
        "the BC double count unchecked",
        REALFORM,
        "len(doubles) == r and ",
        "",
        RESTRICTED_TYPE_TESTS,
    ),
    Mutation(
        "BC doubles not checked to be twice a short root",
        REALFORM,
        " and all(norm[d] == 4 * simple_norms[0] for d in doubles)",
        "",
        RESTRICTED_TYPE_TESTS,
    ),
    # the elimination kernel of linalg.py
    Mutation(
        "d never updated",
        LINALG,
        "        pivots.append(c)\n        d = p\n",
        "        pivots.append(c)\n",
        ELIMINATION_TESTS,
    ),
    Mutation(
        "division by the pivot before the previous one",
        LINALG,
        "        pivots.append(c)\n        d = p\n",
        "        pivots.append(c)\n        d, before = locals().get(\"before\", 1), p\n",
        ELIMINATION_TESTS,
    ),
    Mutation(
        "a negative d left unnormalised",
        LINALG,
        "    if d < 0:\n        rows[:] = [[-x for x in row] for row in rows]\n        d = -d\n",
        "",
        ELIMINATION_TESTS,
    ),
    Mutation(
        "elimination only below the pivot (Gauss without Jordan)",
        LINALG,
        "            if i != r:\n",
        "            if i > r:\n",
        ELIMINATION_TESTS,
    ),
    Mutation(
        "stopping before the last pivot",
        LINALG,
        "    for c in range(width):\n",
        "    for c in range(width - 1):\n",
        ELIMINATION_TESTS,
    ),
    # the per-request kernels: simple roots off the chamber, the root check
    # on theta's columns and the encoding of a weight
    Mutation(
        "zero restrictions kept among the simple ones",
        REALFORM,
        "sorted({doubled[k] for k in simple if any(doubled[k])})",
        "sorted({doubled[k] for k in simple})",
        REQUEST_KERNEL_TESTS,
    ),
    Mutation(
        "rows of the chamber instead of its columns",
        REALFORM,
        "    simple = [rs.root_index[b] for b in zip(*inv.chamber.matrix)]\n    return positive,",
        "    simple = [rs.root_index[b] for b in inv.chamber.matrix]\n    return positive,",
        REQUEST_KERNEL_TESTS,
    ),
    Mutation(
        "only the first column checked",
        REALFORM,
        ROOT_CHECK,
        ROOT_CHECK.replace("zip(*theta)", "list(zip(*theta))[:1]"),
        REQUEST_KERNEL_TESTS,
    ),
    Mutation(
        "a coordinate's numerator left unreduced",
        CLI,
        ENCODED_COORDINATE,
        ENCODED_COORDINATE.replace('f"{x // g}/', 'f"{x}/'),
        REQUEST_KERNEL_TESTS,
    ),
    Mutation(
        "an integral coordinate written over 1",
        CLI,
        ENCODED_COORDINATE,
        'f"{x // (g := gcd(x, d))}/{d // g}"',
        REQUEST_KERNEL_TESTS,
    ),
    # the int cone decisions of the translation search
    Mutation(
        "the sign of the largest product ignored when the least margin is chosen",
        EXPONENTS,
        "(a * least[1] - least[0] * b) * top > 0",
        "(a * least[1] - least[0] * b) > 0",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "x^2 n' and x'^2 n swapped in the margin comparison",
        EXPONENTS,
        "(a * least[1] - least[0] * b) * top > 0",
        "(least[0] * b - a * least[1]) * top > 0",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the first ray of the right sign kept in place of the least margin",
        EXPONENTS,
        "if least is None or (a * least[1] - least[0] * b) * top > 0:",
        "if least is None:",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "min in place of max in _ray_maxima",
        TRANSLATION,
        "return list(map(max, zip(",
        "return list(map(min, zip(",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the line factor applied to the shift maxima too",
        TRANSLATION,
        "products = [factor * yscale * x + xscale * y for x, y in zip(xs, ys)]",
        "products = [factor * yscale * x + factor * xscale * y for x, y in zip(xs, ys)]",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the shift maxima taken once, from the first candidate shift",
        TRANSLATION,
        "        top_shift = _orbit_maxima(rrs, list(shift), cfg.cap), common\n",
        "        top_shift = locals().get(\"top_shift\")"
        " or (_orbit_maxima(rrs, list(shift), cfg.cap), common)\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the shift maxima taken from the zero shift",
        TRANSLATION,
        "        top_shift = _orbit_maxima(rrs, list(shift), cfg.cap), common\n",
        "        top_shift = _orbit_maxima(rrs, [0] * rs.rank, cfg.cap), common\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "certificate maxima taken from the unscaled exponents",
        TRANSLATION,
        "    top = _ray_maxima(chamber, scaled), exponent_scale\n",
        "    top = _ray_maxima(chamber, keys), exponent_scale\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "regular is enough, also when theta is not a Weyl element",
        TRANSLATION,
        "    if inv.weyl_witness is not None:\n",
        "    if True:\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "orbit maxima read with the undominated ray covectors",
        EXPONENTS,
        "    return _int_mat_vec(chamber.dominant_covectors, coords)\n",
        "    return _int_mat_vec(chamber.ray_covectors, coords)\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "orbit maxima of the weight not chased",
        EXPONENTS,
        "    _chase_within_cap(chamber.root_system, coords, cap)\n",
        "    _chase_within_cap(chamber.root_system, list(coords), cap)\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "orbit maxima with no cap check",
        EXPONENTS,
        "    _chase_within_cap(chamber.root_system, coords, cap)\n",
        "    _chase(chamber.root_system, coords)\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "restricted_roots stores the antidominant covectors, each ray's least product",
        REALFORM,
        "    dominant = [_chase(rs, list(ray))[0] for ray in rays]\n",
        "    dominant = [[-f for f in _chase(rs, [-x for x in ray])[0]] for ray in rays]\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the search's base not chased",
        TRANSLATION,
        "    base_fw, _ = _chase(rs, base)\n",
        "    base_fw, _ = _chase(rs, list(base))\n",
        CONE_MARGIN_TESTS,
    ),
    Mutation(
        "the step targets of _certify not chased",
        TRANSLATION,
        "        _chase(rs, target)\n",
        "        _chase(rs, list(target))\n",
        CONE_MARGIN_TESTS,
    ),
    # the shift table is symmetric on the forms the cone-margin tests shift
    # on, so only the pinned fundamental-weight reports see this one
    Mutation(
        "the shift read by rows of the fundamental-weight table, not columns",
        TRANSLATION,
        "for col in zip(*units)]",
        "for col in units]",
        ("tests/test_cli.py::test_fw_shift_reports_match_pinned_digest",),
    ),
    # the admissible walk, the search's exponent rule and the predicted orbit size
    Mutation(
        "the walk reads the ray covectors in default coordinates",
        EXPONENTS,
        WALK_COVECTORS,
        WALK_COVECTORS.replace("chamber.chamber_covectors", "chamber.ray_covectors"),
        ORBIT_TESTS,
    ),
    Mutation(
        "the walked points restricted as v - theta(v) in default coordinates",
        EXPONENTS,
        "    restriction = chamber.chamber_restriction\n",
        "    restriction = [[int(i == j) - t for j, t in enumerate(row)]"
        " for i, row in enumerate(inv.theta)]\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "the walk without its seen-set",
        EXPONENTS,
        "            if max(raised) >= 0 or v in seen:\n",
        "            if max(raised) >= 0:\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "<= 0 in place of < 0 as the walk's cone test",
        EXPONENTS,
        "            if max(raised) >= 0 or v in seen:\n",
        "            if max(raised) > 0 or v in seen:\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "the search's exponent check dropped",
        TRANSLATION,
        "    if None in keys:\n",
        "    if False:\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "the search's NoAdmissibleDirection test moved after the exponent check",
        TRANSLATION,
        NO_DIRECTION + EXPONENT_CHECK,
        EXPONENT_CHECK + NO_DIRECTION,
        ORBIT_TESTS,
    ),
    Mutation(
        "h in place of h + 1 in the wall group order",
        ROOTDATA,
        "        order *= (h + 1) ** (n - heights[h + 1])\n",
        "        order *= h ** (n - heights[h + 1])\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "n_h in place of n_h - n_{h+1} as the exponent count",
        ROOTDATA,
        "        order *= (h + 1) ** (n - heights[h + 1])\n",
        "        order *= (h + 1) ** n\n",
        ORBIT_TESTS,
    ),
    Mutation(
        "the walls of lam in place of those of its dominant point",
        ROOTDATA,
        "    fws, _ = _chase(rs, coords)\n    if rs.weyl_order > cap:\n" + WALL_ORDER,
        "    walls = _int_mat_vec(rs.cartan_matrix, coords)\n"
        "    fws, _ = _chase(rs, coords)\n    if rs.weyl_order > cap:\n"
        + WALL_ORDER.replace("enumerate(fws)", "enumerate(walls)"),
        ORBIT_TESTS,
    ),
    Mutation(
        "the predicted orbit size never refused",
        ROOTDATA,
        "        if size > cap:\n",
        "        if False:\n",
        ORBIT_TESTS,
    ),
    # the single walk of translate_line
    Mutation(
        "the worst-case set of translate_line returned unscaled",
        TRANSLATION,
        "        exponents=frozenset(e.scale(factor) for e in exponents),\n",
        "        exponents=allowed if cfg.worst_case_exponents"
        " else frozenset(e.scale(factor) for e in exponents),\n",
        TRANSLATE_LINE_TESTS,
    ),
    Mutation(
        "the datum's exponents not checked by translate_line",
        TRANSLATION,
        "    if not allowed.issuperset(datum.exponents):\n",
        "    if False:\n",
        TRANSLATE_LINE_TESTS,
    ),
    # the worst case owned by the search
    Mutation(
        "the worst-case flag ignored by the search",
        TRANSLATION,
        WORST_CASE_KEYS,
        "    keys = sorted(keys)\n",
        WORST_CASE_TESTS,
    ),
    Mutation(
        "given exponents not checked under the worst-case flag",
        TRANSLATION,
        "    if None in keys:\n",
        "    if None in keys and not cfg.worst_case_exponents:\n",
        WORST_CASE_TESTS,
    ),
    Mutation(
        "the certified keys left unsorted",
        TRANSLATION,
        WORST_CASE_KEYS,
        WORST_CASE_KEYS.replace("sorted(", "list("),
        WORST_CASE_TESTS,
    ),
    # the extended stabilizer: the twisted word and theta(lam) only matter
    # where theta has no witness (sl(3,R), split(E6) among the catalog forms)
    Mutation(
        "the wall fixer's word not mirrored (u + [i] + u)",
        ROOTDATA,
        STABILIZER_CHASE,
        STABILIZER_CHASE.replace("word + [i] + back", "word + [i] + word"),
        STABILIZER_TESTS,
    ),
    Mutation(
        "the twisted word with v not reversed (u + v)",
        CRITERION,
        "word + word_t[::-1]",
        "word + word_t",
        STABILIZER_TESTS,
    ),
    Mutation(
        "the walls read from the weight's pairings before the chase",
        ROOTDATA,
        STABILIZER_CHASE,
        "    walls = _int_mat_vec(rs.cartan_matrix, coords)\n"
        + STABILIZER_CHASE.replace("enumerate(fws)", "enumerate(walls)"),
        STABILIZER_TESTS,
    ),
    Mutation(
        "theta(lam) taken from the chased (dominant) coordinates",
        CRITERION,
        IMAGE_THEN_CHASE,
        "".join(reversed(IMAGE_THEN_CHASE.splitlines(keepends=True))),
        STABILIZER_TESTS,
    ),
    Mutation(
        "the two chases compared as sorted coordinate lists",
        CRITERION,
        "        if fws == fws_t:\n",
        "        if sorted(fws) == sorted(fws_t):\n",
        STABILIZER_TESTS,
    ),
    Mutation(
        "the witness ignored in is_trivial",
        CRITERION,
        "is_trivial=not gens and (witness is not None or twisted is None),",
        "is_trivial=not gens and twisted is None,",
        STABILIZER_TESTS,
    ),
    Mutation(
        "dominant_representative built from the chase word unreversed",
        ROOTDATA,
        "    return _weight(coords, lam.den), word_element(rs, word[::-1])\n",
        "    return _weight(coords, lam.den), word_element(rs, word)\n",
        STABILIZER_TESTS,
    ),
    Mutation(
        "the witness returned as an untwisted fixer",
        CRITERION,
        "ExtendedElement(weyl=witness, twisted=True)",
        "ExtendedElement(weyl=witness, twisted=False)",
        STABILIZER_TESTS,
    ),
    Mutation(
        "the witness shortcut dropped: theta(lam) chased on every form",
        CRITERION,
        IMAGE_THEN_CHASE,
        IMAGE_THEN_CHASE.replace(" if witness is None else None", ""),
        STABILIZER_TESTS,
    ),
    # the Weyl-group enumeration
    Mutation(
        "the key of w s_i taken as s_i(w (2 rho)), not s_i(w^-1 (2 rho))",
        ROOTDATA,
        RIGHT_MULTIPLE_KEY,
        "            u = _int_mat_vec(w.matrix, rs.two_rho)\n"
        "            u[i] -= sum(map(operator.mul, row, u))\n",
        ENUMERATE_WEYL_TESTS,
    ),
    Mutation(
        "the generators tried in descending order",
        ROOTDATA,
        "    rows = list(enumerate(rs.cartan_matrix))\n    elements = ",
        "    rows = list(enumerate(rs.cartan_matrix))[::-1]\n    elements = ",
        ENUMERATE_WEYL_TESTS,
    ),
    Mutation(
        "the matrix of w s_i built from the start element, not its parent w",
        ROOTDATA,
        "for mk in w.matrix),",
        "for mk in rs.identity.matrix),",
        ENUMERATE_WEYL_TESTS,
    ),
    # Weyl elements, chases and root reflections on ints
    Mutation(
        "the word's letters walked first to last",
        ROOTDATA,
        "tables = [rs.reflections[i] for i in reversed(word)]",
        "tables = [rs.reflections[i] for i in word]",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "the reflection table built from column i of the Cartan matrix, not row i",
        ROOTDATA,
        "for i, row in enumerate(self.cartan_matrix)",
        "for i, row in enumerate(zip(*self.cartan_matrix))",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "the bounds check dropped from word_element",
        ROOTDATA,
        WORD_BOUNDS,
        "",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "the chase reflects at the highest negative pairing",
        ROOTDATA,
        "        for i, c in enumerate(fws):\n",
        "        for i, c in reversed(list(enumerate(fws))):\n",
        INT_KERNEL_TESTS,
    ),
    # the involution checks and the weight spectrum
    Mutation(
        "d in place of d^2 in the involution test",
        REALFORM,
        "_scaled_rows(rs.identity.matrix, dd)",
        "_scaled_rows(rs.identity.matrix, d)",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "d in place of d^2 in the isometry test",
        REALFORM,
        "_scaled_rows(rs.form, dd)",
        "_scaled_rows(rs.form, d)",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "a lattice test that lets d = 2..5 through",
        REALFORM,
        "    if d != 1:\n",
        "    if d > 5:\n",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "p >= 0 in place of p > 0 in the spectrum step",
        TRANSLATION,
        "            if p > 0:\n",
        "            if p >= 0:\n",
        INT_KERNEL_TESTS,
    ),
    Mutation(
        "a spectrum step that subtracts 1 in place of the scale",
        TRANSLATION,
        "(v[i] - scale,)",
        "(v[i] - 1,)",
        INT_KERNEL_TESTS,
    ),
)


def run_tests(
    copy: Path, tests: tuple[str, ...], timeout: float | None = None
) -> tuple[str, float]:
    """"pass", "fail" or, past ``timeout`` seconds, "timeout" for the test
    modules in the copy, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    try:
        done = subprocess.run(argv, cwd=copy, env=env, timeout=timeout, **quiet)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return "pass" if done.returncode == 0 else "fail", time.perf_counter() - start


def main() -> int:
    bad = timeouts = 0
    limits = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        skip = (".git", "__pycache__", ".*_cache", ".hypothesis", ".perfbench-out")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*skip))
        # the tests must import the copy's package, not an installed one
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        found = subprocess.run(
            [sys.executable, "-c", "import cartan_ds; print(cartan_ds.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not Path(found).resolve().is_relative_to(copy.resolve()):
            print(f"the tests would import cartan_ds from {found}, not from the copy")
            return 1
        for tests in dict.fromkeys(m.tests for m in MUTATIONS):
            status, seconds = run_tests(copy, tests)
            print(f"unmutated: {status.upper()} ({seconds:.1f}s) {' '.join(tests)}")
            if status != "pass":
                return 1
            limits[tests] = 10 * seconds + 60
        for m in MUTATIONS:
            target = copy / m.path
            original = target.read_text()
            count = original.count(m.old)
            if count != 1:
                print(f"STALE     {m.name}: the old text occurs {count} times in {m.path}")
                bad += 1
                continue
            target.write_text(original.replace(m.old, m.new))
            try:
                status, seconds = run_tests(copy, m.tests, limits[m.tests])
            finally:
                target.write_text(original)
            label = {"pass": "SURVIVED", "fail": "caught  ", "timeout": "timeout "}[status]
            print(f"{label}  {m.name} ({seconds:.1f}s)")
            bad += status == "pass"
            timeouts += status == "timeout"
    print(f"{len(MUTATIONS)} mutations, {bad} survived or stale, {timeouts} caught by timeout")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
