"""Acceptance gate: one timed pass/fail line per criterion.

Each test emits a single ``[PASS]``/``[FAIL]`` line (echoed into the pytest
terminal summary via conftest) and enforces both the expected result and the
time budget.
"""

import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES

from cartan_ds import (
    DEFAULT_CAP,
    Weight,
    apply,
    build_default_catalog,
    build_root_system,
    compact_cartan_verdict,
    dominant_representative,
    entry_involution,
    entry_root_system,
    extended_stabilizer,
    longest_element,
    packaged_catalog_dir,
    stabilizer_generators,
    theta_in_weyl,
    weyl_orbit,
    weyl_order,
    word_element,
)
from cartan_ds import cli
from cartan_ds.linalg import mat_mul
from weyl_reference import reference_reflection

F = Fraction


def report(number, label, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    extra = f" — {detail}" if detail else ""
    line = (
        f"[{status}] criterion {number}: {label}{extra} "
        f"({elapsed:.2f}s, budget {budget:.0f}s)"
    )
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {number} failed: {label}{extra}"
    assert elapsed <= budget, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def catalog_pair(entry):
    rs = entry_root_system(entry)
    return rs, entry_involution(entry, rs=rs)


def test_criterion_1_split_form_table():
    start = time.monotonic()
    expected_yes = {"A1", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"}
    types = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
    failures = []
    for t in types:
        entry = next(
            e for e in build_default_catalog() if e.id == f"split({t})"
        )
        rs, inv = catalog_pair(entry)
        verdict = compact_cartan_verdict(rs, inv)
        w0 = longest_element(rs)
        minus_id = tuple(
            tuple(F(-1) if i == j else F(0) for j in range(rs.rank))
            for i in range(rs.rank)
        )
        oracle = w0.matrix == minus_id
        if verdict.compact_cartan != oracle:
            failures.append((t, "disagrees with longest-element oracle"))
        if verdict.compact_cartan != (t in expected_yes):
            failures.append((t, "unexpected verdict"))
    elapsed = time.monotonic() - start
    report(1, "split-form verdict table", not failures, elapsed, 5.0,
           detail=f"{len(types)} types" + (f"; failures: {failures}" if failures else ""))


def test_criterion_2_full_catalog_against_stored_oracle():
    start = time.monotonic()
    entries = build_default_catalog()
    failures = []
    for entry in entries:
        rs, inv = catalog_pair(entry)
        verdict = compact_cartan_verdict(
            rs, inv, oracle_compact_rank_equal=entry.expected_verdict
        )
        if verdict.compact_cartan != entry.expected_verdict or not verdict.consistent:
            failures.append(entry.id)
    elapsed = time.monotonic() - start
    report(2, "catalog verdicts match the rank-equality oracle", not failures,
           elapsed, 10.0,
           detail=f"{len(entries)} forms" + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_exact_sequence_across_catalog():
    start = time.monotonic()
    suite = cli.suite_exact_sequence(packaged_catalog_dir(), DEFAULT_CAP)
    checked = sorted(f["id"] for f in suite["forms"])
    failures = [f["id"] for f in suite["forms"] if not f["passed"]]
    elapsed = time.monotonic() - start
    expected = sorted(e.id for e in build_default_catalog() if weyl_order(e.cartan_type) <= 46080)
    ok = not failures and checked == expected
    report(3, "restriction exact sequence", ok, elapsed, 60.0,
           detail=f"{len(checked)} forms" + (f"; failures: {failures}" if failures else ""))


def test_criterion_4_sum_splitting_has_no_violations():
    start = time.monotonic()
    suite = cli.suite_splitting(DEFAULT_CAP)
    cases, solutions = suite["cases"], suite["solutions_checked"]
    violations = suite["violations"]
    elapsed = time.monotonic() - start
    ok = violations == 0 and cases == 156 and solutions == 1464
    report(4, "componentwise splitting of orbit+spectrum sums", ok, elapsed, 30.0,
           detail=f"{cases} cases, {solutions} solutions, {violations} violations")


def test_criterion_5_pipeline_certificates_reverify():
    start = time.monotonic()
    suite = cli.suite_pipeline(DEFAULT_CAP)
    # a run passes when its certificates, the re-check of strong regularity
    # and of the cone condition, and the margin linearity for k <= 10 hold
    checks = ("strongly_regular", "cone_condition", "margin_linearity")
    failures = [
        (run["form"], [c for c in checks if not run[c]] or "re-check")
        for run in suite["runs"]
        if not run["passed"]
    ]
    forms = [run["form"] for run in suite["runs"]]
    elapsed = time.monotonic() - start
    ok = not failures and forms == ["sl(2,R)", "su(2,1)", "sp(2,R)"]
    report(5, "pipeline certificates re-verify", ok, elapsed, 30.0,
           detail=f"{len(forms)} forms, k<=10" + (f"; failures: {failures}" if failures else ""))


def test_criterion_6_randomized_membership_implication():
    start = time.monotonic()
    per_form = 200
    failures = []
    total = implied = 0
    for entry in build_default_catalog():
        rs = entry_root_system(entry)
        if rs.rank > 3:
            continue
        inv = entry_involution(entry, rs=rs)
        rng = random.Random(f"acceptance-6:{entry.id}")
        for _ in range(per_form):
            lam = Weight.of(
                [
                    F(rng.randint(-20, 20), rng.randint(1, 6))
                    for _ in range(rs.rank)
                ]
            )
            total += 1
            stab = extended_stabilizer(rs, inv, lam)
            dom_l, _ = dominant_representative(rs, lam)
            dom_t, _ = dominant_representative(rs, inv.act(lam))
            if stab.is_trivial and dom_l == dom_t:
                implied += 1
                witness = theta_in_weyl(rs, inv)
                if witness is None or word_element(rs, witness.word).matrix != inv.theta:
                    failures.append((entry.id, lam.coords))
    elapsed = time.monotonic() - start
    report(6, "trivial stabilizer + symmetric orbit forces a witness",
           not failures and implied > 0, elapsed, 30.0,
           detail=f"{total} weights, {implied} with the hypothesis"
           + (f"; failures: {failures[:3]}" if failures else ""))


def _closure_order(rs, gens):
    if not gens:
        return 1
    seen = {rs.identity.matrix}
    frontier = [rs.identity.matrix]
    while frontier:
        m = frontier.pop()
        for g in gens:
            nxt = mat_mul(g.matrix, m)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen)


def test_criterion_7_root_datum_property_suite():
    start = time.monotonic()
    types = [
        "A1", "A2", "A3", "A4", "A5", "A6",
        "B2", "B3", "B4", "B5", "B6",
        "C3", "C4", "C5", "C6",
        "D4", "D5", "D6",
        "G2", "F4",
    ]
    cases_per_type = 1000
    failures = []
    checked = 0
    for t in types:
        rs = build_root_system(t)
        rng = random.Random(f"acceptance-7:{t}")
        w0 = longest_element(rs)
        if word_element(rs, w0.word + w0.word).matrix != rs.identity.matrix:
            failures.append((t, "longest element is not an involution"))
        # reflection closure: reflections in positive roots permute the roots
        all_roots = {Weight(a) for a in rs.roots}
        for beta in rs.roots[: len(rs.roots) // 2]:
            matrix, word = reference_reflection(rs, Weight(beta))
            w = word_element(rs, word)
            if w.matrix != matrix or {apply(w, r) for r in all_roots} != all_roots:
                failures.append((t, f"reflection in {beta} breaks the root set"))
        for _ in range(cases_per_type):
            lam = Weight.of(
                [F(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(rs.rank)]
            )
            checked += 1
            dom, word = dominant_representative(rs, lam)
            dom2, word2 = dominant_representative(rs, dom)
            if dom2 != dom or word2.matrix != rs.identity.matrix:
                failures.append((t, "dominant representative is not idempotent"))
                break
            i = rng.randrange(rs.rank)
            moved, _ = dominant_representative(rs, apply(word_element(rs, (i,)), lam))
            if moved != dom:
                failures.append((t, "dominant representative varies on the orbit"))
                break
        # orbit-stabilizer identity on a bounded subset of the types
        order = weyl_order(t)
        if order <= 1152:
            for seed in (rs.rho, rs.fundamental_weights[0], Weight.zero(rs.rank)):
                orbit = weyl_orbit(rs, seed)
                stab = _closure_order(rs, stabilizer_generators(rs, seed).gens)
                if len(orbit) * stab != order:
                    failures.append((t, f"orbit-stabilizer fails at {seed.coords}"))
    elapsed = time.monotonic() - start
    report(7, "root-datum property suite", not failures, elapsed, 60.0,
           detail=f"{len(types)} types, {checked} randomized cases"
           + (f"; failures: {failures[:3]}" if failures else ""))
