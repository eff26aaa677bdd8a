"""The four benchmark workloads: seeded inputs, set-up, one op, and its check.

Every workload is a closed loop with one client.  Its op population is cut
into rounds: a round holds each member of the population once, in an order
(and with random parameters) drawn from the seed.  Runs execute whole rounds,
so every run does the same mix of work whatever the seed, and the seed only
changes order and parameters.  All rounds a run may need are generated during
set-up, before timing starts; a run that outlasts the pool cycles through it
again.

The program is called only through the public ``cartan_ds`` API, looked up
on the module at call time so that the traced run can substitute wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import cartan_ds as cd
from cartan_ds import cli

#: Forms above this Weyl-group order cost seconds each in the exact-sequence
#: check (split(F4) alone takes about 23 s), so one sweep of the forms at or
#: below it takes about ten seconds.
EXACT_SEQUENCE_MAX_WEYL = 192

#: The rank-4 forms cost up to 3.6 s per strong-regularization op (split(F4),
#: worst-case exponents); ranks up to 3 keep a round near one second.
TRANSLATION_MAX_RANK = 3

#: split(E7) and split(E8) requests take 0.1 to 1 s each, five of them would
#: make up half of a round's time, and their few samples would set the tail.
CLI_MAX_RANK = 6


@dataclass(frozen=True)
class Op:
    """One generated request: a catalog form id plus the op's own input."""

    form: str
    arg: Any


def load_entries() -> list[cd.CatalogEntry]:
    """The packaged catalog: every op population is drawn from it."""
    return cd.load_catalog(cd.packaged_catalog_dir())


def _has_split_part(entry: cd.CatalogEntry) -> bool:
    # theta is an involution, so it has a (-1)-eigenvector unless it is 1.
    n = entry.rank
    return entry.theta_matrix != tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n)
    )


class Workload:
    """Base class; subclasses define the population, op and check."""

    name = ""
    #: Percentile reported as latency_tail_ms: the highest one with at least
    #: ten samples beyond it at the op count of a twenty-second run.
    tail_percentile = 0
    #: Rounds generated before timing.
    pool_rounds = 1
    #: Run exactly one round, so that no op repeats within a run.
    single_pass = False

    def population(self, entries: list[cd.CatalogEntry]) -> list:
        raise NotImplementedError

    def make_round(self, rng: random.Random, population: list) -> list[Op]:
        raise NotImplementedError

    def prepare(self, entries: dict[str, cd.CatalogEntry], ops: list[Op]) -> dict:
        """Build every root system, involution and input the ops use."""
        raise NotImplementedError

    def run(self, state: dict, op: Op) -> Any:
        raise NotImplementedError

    def check(self, state: dict, op: Op, out: Any) -> bool:
        raise NotImplementedError

    def make_rounds(self, seed: int, entries: list[cd.CatalogEntry]) -> list[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        population = self.population(entries)
        return [self.make_round(rng, population) for _ in range(self.pool_rounds)]


def _forms(entries: dict[str, cd.CatalogEntry], ops: list[Op]) -> dict:
    """Root system and validated involution of every form the ops name."""
    state = {}
    for form in dict.fromkeys(op.form for op in ops):
        entry = entries[form]
        rs = cd.entry_root_system(entry)
        state[form] = (entry, rs, cd.entry_involution(entry, rs=rs))
    return state


class MembershipStream(Workload):
    """Random rational weights on forms drawn uniformly from the catalog."""

    name = "membership_stream"
    tail_percentile = 99
    pool_rounds = 128

    def population(self, entries):
        return list(entries)

    def make_round(self, rng, population):
        order = list(population)
        rng.shuffle(order)
        return [
            Op(
                e.id,
                cd.Weight(
                    tuple(
                        Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                        for _ in range(e.rank)
                    )
                ),
            )
            for e in order
        ]

    def prepare(self, entries, ops):
        return _forms(entries, ops)

    def run(self, state, op):
        entry, rs, inv = state[op.form]
        stab = cd.extended_stabilizer(rs, inv, op.arg)
        verdict = cd.compact_cartan_verdict(
            rs, inv, oracle_compact_rank_equal=entry.expected_verdict
        )
        return stab, verdict

    def check(self, state, op, out):
        entry, _, inv = state[op.form]
        stab, verdict = out
        lam = op.arg
        if verdict.consistent is not True:
            return False
        if verdict.compact_cartan != entry.expected_verdict:
            return False
        if stab.minus_sigma_in_weyl != verdict.minus_sigma_in_weyl:
            return False
        if verdict.witness is not None and verdict.witness.matrix != inv.theta:
            return False
        if stab.is_regular != (not stab.weyl_fixers):
            return False
        if stab.twisted_fixer is not None:
            if cd.apply_extended(inv, stab.twisted_fixer, lam) != lam:
                return False
            # A trivial stabilizer with theta(lam) in the orbit of lam forces
            # the involution into the Weyl group.
            if stab.is_trivial and verdict.witness is None:
                return False
        return True


class ExactSequenceSweep(Workload):
    """One pass of the restriction exact-sequence check over the catalog."""

    name = "exact_sequence_sweep"
    tail_percentile = 78
    single_pass = True

    def population(self, entries):
        return [e for e in entries if cd.weyl_order(e.cartan_type) <= EXACT_SEQUENCE_MAX_WEYL]

    def make_round(self, rng, population):
        order = [Op(e.id, None) for e in population]
        rng.shuffle(order)
        return order

    def prepare(self, entries, ops):
        return _forms(entries, ops)

    def run(self, state, op):
        _, rs, inv = state[op.form]
        return cd.verify_exact_sequence(rs, inv)

    def check(self, state, op, out):
        return out.passed


class TranslationPipeline(Workload):
    """Strong regularization, alternating the default and worst-case datum."""

    name = "translation_pipeline"
    tail_percentile = 98
    pool_rounds = 128

    def population(self, entries):
        return [
            e for e in entries if e.rank <= TRANSLATION_MAX_RANK and _has_split_part(e)
        ]

    def make_round(self, rng, population):
        default = [e.id for e in population]
        worst = list(default)
        rng.shuffle(default)
        rng.shuffle(worst)
        ops = []
        for d, w in zip(default, worst):
            ops += [Op(d, "default"), Op(w, "worst")]
        return ops

    def prepare(self, entries, ops):
        state = {}
        for form, (entry, rs, inv) in _forms(entries, ops).items():
            rrs = cd.restricted_roots(rs, inv)
            chamber = cd.dual_chamber(rrs)
            dom, _ = cd.dominant_representative(rs, rs.rho)
            anti = cd.apply(cd.longest_element(rs), dom)
            plus = cd.orbit_plus(rs, inv, rs.rho, chamber=chamber)
            data = {
                "default": cd.FormalDSDatum(
                    weight=rs.rho, exponents=frozenset({inv.restrict(anti)}), label=form
                ),
                "worst": cd.FormalDSDatum(
                    weight=rs.rho,
                    exponents=frozenset(inv.restrict(nu) for nu in plus),
                    label=form,
                ),
            }
            configs = {
                "default": cd.TranslationConfig(),
                "worst": cd.TranslationConfig(worst_case_exponents=True),
            }
            state[form] = (rs, inv, rrs, chamber, data, configs)
        return state

    def run(self, state, op):
        rs, inv, rrs, chamber, data, configs = state[op.form]
        result = cd.strong_regularization(rs, inv, rrs, data[op.arg], configs[op.arg])
        # Independent re-check of the certificates, as the strong-reg command does.
        recheck_sr = cd.extended_stabilizer(rs, inv, result.final_weight).is_trivial
        recheck_cone = all(
            cd.cone_position(chamber, e).neg_interior
            for e in cd.sorted_exponents(result.certificates.scaled_exponents)
        )
        return result, recheck_sr, recheck_cone

    def check(self, state, op, out):
        result, recheck_sr, recheck_cone = out
        certs = result.certificates
        final = result.dominant_base.scale(result.k * result.integrality + 1)
        for mu in result.mus:
            final = final + mu
        return (
            certs.strongly_regular
            and certs.cone_condition
            and recheck_sr
            and recheck_cone
            and final == result.final_weight
        )


def _certificates_hold(value: Any) -> bool:
    """Every boolean in a certificate document is true."""
    if isinstance(value, bool):
        return value
    if isinstance(value, dict):
        return all(_certificates_hold(v) for v in value.values())
    if isinstance(value, list):
        return all(_certificates_hold(v) for v in value)
    return True


class CliRequests(Workload):
    """In-process CLI requests: criterion, inspect and strong-reg with --json."""

    name = "cli_requests"
    tail_percentile = 98
    pool_rounds = 32

    def population(self, entries):
        forms = [e for e in entries if e.rank <= CLI_MAX_RANK]
        requests = [("criterion", e.id) for e in forms]
        requests += [("inspect", e.id) for e in forms]
        requests += [
            ("strong-reg", e.id)
            for e in entries
            if e.rank <= TRANSLATION_MAX_RANK and _has_split_part(e)
        ]
        return requests

    def make_round(self, rng, population):
        order = [Op(form, (command, form, "--json")) for command, form in population]
        rng.shuffle(order)
        return order

    def prepare(self, entries, ops):
        state = {}
        for form in dict.fromkeys(op.form for op in ops):
            entry = entries[form]
            cd.entry_root_system(entry)
            state[form] = entry
        return state

    def run(self, state, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.arg))
        return code, out.getvalue()

    def check(self, state, op, out):
        code, text = out
        if code != 0:
            return False
        doc = json.loads(text.strip().splitlines()[-1])
        results, certs = doc["results"], doc["certificates"]
        if results["id"] != op.form:
            return False
        if op.arg[0] == "criterion":
            if results["compact_cartan"] != state[op.form].expected_verdict:
                return False
            # No witness exists to verify when the verdict is negative.
            if certs["witness_verified"] is None:
                certs = dict(certs, witness_verified=not results["compact_cartan"])
        return _certificates_hold(certs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (MembershipStream(), ExactSequenceSweep(), TranslationPipeline(), CliRequests())
}
