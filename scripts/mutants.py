#!/usr/bin/env python3
"""Run the mutations that the tests claim to catch, and fail on a survivor.

Each mutation is data: the file it edits, the exact old text (which must
occur there once), the new text and the test modules that should catch it.
The script copies the checkout to a temporary directory, runs the test
modules once unmutated (they must pass), then applies each mutation in turn
and runs its modules with ``-x``.  A mutant is caught when the run fails.

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
EXACT_SEQUENCE_TESTS = (
    "tests/test_exact_sequence_reference.py",
    "tests/test_realform.py",
    "tests/test_acceptance.py",
)

# The mutations of tests/test_exact_sequence_reference.py's docstring.
MUTATIONS = (
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
        "    simple = [rs.root_index[b] for b in zip(*inv.chamber.matrix)]\n"
        "    tracked = ",
        "    simple = [rs.root_index[b] for b in rs.identity.matrix]\n"
        "    tracked = ",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "vanishing reflections applied transposed",
        REALFORM,
        "tuple(x - _dot(c, a) * y for x, y in zip(a, b))",
        "tuple(x - _dot(b, a) * y for x, y in zip(a, c))",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "images read from the theta block",
        REALFORM,
        "tuple(index[doubled[t[j]]] for j in simple.values())",
        "tuple(index[doubled[t[rs.rank + j]]] for j in simple.values())",
        EXACT_SEQUENCE_TESTS,
    ),
    Mutation(
        "one simple restricted reflection left out of the closure",
        REALFORM,
        "generators = [reflections[s] for s in simple]",
        "generators = [reflections[s] for s in list(simple)[1:]]",
        EXACT_SEQUENCE_TESTS,
    ),
)


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether the test modules pass in the copy, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    done = subprocess.run(argv, cwd=copy, env=env, **quiet)
    return done.returncode == 0, time.perf_counter() - start


def main() -> int:
    bad = 0
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
            ok, seconds = run_tests(copy, tests)
            print(f"unmutated: {'pass' if ok else 'FAIL'} ({seconds:.1f}s) {' '.join(tests)}")
            if not ok:
                return 1
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
                survived, seconds = run_tests(copy, m.tests)
            finally:
                target.write_text(original)
            print(f"{'SURVIVED' if survived else 'caught  '}  {m.name} ({seconds:.1f}s)")
            bad += survived
    print(f"{len(MUTATIONS)} mutations, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
