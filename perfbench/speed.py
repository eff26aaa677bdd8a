"""Correction of measured op times for the drifting speed of a shared CPU.

The machine the benchmark runs on is shared with other tenants, and its speed
drifts by tens of percent over seconds to minutes: on the 2-vCPU Xeon VM the
benchmark was defined on, identical rounds of ops took anywhere from 0.75 s
to 1.3 s.  A fixed kernel doing the program's kind of work (rationals, small
tuples, a dict), timed right after every op, tracks that drift, so each op's
latency is scaled by ``NOMINAL_S`` over the median kernel time around the op.
The reported times are then those of a machine of constant speed, while a
change in the program still moves them in full, since the kernel does not
call the program.  In one set of ten seeds this cut the spread of ops_per_s
from 9-10% to 1-2% on membership_stream and translation_pipeline, and from
10% to 7% on exact_sequence_sweep, whose ops of up to 2 s are too long for
the kernel to follow.  The uncorrected values are printed in the run context.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: Median time of ``kernel()`` between ops on the machine the benchmark was
#: defined on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7).  It only
#: fixes the scale of the reported times.
NOMINAL_S = 0.00078

#: Kernel samples taken on each side of an op to estimate its speed factor.
WINDOW = 7


def kernel() -> int:
    """Fixed work in the program's style: rationals, small tuples, a dict."""
    counts: dict[tuple[int, ...], int] = {}
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        key = tuple(j * i % 13 for j in range(8))
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + total.denominator


def sample() -> float:
    """Seconds taken by one run of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factors(samples: list[float]) -> list[float]:
    """Speed factor for the op before each sample, from its neighbours."""
    return [
        NOMINAL_S / statistics.median(samples[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(samples))
    ]
