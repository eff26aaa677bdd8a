#!/usr/bin/env python3
"""Run one cartan_ds benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the ``cartan_ds`` package in ``src/`` of the same
checkout; the command exits with code 2, printing no result, when it is
missing.  Inputs come from ``--seed`` and are all generated before timing.

``--trace 0`` measures the end-to-end metrics.  Op times are corrected for
the drifting speed of a shared machine (see ``speed.py``); ops_per_s is ops
over the corrected op time, and ops_per_s and latency_p50_ms are medians over
rounds.  setup_s is the median of three set-ups, each in its own process,
uncorrected.

``--trace 1`` first runs the workload untraced for half of ``--seconds``,
then replays exactly the same ops with every layer wrapped in spans, and
reports the per-layer metrics and the tracing overhead; spans go to
``.perfbench-out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run's context (interpreter, CPU count, op counts, percentile,
uncorrected times).  The exit code is 1 when any op failed its check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:
    # Run as a script: make the benchmark's own package importable.
    sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"

#: Extra set-up samples, each in a fresh interpreter, besides the run's own.
SETUP_CHILDREN = 2
SETUP_CHILD_TIMEOUT_S = 120

#: Units of the end-to-end metrics, in reporting order.
END_TO_END = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "passed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def setup(name: str, seed: int, max_ops: int | None = None):
    """Build every input of the run; returns the pieces and the time taken."""
    from perfbench import workloads

    start = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    entries = workloads.load_entries()
    rounds = workload.make_rounds(seed, entries)
    if max_ops is not None:
        rounds = [rounds[0][:max_ops]]
    state = workload.prepare(
        {e.id: e for e in entries}, [op for ops in rounds for op in ops]
    )
    return workload, rounds, state, time.perf_counter() - start


def run_ops(workload, state, ops, tracer=None, first_id=0, speed_samples=None):
    """Execute ops in order; returns per-op latencies (s) and the failure count.

    With ``speed_samples``, one timing of the speed kernel is appended after
    each op.
    """
    latencies = []
    failed = 0
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(state, op)
            else:
                with tracer.op(first_id + i):
                    out = workload.run(state, op)
        except Exception as exc:  # an op that raises is counted, not fatal
            latencies.append(time.perf_counter() - t0)
            failed += 1
            print(f"op {first_id + i} {op.form} raised {exc!r}", file=sys.stderr)
            if speed_samples is not None:
                speed_samples.append(speed.sample())
            continue
        latencies.append(time.perf_counter() - t0)
        if not workload.check(state, op, out):
            failed += 1
            print(f"op {first_id + i} {op.form} failed its check", file=sys.stderr)
        if speed_samples is not None:
            speed_samples.append(speed.sample())
    return latencies, failed


def timed_phase(workload, state, rounds, seconds: float, speed_samples=None):
    """Whole rounds until ``seconds`` have passed (one round if single-pass).

    Returns the ops run, each round's latencies and wall time, and the
    failure count.
    """
    done: list = []
    latencies: list[list[float]] = []
    walls: list[float] = []
    failed = 0
    start = time.perf_counter()
    for r in range(1 if workload.single_pass else sys.maxsize):
        ops = rounds[r % len(rounds)]
        t0 = time.perf_counter()
        lat, f = run_ops(workload, state, ops, first_id=len(done), speed_samples=speed_samples)
        walls.append(time.perf_counter() - t0)
        done += ops
        latencies.append(lat)
        failed += f
        if time.perf_counter() - start >= seconds:
            break
    return done, latencies, walls, failed


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_sample_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def context(name: str, seed: int, ops: int, rounds_run: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ops": ops,
        "rounds": rounds_run,
    }


def measure(
    name: str, seed: int, seconds: float, import_s: float = 0.0, max_ops: int | None = None
) -> tuple[dict, dict]:
    """Untraced run: end-to-end metrics plus the run context.

    ``import_s`` is the time the caller spent importing the package; it is
    part of this run's set-up sample.
    """
    samples = []
    if max_ops is None:
        samples = [setup_sample_in_child(name, seed) for _ in range(SETUP_CHILDREN)]
    workload, rounds, state, build_s = setup(name, seed, max_ops)
    samples.append(import_s + build_s)
    speed_samples: list[float] = []
    ops, latencies, walls, failed = timed_phase(workload, state, rounds, seconds, speed_samples)
    raw = [x for lat in latencies for x in lat]
    flat = [x * f for x, f in zip(raw, speed.factors(speed_samples))]
    per_round = [flat[i:i + len(lat)] for i, lat in zip(
        itertools.accumulate((len(lat) for lat in latencies), initial=0), latencies)]
    # Rounds hold the same mix of work, so medians over rounds filter out
    # bursts shorter than a round; the tail needs every sample.
    metrics = {
        "ops_per_s": len(per_round[0]) / statistics.median(map(sum, per_round)),
        "latency_p50_ms": 1000 * statistics.median(map(statistics.median, per_round)),
        "latency_tail_ms": 1000 * percentile(flat, workload.tail_percentile),
        "setup_s": statistics.median(samples),
        "passed_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ctx = context(name, seed, len(ops), len(walls))
    ctx.update(
        tail_percentile=workload.tail_percentile,
        tail_samples_beyond=int(len(ops) * (100 - workload.tail_percentile) / 100),
        setup_samples_s=samples,
        speed_kernel_median_ms=1000 * statistics.median(speed_samples),
        uncorrected={
            "ops_per_s": len(ops) / sum(walls),
            "latency_p50_ms": 1000 * statistics.median(raw),
            "latency_tail_ms": 1000 * percentile(raw, workload.tail_percentile),
        },
    )
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}, ctx


def measure_traced(name: str, seed: int, seconds: float, max_ops: int | None = None):
    """Untraced phase, then a traced replay of the same ops; per-layer metrics."""
    from perfbench.tracing import Tracer

    workload, rounds, state, _ = setup(name, seed, max_ops)
    ops, _, walls, failed_plain = timed_phase(workload, state, rounds, seconds / 2)
    plain_wall = sum(walls)
    tracer = Tracer()
    with tracer.installed():
        start = time.perf_counter()
        _, failed_traced = run_ops(workload, state, ops, tracer=tracer)
        traced_wall = time.perf_counter() - start
    metrics = tracer.metrics((traced_wall - plain_wall) / plain_wall)
    ctx = context(name, seed, len(ops), len(walls))
    ctx.update(spans=len(tracer.names), untraced_s=plain_wall, traced_s=traced_wall)
    summary = {
        "attempted": 2 * len(ops),
        "failed": failed_plain + failed_traced,
        "metrics": metrics,
    }
    return summary, ctx, tracer


def result_line(summary: dict, units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {
                k: {"value": summary["metrics"][k], "unit": unit} for k, unit in units.items()
            },
        }
    )


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cartan_ds" / "__init__.py").is_file():
        print(f"cartan_ds sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from perfbench.workloads import WORKLOADS  # imports cartan_ds

    import_s = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(import_s + setup(args.workload, args.seed)[3])
        return 0
    if args.trace:
        from perfbench.tracing import metric_units

        summary, ctx, tracer = measure_traced(args.workload, args.seed, args.seconds)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, ctx)
        ctx["trace_file"] = str(trace_path.relative_to(ROOT))
        units = metric_units()
    else:
        summary, ctx = measure(args.workload, args.seed, args.seconds, import_s)
        units = END_TO_END
    print(json.dumps({"context": ctx}))
    print(result_line(summary, units))
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
