"""Tests of the benchmark harness itself (not of cartan_ds)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import cartan_ds
from perfbench import run, speed
from perfbench.tracing import ROOT_SPAN, Tracer, metric_units
from perfbench.workloads import WORKLOADS, load_entries

REPO = Path(__file__).resolve().parent.parent
NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def entries():
    return load_entries()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_op_lists(name, entries):
    assert WORKLOADS[name].make_rounds(7, entries) == WORKLOADS[name].make_rounds(7, entries)


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_other_order(name, entries):
    first = [op.form for op in WORKLOADS[name].make_rounds(7, entries)[0]]
    second = [op.form for op in WORKLOADS[name].make_rounds(8, entries)[0]]
    assert first != second
    assert sorted(first) == sorted(second)


@pytest.mark.parametrize("name", NAMES)
def test_minimal_run_has_no_failures(name):
    summary, ctx = run.measure(name, seed=3, seconds=0, max_ops=2)
    assert summary["attempted"] == ctx["ops"] == 2
    assert summary["failed"] == 0
    assert summary["metrics"]["passed_frac"] == 1.0
    assert set(summary["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name):
    summary, _, tracer = run.measure_traced(name, seed=3, seconds=0, max_ops=2)
    assert summary["failed"] == 0
    assert set(summary["metrics"]) == set(metric_units())
    # Each op has one root span, and the self times of all spans of an op
    # add up to the root's duration.
    roots = [i for i, n in enumerate(tracer.names) if n == ROOT_SPAN]
    assert [tracer.op_ids[i] for i in roots] == [0, 1]
    selfs = defaultdict(float)
    for op_id, s in zip(tracer.op_ids, tracer.self_times()):
        selfs[op_id] += s
    for i in roots:
        duration = tracer.ends[i] - tracer.starts[i]
        assert selfs[tracer.op_ids[i]] == pytest.approx(duration, rel=1e-9, abs=1e-12)
    if name == "exact_sequence_sweep":
        assert summary["metrics"]["criterion.theta_in_weyl.calls"] == 0


def test_tracer_wraps_names_bound_by_from_imports():
    original = cartan_ds.rootdata.dominant_representative
    tracer = Tracer()
    with tracer.installed():
        for module in (cartan_ds, cartan_ds.criterion, cartan_ds.translation, cartan_ds.realform):
            assert module.dominant_representative.__wrapped__ is original
        assert cartan_ds.translation.extended_stabilizer.__wrapped__ is not None
        rs = cartan_ds.build_root_system("A2")
        cartan_ds.criterion.theta_in_weyl(rs, ((-1, 0), (0, -1)))
    assert cartan_ds.criterion.dominant_representative is original
    assert "rootdata.dominant_representative" in tracer.names


def test_benchmark_json_matches_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()


def _command(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_command_prints_result_as_last_line():
    proc = _command(REPO, "--workload", "translation_pipeline", "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_command_fails_without_the_package_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(tmp_path, "--workload", "membership_stream", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_factors_follow_the_kernel_time_around_each_op():
    slow = [2 * speed.NOMINAL_S] * 20
    fast = [speed.NOMINAL_S / 2] * 20
    factors = speed.factors(slow + fast)
    assert factors[0] == pytest.approx(0.5)
    assert factors[-1] == pytest.approx(2.0)
    assert speed.kernel() == speed.kernel()
