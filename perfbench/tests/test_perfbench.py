"""Smoke tests of the benchmark itself: run with

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import calibration
import run
import workloads
from tracing import NullTracer, Tracer, self_times_ns

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    result = _result(
        _run("--workload", "cache_zipf", "--seed", "3", "--seconds", "30",
             "--trace", "0", "--max-ops", "3")
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 + 1  # three ops and the scan-hot check
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_with_its_unit():
    result = _result(
        _run("--workload", "plan_few_tables", "--seed", "3", "--seconds", "60",
             "--trace", "1", "--max-ops", "12")
    )
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    qps = result["metrics"]["perf.modeled_qps.model_f.fine_grain"]["value"]
    assert qps > result["metrics"]["perf.modeled_qps.model_f.greedy"]["value"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "cache_zipf", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_corrupted_sharded_output_counts_as_failure(monkeypatch):
    real = workloads.train_step_sharded

    def corrupted(*args, **kwargs):
        out, state = real(*args, **kwargs)
        out = out.copy()
        out[0, 0] += 1e-6
        return out, state

    monkeypatch.setattr(workloads, "train_step_sharded", corrupted)
    workload = workloads.VerifyDesk(seed=5)
    workload.setup(NullTracer())
    errors = []
    stats = run.closed_loop(workload, 60, 2, (NullTracer(),), errors)
    assert len(stats.times) == 2 and stats.failed == 2
    assert stats.digests == [None, None]
    assert all("max deviation" in e for e in errors)


def test_w1_result_must_be_bitwise_equal():
    ref = np.ones((4, 3))
    near = ref + 1e-12  # inside the 1e-9 tolerance, but not bit for bit
    table = type("T", (), {"values": np.zeros((2, 3))})()
    assert workloads.check_verify(ref, [table], near, [table.values], 2).ok
    assert not workloads.check_verify(ref, [table], near, [table.values], 1).ok


@pytest.mark.parametrize("name", ["plan_few_tables", "verify_desk", "cache_zipf"])
def test_same_seed_gives_same_ops_and_digests(name):
    def first_ops(seed, count):
        workload = workloads.WORKLOADS[name](seed)
        workload.setup(NullTracer())
        ops = workload.ops()
        return workload, [next(ops) for _ in range(count)]

    a, ops_a = first_ops(11, 8)
    b, ops_b = first_ops(11, 8)
    _, ops_c = first_ops(12, 8)
    assert ops_a == ops_b
    assert ops_a != ops_c
    stats_a = run.closed_loop(a, 60, 3, (NullTracer(),), [])
    stats_b = run.closed_loop(b, 60, 3, (NullTracer(),), [])
    assert stats_a.failed == stats_b.failed == 0
    assert run.cycle_digests(stats_a, 3) == run.cycle_digests(stats_b, 3)


def test_verify_plans_cover_every_scheme():
    workload = workloads.VerifyDesk(seed=2)
    workload.setup(NullTracer())
    ops = workload.ops()
    kinds = set()
    for _ in range(workload.cycle_length):
        for a in next(ops).plan.assignments:
            kinds.add("hierarchical" if a.scheme.hierarchical else a.scheme.kind.value)
    assert kinds == {"table_wise", "row_wise", "column_wise", "data_parallel", "hierarchical"}


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("op", group="op0"):
        tracer.call("child", sum, range(1000))
        tracer.call("child", sum, range(1000))
    op, first, second = tracer.spans
    assert first.parent == second.parent == op.span_id and first.group == "op0"
    self_ns = self_times_ns(tracer.spans)
    assert self_ns[op.span_id] == op.duration_ns - first.duration_ns - second.duration_ns
    assert self_ns[first.span_id] == first.duration_ns


@pytest.mark.parametrize("n, pct", [(12, 50), (40, 75), (99, 75), (100, 90), (250, 95)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    times = [float(i) for i in range(1, n + 1)]
    value, chosen = run.tail(times)
    assert chosen == pct
    assert value == times[math.ceil(pct / 100 * n) - 1]
    assert sum(t > value for t in times) >= min(10, n // 2)


@pytest.mark.parametrize(
    "values, expected",
    [([5.0], 5.0), ([1.0, 3.0], 2.0), ([9.0, 2.0, 3.0, 1.0, 4.0], 3.0), ([1, 2, 3, 4, 100], 3.0)],
)
def test_interquartile_mean_drops_a_quarter_at_each_end(values, expected):
    assert run.interquartile_mean(values) == expected


def test_scaled_time_follows_the_op_not_the_host():
    stats = run.LoopStats(
        times=[0.1, 0.2, 0.2], calibration_ms=[1.0, 2.0, 1.0], kinds=["a", "a", "b"],
        traced=[False, False, False],
    )
    times, kinds = run.scaled_times(stats)
    ref = calibration.REFERENCE_MS
    # an op twice as long on a host half as fast scales to the same time
    assert times == pytest.approx([0.1 * ref, 0.1 * ref, 0.2 * ref])
    assert kinds == ["a", "a", "b"]
