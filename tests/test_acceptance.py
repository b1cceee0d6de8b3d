"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import desk_model

from neosim import (
    CacheConfig,
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    OptimizerConfig,
    OptimizerKind,
    Precision,
    ReplacementPolicy,
    Scheme,
    SchemeKind,
    Shard,
    TableAssignment,
    TableSpec,
    ShardingPlan,
    effective_performance,
    effective_row_bandwidth,
    gen_synthetic_batch,
    greedy_partition,
    karmarkar_karp_partition,
    memory_check,
    plan_4d,
    scaling_sweep,
    simulate,
    simulate_trace,
    train_step_reference,
    train_step_sharded,
)
from neosim.bundled import data_path, load_bundled_cluster, load_bundled_model
from neosim.comms import reassemble_values
from neosim.embedding import backward_sort_aggregate
from neosim.planner import even_bounds
from test_planner import brute_force_imbalance, imbalance


@contextmanager
def criterion(number, description, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {number} blew its {budget_s}s budget"


def test_criterion_1_effective_performance_identity():
    with criterion(1, "effective-performance identity (638 MFLOPS x 1.2 MQPS)", 1.0):
        flops = effective_performance(638, 1.2e6)
        assert flops == pytest.approx(765.6e12, rel=1e-12)
        assert abs(flops - 766e12) / 766e12 < 0.002


def test_criterion_2_model_f_memory_math():
    with criterion(2, "model-F capacity math (96 TB naive, ~24.2 TB optimized)", 1.0):
        model = load_bundled_model("model_f")
        cluster = load_bundled_cluster()
        optimized_flags = CompressionFlags(
            table_precision=Precision.FP16, rowwise_optimizer=True
        )
        plan = plan_4d(
            model,
            cluster,
            CostWeights(),
            CandidatePolicy(flags=optimized_flags),
            heuristic="kk",
        )
        naive = memory_check(
            plan,
            model,
            cluster,
            CompressionFlags(table_precision=Precision.FP32, rowwise_optimizer=False),
        )
        assert abs(sum(naive.totals.tolist()) - 96e12) / 96e12 < 0.05
        optimized = memory_check(plan, model, cluster, optimized_flags)
        assert 24.0e12 <= sum(optimized.totals.tolist()) <= 24.3e12


def test_criterion_3_roofline_consistency_band():
    with criterion(3, "model-A 128-GPU estimate brackets 1.2 MQPS", 10.0):
        model = load_bundled_model("model_a")
        cluster = load_bundled_cluster()
        assert cluster.num_workers == 128
        policy = CandidatePolicy(flags=CompressionFlags(rowwise_optimizer=True))
        plan = plan_4d(model, cluster, CostWeights(), policy)
        result = simulate(
            model,
            cluster,
            plan,
            a2a_fwd_precision=Precision.FP16,
            a2a_bwd_precision=Precision.BF16,
        )
        estimate = result.estimate.qps
        assert 0.6 * estimate <= 1.2e6 <= 1.05 * estimate


def test_criterion_4_scaling_shape():
    with criterion(4, "weak-scaling shape: nonincreasing, model-A < model-I", 30.0):
        cluster = load_bundled_cluster()
        efficiencies = {}
        for name in ("model_a", "model_i"):
            entries = scaling_sweep(
                load_bundled_model(name),
                cluster,
                [1, 2, 4, 8, 16],
                a2a_fwd_precision=Precision.FP16,
                a2a_bwd_precision=Precision.BF16,
            )
            effs = [e.efficiency for e in entries]
            assert all(e is not None for e in effs)
            assert all(a >= b - 1e-12 for a, b in zip(effs, effs[1:]))
            efficiencies[name] = effs
        assert efficiencies["model_a"][-1] < efficiencies["model_i"][-1]


def _random_plan(rng, model, workers, gpus_per_node):
    """Seeded scheme mix; every kind (and the hierarchical variant) occurs
    across the suite."""
    assignments = []
    for table in model.tables:
        choice = rng.integers(0, 5)
        if choice == 4 and workers > gpus_per_node:
            node = int(rng.integers(0, workers // gpus_per_node))
            k = min(gpus_per_node, table.num_rows)
            bounds = even_bounds(table.num_rows, k)
            assignments.append(
                TableAssignment(
                    table.id,
                    Scheme(
                        SchemeKind.ROW_WISE,
                        num_row_shards=k,
                        hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
                    ),
                    tuple(
                        Shard(worker=node * gpus_per_node + i % gpus_per_node, rows=b)
                        for i, b in enumerate(bounds)
                    ),
                )
            )
        elif choice == 3:
            assignments.append(
                TableAssignment(
                    table.id, Scheme(SchemeKind.DATA_PARALLEL), (Shard(worker=None),)
                )
            )
        elif choice == 2 and table.dim % 2 == 0:
            splits = ((0, table.dim // 2), (table.dim // 2, table.dim))
            start = int(rng.integers(0, workers))
            assignments.append(
                TableAssignment(
                    table.id,
                    Scheme(SchemeKind.COLUMN_WISE, col_splits=splits),
                    tuple(
                        Shard(worker=(start + i) % workers, cols=s)
                        for i, s in enumerate(splits)
                    ),
                )
            )
        elif choice == 1 and min(workers, table.num_rows) >= 2:
            k = int(rng.integers(2, min(workers, table.num_rows, 4) + 1))
            bounds = even_bounds(table.num_rows, k)
            start = int(rng.integers(0, workers))
            assignments.append(
                TableAssignment(
                    table.id,
                    Scheme(SchemeKind.ROW_WISE, num_row_shards=k),
                    tuple(
                        Shard(worker=(start + i) % workers, rows=b)
                        for i, b in enumerate(bounds)
                    ),
                )
            )
        else:
            assignments.append(
                TableAssignment(
                    table.id,
                    Scheme(SchemeKind.TABLE_WISE),
                    (Shard(worker=int(rng.integers(0, workers))),),
                )
            )
    return ShardingPlan(workers, gpus_per_node, tuple(assignments))


def test_criterion_5_sharding_equivalence_suite():
    with criterion(5, "200 seeded sharded-vs-reference runs within 1e-9", 60.0):
        rng = np.random.default_rng(2024)
        kinds_seen = set()
        optimizers = [
            OptimizerKind.SGD,
            OptimizerKind.ROWWISE_ADAGRAD,
            OptimizerKind.ADAGRAD,
        ]
        for trial in range(200):
            num_tables = int(rng.integers(1, 9))
            tables = [
                TableSpec(
                    id=f"t{i}",
                    num_rows=int(rng.integers(8, 33)),
                    dim=int(rng.integers(1, 4)) * 2,
                    avg_pooling=float(rng.uniform(1.0, 3.5)),
                )
                for i in range(num_tables)
            ]
            model = desk_model(tables, local_batch=int(rng.integers(1, 4)))
            workers = int(rng.choice([1, 2, 4]))
            gpn = 2 if workers == 4 and trial % 2 else workers
            plan = _random_plan(rng, model, workers, gpn)
            kinds_seen.update(
                ("hier" if a.scheme.hierarchical else a.scheme.kind.value)
                for a in plan.assignments
            )
            cfg = OptimizerConfig(optimizers[trial % 3], lr=0.1, eps=1e-8)
            seed = int(rng.integers(10_000))
            batch = gen_synthetic_batch(model, workers * model.local_batch, seed)
            ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=seed)
            sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=seed)
            assert float(np.max(np.abs(ref_out - sh_out))) <= 1e-9
            for ref, values in zip(ref_tables, reassemble_values(model, plan, state)):
                if cfg.kind is OptimizerKind.SGD:
                    assert np.array_equal(ref.values, values)
                else:
                    assert float(np.max(np.abs(ref.values - values))) <= 1e-9
        assert kinds_seen >= {
            "table_wise",
            "row_wise",
            "column_wise",
            "data_parallel",
            "hier",
        }


def test_criterion_6_gradient_check_suite():
    with criterion(6, "50 seeded analytic-vs-finite-difference checks within 1e-6", 30.0):
        rng = np.random.default_rng(99)
        step = 1e-4
        for _ in range(50):
            H = int(rng.integers(4, 10))
            D = int(rng.integers(1, 4))
            n = int(rng.integers(1, 6))
            values = rng.standard_normal((H, D))
            lengths = rng.integers(0, 4, size=n)
            indices = rng.integers(0, H, size=int(lengths.sum()))
            sample_w = rng.standard_normal((n, 1))

            def loss(vals):
                total = 0.0
                pos = 0
                for s, count in enumerate(lengths):
                    pooled = np.zeros(D)
                    for _ in range(count):
                        pooled += vals[indices[pos]]
                        pos += 1
                    total += float(sample_w[s, 0] * pooled.sum())
                return total

            upstream = np.repeat(sample_w, D, axis=1)
            analytic = backward_sort_aggregate(lengths, indices, upstream)
            dense = np.zeros((H, D))
            dense[analytic.ids] = analytic.grads
            for r in range(H):
                for j in range(D):
                    up = values.copy()
                    up[r, j] += step
                    down = values.copy()
                    down[r, j] -= step
                    fd = (loss(up) - loss(down)) / (2 * step)
                    assert abs(fd - dense[r, j]) <= 1e-6


def test_criterion_7_partitioning_oracles():
    with criterion(7, "partitioning heuristics vs brute-force oracles", 30.0):
        items = [("a", 8.0), ("b", 7.0), ("c", 6.0), ("d", 5.0), ("e", 4.0)]
        assert imbalance(items, greedy_partition(items, 2), 2) == 4.0
        assert imbalance(items, karmarkar_karp_partition(items, 2), 2) == 2.0
        assert brute_force_imbalance([8, 7, 6, 5, 4], 2) == 0.0

        rng = np.random.default_rng(0)
        kk_total = greedy_total = 0.0
        for _ in range(200):
            costs = np.exp(rng.uniform(0, 3, size=16))
            inst = [(f"i{j}", float(c)) for j, c in enumerate(costs)]
            kk_total += imbalance(inst, karmarkar_karp_partition(inst, 4), 4)
            greedy_total += imbalance(inst, greedy_partition(inst, 4), 4)
        assert kk_total <= greedy_total

        oracle_rng = np.random.default_rng(7)
        for _ in range(12):
            n = int(oracle_rng.integers(6, 13))
            k = int(oracle_rng.integers(2, 4))
            costs = [float(c) for c in oracle_rng.integers(1, 100, size=n)]
            inst = [(f"i{j}", c) for j, c in enumerate(costs)]
            optimum = brute_force_imbalance(costs, k)
            assert (
                imbalance(inst, karmarkar_karp_partition(inst, k), k)
                >= optimum - 1e-9
            )
            assert imbalance(inst, greedy_partition(inst, k), k) >= optimum - 1e-9


def test_criterion_8_quantized_comm_accounting(tmp_path):
    with criterion(8, "FP16/BF16 AlltoAll payloads exactly half of FP32", 5.0):
        from neosim.cli import main

        model = str(data_path("model_a.json"))
        cluster = str(data_path("cluster_16node.json"))
        base_args = [
            "simulate", "--model", model, "--cluster", cluster, "--fp16-tables",
        ]
        assert main(base_args + ["--out", str(tmp_path / "fp32")]) == 0
        assert main(
            base_args
            + [
                "--a2a-fwd-precision", "fp16",
                "--a2a-bwd-precision", "bf16",
                "--out", str(tmp_path / "fp16"),
            ]
        ) == 0
        fp32 = json.loads((tmp_path / "fp32" / "simulate.json").read_text())["body"]
        fp16 = json.loads((tmp_path / "fp16" / "simulate.json").read_text())["body"]
        for label in ("pooled_a2a_fwd", "pooled_a2a_bwd"):
            v32 = [v for v in fp32["volumes"] if v["label"] == label][0]
            v16 = [v for v in fp16["volumes"] if v["label"] == label][0]
            assert sum(v16["per_worker_send_bytes"]) == sum(
                v32["per_worker_send_bytes"]
            ) / 2


def test_criterion_9_cache_property_suite():
    with criterion(9, "LRU stack property, capacity pass, bandwidth identities", 30.0):
        rng = np.random.default_rng(13)
        for _ in range(100):
            trace = [int(v) for v in rng.integers(0, 48, size=160)]
            hits = [
                simulate_trace(
                    CacheConfig(num_sets=2, ways=w, policy=ReplacementPolicy.LRU),
                    trace,
                ).hits
                for w in (1, 2, 4, 8)
            ]
            assert hits == sorted(hits)

        config = CacheConfig(num_sets=2, ways=32)
        stats = simulate_trace(config, list(range(64)) * 2)
        assert stats.misses == 64 and stats.hits == 64  # second pass all hits

        assert effective_row_bandwidth(1.0, 1300e9, 26e9) == 1300e9
        assert effective_row_bandwidth(0.0, 1300e9, 26e9) == 26e9
