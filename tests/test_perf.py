"""Roofline/overlap model: bandwidth curves, latency composition, sweeps."""

import dataclasses
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from conftest import desk_cluster, desk_model, index_bytes, list_greedy_partition

from neosim import (
    CandidatePolicy,
    CombinedBatch,
    CompressionFlags,
    ComponentLatencies,
    CostWeights,
    IndexOutOfRange,
    InvalidValue,
    Precision,
    TableSpec,
    achieved_bw,
    component_latencies,
    effective_performance,
    gen_synthetic_batch,
    hierarchical_plan,
    iteration_latency,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    scaling_sweep,
    simulate,
    validate_plan,
)
import neosim.perf as perf_module
import neosim.planner as planner_module
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.model import INT64_MAX, TableColumns
from neosim.perf import exposed_breakdown, shrink_to_fit
from neosim.planner import greedy_partition, table_bytes

MIB = 2**20


class TestAchievedBw:
    def test_single_point_exact(self):
        assert achieved_bw(((256 * MIB, 7e9),), 256 * MIB) == 7e9

    def test_clamped_below_smallest(self):
        points = ((8 * MIB, 2e9), (256 * MIB, 7e9))
        assert achieved_bw(points, 1024) == 2e9

    def test_clamped_above_largest(self):
        points = ((8 * MIB, 2e9), (256 * MIB, 7e9))
        assert achieved_bw(points, 10**12) == 7e9

    def test_geometric_mean_interpolation(self):
        points = ((4 * MIB, 2e9), (64 * MIB, 8e9))
        mid = math.sqrt(4 * MIB * 64 * MIB)
        assert achieved_bw(points, mid) == pytest.approx(math.sqrt(2e9 * 8e9))

    def test_calibration_identities(self):
        cluster = load_bundled_cluster()
        assert achieved_bw(cluster.alltoall_bw_points, 256 * MIB) == 7e9
        assert achieved_bw(cluster.allreduce_bw_points, 256 * MIB) == 60e9

    def test_accepted_curves_never_take_less_time_for_more_bytes(self):
        """Seeded random curves of 1 to 5 points: a curve the cluster spec
        accepts has bytes / achieved_bw non-decreasing over a grid that
        spans both clamped ends, and a rejected one falls between two of its
        own points."""
        rng = np.random.default_rng(11)
        base = load_bundled_cluster()
        accepted = 0
        for _ in range(300):
            n = int(rng.integers(1, 6))
            sizes = np.unique(np.round(2.0 ** rng.uniform(10, 32, size=n)))
            bws = 1e9 * 2.0 ** rng.uniform(-3, 4, size=len(sizes))
            points = tuple(zip(sizes.tolist(), bws.tolist()))
            try:
                dataclasses.replace(base, alltoall_bw_points=points)
            except InvalidValue as err:
                assert err.path == "alltoall_bw_points"
                times = [x / achieved_bw(points, x) for x in sizes.tolist()]
                assert any(b < a for a, b in zip(times, times[1:]))
                continue
            accepted += 1
            grid = np.concatenate((np.geomspace(sizes[0] / 8, sizes[-1] * 8, 200), sizes))
            grid = np.sort(grid).tolist()
            times = [x / achieved_bw(points, x) for x in grid]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(times, times[1:]))
        assert 50 < accepted < 250


class TestIterationLatency:
    def test_forward_formula_hand_example(self):
        # botmlp=2, emb=1, a2a_fwd=2, inter=0.5, topmlp=3 (ms):
        # T_fwd = max(2, 1+2) + 0.5 + 3 = 6.5 ms
        c = ComponentLatencies(
            botmlp_fwd=2e-3,
            emb_lookup=1e-3,
            a2a_fwd=2e-3,
            interaction_fwd=0.5e-3,
            topmlp_fwd=3e-3,
        )
        est = iteration_latency(c, 1024)
        assert est.t_fwd == pytest.approx(6.5e-3)

    def test_zero_comm_is_pure_compute(self):
        c = ComponentLatencies(
            botmlp_fwd=1e-3,
            emb_lookup=2e-3,
            interaction_fwd=0.5e-3,
            topmlp_fwd=1e-3,
            topmlp_bwd=2e-3,
            interaction_bwd=1e-3,
            emb_update=4e-3,
            botmlp_bwd=2e-3,
        )
        est = iteration_latency(c, 64)
        assert est.exposed_comm == pytest.approx(0.0, abs=1e-15)
        assert est.t_total == pytest.approx(
            max(1e-3, 2e-3) + 0.5e-3 + 1e-3 + 2e-3 + 1e-3 + max(4e-3, 2e-3)
        )

    def test_allreduce_becomes_the_bottleneck(self):
        c = ComponentLatencies(
            topmlp_bwd=1e-3,
            interaction_bwd=1e-3,
            a2a_bwd=1e-3,
            emb_update=1e-3,
            botmlp_bwd=1e-3,
            allreduce_top=5e-3,
            allreduce_bot=4e-3,
        )
        est = iteration_latency(c, 64)
        assert est.t_bwd == pytest.approx(9e-3)

    def test_overlap_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = ComponentLatencies(*rng.uniform(0, 5e-3, size=14))
            est = iteration_latency(c, 128)
            assert est.t_total <= est.serialized_total + 1e-15

    def test_an_iteration_of_no_time_has_no_qps(self):
        with pytest.raises(InvalidValue, match="QPS is undefined for an iteration with no work"):
            iteration_latency(ComponentLatencies(), 64)

    def test_qps_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = ComponentLatencies(*rng.uniform(1e-5, 5e-3, size=14))
            est = iteration_latency(c, 4096)
            assert est.qps * est.t_total == pytest.approx(4096, rel=1e-12)

    def test_hidden_input_a2a_and_h2d(self):
        base = ComponentLatencies(
            botmlp_fwd=1e-3, topmlp_fwd=2e-3, topmlp_bwd=4e-3, botmlp_bwd=2e-3
        )
        est = iteration_latency(base, 64)
        hidden = iteration_latency(
            ComponentLatencies(
                botmlp_fwd=1e-3,
                topmlp_fwd=2e-3,
                topmlp_bwd=4e-3,
                botmlp_bwd=2e-3,
                input_a2a=1.5e-3,  # <= topmlp_fwd window
                h2d=5e-3,  # <= full iteration window
            ),
            64,
        )
        assert hidden.t_total == est.t_total
        exposed = iteration_latency(
            ComponentLatencies(
                botmlp_fwd=1e-3,
                topmlp_fwd=2e-3,
                topmlp_bwd=4e-3,
                botmlp_bwd=2e-3,
                input_a2a=3e-3,
            ),
            64,
        )
        assert exposed.t_total == pytest.approx(est.t_total + 1e-3)


class TestComponentLatencies:
    def balanced_setup(self, workers=4):
        tables = [
            TableSpec(id=f"t{i}", num_rows=4096, dim=32, avg_pooling=4.0)
            for i in range(workers)
        ]
        model = desk_model(tables, local_batch=64)
        cluster = desk_cluster(workers)
        plan = plan_4d(
            model, cluster, CostWeights(), CandidatePolicy(dp_threshold_bytes=0)
        )
        return model, cluster, plan

    def test_balanced_plan_equal_emb_latency(self):
        model, cluster, plan = self.balanced_setup()
        comps = component_latencies(model, plan, cluster)
        # identical tables spread one per worker: straggler max equals the
        # mean, which equals any single worker's analytic latency
        for w in range(4):
            single = [a for a in plan.assignments if a.shards[0].worker == w]
            assert len(single) == 1
        table = model.tables[0]
        global_batch = model.local_batch * 4
        per_worker = (
            global_batch * table.avg_pooling * table.dim * table.elem_bytes
        ) / cluster.hbm_bw
        assert comps.emb_lookup == pytest.approx(per_worker, rel=1e-12)

    def test_hierarchical_rw_reduces_on_scaleup_fabric(self):
        from neosim.planner import (
            Scheme,
            SchemeKind,
            Shard,
            ShardingPlan,
            TableAssignment,
            even_bounds,
        )

        tables = [
            TableSpec(id=f"t{i}", num_rows=4096, dim=64, avg_pooling=8.0)
            for i in range(4)
        ]
        model = desk_model(tables, local_batch=64)
        cluster = desk_cluster(8, gpus_per_node=4)
        hier = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        flat = ShardingPlan(
            8,
            4,
            tuple(
                TableAssignment(
                    t.id,
                    Scheme(SchemeKind.ROW_WISE, num_row_shards=8),
                    tuple(
                        Shard(worker=w, rows=b)
                        for w, b in enumerate(even_bounds(t.num_rows, 8))
                    ),
                )
                for t in tables
            ),
        )
        hier_comps = component_latencies(model, hier, cluster)
        flat_comps = component_latencies(model, flat, cluster)
        assert hier_comps.a2a_fwd < flat_comps.a2a_fwd

    def test_plan_and_cluster_must_agree_on_gpus_per_node(self):
        # a hierarchical plan for 2 x 4 GPUs on a 4 x 2 cluster of the same W
        tables = [
            TableSpec(id=f"t{i}", num_rows=4096, dim=64, avg_pooling=8.0)
            for i in range(4)
        ]
        model = desk_model(tables, local_batch=64)
        cluster = desk_cluster(8, gpus_per_node=4)
        plan = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        component_latencies(model, plan, cluster)
        other = desk_cluster(8, gpus_per_node=2)
        with pytest.raises(InvalidValue, match="GPUs per node"):
            component_latencies(model, plan, other)
        with pytest.raises(InvalidValue, match="GPUs per node"):
            simulate(model, other, plan)

    def test_plan_file_without_gpus_per_node_is_one_node(self):
        model = load_bundled_model("model_i")
        cluster = load_bundled_cluster()
        flags = CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=True)
        plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy(flags=flags))
        doc = json.loads(plan_to_json(plan))
        del doc["gpus_per_node"]
        one_node = plan_from_json(json.dumps(doc))
        assert one_node.gpus_per_node == cluster.num_workers != cluster.gpus_per_node
        with pytest.raises(InvalidValue, match="GPUs per node"):
            simulate(model, cluster, one_node, flags=flags)

    def test_mixed_fabric_pooled_latency(self):
        """Flat row-wise reductions cross scale-out at the remote fraction,
        hierarchical ones stay on scale-up, each with its own fixed latency.

        Row shard counts are powers of two, as the planner's are, so every
        per-worker byte sum is exact and the latencies compare with ==.
        """
        from neosim.perf import _remote_fraction
        from neosim.planner import (
            Scheme,
            SchemeKind,
            Shard,
            ShardingPlan,
            TableAssignment,
            even_bounds,
        )

        dims = {"hier0": 64, "hier1": 32, "flat2": 48, "flat8": 16, "tw": 40,
                "cw": 24, "dp": 8}
        tables = [
            TableSpec(id=tid, num_rows=2048, dim=d, avg_pooling=4.0)
            for tid, d in dims.items()
        ]
        model = desk_model(tables, local_batch=32)
        cluster = desk_cluster(8, gpus_per_node=4)
        hier = (SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE)

        def row_wise(tid, workers, levels=None):
            scheme = Scheme(
                SchemeKind.ROW_WISE, num_row_shards=len(workers), hierarchical=levels
            )
            bounds = even_bounds(2048, len(workers))
            return TableAssignment(
                tid, scheme, tuple(Shard(w, rows=b) for w, b in zip(workers, bounds))
            )

        plan = ShardingPlan(
            8,
            4,
            (
                row_wise("hier0", [0, 1, 2, 3], hier),
                row_wise("hier1", [4, 5, 6, 7], hier),
                row_wise("flat2", [3, 6]),
                row_wise("flat8", list(range(8))),
                TableAssignment("tw", Scheme(SchemeKind.TABLE_WISE), (Shard(5),)),
                TableAssignment(
                    "cw",
                    Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 12), (12, 24))),
                    (Shard(1, cols=(0, 12)), Shard(4, cols=(12, 24))),
                ),
                TableAssignment(
                    "dp", Scheme(SchemeKind.DATA_PARALLEL), (Shard(None),)
                ),
            ),
        )
        comps = component_latencies(
            model,
            plan,
            cluster,
            a2a_fwd_precision=Precision.FP16,
            a2a_bwd_precision=Precision.BF16,
        )

        W, B = 8, model.local_batch
        global_batch = B * W
        elem = 2  # FP16 forward, BF16 backward
        pooled = [0.0] * W
        pooled[5] += dims["tw"] * (global_batch - B) * elem
        pooled[1] += 12 * (global_batch - B) * elem
        pooled[4] += 12 * (global_batch - B) * elem
        flat = [0.0] * W
        scaleup = [0.0] * W
        for a in plan.assignments:
            if a.scheme.kind is not SchemeKind.ROW_WISE:
                continue
            k = len(a.shards)
            bucket = scaleup if a.scheme.hierarchical else flat
            for s in a.shards:
                bucket[s.worker] += (k - 1) / k * global_batch * dims[a.table_id]
        remote_frac = _remote_fraction(W, 4)
        assert 0 < remote_frac < 1

        def seconds(nbytes, frac):
            remote = nbytes * frac
            t = (nbytes - remote) / cluster.scaleup_bw
            if remote > 0:
                t += remote / achieved_bw(cluster.alltoall_bw_points, remote)
            return t + cluster.fixed_latency_per_collective

        expect = seconds(max(pooled), remote_frac)
        expect += seconds(max(flat) * elem, remote_frac)
        expect += seconds(max(scaleup) * elem, 0.0)
        assert comps.a2a_fwd == expect
        assert comps.a2a_bwd == expect

    def test_doubling_hbm_bw_halves_lookup(self):
        model, cluster, plan = self.balanced_setup()
        base = component_latencies(model, plan, cluster)
        import dataclasses

        faster = dataclasses.replace(cluster, hbm_bw=2 * cluster.hbm_bw)
        fast = component_latencies(model, plan, faster)
        assert fast.emb_lookup == pytest.approx(base.emb_lookup / 2)
        assert fast.emb_update == pytest.approx(base.emb_update / 2)

    def test_calibrated_ceilings(self):
        cluster = load_bundled_cluster()
        assert cluster.hbm_bw == 1.3e12
        assert cluster.mlp_efficiency == 0.705
        # MLP rate = peak x efficiency enters linearly: verify via a layer-only model
        mlp_model = desk_model(
            (),
            local_batch=512,
            bottom_mlp_layers=((1024, 1024),),
            top_mlp_layers=(),
            dense_param_bytes=(1024 * 1024 + 1024) * 4,
        )
        plan = plan_4d(mlp_model, cluster, CostWeights(), CandidatePolicy())
        comps = component_latencies(mlp_model, plan, cluster)
        expect = (2 * 1024 * 1024 * 512) / (
            cluster.peak_flops["TF32"] * cluster.mlp_efficiency
        )
        assert comps.botmlp_fwd == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_rates(self):
        import dataclasses

        model, cluster, plan = self.balanced_setup()
        base = simulate(model, cluster, plan).estimate.t_total
        for field in ("hbm_bw", "scaleup_bw", "dram_to_gpu_bw"):
            faster = dataclasses.replace(
                cluster, **{field: 2 * getattr(cluster, field)}
            )
            t = simulate(model, faster, plan).estimate.t_total
            assert t <= base + 1e-15
        doubled_peak = dataclasses.replace(
            cluster, peak_flops={k: 2 * v for k, v in cluster.peak_flops.items()}
        )
        assert simulate(model, doubled_peak, plan).estimate.t_total <= base + 1e-15
        better_eff = dataclasses.replace(cluster, mlp_efficiency=1.0)
        assert simulate(model, better_eff, plan).estimate.t_total <= base + 1e-15


class TestEffectivePerformance:
    def test_reported_identity(self):
        # 638 MFLOPS/sample x 1.2 MQPS = 765.6 TFLOPS/s, within 0.2% of 766
        flops = effective_performance(638, 1.2e6)
        assert flops == pytest.approx(765.6e12)
        assert abs(flops - 766e12) / 766e12 < 0.002

    def test_unit_product(self):
        assert effective_performance(1e-6, 1.0) == pytest.approx(1.0)

    def test_model_f_product(self):
        assert effective_performance(5, 1.7e6) == pytest.approx(8.5e12)

    def test_rejects_non_positive(self):
        from neosim import InvalidValue

        with pytest.raises(InvalidValue):
            effective_performance(0.0, 1.0)


class TestScalingSweep:
    def test_comm_free_model_perfect_efficiency(self):
        model = desk_model((), local_batch=128, mflops_per_sample=100.0)
        cluster = load_bundled_cluster()
        entries = scaling_sweep(model, cluster, [1, 2, 4])
        assert all(e.efficiency == pytest.approx(1.0) for e in entries)

    def test_single_entry_efficiency_one(self):
        model = load_bundled_model("model_i")
        cluster = load_bundled_cluster()
        entries = scaling_sweep(model, cluster, [1])
        assert entries[0].efficiency == pytest.approx(1.0)

    def test_bundled_models_shape(self):
        cluster = load_bundled_cluster()
        results = {}
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
            results[name] = effs
        assert results["model_a"][-1] < results["model_i"][-1]

    def test_infeasible_scale_reported_per_entry(self):
        # one row wider than HBM: shrinking keeps at least one row
        model = desk_model(
            [TableSpec(id="big", num_rows=1, dim=2**21, avg_pooling=2.0)],
            local_batch=8,
        )
        tiny = desk_cluster(2, hbm=2**20, dram_per_node=2**20)
        entries = scaling_sweep(model, tiny, [1])
        assert entries[0].error is not None
        assert entries[0].qps is None

    def test_shrink_preserves_table_count_and_dims(self):
        model = load_bundled_model("model_a")
        cluster = dataclasses.replace(load_bundled_cluster(), num_nodes=1)
        shrunk = shrink_to_fit(
            model, cluster, CompressionFlags(rowwise_optimizer=True)
        )
        assert shrunk.num_tables == model.num_tables
        assert [t.dim for t in shrunk.tables] == [t.dim for t in model.tables]
        assert all(
            s.num_rows <= t.num_rows for s, t in zip(shrunk.tables, model.tables)
        )


def shrink_to_fit_oracle(model, cluster, flags):
    """shrink_to_fit as it was before it worked on the table columns: the
    list greedy over (table position, bytes) items, per-worker float sums
    in table order, and one checked TableSpec per table in a replaced
    model."""
    if not model.tables:
        return model
    per_table = table_bytes(model.table_columns, flags)
    assign = list_greedy_partition(list(enumerate(per_table.tolist())), cluster.num_workers)
    workers = [assign[t] for t in range(len(per_table))]
    bins = np.bincount(workers, weights=per_table, minlength=cluster.num_workers)
    heaviest = float(bins.max())
    budget = 0.9 * cluster.hbm_capacity_per_gpu
    if heaviest <= budget:
        return model
    factor = budget / heaviest
    tables = tuple(
        TableSpec(
            t.id,
            max(1, int(t.num_rows * factor)),
            t.dim,
            t.avg_pooling,
            t.value_precision,
            t.index_skew,
        )
        for t in model.tables
    )
    return dataclasses.replace(model, tables=tables)


def shrink_outcome(shrink, model, cluster, flags):
    """The shrunk model, or the (type, path, message) of what it raised."""
    try:
        return shrink(model, cluster, flags)
    except InvalidValue as exc:
        return type(exc), exc.path, str(exc)


def assert_same_shrink(model, cluster, flags):
    """shrink_to_fit's outcome equals the oracle's: the same error, or the
    same model object when nothing shrinks, or an equal model whose hash,
    repr, `_table_pos` and every read-only table column (values, dtype)
    match, before and after a pickle round trip; a shrunk model shares
    `_table_pos` with the original, and its index widths follow the int32
    rule table by table. Returns the outcome."""
    got = shrink_outcome(shrink_to_fit, model, cluster, flags)
    want = shrink_outcome(shrink_to_fit_oracle, model, cluster, flags)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert (got is model) == (want is model)
    # compared as flags: pytest's diff of two reprs of 1000 tables takes minutes
    assert [t.num_rows for t in got.tables] == [t.num_rows for t in want.tables]
    same = got._table_pos == want._table_pos and repr(got) == repr(want)
    assert same and got._table_pos is model._table_pos
    assert all(type(t.num_rows) is int for t in got.tables)
    widths = [4 if t.num_rows <= 2**31 else 8 for t in got.tables]
    assert got.table_columns.index_bytes.tolist() == widths
    for copy in (got, pickle.loads(pickle.dumps(got))):
        same = copy == want and hash(copy) == hash(want)
        assert same
        for name, a, b in zip(TableColumns._fields, copy.table_columns, want.table_columns):
            assert a.dtype == b.dtype and not a.flags.writeable, name
            assert np.array_equal(a, b), name
    return got


ALL_FLAGS = [
    CompressionFlags(table_precision, rowwise)
    for table_precision in (None, Precision.FP16)
    for rowwise in (False, True)
]


class TestShrinkToFit:
    @pytest.mark.parametrize("name", ["model_a", "model_f", "model_i"])
    def test_bundled_models_match_oracle(self, name):
        model, cluster = load_bundled_model(name), load_bundled_cluster()
        for nodes in (1, 2, 4, 8, 16):
            at = dataclasses.replace(cluster, num_nodes=nodes)
            for flags in ALL_FLAGS:
                assert_same_shrink(model, at, flags)

    def test_random_models_match_oracle(self):
        """Seeded models of tie-heavy tables, with ids that differ only by
        trailing NULs, rows that straddle 2**31, pass 2**53 or sit next to
        INT64_MAX, at budgets drawn at random and next to the skip bound and
        the greedy heaviest worker. The last 200 models hold 3 to 11 tables
        of rows past 2**52 on 2 or 3 workers, where the float sum of a
        worker's bytes rounds and so depends on which of two tables of equal
        bytes the tie rule placed there."""
        rng = np.random.default_rng(2024)
        regimes = [
            lambda: int(rng.integers(1, 5000)),
            lambda: int(rng.integers(2**31 - 64, 2**31 + 2**30)),
            lambda: int(rng.integers(2**53, 2**56)) | 1,
            lambda: INT64_MAX - int(rng.integers(0, 1024)),
            lambda: int(rng.integers(2**52, 2**55)) | 1,
        ]
        seen = dict.fromkeys(("raised", "kept", "shrunk", "int32", "past_2**53"), 0)
        for case in range(320):
            if case < 120:
                T, W = int(rng.integers(1, 40)), int(rng.choice([1, 2, 3, 4, 8, 16]))
                kinds = rng.choice(4, 3, p=[0.4, 0.3, 0.28, 0.02])
            else:
                T, W, kinds = int(rng.integers(3, 12)), int(rng.integers(2, 4)), [4] * 3
            palette = [regimes[r]() for r in kinds]
            names = [f"t{j}" for j in range(T)] + ["a" + "\x00" * j for j in range(T)]
            ids = [names[i] for i in rng.choice(len(names), T, replace=False)]  # no U array
            tables = [
                TableSpec(
                    tid,
                    palette[int(rng.integers(3))],
                    int(rng.choice([1, 2, 3, 4, 8])),
                    1.0,
                    [Precision.FP32, Precision.FP16][int(rng.integers(2))],
                )
                for tid in ids
            ]
            model = desk_model(tables)
            flags = ALL_FLAGS[case % 4]
            try:
                per_table = table_bytes(model.table_columns, flags).tolist()
            except InvalidValue:
                seen["raised"] += 1
                assert_same_shrink(model, desk_cluster(W), flags)
                continue
            total, largest = sum(per_table), max(per_table)
            assign = list_greedy_partition(list(zip(ids, per_table)), W)
            workers = [assign[tid] for tid in ids]
            heaviest = float(np.bincount(workers, weights=np.array(per_table, float)).max())
            hbms = [int(total / W / 0.9 * rng.uniform(0.3, 2.5)) + 1]
            for near in ((total + W * largest) / W, heaviest):
                hbms += [max(1, math.ceil(near / 0.9) + d) for d in (-1, 0, 1, 2)]
            for hbm in hbms:
                got = assert_same_shrink(model, desk_cluster(W, hbm=hbm), flags)
                seen["kept" if got is model else "shrunk"] += 1
                pairs = list(zip(model.tables, got.tables))
                seen["int32"] += any(
                    index_bytes(t.num_rows) > index_bytes(s.num_rows) for t, s in pairs
                )
                seen["past_2**53"] += any(2**53 < s.num_rows < t.num_rows for t, s in pairs)
        assert min(seen.values()) > 0, seen

    def test_plan_cycle_builds_no_table_spec(self):
        """Planning (greedy, KK and hierarchical), plan_to_json, simulate,
        validate_plan and memory_check on model_a shrunk at 1, 2 and 4
        nodes read the shrunk model's ids and columns only: its `tables`
        is never built. Built on first access, it equals the oracle's."""
        model, cluster = load_bundled_model("model_a"), load_bundled_cluster()
        flags = CompressionFlags(rowwise_optimizer=True)
        policy = CandidatePolicy(flags=flags)
        for nodes in (1, 2, 4):
            at = dataclasses.replace(cluster, num_nodes=nodes)
            shrunk = shrink_to_fit(model, at, flags)
            assert shrunk is not model and "tables" not in vars(shrunk)
            plans = [plan_4d(shrunk, at, CostWeights(), policy, h) for h in ("greedy", "kk")]
            plans.append(hierarchical_plan(shrunk, at, CostWeights(), policy))
            for plan in plans:
                plan_to_json(plan, shrunk, at, flags)
                simulate(shrunk, at, plan, flags=flags)
                validate_plan(plan, shrunk)
                memory_check(plan, shrunk, at, flags)
            assert "tables" not in vars(shrunk)
            want = shrink_to_fit_oracle(model, at, flags)
            assert [t.num_rows for t in shrunk.tables] == [t.num_rows for t in want.tables]
            assert shrunk.tables == want.tables and shrunk == want
            assert shrunk.num_tables == len(shrunk.tables) == 1000
        # a shrunk model shrinks again from the first model's TableSpecs
        again = shrunk._with_rows(np.maximum(1.0, np.trunc(shrunk.table_columns.rows * 0.5)))
        assert again._source is model and "tables" not in vars(again)
        assert [t.num_rows for t in again.tables] == again.table_columns.rows.tolist()
        assert [t.id for t in again.tables] == list(model._ids)
        assert dataclasses.replace(again, local_batch=again.local_batch) == again

    def test_verify_checks_build_no_table_spec(self):
        """The verify command's parameter cap (total_table_params) and its
        batch check (CombinedBatch.validate_against) read a shrunk model's
        ids and columns: its `tables` is never built. The cap sums in
        Python ints, past int64."""
        dims = (2, 3, 4)
        model = desk_model([TableSpec(f"t{i}", 10, d, 2.0) for i, d in enumerate(dims)])
        shrunk = model._with_rows(np.array([4.0, 5.0, 2.0**62]))
        twin = desk_model([TableSpec(t.id, 4, t.dim, 2.0) for t in model.tables])
        batch = gen_synthetic_batch(twin, 6, seed=1)
        assert shrunk.total_table_params == 4 * 2 + 5 * 3 + 2**62 * 4 > INT64_MAX
        batch.validate_against(shrunk)
        lengths = np.zeros((3, 1), dtype=np.int64)
        lengths[1] = 1
        with pytest.raises(IndexOutOfRange) as err:
            CombinedBatch(lengths, [5]).validate_against(shrunk)  # a row of model, not shrunk
        assert (err.value.table_id, err.value.index) == ("t1", 5)
        assert "tables" not in vars(shrunk)

    def test_rows_past_int64_raise_as_table_spec_does(self):
        """A row count that rounds to 2**63 at factor 1.0 (the parent's
        max(1, int(H * factor)) rule) raises TableSpec's error in bulk."""
        big = [TableSpec("a", 7, 2, 1.0), TableSpec("b", INT64_MAX - 100, 1, 1.0)]
        model = desk_model(big)
        with pytest.raises(InvalidValue) as want:
            [TableSpec(t.id, max(1, int(t.num_rows * 1.0)), t.dim, 1.0) for t in big]
        with pytest.raises(InvalidValue) as got:
            model._with_rows(np.maximum(1.0, np.trunc(model.table_columns.rows * 1.0)))
        assert (got.value.path, str(got.value)) == (want.value.path, str(want.value))
        assert got.value.path == "tables[b].num_rows"

    def test_greedy_never_passes_the_skip_bound(self):
        """Over seeded ints, floats, heavy ties and zeros at k = 1 to 130, the
        heaviest greedy bin, summed as floats in item order, stays within
        (S / k + largest) x (1 + 4n / 2**53): the bound shrink_to_fit skips
        partitioning on."""
        rng = np.random.default_rng(90)
        for case in range(400):
            n, k = int(rng.integers(1, 300)), int(rng.integers(1, 131))
            kind = case % 4
            if kind == 0:
                costs = rng.integers(0, 10 ** int(rng.integers(1, 18)), n).tolist()
            elif kind == 1:
                costs = (rng.random(n) * 10 ** rng.uniform(0, 15)).tolist()
            elif kind == 2:
                costs = [[0, 1, 3, 2**53 + 1, 2**60 + 7][i] for i in rng.integers(5, size=n)]
            else:
                costs = [0] * n
                costs[int(rng.integers(n))] = int(rng.integers(1, 100))
            assign = greedy_partition(list(enumerate(costs)), k)
            weights = np.asarray(costs)
            bins = [assign[i] for i in range(n)]
            heaviest = np.bincount(bins, weights=weights, minlength=k).max()
            exact = sum(map(Fraction, costs)) / k + max(map(Fraction, costs))
            assert Fraction(float(heaviest)) <= exact * Fraction(2**53 + 4 * n, 2**53)

    @pytest.mark.parametrize("table_precision", [None, Precision.FP16])
    def test_model_a_fits_without_partition(self, monkeypatch, table_precision):
        """model_a at 8 and 16 nodes under row-wise state fits by the bound
        alone: shrink_to_fit returns it as is and partitions nothing (at 4
        nodes it partitions once)."""
        calls = []

        def count(module, name):
            function = getattr(module, name)

            def counted(*args):
                calls.append(f"{module.__name__}.{name}")
                return function(*args)

            monkeypatch.setattr(module, name, counted)

        count(perf_module, "_greedy_bins")
        for name in ("_greedy_bins", "greedy_partition", "karmarkar_karp_partition"):
            count(planner_module, name)
        model, cluster = load_bundled_model("model_a"), load_bundled_cluster()
        flags = CompressionFlags(table_precision, rowwise_optimizer=True)
        for nodes in (8, 16):
            at = dataclasses.replace(cluster, num_nodes=nodes)
            assert shrink_to_fit(model, at, flags) is model
        assert calls == []
        shrunk = shrink_to_fit(model, dataclasses.replace(cluster, num_nodes=4), flags)
        assert shrunk is not model and calls == ["neosim.perf._greedy_bins"]


def iteration_times_oracle(c: ComponentLatencies) -> tuple[float, float, float]:
    """(t_fwd, t_bwd, t_total) as iteration_latency composed them from the
    fields before they shared one function with exposed_breakdown."""
    t_fwd = max(c.botmlp_fwd, c.emb_lookup + c.a2a_fwd) + c.interaction_fwd + c.topmlp_fwd
    t_bwd = max(
        c.topmlp_bwd + c.interaction_bwd + max(c.a2a_bwd + c.emb_update, c.botmlp_bwd),
        c.allreduce_top + c.allreduce_bot,
    )
    core = t_fwd + t_bwd
    exposed_input = max(0.0, c.input_a2a - c.topmlp_fwd)
    exposed_h2d = max(0.0, c.h2d - core)
    return t_fwd, t_bwd, core + exposed_input + exposed_h2d


def exposed_breakdown_oracle(c: ComponentLatencies) -> dict:
    """The breakdown with each component zeroed by dataclasses.replace, one
    whole ComponentLatencies per component."""
    base = iteration_times_oracle(c)[2]
    out = {}
    for name, serialized in c.as_dict().items():
        without = iteration_times_oracle(dataclasses.replace(c, **{name: 0.0}))[2]
        out[name] = {"serialized": serialized, "exposed": base - without}
    return out


def component_vectors(count: int):
    """Seeded component latencies: zeros, ties inside each max, input_a2a
    below, at and above topmlp_fwd, h2d above the core time. Half are
    multiples of 2**-10 s, whose sums are exact, so forced ties hold."""
    names = [f.name for f in dataclasses.fields(ComponentLatencies)]
    for seed in range(count):
        rng = np.random.default_rng([seed, 5])
        if seed % 2:
            v = dict(zip(names, (rng.integers(0, 6, 14) * 2.0**-10).tolist()))
        else:
            v = dict(zip(names, rng.uniform(0, 5e-3, 14).tolist()))
        for name in names:
            if rng.random() < 0.2:
                v[name] = 0.0
        if rng.random() < 0.5:
            v["botmlp_fwd"] = v["emb_lookup"] + v["a2a_fwd"]
        if rng.random() < 0.5:
            v["botmlp_bwd"] = v["a2a_bwd"] + v["emb_update"]
        if rng.random() < 0.5:
            compute = v["topmlp_bwd"] + v["interaction_bwd"] + max(
                v["a2a_bwd"] + v["emb_update"], v["botmlp_bwd"]
            )
            v["allreduce_top"] = min(v["allreduce_top"], compute)
            v["allreduce_bot"] = compute - v["allreduce_top"]
        v["input_a2a"] = v["topmlp_fwd"] + float(rng.choice([-1, 0, 1])) * 2.0**-11
        v["input_a2a"] = max(v["input_a2a"], 0.0)
        if rng.random() < 0.3:
            v["h2d"] = 2.0 * sum(v.values())
        yield ComponentLatencies(**v)


def float_bits(value):
    return value.hex() if isinstance(value, float) else {
        k: float_bits(x) for k, x in value.items()
    }


class TestExposedBreakdown:
    def test_equals_replace_per_component_bit_for_bit(self):
        vectors = list(component_vectors(400))
        for c in vectors:
            assert float_bits(exposed_breakdown(c)) == float_bits(exposed_breakdown_oracle(c))
            est = iteration_latency(c, 64)
            times = (est.t_fwd, est.t_bwd, est.t_total)
            assert list(map(float_bits, times)) == list(
                map(float_bits, iteration_times_oracle(c))
            )
        # the vectors reach every case named above
        assert any(c.botmlp_fwd == c.emb_lookup + c.a2a_fwd > 0 for c in vectors)
        assert any(c.botmlp_bwd == c.a2a_bwd + c.emb_update > 0 for c in vectors)
        assert any(
            c.allreduce_top + c.allreduce_bot
            == c.topmlp_bwd + c.interaction_bwd + max(c.a2a_bwd + c.emb_update, c.botmlp_bwd)
            > 0
            for c in vectors
        )
        for relation in (float.__lt__, float.__eq__, float.__gt__):
            assert any(relation(c.input_a2a, c.topmlp_fwd) for c in vectors)
        assert any(
            c.h2d > sum(iteration_times_oracle(c)[:2]) for c in vectors
        )
        assert any(0.0 in c.as_dict().values() for c in vectors)

    def test_h2d_fully_hidden_in_bundled_runs(self):
        model = load_bundled_model("model_a")
        cluster = load_bundled_cluster()
        policy = CandidatePolicy(flags=CompressionFlags(rowwise_optimizer=True))
        plan = plan_4d(model, cluster, CostWeights(), policy)
        result = simulate(
            model,
            cluster,
            plan,
            a2a_fwd_precision=Precision.FP16,
            a2a_bwd_precision=Precision.BF16,
        )
        assert result.breakdown["h2d"]["exposed"] == pytest.approx(0.0, abs=1e-12)
        total_exposed_comm = result.estimate.exposed_comm
        serialized_comm = sum(
            result.breakdown[c]["serialized"]
            for c in ("a2a_fwd", "a2a_bwd", "allreduce_top", "allreduce_bot", "input_a2a", "h2d")
        )
        assert total_exposed_comm < serialized_comm
