"""Per-plan shard columns: every per-worker sum against the shard loops they
replaced, the columns' immutability, and the int64 bound on byte totals."""

import dataclasses
import json
import pickle

import numpy as np
import pytest

from conftest import desk_cluster, desk_model

from neosim import (
    CollectiveKind,
    CollectiveVolume,
    CompressionFlags,
    InvalidScheme,
    InvalidValue,
    Precision,
    Scheme,
    SchemeKind,
    Shard,
    ShardingPlan,
    TableAssignment,
    TableSpec,
    component_latencies,
    memory_check,
    plan_from_json,
    plan_to_json,
    quantized_volume,
    validate_plan,
    volume_forward_alltoall,
    volume_gradient_collectives,
)
from neosim.cache import effective_row_bandwidth
from neosim.comms import ACTIVATION_BYTES, LENGTH_BYTES, volume_input_alltoall
from neosim.model import PRECISION_BYTES
from neosim.perf import collective_volumes
from neosim.planner import (
    OPTIMIZER_STATE_BYTES,
    MemoryReport,
    WorkerMemory,
    even_bounds,
)

# ---------------------------------------------------------------------------
# scalar oracles: the per-shard loops the columns replaced, kept verbatim


def shard_rows(table, shard):
    return (shard.rows[1] - shard.rows[0]) if shard.rows else table.num_rows


def shard_width(table, shard):
    return (shard.cols[1] - shard.cols[0]) if shard.cols else table.dim


def memory_check_loop(plan, model, cluster, flags):
    table_by_id = {t.id: t for t in model.tables}
    values = [0] * plan.num_workers
    states = [0] * plan.num_workers
    for assignment in plan.assignments:
        table = table_by_id[assignment.table_id]
        prec = flags.table_precision or table.value_precision
        elem = PRECISION_BYTES[prec]
        for shard in assignment.shards:
            rows = shard_rows(table, shard)
            width = shard_width(table, shard)
            value_bytes = rows * width * elem
            if flags.rowwise_optimizer:
                state_bytes = rows * OPTIMIZER_STATE_BYTES
            else:
                state_bytes = rows * width * OPTIMIZER_STATE_BYTES
            targets = (
                range(plan.num_workers) if shard.worker is None else (shard.worker,)
            )
            for w in targets:
                values[w] += value_bytes
                states[w] += state_bytes
    workers = []
    feasible = True
    hbm = cluster.hbm_capacity_per_gpu
    budget = hbm + cluster.dram_capacity_per_gpu
    for w in range(plan.num_workers):
        total = values[w] + states[w] + model.dense_param_bytes
        if total <= hbm:
            tier = "hbm"
        elif total <= budget:
            tier = "hbm+dram"
        else:
            tier = "infeasible"
            feasible = False
        workers.append(
            WorkerMemory(w, values[w], states[w], model.dense_param_bytes, tier)
        )
    return MemoryReport(workers=tuple(workers), feasible=feasible)


def emb_terms_loop(model, plan, cluster, cache_hit_rate, flags):
    """(emb_lookup, emb_update) of component_latencies, by shard loops."""
    W = cluster.num_workers
    B = model.local_batch
    global_batch = B * W
    worker_bw = []
    for m in memory_check_loop(plan, model, cluster, flags).workers:
        if m.tier == "hbm":
            worker_bw.append(cluster.hbm_bw)
        else:
            worker_bw.append(
                effective_row_bandwidth(
                    cache_hit_rate, cluster.hbm_bw, cluster.dram_to_gpu_bw
                )
            )
    lookup_bytes = [0.0] * W
    for assignment in plan.assignments:
        table = model.tables[model.table_index(assignment.table_id)]
        prec = flags.table_precision or table.value_precision
        elem = PRECISION_BYTES[prec]
        kind = assignment.scheme.kind
        if kind is SchemeKind.DATA_PARALLEL:
            per_worker = B * table.avg_pooling * table.dim * elem
            for w in range(W):
                lookup_bytes[w] += per_worker
            continue
        k = len(assignment.shards)
        for shard in assignment.shards:
            share = 1.0 / k if kind is SchemeKind.ROW_WISE else 1.0
            width = shard_width(table, shard)
            lookup_bytes[shard.worker] += (
                global_batch * table.avg_pooling * share * width * elem
            )
    emb_lookup = max((lookup_bytes[w] / worker_bw[w] for w in range(W)), default=0.0)
    emb_update = max(
        (2.0 * lookup_bytes[w] / worker_bw[w] for w in range(W)), default=0.0
    )
    return emb_lookup, emb_update


def forward_loop(plan, model, num_workers, elem_bytes=None):
    elem = ACTIVATION_BYTES if elem_bytes is None else elem_bytes
    global_batch = model.local_batch * num_workers
    remote = global_batch - model.local_batch
    send = [0.0] * num_workers
    for assignment in plan.assignments:
        table = model.tables[model.table_index(assignment.table_id)]
        if assignment.scheme.kind not in (SchemeKind.TABLE_WISE, SchemeKind.COLUMN_WISE):
            continue
        for shard in assignment.shards:
            width = shard_width(table, shard)
            send[shard.worker] += width * remote * elem
    return CollectiveVolume(
        kind=CollectiveKind.ALLTOALL,
        label="pooled_a2a_fwd",
        per_worker_send_bytes=tuple(send),
        message_count=1,
        payload_elem_bytes=elem,
        direction="fwd",
    )


def gradient_loop(plan, model, num_workers, elem_bytes=None):
    global_batch = model.local_batch * num_workers
    elem = ACTIVATION_BYTES if elem_bytes is None else elem_bytes
    fwd = forward_loop(plan, model, num_workers, elem_bytes)
    out = [
        CollectiveVolume(
            kind=CollectiveKind.ALLTOALL,
            label="pooled_a2a_bwd",
            per_worker_send_bytes=fwd.per_worker_send_bytes,
            message_count=1,
            payload_elem_bytes=fwd.payload_elem_bytes,
            direction="bwd",
        )
    ]
    rs = [0.0] * num_workers
    scaleup = [0.0] * num_workers
    has_rw = False
    dp_bytes = 0.0
    for assignment in plan.assignments:
        table = model.tables[model.table_index(assignment.table_id)]
        kind = assignment.scheme.kind
        if kind is SchemeKind.ROW_WISE:
            has_rw = True
            k = len(assignment.shards)
            per_shard = (k - 1) / k * global_batch * table.dim * elem
            for shard in assignment.shards:
                rs[shard.worker] += per_shard
            if assignment.scheme.hierarchical:
                for shard in assignment.shards:
                    scaleup[shard.worker] += per_shard
        elif kind is SchemeKind.DATA_PARALLEL:
            dp_bytes += (
                2 * (num_workers - 1) / num_workers * table.num_params * table.elem_bytes
            )
    if has_rw:
        for collective, label, direction in (
            (CollectiveKind.REDUCE_SCATTER, "rw_reduce_scatter_fwd", "fwd"),
            (CollectiveKind.MANY_TO_MANY, "rw_gather_bwd", "bwd"),
        ):
            out.append(
                CollectiveVolume(
                    kind=collective,
                    label=label,
                    per_worker_send_bytes=tuple(rs),
                    message_count=1,
                    payload_elem_bytes=elem,
                    direction=direction,
                    scaleup_bytes=tuple(scaleup),
                )
            )
    if dp_bytes > 0:
        out.append(
            CollectiveVolume(
                kind=CollectiveKind.ALLREDUCE,
                label="dp_table_allreduce",
                per_worker_send_bytes=tuple([dp_bytes] * num_workers),
                message_count=1,
                direction="bwd",
            )
        )
    dense = 2 * (num_workers - 1) / num_workers * model.dense_param_bytes
    out.append(
        CollectiveVolume(
            kind=CollectiveKind.ALLREDUCE,
            label="dense_allreduce",
            per_worker_send_bytes=tuple([dense] * num_workers),
            message_count=1,
            direction="bwd",
        )
    )
    return out


def input_loop(plan, model, num_workers):
    B = model.local_batch
    owners = []
    payloads = []
    for assignment in plan.assignments:
        kind = assignment.scheme.kind
        if kind is SchemeKind.DATA_PARALLEL:
            continue
        table = model.tables[model.table_index(assignment.table_id)]
        share = 1.0 / len(assignment.shards) if kind is SchemeKind.ROW_WISE else 1.0
        payload = B * table.avg_pooling * share * table.index_bytes
        for shard in assignment.shards:
            owners.append(shard.worker)
            payloads.append(payload)
    owners = np.asarray(owners, dtype=np.int64)
    owned = np.bincount(
        owners, weights=np.asarray(payloads, dtype=np.float64), minlength=num_workers
    )
    send = owned.sum() - owned
    meta = B * LENGTH_BYTES * (len(owners) - np.bincount(owners, minlength=num_workers))
    return CollectiveVolume(
        kind=CollectiveKind.ALLTOALL,
        label="input_a2a",
        per_worker_send_bytes=tuple(send.tolist()),
        message_count=2,
        payload_elem_bytes=None,
        direction=None,
        metadata_bytes=tuple(meta.astype(np.float64).tolist()),
    )


# ---------------------------------------------------------------------------
# random mixed plans


def _cuts(rng, extent, parts):
    """`parts` uneven (start, end) pairs tiling [0, extent)."""
    inner = sorted(rng.choice(np.arange(1, extent), parts - 1, replace=False).tolist())
    edges = [0, *inner, extent]
    return list(zip(edges, edges[1:]))


def random_case(seed):
    """A valid plan on 1-4 nodes mixing TW, uneven CW, DP, flat RW (any k,
    uneven bounds, shards out of row order, two shards of a table on one
    worker) and hierarchical RW tables, with the model and a cluster whose
    HBM puts some workers in the DRAM tier."""
    rng = np.random.default_rng([20261018, seed])
    nodes = int(rng.integers(1, 5))
    gpn = int(rng.choice([1, 2, 4]))
    W = nodes * gpn
    tables, assignments = [], []
    for i in range(int(rng.integers(1, 11))):
        rows = int(rng.integers(1, 300))
        if rng.random() < 0.05:
            rows += 2**31  # row ids travel as int64
        dim = int(rng.integers(1, 17))
        pooling = float(rng.uniform(0.5, 40.0)) if rng.random() < 0.8 else 3
        fp16 = bool(rng.integers(2))
        tables.append(
            TableSpec(
                id=f"t{i}",
                num_rows=rows,
                dim=dim,
                avg_pooling=pooling,
                value_precision=Precision.FP16 if fp16 else Precision.FP32,
            )
        )
        kind = rng.choice(["tw", "cw", "dp", "rw", "hier"])
        worker = lambda: int(rng.integers(W))  # noqa: E731
        if kind == "cw" and dim > 1:
            splits = _cuts(rng, dim, int(rng.integers(1, min(dim, 5) + 1)))
            shards = [Shard(worker(), cols=c) for c in splits]
            rng.shuffle(shards)
            scheme = Scheme(SchemeKind.COLUMN_WISE, col_splits=tuple(splits))
        elif kind == "dp":
            shards, scheme = [Shard(None)], Scheme(SchemeKind.DATA_PARALLEL)
        elif kind == "rw" and rows < 2**31:
            k = int(rng.integers(1, min(rows, 7) + 1))
            owners = [worker() for _ in range(k)]
            if k > 1 and rng.random() < 0.5:
                owners[1] = owners[0]  # two shards of one table on one worker
            shards = [Shard(w, rows=r) for w, r in zip(owners, _cuts(rng, rows, k))]
            rng.shuffle(shards)
            scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=k)
        elif kind == "hier":
            node = int(rng.integers(nodes))
            k = min(gpn, rows)
            bounds = even_bounds(rows, k)
            shards = [Shard(node * gpn + j, rows=bounds[j]) for j in range(k)]
            scheme = Scheme(
                SchemeKind.ROW_WISE,
                num_row_shards=k,
                hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
            )
        else:
            shards, scheme = [Shard(worker())], Scheme(SchemeKind.TABLE_WISE)
        assignments.append(TableAssignment(f"t{i}", scheme, tuple(shards)))
    rng.shuffle(assignments)
    model = desk_model(
        tables,
        local_batch=int(rng.integers(1, 9)),
        dense_param_bytes=int(rng.integers(0, 10**6)),
    )
    plan = ShardingPlan(W, gpn, tuple(assignments))
    validate_plan(plan, model)
    flags = CompressionFlags(
        table_precision=Precision.FP16 if rng.integers(2) else None,
        rowwise_optimizer=bool(rng.integers(2)),
    )
    heaviest = max(w.total_bytes for w in memory_check_loop(
        plan, model, desk_cluster(W, gpn), flags
    ).workers)
    cluster = desk_cluster(
        W, gpn, hbm=int(rng.integers(1, heaviest + 2)), dram_per_node=2**50
    )
    precisions = (Precision.FP32, Precision.FP16, Precision.BF16)
    a2a = tuple(precisions[int(j)] for j in rng.integers(3, size=2))
    return model, plan, cluster, flags, a2a, float(rng.uniform(0.0, 1.0))


CASES = range(300)


@pytest.mark.parametrize("seed", CASES)
def test_sums_equal_the_shard_loops(seed):
    model, plan, cluster, flags, (fwd_prec, bwd_prec), hit = random_case(seed)
    W = plan.num_workers
    assert memory_check(plan, model, cluster, flags) == memory_check_loop(
        plan, model, cluster, flags
    )
    for elem in (None, 2):
        assert volume_forward_alltoall(plan, model, W, elem) == forward_loop(
            plan, model, W, elem
        )
        assert volume_gradient_collectives(plan, model, W, elem) == gradient_loop(
            plan, model, W, elem
        )
    assert volume_input_alltoall(plan, model, W) == input_loop(plan, model, W)
    fwd = forward_loop(plan, model, W)
    loop_volumes = [
        quantized_volume(v, fwd_prec, bwd_prec)
        for v in (fwd, *gradient_loop(plan, model, W), input_loop(plan, model, W))
    ]
    assert collective_volumes(plan, model, fwd_prec, bwd_prec) == loop_volumes
    kwargs = dict(
        cache_hit_rate=hit,
        a2a_fwd_precision=fwd_prec,
        a2a_bwd_precision=bwd_prec,
        flags=flags,
    )
    emb_lookup, emb_update = emb_terms_loop(model, plan, cluster, hit, flags)
    expected = dataclasses.replace(
        component_latencies(model, plan, cluster, volumes=loop_volumes, **kwargs),
        emb_lookup=emb_lookup,
        emb_update=emb_update,
    )
    assert component_latencies(model, plan, cluster, **kwargs) == expected


def test_random_plans_cover_every_layout():
    seen = set()
    for seed in CASES:
        model, plan, cluster, flags, _, _ = random_case(seed)
        report = memory_check_loop(plan, model, cluster, flags)
        seen |= {m.tier for m in report.workers}
        seen.add(("nodes", plan.num_workers // plan.gpus_per_node))
        for a in plan.assignments:
            kind = a.scheme.kind
            seen.add("hier" if a.scheme.hierarchical else kind.value)
            workers = [s.worker for s in a.shards]
            if kind is SchemeKind.ROW_WISE and not a.scheme.hierarchical:
                if len(set(workers)) < len(workers):
                    seen.add("rw_two_on_one_worker")
                if [s.rows for s in a.shards] != sorted(s.rows for s in a.shards):
                    seen.add("rw_out_of_row_order")
                if len({r1 - r0 for r0, r1 in (s.rows for s in a.shards)}) > 1:
                    seen.add("rw_uneven")
            if kind is SchemeKind.COLUMN_WISE:
                if len({c1 - c0 for c0, c1 in a.scheme.col_splits}) > 1:
                    seen.add("cw_uneven")
    assert seen >= {
        "table_wise",
        "data_parallel",
        "column_wise",
        "row_wise",
        "hier",
        "rw_two_on_one_worker",
        "rw_out_of_row_order",
        "rw_uneven",
        "cw_uneven",
        "hbm",
        "hbm+dram",
        *(("nodes", n) for n in range(1, 5)),
    }


# ---------------------------------------------------------------------------
# the cached columns cannot go stale or leak


def _arrays(columns):
    return [v for v in columns if isinstance(v, np.ndarray)]


def _plan():
    model, plan, cluster, flags, _, _ = next(
        case
        for case in map(random_case, CASES)
        if {a.scheme.kind for a in case[1].assignments} >= {
            SchemeKind.DATA_PARALLEL,
            SchemeKind.ROW_WISE,
        }
    )
    return model, plan, cluster, flags


def test_columns_are_read_only():
    model, plan, _, _ = _plan()
    arrays = _arrays(plan.shard_columns) + _arrays(model.table_columns)
    assert len(arrays) == 14
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


def test_columns_leave_eq_hash_repr_unchanged():
    _, plan, _, _ = _plan()
    again = ShardingPlan(
        plan.num_workers, plan.gpus_per_node, plan.assignments, plan.heuristic
    )
    assert again == plan and hash(again) == hash(plan)
    assert repr(plan) == (
        f"ShardingPlan(num_workers={plan.num_workers!r}, "
        f"gpus_per_node={plan.gpus_per_node!r}, "
        f"assignments={plan.assignments!r}, heuristic={plan.heuristic!r})"
    )


def test_replace_builds_fresh_columns():
    model, plan, cluster, flags = _plan()
    moved = tuple(
        dataclasses.replace(
            a,
            shards=tuple(
                s if s.worker is None else dataclasses.replace(s, worker=0)
                for s in a.shards
            ),
        )
        for a in plan.assignments
    )
    replaced = dataclasses.replace(plan, assignments=moved)
    assert replaced.shard_columns is not plan.shard_columns
    placed = replaced.shard_columns.worker[replaced.shard_columns.worker >= 0]
    assert placed.tolist() == [0] * len(placed)
    assert memory_check(replaced, model, cluster, flags) == memory_check_loop(
        replaced, model, cluster, flags
    )
    shorter = dataclasses.replace(plan, assignments=plan.assignments[:1])
    assert len(shorter.shard_columns.table_ids) == 1


def test_pickle_round_trip_gives_equal_sums():
    model, plan, cluster, flags = _plan()
    model2, plan2 = pickle.loads(pickle.dumps((model, plan)))
    assert (model2, plan2) == (model, plan)
    for array in _arrays(plan2.shard_columns) + _arrays(model2.table_columns):
        assert not array.flags.writeable
    W = plan.num_workers
    assert memory_check(plan2, model2, cluster, flags) == memory_check(
        plan, model, cluster, flags
    )
    assert collective_volumes(plan2, model2) == collective_volumes(plan, model)
    assert component_latencies(model2, plan2, cluster, flags=flags) == (
        component_latencies(model, plan, cluster, flags=flags)
    )
    assert volume_input_alltoall(plan2, model2, W) == volume_input_alltoall(
        plan, model, W
    )


# ---------------------------------------------------------------------------
# no silent int64 wrap


def _one_table_plan_json(rows_bound=None):
    shard = {"worker": 0} if rows_bound is None else {"worker": 0, "rows": rows_bound}
    return json.dumps(
        {
            "spec_version": 1,
            "num_workers": 2,
            "gpus_per_node": 2,
            "tables": [
                {
                    "table_id": "huge",
                    "scheme": {"kind": "table_wise"},
                    "shards": [shard],
                }
            ],
        }
    )


def test_enormous_table_raises_instead_of_wrapping():
    model = desk_model([TableSpec(id="huge", num_rows=2**60, dim=64, avg_pooling=1.0)])
    plan = plan_from_json(_one_table_plan_json())
    validate_plan(plan, model)
    cluster = desk_cluster(2)
    with pytest.raises(InvalidValue) as exc:
        memory_check(plan, model, cluster, CompressionFlags())
    assert exc.value.path == "model"
    with pytest.raises(InvalidValue):
        plan_to_json(plan, model, cluster)


def test_large_table_below_the_bound_stays_exact():
    model = desk_model([TableSpec(id="huge", num_rows=2**40 + 3, dim=64, avg_pooling=1.0)])
    plan = plan_from_json(_one_table_plan_json())
    cluster = desk_cluster(2)
    for rowwise in (False, True):
        flags = CompressionFlags(rowwise_optimizer=rowwise)
        report = memory_check(plan, model, cluster, flags)
        assert report == memory_check_loop(plan, model, cluster, flags)
        assert report.workers[0].table_bytes == (2**40 + 3) * 64 * 4


def test_bounds_beyond_int64_rejected():
    with pytest.raises(InvalidValue):
        plan_from_json(_one_table_plan_json([0, 2**63]))
    with pytest.raises(InvalidValue):
        TableSpec(id="t", num_rows=2**63, dim=1, avg_pooling=1.0)


@pytest.mark.parametrize("worker", [2, -1])
def test_worker_out_of_range_raises(worker):
    """An unvalidated plan with a placed shard outside [0, W) is refused, not
    charged to a wrapped-around worker."""
    model = desk_model([TableSpec(id="t", num_rows=8, dim=4, avg_pooling=1.0)])
    tw = Scheme(SchemeKind.TABLE_WISE)
    plan = ShardingPlan(2, 2, (TableAssignment("t", tw, (Shard(worker),)),))
    with pytest.raises(InvalidScheme):
        memory_check(plan, model, desk_cluster(2), CompressionFlags())
    with pytest.raises(InvalidScheme):
        volume_forward_alltoall(plan, model, 2)
