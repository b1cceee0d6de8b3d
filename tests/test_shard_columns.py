"""Per-plan shard columns: every per-worker sum against the shard loops they
replaced, the columns' immutability, and the int64 bound on byte totals."""

import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest

from conftest import (
    assert_volumes_equal,
    bundled_plans,
    desk_cluster,
    desk_model,
    index_bytes,
    mixed_desk_case,
)

from neosim import (
    CandidatePolicy,
    CollectiveKind,
    CollectiveVolume,
    CompressionFlags,
    CostWeights,
    Infeasible,
    InvalidScheme,
    InvalidValue,
    ModelSpec,
    Precision,
    Scheme,
    SchemeKind,
    Shard,
    ShardingPlan,
    TableAssignment,
    TableSpec,
    component_latencies,
    hierarchical_plan,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    validate_plan,
    volume_forward_alltoall,
    volume_gradient_collectives,
)
import neosim.planner as planner_module
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.cache import effective_row_bandwidth
from neosim.comms import (
    ACTIVATION_BYTES,
    LENGTH_BYTES,
    collective_volumes,
    volume_input_alltoall,
)
from neosim.model import PRECISION_BYTES
from neosim.perf import _component_latencies, simulate
from neosim.planner import (
    FULL_EXTENT,
    OPTIMIZER_STATE_BYTES,
    TIERS,
    MemoryReport,
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
    dense = [model.dense_param_bytes] * plan.num_workers
    totals = [v + s + d for v, s, d in zip(values, states, dense)]
    hbm = cluster.hbm_capacity_per_gpu
    budget = hbm + cluster.dram_capacity_per_gpu
    tiers = [
        "hbm" if total <= hbm else "hbm+dram" if total <= budget else "infeasible"
        for total in totals
    ]
    columns = (values, states, dense, totals, list(map(TIERS.index, tiers)))
    return MemoryReport(
        "infeasible" not in tiers, *(np.array(c, np.int64) for c in columns)
    )


def assert_report_matches(report, loop):
    """memory_check's report holds the oracle's feasibility and, per
    column, read-only int64 values equal to the oracle's."""
    assert type(report.feasible) is bool and report.feasible == loop.feasible
    for name in MemoryReport._fields[1:]:
        column = getattr(report, name)
        assert column.dtype == np.int64 and not column.flags.writeable, name
        assert np.array_equal(column, getattr(loop, name)), name


def emb_terms_loop(model, plan, cluster, cache_hit_rate, flags):
    """(emb_lookup, emb_update) of component_latencies, by shard loops."""
    W = cluster.num_workers
    B = model.local_batch
    global_batch = B * W
    worker_bw = []
    for tier in memory_check_loop(plan, model, cluster, flags).tier.tolist():
        if TIERS[tier] == "hbm":
            worker_bw.append(cluster.hbm_bw)
        else:
            worker_bw.append(
                effective_row_bandwidth(
                    cache_hit_rate, cluster.hbm_bw, cluster.dram_to_gpu_bw
                )
            )
    lookup_bytes = [0.0] * W
    for assignment in plan.assignments:
        table = model.tables[model.table_indices([assignment.table_id])[0]]
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


def forward_loop(
    plan, model, num_workers, elem_bytes=ACTIVATION_BYTES, label="pooled_a2a_fwd"
):
    global_batch = model.local_batch * num_workers
    remote = global_batch - model.local_batch
    send = [0.0] * num_workers
    for assignment in plan.assignments:
        table = model.tables[model.table_indices([assignment.table_id])[0]]
        if assignment.scheme.kind not in (SchemeKind.TABLE_WISE, SchemeKind.COLUMN_WISE):
            continue
        for shard in assignment.shards:
            width = shard_width(table, shard)
            send[shard.worker] += width * remote * elem_bytes
    return CollectiveVolume(
        kind=CollectiveKind.ALLTOALL,
        label=label,
        per_worker_send_bytes=tuple(send),
        message_count=1,
    )


def gradient_loop(
    plan,
    model,
    num_workers,
    fwd_elem_bytes=ACTIVATION_BYTES,
    bwd_elem_bytes=ACTIVATION_BYTES,
):
    global_batch = model.local_batch * num_workers
    out = []
    dp_bytes = 0.0
    for assignment in plan.assignments:
        table = model.tables[model.table_indices([assignment.table_id])[0]]
        if assignment.scheme.kind is SchemeKind.DATA_PARALLEL:
            params = table.num_rows * table.dim
            dp_bytes += 2 * (num_workers - 1) / num_workers * params * table.elem_bytes
    for collective, label, elem in (
        (CollectiveKind.REDUCE_SCATTER, "rw_reduce_scatter_fwd", fwd_elem_bytes),
        (CollectiveKind.MANY_TO_MANY, "rw_gather_bwd", bwd_elem_bytes),
    ):
        rs = [0.0] * num_workers
        scaleup = [0.0] * num_workers
        has_rw = False
        for assignment in plan.assignments:
            table = model.tables[model.table_indices([assignment.table_id])[0]]
            if assignment.scheme.kind is not SchemeKind.ROW_WISE:
                continue
            has_rw = True
            k = len(assignment.shards)
            per_shard = (k - 1) / k * global_batch * table.dim * elem
            for shard in assignment.shards:
                rs[shard.worker] += per_shard
            if assignment.scheme.hierarchical:
                for shard in assignment.shards:
                    scaleup[shard.worker] += per_shard
        if has_rw:
            out.append(
                CollectiveVolume(
                    kind=collective,
                    label=label,
                    per_worker_send_bytes=tuple(rs),
                    message_count=1,
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
            )
        )
    dense = 2 * (num_workers - 1) / num_workers * model.dense_param_bytes
    out.append(
        CollectiveVolume(
            kind=CollectiveKind.ALLREDUCE,
            label="dense_allreduce",
            per_worker_send_bytes=tuple([dense] * num_workers),
            message_count=1,
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
        table = model.tables[model.table_indices([assignment.table_id])[0]]
        share = 1.0 / len(assignment.shards) if kind is SchemeKind.ROW_WISE else 1.0
        payload = B * table.avg_pooling * share * index_bytes(table.num_rows)
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
        metadata_bytes=tuple(meta.astype(np.float64).tolist()),
    )


HIER = (SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE)  # the planner's one tag


def validate_plan_loop(plan: ShardingPlan, model: ModelSpec) -> None:
    """Coverage and placement invariants; raises InvalidScheme on breach.

    Every table is assigned once. Table-wise and data-parallel tables hold
    one shard without bounds. Row-wise shards carry row bounds only, one per
    row shard of the scheme, tiling [0, H). Column-wise shards carry column
    bounds only, tiling [0, D) in exactly the scheme's column splits. A
    hierarchical assignment's shards all sit on one node. A hierarchical tag
    is [table_wise, row_wise] on a row-wise scheme.
    """
    seen = set()
    table_by_id = {t.id: t for t in model.tables}
    for assignment in plan.assignments:
        tid = assignment.table_id
        table = table_by_id.get(tid)
        if table is None:
            raise InvalidScheme(f"plan names unknown table {tid}")
        if tid in seen:
            raise InvalidScheme(f"table {tid} assigned twice")
        seen.add(tid)
        scheme = assignment.scheme
        kind = scheme.kind
        shards = assignment.shards
        if kind is SchemeKind.TABLE_WISE or kind is SchemeKind.DATA_PARALLEL:
            if len(shards) != 1:
                raise InvalidScheme(f"{tid}: expected a single shard")
            (shard,) = shards
            if (shard.worker is None) != (kind is SchemeKind.DATA_PARALLEL):
                raise InvalidScheme(f"{tid}: replicated shard only valid for DP")
            if shard.worker is not None and not 0 <= shard.worker < plan.num_workers:
                raise InvalidScheme(f"{tid}: worker {shard.worker} out of range")
            if shard.rows is not None or shard.cols is not None:
                raise InvalidScheme(f"{tid}: bounds on a {kind.value} shard")
            _check_tag(tid, scheme)
            continue
        workers = [s.worker for s in shards]
        if None in workers:
            raise InvalidScheme(f"{tid}: replicated shard only valid for DP")
        if workers and (min(workers) < 0 or max(workers) >= plan.num_workers):
            bad = next(w for w in workers if not 0 <= w < plan.num_workers)
            raise InvalidScheme(f"{tid}: worker {bad} out of range")
        if kind is SchemeKind.ROW_WISE:
            if any(s.cols is not None for s in shards):
                raise InvalidScheme(f"{tid}: column bounds on a row-wise shard")
            rows = [s.rows for s in shards]
            if None in rows:
                raise InvalidScheme(f"{tid}: row shard missing bounds")
            if len(rows) != scheme.num_row_shards:
                raise InvalidScheme(
                    f"{tid}: {len(rows)} row shards, scheme has {scheme.num_row_shards}"
                )
            rows.sort()
            _check_tiling(tid, "row", rows, table.num_rows)
        else:
            if any(s.rows is not None for s in shards):
                raise InvalidScheme(f"{tid}: row bounds on a column-wise shard")
            cols = [s.cols for s in shards]
            if None in cols:
                raise InvalidScheme(f"{tid}: column shard missing bounds")
            cols.sort()
            _check_tiling(tid, "column", cols, table.dim)
            if cols != list(scheme.col_splits):
                raise InvalidScheme(
                    f"{tid}: column shards differ from the scheme's column splits"
                )
        if scheme.hierarchical and len({w // plan.gpus_per_node for w in workers}) > 1:
            raise InvalidScheme(f"{tid}: hierarchical shards must lie on one node")
        _check_tag(tid, scheme)
    missing = set(table_by_id) - seen
    if missing:
        raise InvalidScheme(f"tables not assigned: {sorted(missing)}")


def _check_tag(tid: str, scheme: Scheme) -> None:
    tag = scheme.hierarchical
    if tag is not None and (tag != HIER or scheme.kind is not SchemeKind.ROW_WISE):
        raise InvalidScheme(
            f"{tid}: hierarchical must be [table_wise, row_wise] on a row_wise scheme"
        )


def _check_tiling(tid: str, axis: str, bounds: list, extent: int) -> None:
    """Sorted (start, end) bounds must tile [0, extent) without gaps."""
    letter = "H" if axis == "row" else "D"
    pos = 0
    for a, b in bounds:
        if a != pos or b <= a:
            raise InvalidScheme(f"{tid}: {axis} shards must tile [0, {letter})")
        pos = b
    if pos != extent:
        raise InvalidScheme(f"{tid}: {axis} shards must cover [0, {extent})")


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
                hierarchical=HIER,
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
    heaviest = max(memory_check_loop(plan, model, desk_cluster(W, gpn), flags).totals)
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
    assert_report_matches(
        memory_check(plan, model, cluster, flags),
        memory_check_loop(plan, model, cluster, flags),
    )
    assert_volumes_equal(
        [volume_forward_alltoall(plan, model, W)], [forward_loop(plan, model, W)]
    )
    assert_volumes_equal(
        collective_volumes(plan, model, Precision.FP16)[:1],
        [forward_loop(plan, model, W, 2)],
    )
    for elem in (ACTIVATION_BYTES, 2):
        assert_volumes_equal(
            volume_gradient_collectives(plan, model, W, elem, elem),
            gradient_loop(plan, model, W, elem, elem),
        )
    assert_volumes_equal(
        [volume_input_alltoall(plan, model, W)], [input_loop(plan, model, W)]
    )
    fwd, bwd = PRECISION_BYTES[fwd_prec], PRECISION_BYTES[bwd_prec]
    loop_volumes = [
        forward_loop(plan, model, W, fwd),
        forward_loop(plan, model, W, bwd, label="pooled_a2a_bwd"),
        *gradient_loop(plan, model, W, fwd, bwd),
        input_loop(plan, model, W),
    ]
    assert_volumes_equal(collective_volumes(plan, model, fwd_prec, bwd_prec), loop_volumes)
    emb_lookup, emb_update = emb_terms_loop(model, plan, cluster, hit, flags)
    expected = dataclasses.replace(
        _component_latencies(
            model, plan, cluster, hit, Precision.TF32, flags, loop_volumes
        ),
        emb_lookup=emb_lookup,
        emb_update=emb_update,
    )
    got = component_latencies(
        model,
        plan,
        cluster,
        cache_hit_rate=hit,
        a2a_fwd_precision=fwd_prec,
        a2a_bwd_precision=bwd_prec,
        flags=flags,
    )
    assert got == expected


# the AlltoAll direction whose precision each activation volume travels at
WIRE_DIRECTION = {
    "pooled_a2a_fwd": 0,
    "rw_reduce_scatter_fwd": 0,
    "pooled_a2a_bwd": 1,
    "rw_gather_bwd": 1,
}


@pytest.mark.parametrize("seed", CASES)
def test_activation_volumes_scale_with_wire_width(seed):
    """Against FP32, every pooled and row-wise volume, scaleup_bytes included,
    is exactly half at FP16 and BF16 and equal at TF32, in its own direction
    only; the input, DP and dense volumes, metadata_bytes included, never
    move."""
    model, plan, *_ = random_case(seed)
    base = collective_volumes(plan, model)
    fp32 = Precision.FP32
    for prec, ratio in ((Precision.FP16, 0.5), (Precision.BF16, 0.5), (Precision.TF32, 1.0)):
        for precisions in ((prec, prec), (prec, fp32), (fp32, prec)):
            got = collective_volumes(plan, model, *precisions)
            assert [v.label for v in got] == [v.label for v in base]
            for v, b in zip(got, base):
                direction = WIRE_DIRECTION.get(v.label)
                if direction is None:
                    assert_volumes_equal([v], [b])
                    continue
                r = ratio if precisions[direction] is prec else 1.0
                scaled = dataclasses.replace(
                    b,
                    per_worker_send_bytes=b.per_worker_send_bytes * r,
                    scaleup_bytes=b.scaleup_bytes * r,
                )
                assert_volumes_equal([v], [scaled])


def test_random_plans_cover_every_layout():
    seen = set()
    for seed in CASES:
        model, plan, cluster, flags, _, _ = random_case(seed)
        report = memory_check_loop(plan, model, cluster, flags)
        seen |= {TIERS[tier] for tier in report.tier.tolist()}
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
# validate_plan against the shard loop it replaced


def _with_shard(assignment, j, **changes):
    shards = list(assignment.shards)
    shards[j] = dataclasses.replace(shards[j], **changes)
    return dataclasses.replace(assignment, shards=tuple(shards))


def _broken_assignments(a, table, W, gpn, rng):
    """Copies of assignment `a` of `table`, each breaking one rule (or
    several rules at once, in the order validate_plan checks them)."""
    kind = a.scheme.kind
    j = int(rng.integers(len(a.shards)))
    if a.scheme.hierarchical and W > gpn and len(a.shards) > 1:
        yield _with_shard(a, j, worker=(a.shards[j].worker + gpn) % W)  # next node
    # a tag the planner never writes: reversed, or on another scheme kind
    tag = HIER[::-1] if kind is SchemeKind.ROW_WISE else HIER
    yield dataclasses.replace(a, scheme=dataclasses.replace(a.scheme, hierarchical=tag))
    bad_worker = int(rng.choice([W, W + 3, -1, -7]))
    yield dataclasses.replace(a, table_id="nope")
    if kind is not SchemeKind.DATA_PARALLEL:
        yield _with_shard(a, j, worker=bad_worker)
        yield _with_shard(a, j, worker=None)
    if kind in (SchemeKind.TABLE_WISE, SchemeKind.DATA_PARALLEL):
        yield dataclasses.replace(a, shards=a.shards * 2)
        yield dataclasses.replace(a, shards=())
        yield _with_shard(a, 0, rows=(0, table.num_rows))
        yield _with_shard(a, 0, cols=(0, FULL_EXTENT))  # the span sentinel, given
        if kind is SchemeKind.DATA_PARALLEL:
            yield _with_shard(a, 0, worker=int(rng.choice([0, bad_worker])))
        return
    row = kind is SchemeKind.ROW_WISE
    axis, extent = ("rows", table.num_rows) if row else ("cols", table.dim)
    yield _with_shard(a, j, **{axis: None})
    yield _with_shard(a, j, **{"cols" if row else "rows": (0, 1)})
    yield dataclasses.replace(a, shards=a.shards[:j] + a.shards[j + 1 :])
    yield dataclasses.replace(a, shards=a.shards + a.shards[j : j + 1])
    lo, hi = getattr(a.shards[j], axis)
    for bound in ((lo + 1, hi), (lo - 1, hi), (lo, hi + 1), (lo, hi - 1), (hi, lo)):
        yield _with_shard(a, j, **{axis: bound})
    yield _with_shard(a, j, **{axis: (lo, FULL_EXTENT)})
    if row:
        n = a.scheme.num_row_shards + int(rng.choice([-1, 1]))
        scheme = dataclasses.replace(a.scheme, num_row_shards=n)
        yield dataclasses.replace(a, scheme=scheme)
    else:
        # tile [0, D) differently from the shards, or cut one shard in two
        splits = ((0, extent),) if len(a.shards) > 1 else ((0, 1), (1, extent))
        scheme = dataclasses.replace(a.scheme, col_splits=splits)
        yield dataclasses.replace(a, scheme=scheme)
        if hi - lo > 1:
            halves = (
                dataclasses.replace(a.shards[j], cols=(lo, lo + 1)),
                dataclasses.replace(a.shards[j], cols=(lo + 1, hi)),
            )
            shards = a.shards[:j] + halves + a.shards[j + 1 :]
            yield dataclasses.replace(a, shards=shards)


def broken_plans(plan, model, rng):
    """Plans that break validate_plan's rules: every breach of one random
    assignment, a copy or loss of an assignment, and two breaches at once."""
    W, gpn = plan.num_workers, plan.gpus_per_node
    assignments = plan.assignments
    tables = {t.id: t for t in model.tables}

    def with_assignments(*parts):
        return dataclasses.replace(plan, assignments=tuple(parts))

    i = int(rng.integers(len(assignments)))
    a = assignments[i]
    before, after = assignments[:i], assignments[i + 1 :]
    broken = list(_broken_assignments(a, tables[a.table_id], W, gpn, rng))
    for b in broken:
        yield with_assignments(*before, b, *after)
    yield with_assignments(*before, *after)
    k = int(rng.integers(len(assignments) + 1))
    yield with_assignments(*assignments[:k], a, *assignments[k:])
    if len(assignments) > 1:
        # a breach in each of two assignments: the earlier one is reported
        i2 = (i + 1 + int(rng.integers(len(assignments) - 1))) % len(assignments)
        a2 = assignments[i2]
        b2 = list(_broken_assignments(a2, tables[a2.table_id], W, gpn, rng))
        two = list(assignments)
        two[i] = broken[int(rng.integers(len(broken)))]
        two[i2] = b2[int(rng.integers(len(b2)))]
        yield with_assignments(*two)


def _outcome(check, plan, model):
    try:
        check(plan, model)
    except InvalidScheme as exc:
        return str(exc)
    return None


VALIDATE_CASES = range(150)


@pytest.mark.parametrize("seed", VALIDATE_CASES)
def test_validate_plan_equals_the_shard_loop(seed):
    model, plan, *_ = random_case(seed)
    assert _outcome(validate_plan, plan, model) is None
    rng = np.random.default_rng([20261018, seed, 1])
    for broken in broken_plans(plan, model, rng):
        expected = _outcome(validate_plan_loop, broken, model)
        assert expected is not None
        assert _outcome(validate_plan, broken, model) == expected


def test_broken_plans_reach_every_rule():
    messages = set()
    for seed in VALIDATE_CASES:
        model, plan, *_ = random_case(seed)
        rng = np.random.default_rng([20261018, seed, 1])
        for broken in broken_plans(plan, model, rng):
            message = _outcome(validate_plan_loop, broken, model)
            rule = re.sub(r"^t\d+: ", "", message)
            messages.add(re.sub(r"-?\d+", "<n>", rule))
    assert messages == {
        "plan names unknown table nope",
        "table t<n> assigned twice",
        "tables not assigned: ['t<n>']",
        "expected a single shard",
        "replicated shard only valid for DP",
        "worker <n> out of range",
        "bounds on a table_wise shard",
        "bounds on a data_parallel shard",
        "column bounds on a row-wise shard",
        "row bounds on a column-wise shard",
        "row shard missing bounds",
        "column shard missing bounds",
        "<n> row shards, scheme has <n>",
        "row shards must tile [<n>, H)",
        "column shards must tile [<n>, D)",
        "row shards must cover [<n>, <n>)",
        "column shards must cover [<n>, <n>)",
        "column shards differ from the scheme's column splits",
        "hierarchical shards must lie on one node",
        "hierarchical must be [table_wise, row_wise] on a row_wise scheme",
    }


# ---------------------------------------------------------------------------
# the cached columns cannot go stale or leak


def _arrays(columns):
    return [v for v in columns if isinstance(v, np.ndarray)]


PLAN_SOURCES = ("assignments", "greedy", "kk", "hierarchical")


def _plan(source="assignments"):
    """A plan with data-parallel and row-wise tables: a random plan built
    from TableAssignments, or a plan that plan_4d (greedy or KK placement)
    or hierarchical_plan builds from columns, with its model, cluster and
    flags."""
    if source == "assignments":
        model, plan, cluster, flags, _, _ = next(
            case
            for case in map(random_case, CASES)
            if {a.scheme.kind for a in case[1].assignments} >= {
                SchemeKind.DATA_PARALLEL,
                SchemeKind.ROW_WISE,
            }
        )
        return model, plan, cluster, flags
    model, cluster, policy = mixed_desk_case()
    if source == "hierarchical":
        plan = hierarchical_plan(model, cluster, CostWeights(), policy)
    else:
        plan = plan_4d(model, cluster, CostWeights(), policy, heuristic=source)
    return model, plan, cluster, policy.flags


def test_columns_are_read_only():
    for source in PLAN_SOURCES:
        model, plan, _, _ = _plan(source)
        arrays = _arrays(plan.shard_columns) + _arrays(model.table_columns)
        assert len(arrays) == 17
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def test_columns_leave_eq_hash_repr_unchanged():
    for source in PLAN_SOURCES:
        _, plan, _, _ = _plan(source)
        columns = plan.shard_columns
        again = ShardingPlan(
            plan.num_workers, plan.gpus_per_node, plan.assignments, plan.heuristic
        )
        assert plan.shard_columns is columns
        assert again == plan and hash(again) == hash(plan)
        assert repr(plan) == (
            f"ShardingPlan(num_workers={plan.num_workers!r}, "
            f"gpus_per_node={plan.gpus_per_node!r}, "
            f"assignments={plan.assignments!r}, heuristic={plan.heuristic!r})"
        )
        # the assignments read back into the columns they came from
        for name, value in columns._asdict().items():
            rebuilt = getattr(again.shard_columns, name)
            if isinstance(value, np.ndarray):
                assert value.dtype == rebuilt.dtype, (source, name)
                assert np.array_equal(value, rebuilt), (source, name)
            else:
                assert value == rebuilt, (source, name)


def test_planners_build_no_shards_until_read():
    model, cluster, policy = mixed_desk_case()
    flags = policy.flags
    plans = [
        plan_4d(model, cluster, CostWeights(), policy, heuristic=heuristic)
        for heuristic in ("greedy", "kk")
    ]
    plans.append(hierarchical_plan(model, cluster, CostWeights(), policy))
    for plan in plans:
        plan_to_json(plan, model, cluster, flags)
        validate_plan(plan, model)
        simulate(model, cluster, plan, flags=flags)
        assert "assignments" not in vars(plan)
        shards = [s for a in plan.assignments for s in a.shards]
        assert "assignments" in vars(plan)
        # equal shards are one object
        assert len({id(s) for s in shards}) == len(set(shards)) < len(shards)


def test_replace_builds_fresh_columns():
    for source in PLAN_SOURCES:
        model, plan, cluster, flags = _plan(source)
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
        assert_report_matches(
            memory_check(replaced, model, cluster, flags),
            memory_check_loop(replaced, model, cluster, flags),
        )
        shorter = dataclasses.replace(plan, assignments=plan.assignments[:1])
        assert len(shorter.shard_columns.table_ids) == 1
        same = dataclasses.replace(plan)
        assert same == plan and same.shard_columns is not plan.shard_columns


def test_pickle_round_trip_gives_equal_sums():
    for source in PLAN_SOURCES:
        model, plan, cluster, flags = _plan(source)
        model2, plan2 = pickle.loads(pickle.dumps((model, plan)))
        assert (model2, plan2) == (model, plan)
        for array in _arrays(plan2.shard_columns) + _arrays(model2.table_columns):
            assert not array.flags.writeable
        W = plan.num_workers
        assert_report_matches(
            memory_check(plan2, model2, cluster, flags),
            memory_check(plan, model, cluster, flags),
        )
        assert_volumes_equal(collective_volumes(plan2, model2), collective_volumes(plan, model))
        assert component_latencies(model2, plan2, cluster, flags=flags) == (
            component_latencies(model, plan, cluster, flags=flags)
        )
        assert_volumes_equal(
            [volume_input_alltoall(plan2, model2, W)],
            [volume_input_alltoall(plan, model, W)],
        )
        assert plan_to_json(plan2, model2, cluster, flags) == plan_to_json(
            plan, model, cluster, flags
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
        memory_check(plan, model, cluster, CompressionFlags(rowwise_optimizer=False))
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
        assert_report_matches(report, memory_check_loop(plan, model, cluster, flags))
        assert report.table_bytes.tolist()[0] == (2**40 + 3) * 64 * 4


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
        memory_check(plan, model, desk_cluster(2), CompressionFlags(rowwise_optimizer=False))
    with pytest.raises(InvalidScheme):
        volume_forward_alltoall(plan, model, 2)


@pytest.mark.parametrize("end", ["full_extent", "past_the_table", "empty"])
@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_explicit_bound_outside_the_table_raises(axis, end):
    """An unvalidated plan whose second shard of a 100 x 4 FP32 table ends at
    an explicit FULL_EXTENT, 20 past the table or at its own start is
    refused, not charged the whole table or rows it does not have."""
    model = desk_model([TableSpec(id="t", num_rows=100, dim=4, avg_pooling=1.0)])
    cluster = desk_cluster(2)
    extent = 100 if axis == "rows" else 4
    mid = extent // 2
    end = {"full_extent": FULL_EXTENT, "past_the_table": extent + 20, "empty": mid}[end]
    kind = SchemeKind.ROW_WISE if axis == "rows" else SchemeKind.COLUMN_WISE
    scheme = Scheme(kind, num_row_shards=2) if axis == "rows" else Scheme(
        kind, col_splits=((0, mid), (mid, extent))
    )

    def plan(last):
        shards = (Shard(0, **{axis: (0, mid)}), Shard(1, **{axis: (mid, last)}))
        return ShardingPlan(2, 2, (TableAssignment("t", scheme, shards),))

    good = plan(extent)
    flags = CompressionFlags(rowwise_optimizer=False)
    report = memory_check(good, model, cluster, flags)
    assert_report_matches(report, memory_check_loop(good, model, cluster, flags))
    assert report.table_bytes.tolist() == [800, 800]
    bad = plan(end)
    with pytest.raises(InvalidScheme):
        memory_check(bad, model, cluster, flags)
    with pytest.raises(InvalidScheme):
        component_latencies(model, bad, cluster, flags=flags)
    if axis == "cols":
        assert_volumes_equal(
            [volume_forward_alltoall(good, model, 2)], [forward_loop(good, model, 2)]
        )
        with pytest.raises(InvalidScheme):
            volume_forward_alltoall(bad, model, 2)


# ---------------------------------------------------------------------------
# the memory report's tiers and bounds


def _last_resort_case():
    """(model, cluster) of five single-row tables that only table-wise
    schemes place, on four 56-byte devices that cannot hold them: plan_4d's
    last resort leaves workers 1 and 2 with the largest total, 64 bytes."""
    shapes = ((1, 7), (1, 3), (1, 5), (1, 3), (2, 5))
    model = desk_model(
        [TableSpec(id=f"t{i}", num_rows=h, dim=d, avg_pooling=1.0)
         for i, (h, d) in enumerate(shapes)]
    )
    return model, desk_cluster(4, hbm=56, dram_per_node=1)


def _capacities(cluster, hbm, dram_per_gpu):
    return dataclasses.replace(
        cluster,
        hbm_capacity_per_gpu=hbm,
        dram_capacity_per_node=dram_per_gpu * cluster.gpus_per_node,
    )


@pytest.mark.parametrize(
    "total,hbm,dram_per_gpu,tier",
    [
        (56, 56.0, 1.0, "hbm"),  # at HBM
        (57, 56.0, 1.0, "hbm+dram"),  # at HBM + DRAM
        (58, 56.0, 1.0, "infeasible"),
        (57, 56.5, 0.5, "hbm+dram"),
        (57, 56.5, 0.25, "infeasible"),
        # float(2**53 + 1) == 2**53: an int-to-float comparison says "hbm"
        (2**53 + 1, 2.0**53, 2.0**53, "hbm+dram"),
        (2**53, 2.0**53, 1.0, "hbm"),
        # the float sum 2**53 + 1.0 rounds to 2**53, below the total
        (2**53 + 1, 2.0**53, 1.0, "infeasible"),
        (2**63 - 1, float(2**63), 1.0, "hbm"),
        (2**63 - 1, 2.0**62, 2.0**62, "hbm+dram"),  # 2.0**63 clamps to 2**63 - 1
        (2**63 - 1, 2.0**62, 2.0**61, "infeasible"),
        (2**63 - 1, math.inf, 1.0, "hbm"),
    ],
)
def test_tiers_are_exact(total, hbm, dram_per_gpu, tier):
    """Totals at and around float capacities land in the tier an exact
    integer comparison gives, as in the records oracle; the dense replica
    makes up the total past a 56-byte table."""
    table = TableSpec(id="huge", num_rows=1, dim=7, avg_pooling=1.0)
    model = desk_model([table], dense_param_bytes=total - 56)
    plan = plan_from_json(_one_table_plan_json())
    cluster = _capacities(desk_cluster(2), hbm, dram_per_gpu)
    flags = CompressionFlags(rowwise_optimizer=False)
    report = memory_check(plan, model, cluster, flags)
    assert_report_matches(report, memory_check_loop(plan, model, cluster, flags))
    assert report.totals.tolist()[0] == total
    assert TIERS[report.tier.tolist()[0]] == tier
    assert report.feasible == (tier != "infeasible")


@pytest.mark.parametrize(
    "rows,dense",
    [
        (1, 2**63 - 8),  # the dense replica pushes 12 or 16 table bytes past int64
        (1, 2**64),
        (2**60 - 1, 0),  # table and optimizer bytes fit int64 apart, not summed
    ],
)
def test_totals_past_int64_raise(rows, dense):
    """A worker total past int64 raises InvalidValue at `model`, in the
    report and in every caller; 2**63 - 1 itself stays exact."""
    model = desk_model(
        [TableSpec(id="huge", num_rows=rows, dim=2, avg_pooling=1.0)],
        dense_param_bytes=dense,
    )
    plan = plan_from_json(_one_table_plan_json())
    cluster = desk_cluster(2)
    for rowwise in (False, True):
        flags = CompressionFlags(rowwise_optimizer=rowwise)
        for call in (
            lambda: memory_check(plan, model, cluster, flags),
            lambda: plan_to_json(plan, model, cluster, flags),
            lambda: component_latencies(model, plan, cluster, flags=flags),
        ):
            with pytest.raises(InvalidValue) as exc:
                call()
            assert exc.value.path == "model"
    exact = dataclasses.replace(model, dense_param_bytes=2**63 - 1 - 16)
    if rows == 1:
        flags = CompressionFlags(rowwise_optimizer=False)
        report = memory_check(plan, exact, cluster, flags)
        assert report.totals.tolist() == [2**63 - 1, 2**63 - 1 - 16]
        assert_report_matches(report, memory_check_loop(plan, exact, cluster, flags))


def test_infeasible_messages_name_the_first_worker():
    """Ties go to the first worker: plan_4d and hierarchical_plan name the
    first worker with the largest total, component_latencies the first
    infeasible worker."""
    flags = CompressionFlags(rowwise_optimizer=False)
    policy = CandidatePolicy(flags=flags)
    model, cluster = _last_resort_case()
    with pytest.raises(Infeasible, match="^infeasible: no feasible placement found; "
                       "worker 1 needs 64 bytes$"):
        plan_4d(model, cluster, CostWeights(), policy)
    # 40, 40, 48, 48 bytes on two nodes of two 40-byte devices
    model = desk_model(
        [TableSpec(id="a", num_rows=2, dim=5, avg_pooling=1.0),
         TableSpec(id="b", num_rows=4, dim=3, avg_pooling=1.0)]
    )
    cluster = desk_cluster(4, 2, hbm=40, dram_per_node=2)
    with pytest.raises(Infeasible, match=r"^infeasible: hierarchical placement "
                       r"overflows worker 2 \(48 bytes\)$"):
        hierarchical_plan(model, cluster, CostWeights(), policy)
    # workers 1 and 3 hold 64 and 80 bytes, over 56 + 0.25
    model, cluster = _last_resort_case()
    tw = Scheme(SchemeKind.TABLE_WISE)
    placed = ((0, 0), (1, 1), (2, 1), (3, 2), (4, 3))  # (table, worker)
    plan = ShardingPlan(
        4, 4, tuple(TableAssignment(f"t{t}", tw, (Shard(w),)) for t, w in placed)
    )
    report = memory_check(plan, model, cluster, flags)
    assert report.tier.tolist() == [0, 2, 0, 2]
    with pytest.raises(Infeasible, match="^infeasible: worker 1 exceeds its memory budget$"):
        component_latencies(model, plan, cluster, flags=flags)


# ---------------------------------------------------------------------------
# the report a plan keeps


def _other_flags(flags):
    """flags with the forced table precision switched between FP16 and none."""
    fp16 = None if flags.table_precision else Precision.FP16
    return dataclasses.replace(flags, table_precision=fp16)


def _assert_kept_report_holds(plan, model, cluster, flags):
    """The report memory_check keeps for (model, cluster, flags) equals the
    shard loop and a fresh check of the plan read back from its JSON; equal
    flags return it, while an equal but distinct model or cluster, or other
    flags, get a fresh report equal to the shard loop."""
    kept = memory_check(plan, model, cluster, flags)
    assert memory_check(plan, model, cluster, flags) is kept
    assert memory_check(plan, model, cluster, dataclasses.replace(flags)) is kept
    assert_report_matches(kept, memory_check_loop(plan, model, cluster, flags))
    loaded = plan_from_json(plan_to_json(plan, model, cluster, flags))
    assert loaded._memory is None
    assert_report_matches(kept, memory_check(loaded, model, cluster, flags))
    for args in (
        (dataclasses.replace(model), cluster, flags),
        (model, dataclasses.replace(cluster), flags),
        (model, cluster, _other_flags(flags)),
    ):
        fresh = memory_check(plan, *args)
        assert fresh is not kept
        assert_report_matches(fresh, memory_check_loop(plan, *args))
    assert memory_check(plan, model, cluster, flags) is kept
    return kept


def test_planners_keep_the_report_of_their_plan():
    """Every bundled plan kind keeps the report its planner computed.
    Without forced FP16, model_i's FP32 tables take twice the value bytes;
    model_a's and model_f's tables are FP16 already."""
    flags = CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=True)
    for model, cluster, plan in bundled_plans(flags):
        kept = plan._memory
        assert kept[0] is model and kept[1] is cluster and kept[2] is flags
        assert _assert_kept_report_holds(plan, model, cluster, flags) is kept[3]
        wider = memory_check(plan, model, cluster, _other_flags(flags))
        fp32 = all(t.value_precision is Precision.FP32 for t in model.tables)
        assert np.array_equal(wider.table_bytes, kept[3].table_bytes * (1 + fp32))


def test_random_plans_keep_their_first_report():
    for seed in CASES:
        model, plan, cluster, flags, _, _ = random_case(seed)
        assert plan._memory is None
        _assert_kept_report_holds(plan, model, cluster, flags)


def test_kept_report_is_outside_eq_hash_pickle_and_replace():
    for source in PLAN_SOURCES:
        model, plan, cluster, flags = _plan(source)
        kept = memory_check(plan, model, cluster, flags)
        bare = ShardingPlan(
            plan.num_workers, plan.gpus_per_node, plan.assignments, plan.heuristic
        )
        assert bare._memory is None and bare == plan and hash(bare) == hash(plan)
        assert repr(bare) == repr(plan)
        assert pickle.loads(pickle.dumps(plan))._memory is None
        assert dataclasses.replace(plan)._memory is None
        assert plan._memory[3] is kept


def test_memory_check_refuses_another_layout():
    """A 128-worker model_i plan checked against 8 nodes (64 workers), or
    against 32 nodes of 4 GPUs, is refused at `plan` by memory_check,
    plan_to_json and simulate alike."""
    model, cluster = load_bundled_model("model_i"), load_bundled_cluster()
    flags = CompressionFlags(rowwise_optimizer=True)
    plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy(flags=flags))
    for other, reason in (
        (dataclasses.replace(cluster, num_nodes=8), "worker count"),
        (dataclasses.replace(cluster, num_nodes=32, gpus_per_node=4), "GPUs per node"),
    ):
        for call in (
            lambda: memory_check(plan, model, other, flags),
            lambda: plan_to_json(plan, model, other, flags),
            lambda: simulate(model, other, plan, flags=flags),
        ):
            with pytest.raises(InvalidValue, match=f"plan and cluster disagree on {reason}") as exc:
                call()
            assert exc.value.path == "plan"


def _count_evaluations(monkeypatch) -> dict:
    """Count the memory core's evaluations and the plans built from columns."""
    calls = {"evaluations": 0, "plans": 0}
    core = planner_module._memory_report
    from_columns = ShardingPlan.from_columns.__func__

    def counted_core(*args):
        calls["evaluations"] += 1
        return core(*args)

    def counted_from_columns(cls, *args):
        calls["plans"] += 1
        return from_columns(cls, *args)

    monkeypatch.setattr(planner_module, "_memory_report", counted_core)
    monkeypatch.setattr(ShardingPlan, "from_columns", classmethod(counted_from_columns))
    return calls


@pytest.mark.parametrize(
    "name,placement,fp16,evaluations",
    [
        ("model_a", "greedy", True, 1),
        ("model_a", "kk", False, 1),
        ("model_i", "greedy", False, 1),
        ("model_i", "kk", True, 1),
        ("model_i", "hierarchical", True, 1),
        # four memory-repair retries: one evaluation per placement tried
        ("model_f", "greedy", False, 5),
        ("model_f", "greedy", True, 5),
        ("model_f", "kk", False, 5),
        ("model_f", "kk", True, 5),
    ],
)
def test_one_evaluation_per_placement(monkeypatch, name, placement, fp16, evaluations):
    """A plan -> plan_to_json -> simulate -> memory_check cycle evaluates
    each placement's memory once and builds one plan."""
    model, cluster = load_bundled_model(name), load_bundled_cluster()
    flags = CompressionFlags(
        table_precision=Precision.FP16 if fp16 else None, rowwise_optimizer=True
    )
    policy = CandidatePolicy(flags=flags)
    calls = _count_evaluations(monkeypatch)
    if placement == "hierarchical":
        plan = hierarchical_plan(model, cluster, CostWeights(), policy)
    else:
        plan = plan_4d(model, cluster, CostWeights(), policy, heuristic=placement)
    plan_to_json(plan, model, cluster, flags)
    simulate(model, cluster, plan, flags=flags)
    assert memory_check(plan, model, cluster, flags).feasible
    assert calls == {"evaluations": evaluations, "plans": 1}
