"""Oracle for the planner's candidate columns.

The functions between the two rules below are the scalar, one-table-at-a-
time planner that CandidateColumns replaced, kept verbatim: enumeration,
storage and cost per table, Python-sum norms, per-table sorted candidate
lists, and a plan rebuilt from them on every memory-repair attempt. On
seeded random models and clusters (1 to 300 tables; W = 1, 3, 8 and 128;
tables over the device budget; dims that some column counts do not divide;
fewer rows than row shards; the data-parallel threshold at equality; fine
grain, zero weights, forced FP16, row-wise or element-wise state) the
vectorized planner must give equal candidate lists, equal costs down to
the repr of every float, equal errors and equal plans. One edit breaks the
verbatim copy: placement items, the hierarchical node split and memory
repair key tables by position in the model, not by id, so every placement
tie goes by plan order.
"""

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np
import pytest

from conftest import desk_model, index_bytes

from neosim import planner
from neosim.errors import Infeasible, InvalidValue, NoFeasibleScheme
from neosim.model import ClusterSpec, ModelSpec, Precision, PRECISION_BYTES, TableSpec
from neosim.perf import shrink_to_fit
from neosim.planner import (
    INFEASIBLE,
    MIN_COL_WIDTH,
    OPTIMIZER_STATE_BYTES,
    CandidateColumns,
    CandidatePolicy,
    CompressionFlags,
    CostNorms,
    CostWeights,
    Scheme,
    SchemeKind,
    Shard,
    ShardCost,
    ShardingPlan,
    TableAssignment,
    even_bounds,
    greedy_partition,
    karmarkar_karp_partition,
    memory_check,
    validate_scheme,
)

# ---------------------------------------------------------------------------
# the scalar planner, verbatim but for its position keys

PARTITIONS = {"greedy": greedy_partition, "kk": karmarkar_karp_partition}


def table_storage_bytes(
    rows: int, width: int, table: TableSpec, flags: CompressionFlags
) -> int:
    """Value bytes plus optimizer state for one (rows x width) shard."""
    prec = flags.table_precision or table.value_precision
    value_bytes = rows * width * PRECISION_BYTES[prec]
    if flags.rowwise_optimizer:
        state_bytes = rows * OPTIMIZER_STATE_BYTES
    else:
        state_bytes = rows * width * OPTIMIZER_STATE_BYTES
    return value_bytes + state_bytes


def shard_storage_bytes(
    table: TableSpec, scheme: Scheme, flags: CompressionFlags
) -> int:
    """Storage bytes of the largest shard `scheme` places on one worker."""
    rows, width = table.num_rows, table.dim
    if scheme.kind is SchemeKind.ROW_WISE:
        rows = -(-rows // scheme.num_row_shards)
    elif scheme.kind is SchemeKind.COLUMN_WISE:
        width = max(c1 - c0 for c0, c1 in scheme.col_splits)
    return table_storage_bytes(rows, width, table, flags)


def shard_cost(
    table: TableSpec, scheme: Scheme, cluster: ClusterSpec, global_batch: int
) -> ShardCost:
    """Per-shard cost of applying `scheme` to `table` (shards are symmetric).

    load is the embedding access size: (table fraction on the worker) x global
    batch x pooling x dim. comm_bytes charges pooled output plus index payload
    for TW/CW, bucketized indices plus ReduceScatter volume for RW, and the
    ring AllReduce volume 2(p-1)/p x table bytes for DP. Pooled activations
    count 4 bytes per element; parameter gradients count the storage width.
    """
    validate_scheme(table, scheme)
    H, D, L = table.num_rows, table.dim, table.avg_pooling
    act = 4
    idx = index_bytes(H)
    fixed = cluster.fixed_latency_per_collective
    if scheme.kind is SchemeKind.TABLE_WISE:
        load = global_batch * L * D
        comm = D * global_batch * act + global_batch * L * idx
        return ShardCost(comm, load, 4 * fixed)
    if scheme.kind is SchemeKind.COLUMN_WISE:
        width = scheme.col_splits[0][1] - scheme.col_splits[0][0]
        load = global_batch * L * width
        # index payload replicated to every column shard
        comm = width * global_batch * act + global_batch * L * idx
        return ShardCost(comm, load, 4 * fixed)
    if scheme.kind is SchemeKind.ROW_WISE:
        k = scheme.num_row_shards
        load = global_batch * (L / k) * D
        reduce_scatter = (k - 1) / k * global_batch * D * act
        comm = global_batch * (L / k) * idx + reduce_scatter
        return ShardCost(comm, load, 4 * fixed)
    # DATA_PARALLEL: replica computes only its local batch share; gradients
    # synchronize with a ring AllReduce over the whole table.
    p = cluster.num_workers
    load = (global_batch / p) * L * D
    comm = 2 * (p - 1) / p * H * D * table.elem_bytes
    return ShardCost(comm, load, 1 * fixed)


def _powers_of_two_up_to(limit: int):
    k = 2
    while k <= limit:
        yield k
        k *= 2


def enumerate_candidates(
    table: TableSpec, cluster: ClusterSpec, policy: CandidatePolicy
) -> list[Scheme]:
    """Feasible schemes for one table, in deterministic order.

    Data parallelism is offered only below the policy's size threshold;
    row/column sharding only when the table cannot fit one device or the
    policy asks for finer grain.
    """
    W = cluster.num_workers
    device_budget = cluster.hbm_capacity_per_gpu + cluster.dram_capacity_per_gpu
    full_bytes = table_storage_bytes(table.num_rows, table.dim, table, policy.flags)
    cluster_total = (
        W * cluster.hbm_capacity_per_gpu
        + cluster.num_nodes * cluster.dram_capacity_per_node
    )
    if full_bytes > cluster_total:
        raise NoFeasibleScheme(
            f"table {table.id} needs {full_bytes} bytes, cluster has {cluster_total}"
        )
    fits_device = full_bytes <= device_budget
    candidates: list[Scheme] = []
    if fits_device:
        candidates.append(Scheme(SchemeKind.TABLE_WISE))
    rw_candidates: list[Scheme] = []
    if not fits_device or policy.fine_grain:
        for k in _powers_of_two_up_to(min(W, table.num_rows)):
            scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=k)
            if shard_storage_bytes(table, scheme, policy.flags) <= device_budget:
                rw_candidates.append(scheme)
    candidates.extend(rw_candidates)
    # Column splits serve the fine-grain load-balancing role; for oversized
    # tables they only step in when rows cannot split (they replicate input
    # indices and per-row optimizer state, defeating capacity sharding).
    if policy.fine_grain or (not fits_device and not rw_candidates):
        for c in _powers_of_two_up_to(min(W, table.dim // MIN_COL_WIDTH)):
            if table.dim % c:
                continue
            scheme = Scheme(
                SchemeKind.COLUMN_WISE, col_splits=tuple(even_bounds(table.dim, c))
            )
            if shard_storage_bytes(table, scheme, policy.flags) <= device_budget:
                candidates.append(scheme)
    threshold = policy.dp_threshold_bytes
    if threshold is None:
        threshold = cluster.hbm_capacity_per_gpu // 1000
    if table.num_rows * table.dim * table.elem_bytes <= threshold and fits_device:
        candidates.append(Scheme(SchemeKind.DATA_PARALLEL))
    if not candidates:
        raise NoFeasibleScheme(f"no scheme places table {table.id} on this cluster")
    return candidates


def cost_norms(costs: Sequence[ShardCost]) -> CostNorms:
    n = max(len(costs), 1)
    return CostNorms(
        comm=sum(c.comm_bytes for c in costs) / n,
        load=sum(c.load for c in costs) / n,
        latency=sum(c.fixed_latency for c in costs) / n,
    )


def scalar_objective(cost: ShardCost, weights: CostWeights, norms: CostNorms) -> float:
    total = 0.0
    if norms.comm > 0:
        total += weights.w_comm * cost.comm_bytes / norms.comm
    if norms.load > 0:
        total += weights.w_load * cost.load / norms.load
    if norms.latency > 0:
        total += weights.w_latency * cost.fixed_latency / norms.latency
    return total


def candidate_costs(
    model: ModelSpec, cluster: ClusterSpec, policy: CandidatePolicy
) -> dict[str, list[tuple[Scheme, ShardCost]]]:
    global_batch = model.local_batch * cluster.num_workers
    return {
        t.id: [
            (scheme, shard_cost(t, scheme, cluster, global_batch))
            for scheme in enumerate_candidates(t, cluster, policy)
        ]
        for t in model.tables
    }


def _materialize(table: TableSpec, scheme: Scheme, workers: Sequence[int]) -> TableAssignment:
    if scheme.kind is SchemeKind.DATA_PARALLEL:
        return TableAssignment(table.id, scheme, (Shard(worker=None),))
    if scheme.kind is SchemeKind.TABLE_WISE:
        return TableAssignment(table.id, scheme, (Shard(worker=workers[0]),))
    if scheme.kind is SchemeKind.ROW_WISE:
        bounds = even_bounds(table.num_rows, scheme.num_row_shards)
        shards = tuple(
            Shard(worker=workers[i], rows=bounds[i]) for i in range(len(bounds))
        )
        return TableAssignment(table.id, scheme, shards)
    shards = tuple(
        Shard(worker=workers[i], cols=scheme.col_splits[i])
        for i in range(len(scheme.col_splits))
    )
    return TableAssignment(table.id, scheme, shards)


def _next_finer(ordered: list, idx: int) -> Optional[int]:
    """Index of the next candidate that splits into strictly more shards."""
    current = ordered[idx][0].num_shards
    for j in range(idx + 1, len(ordered)):
        if ordered[j][0].num_shards > current:
            return j
    return None


def plan_4d(
    model: ModelSpec,
    cluster: ClusterSpec,
    weights: CostWeights,
    policy: CandidatePolicy,
    heuristic: str = "greedy",
) -> ShardingPlan:
    """Select a scheme per table and place all shards across workers.

    Candidates are ranked by the normalized scalar objective; non-DP shards
    are partitioned with the chosen heuristic. If the resulting placement
    fails the memory check, the most memory-hungry offending table is moved
    to its next finer candidate and placement is retried; a final attempt
    balances shard bytes instead of the objective.
    """
    if heuristic not in PARTITIONS:
        raise InvalidValue("heuristic", f"unknown heuristic {heuristic!r}")
    W = cluster.num_workers
    if not model.tables:
        return ShardingPlan(W, cluster.gpus_per_node, (), heuristic)
    total_bytes = sum(
        table_storage_bytes(t.num_rows, t.dim, t, policy.flags) for t in model.tables
    )
    cluster_total = (
        W * cluster.hbm_capacity_per_gpu
        + cluster.num_nodes * cluster.dram_capacity_per_node
    )
    if total_bytes > cluster_total:
        raise Infeasible(
            f"model needs {total_bytes} bytes, cluster has {cluster_total}"
        )
    try:
        cands = candidate_costs(model, cluster, policy)
    except NoFeasibleScheme as exc:
        raise Infeasible(str(exc)) from None
    norms = cost_norms([c for lst in cands.values() for _, c in lst])

    def aggregate(entry):
        # DP replicas charge every worker, so they weigh W times in the
        # pooled-AlltoAll vs whole-table-AllReduce trade-off
        scheme, cost = entry
        multiplier = W if scheme.kind is SchemeKind.DATA_PARALLEL else scheme.num_shards
        return multiplier * scalar_objective(cost, weights, norms)

    ordered = {
        tid: sorted(lst, key=lambda e: (aggregate(e), e[0].kind.value, e[0].num_shards))
        for tid, lst in cands.items()
    }
    choice = {tid: 0 for tid in ordered}
    max_attempts = sum(len(lst) for lst in ordered.values()) + 1
    plan = None
    for _ in range(max_attempts):
        plan = _build_plan(model, cluster, ordered, choice, weights, norms, heuristic)
        report = memory_check(plan, model, cluster, policy.flags)
        if report.feasible:
            return plan
        tiers = report.tier.tolist()
        overloaded = {w for w, tier in enumerate(tiers) if tier == INFEASIBLE}
        offenders = []
        for assignment in plan.assignments:
            if any(s.worker in overloaded for s in assignment.shards):
                nxt = _next_finer(ordered[assignment.table_id], choice[assignment.table_id])
                if nxt is not None:
                    pos = model.table_indices([assignment.table_id])[0]
                    scheme, _ = ordered[assignment.table_id][choice[assignment.table_id]]
                    offenders.append(
                        (
                            shard_storage_bytes(model.tables[pos], scheme, policy.flags),
                            pos,
                            assignment.table_id,
                            nxt,
                        )
                    )
        if not offenders:
            break
        offenders.sort(key=lambda o: (-o[0], o[1]))
        _, _, tid, nxt = offenders[0]
        choice[tid] = nxt
    # last resort: balance bytes rather than the objective
    plan = _build_plan(
        model, cluster, ordered, choice, weights, norms, heuristic, by_memory=policy
    )
    report = memory_check(plan, model, cluster, policy.flags)
    if report.feasible:
        return plan
    totals = report.totals.tolist()
    worst = totals.index(max(totals))  # the first of the largest
    raise Infeasible(
        f"no feasible placement found; worker {worst} needs {totals[worst]} bytes"
    )


def _build_plan(
    model: ModelSpec,
    cluster: ClusterSpec,
    ordered: dict,
    choice: dict,
    weights: CostWeights,
    norms: CostNorms,
    heuristic: str,
    by_memory: Optional[CandidatePolicy] = None,
) -> ShardingPlan:
    W = cluster.num_workers
    items = []
    shard_refs = {}
    dp_tables = []
    for pos, table in enumerate(model.tables):
        scheme, cost = ordered[table.id][choice[table.id]]
        if scheme.kind is SchemeKind.DATA_PARALLEL:
            dp_tables.append((table, scheme))
            continue
        if by_memory is not None:
            per_shard = float(shard_storage_bytes(table, scheme, by_memory.flags))
        else:
            per_shard = scalar_objective(cost, weights, norms)
        for i in range(scheme.num_shards):
            items.append(((pos, i), per_shard))
            shard_refs[pos, i] = (table, scheme, i)
    assign = PARTITIONS[heuristic](items, W)
    workers_by_table: dict[str, list[int]] = {}
    for key, worker in assign.items():
        table, scheme, i = shard_refs[key]
        workers_by_table.setdefault(table.id, [None] * scheme.num_shards)
        workers_by_table[table.id][i] = worker
    assignments = []
    for table in model.tables:
        scheme, _ = ordered[table.id][choice[table.id]]
        if scheme.kind is SchemeKind.DATA_PARALLEL:
            assignments.append(_materialize(table, scheme, []))
        else:
            assignments.append(_materialize(table, scheme, workers_by_table[table.id]))
    return ShardingPlan(W, cluster.gpus_per_node, tuple(assignments), heuristic)


def hierarchical_plan(
    model: ModelSpec,
    cluster: ClusterSpec,
    weights: CostWeights,
    policy: CandidatePolicy,
) -> ShardingPlan:
    """Table-wise across nodes first, then row-wise across each node's GPUs.

    Keeps the partial-pool reduction on the intra-node fabric so only final
    pooled rows cross the scale-out network. A single-node cluster degenerates
    to the flat planner.
    """
    if cluster.num_nodes < 2:
        return plan_4d(model, cluster, weights, policy, heuristic="kk")
    W = cluster.num_workers
    if not model.tables:
        return ShardingPlan(W, cluster.gpus_per_node, (), "kk")
    global_batch = model.local_batch * W
    tw_costs = {
        t.id: shard_cost(t, Scheme(SchemeKind.TABLE_WISE), cluster, global_batch)
        for t in model.tables
    }
    norms = cost_norms(list(tw_costs.values()))
    items = [
        (pos, scalar_objective(tw_costs[t.id], weights, norms))
        for pos, t in enumerate(model.tables)
    ]
    node_of_table = karmarkar_karp_partition(items, cluster.num_nodes)
    gpn = cluster.gpus_per_node
    assignments = []
    for pos, table in enumerate(model.tables):
        first = node_of_table[pos] * gpn
        k = min(gpn, table.num_rows)
        scheme = Scheme(
            SchemeKind.ROW_WISE,
            num_row_shards=k,
            hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
        )
        assignments.append(_materialize(table, scheme, range(first, first + k)))
    plan = ShardingPlan(W, gpn, tuple(assignments), "kk")
    report = memory_check(plan, model, cluster, policy.flags)
    if not report.feasible:
        totals = report.totals.tolist()
        worst = totals.index(max(totals))  # the first of the largest
        raise Infeasible(
            f"hierarchical placement overflows worker {worst} ({totals[worst]} bytes)"
        )
    return plan


# ---------------------------------------------------------------------------
# random cases

TOPOLOGIES = ((1, 1), (1, 3), (2, 4), (16, 8))  # (nodes, GPUs per node): W = 1, 3, 8, 128
DIMS = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 36, 64, 100, 128)
WEIGHTS = (
    CostWeights(),
    CostWeights(0.0, 1.0, 0.0),
    CostWeights(1.0, 0.0, 0.0),
    CostWeights(0.0, 0.0, 1.0),
    CostWeights(0.5, 2.0, 0.0),
    CostWeights(0.3, 0.0, 1.7),
)


def _cluster(nodes: int, gpn: int, hbm: int, dram_per_node: int) -> ClusterSpec:
    return ClusterSpec(
        num_nodes=nodes,
        gpus_per_node=gpn,
        hbm_capacity_per_gpu=hbm,
        hbm_bw=1.3e12,
        dram_capacity_per_node=dram_per_node,
        dram_to_gpu_bw=26e9,
        scaleup_bw=300e9,
        scaleout_bw_per_gpu=25e9,
        peak_flops={"FP32": 19.5e12, "TF32": 156e12, "FP16": 312e12, "BF16": 312e12},
        mlp_efficiency=0.705,
        alltoall_bw_points=((268435456.0, 7e9),),
        allreduce_bw_points=((268435456.0, 6e10),),
        fixed_latency_per_collective=2e-5,
    )


def random_case(seed: int, max_tables: int = 300):
    """(model, cluster, policy, weights), all drawn from `seed`.

    The device budget sits among the tables' sizes, so some tables need row
    or column shards, and the cluster mostly holds the model, sometimes only
    just; the data-parallel threshold, when set, equals one table's bytes.
    """
    rng = np.random.default_rng([seed, 7])
    nodes, gpn = TOPOLOGIES[seed % len(TOPOLOGIES)]
    T = int(rng.integers(1, max_tables + 1))
    names = rng.permutation(10 * T)[:T]  # ids out of model order
    tables = []
    for i in range(T):
        rows = int(rng.integers(1, 6)) if rng.random() < 0.1 else int(np.exp(rng.uniform(0, 14)))
        tables.append(
            TableSpec(
                id=f"t{names[i]}",
                num_rows=rows,
                dim=int(rng.choice(DIMS)),
                avg_pooling=float(rng.uniform(0.5, 40.0)),
                value_precision=Precision.FP16 if rng.random() < 0.3 else Precision.FP32,
            )
        )
    model = desk_model(tables, local_batch=int(rng.integers(1, 512)))
    flags = CompressionFlags(
        table_precision=Precision.FP16 if rng.random() < 0.3 else None,
        rowwise_optimizer=bool(rng.random() < 0.5),
    )
    sizes = sorted(table_storage_bytes(t.num_rows, t.dim, t, flags) for t in tables)
    budget = max(
        2,
        int(sizes[int(rng.uniform(0.3, 1.0) * (T - 1))] * rng.uniform(0.5, 3.0)),
        # the cluster mostly holds the model, sometimes only just
        int(sum(sizes) * rng.uniform(0.7, 2.0) / (nodes * gpn)),
    )
    hbm = max(1, int(budget * rng.uniform(0.3, 1.0)))
    cluster = _cluster(nodes, gpn, hbm, max(1, (budget - hbm) * gpn))
    threshold = None
    if rng.random() < 0.5:
        t = tables[int(rng.integers(T))]
        threshold = t.num_rows * t.dim * t.elem_bytes
    policy = CandidatePolicy(
        dp_threshold_bytes=threshold, fine_grain=bool(rng.random() < 0.5), flags=flags
    )
    return model, cluster, policy, WEIGHTS[int(rng.integers(len(WEIGHTS)))]


def outcome(fn, *args):
    """fn's result, or its error's type and message."""
    try:
        return fn(*args)
    except (NoFeasibleScheme, Infeasible, InvalidValue) as exc:
        return type(exc).__name__, str(exc)


def cost_text(cost: ShardCost) -> tuple:
    return tuple(repr(v) for v in (cost.comm_bytes, cost.load, cost.fixed_latency))


def candidate_text(cands) -> object:
    """Candidates with every float as its repr; an error as it is."""
    if isinstance(cands, tuple):
        return cands
    return {
        tid: [(scheme, cost_text(cost)) for scheme, cost in lst]
        for tid, lst in cands.items()
    }


SEEDS = range(48)


@pytest.mark.parametrize("seed", SEEDS)
def test_candidates_match_oracle(seed):
    model, cluster, policy, _ = random_case(seed)
    got = outcome(planner.candidate_costs, model, cluster, policy)
    want = outcome(candidate_costs, model, cluster, policy)
    assert candidate_text(got) == candidate_text(want)
    assert got == want
    if isinstance(want, dict):
        storage = CandidateColumns.of(model, cluster, policy).storage.tolist()
        assert storage == [
            shard_storage_bytes(table, scheme, policy.flags)
            for table in model.tables
            for scheme, _ in want[table.id]
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_norms_and_objective_match_oracle(seed):
    model, cluster, policy, weights = random_case(seed)
    try:
        cands = CandidateColumns.of(model, cluster, policy)
    except NoFeasibleScheme:
        return
    costs = [c for lst in candidate_costs(model, cluster, policy).values() for _, c in lst]
    norms = planner.cost_norms(cands)
    assert repr(norms) == repr(cost_norms(costs))
    objective = planner.scalar_objective(cands, weights, norms)
    assert [repr(v) for v in np.broadcast_to(objective, len(costs)).tolist()] == [
        repr(float(scalar_objective(c, weights, norms))) for c in costs
    ]


@pytest.mark.parametrize("heuristic", ["greedy", "kk"])
@pytest.mark.parametrize("seed", SEEDS)
def test_plan_4d_matches_oracle(seed, heuristic):
    model, cluster, policy, weights = random_case(seed)
    got = outcome(planner.plan_4d, model, cluster, weights, policy, heuristic)
    assert got == outcome(plan_4d, model, cluster, weights, policy, heuristic)


@pytest.mark.parametrize("seed", [s for s in SEEDS if TOPOLOGIES[s % 4][0] > 1])
def test_hierarchical_plan_matches_oracle(seed):
    model, cluster, policy, weights = random_case(seed)
    got = outcome(planner.hierarchical_plan, model, cluster, weights, policy)
    assert got == outcome(hierarchical_plan, model, cluster, weights, policy)


@pytest.mark.parametrize("seed", range(8))
def test_one_row_views_match_oracle(seed):
    """shard_cost on any valid scheme: every row-shard count, uneven column
    slices, hierarchical."""
    model, cluster, policy, _ = random_case(seed, max_tables=40)
    rng = np.random.default_rng([seed, 11])
    global_batch = model.local_batch * cluster.num_workers
    for table in model.tables:
        k = int(rng.integers(1, table.num_rows + 1))
        cuts = sorted(set(rng.integers(1, table.dim, size=3).tolist())) if table.dim > 1 else []
        bounds = [0, *cuts, table.dim]
        schemes = [
            Scheme(SchemeKind.TABLE_WISE),
            Scheme(SchemeKind.DATA_PARALLEL),
            Scheme(SchemeKind.ROW_WISE, num_row_shards=k),
            Scheme(
                SchemeKind.ROW_WISE,
                num_row_shards=k,
                hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
            ),
            Scheme(SchemeKind.COLUMN_WISE, col_splits=tuple(zip(bounds, bounds[1:]))),
        ]
        for scheme in schemes:
            got = planner.shard_cost(table, scheme, cluster, global_batch)
            want = shard_cost(table, scheme, cluster, global_batch)
            assert got == want and cost_text(got) == cost_text(want)


def test_ties_follow_kind_name_then_shard_count():
    """Load-only weights make a table-wise shard and its column split tie:
    c shards of width D/c look up as much as one of width D. The tie goes to
    column_wise, the first by kind name, as in the scalar planner."""
    table = TableSpec(id="t", num_rows=1000, dim=64, avg_pooling=4.0)
    model = desk_model([table], local_batch=8)
    cluster = _cluster(1, 4, 2**30, 2**30)
    policy = CandidatePolicy(fine_grain=True)
    weights = CostWeights(0.0, 1.0, 0.0)
    plan = planner.plan_4d(model, cluster, weights, policy)
    assert plan == plan_4d(model, cluster, weights, policy)
    assert plan.assignments[0].scheme.kind is SchemeKind.COLUMN_WISE
    assert plan.assignments[0].scheme.num_shards == 2


@pytest.mark.parametrize(
    "rows,dim,local_batch",
    [
        (2**61, 8, 1),  # a table's storage passes int64
        (1, 2**58, 4),  # its storage fits, its pooled output bytes do not
    ],
)
def test_int64_guard(rows, dim, local_batch):
    """Byte counts are exact int64: past it the planner raises InvalidValue
    at `model` rather than wrap."""
    model = desk_model(
        [TableSpec(id="t", num_rows=rows, dim=dim, avg_pooling=1.0)],
        local_batch=local_batch,
    )
    cluster = _cluster(1, 2, 2**62, 2**62)
    with pytest.raises(InvalidValue) as exc:
        CandidateColumns.of(model, cluster, CandidatePolicy())
    assert exc.value.path == "model"


@pytest.mark.parametrize(
    "order,message",
    [
        ("abc", "no scheme places table b on this cluster"),
        ("acb", "table c needs 640 bytes, cluster has 608"),
    ],
)
def test_first_unplaced_table_is_named(order, message):
    """The first table in model order that no scheme places, or that needs
    more than the whole cluster, is the one named, as in the scalar planner."""
    shapes = {
        "a": (4, 4),  # fits a device
        "b": (1, 45),  # outgrows a device; one row and an odd dim cannot split
        "c": (20, 4),  # outgrows the whole cluster
    }
    tables = [
        TableSpec(id=tid, num_rows=shapes[tid][0], dim=shapes[tid][1], avg_pooling=1.0)
        for tid in order
    ]
    model = desk_model(tables)
    cluster = _cluster(1, 2, 16, 576)  # 304 bytes a device, 608 in all
    policy = CandidatePolicy(flags=CompressionFlags(rowwise_optimizer=False))
    got = outcome(planner.candidate_costs, model, cluster, policy)
    assert got == outcome(candidate_costs, model, cluster, policy)
    assert got == ("NoFeasibleScheme", message)
    # the flat planner reports a table no scheme places as infeasible
    model = desk_model(tables[:2])
    weights = CostWeights()
    got = outcome(planner.plan_4d, model, cluster, weights, policy)
    assert got == outcome(plan_4d, model, cluster, weights, policy)
    assert got[0] == "Infeasible"


# ---------------------------------------------------------------------------
# placement ties: plan order, never the id text

PREFIX_CHAIN = ("a", "a!", "a#0", "a#", "a0", "a\x00", "a ", 'a"', "t1", "t10", "t1#2", "#", "!")
ID_CHARS = ("#", "!", " ", '"', "\x00", "0", "1", "a", "t")


def _conflict(ids) -> bool:
    """Whether some id continues another with a character <= "#", so that
    "<id>#<i>" strings sort apart from their ids."""
    return any(b.startswith(a) and b[len(a)] <= "#" for a in ids for b in ids if b != a)


def rank_case(seed: int):
    """(model, cluster, policy, weights), all drawn from `seed`, whose ids
    mix '#', '!', ' ', '"', NUL and digits with the prefix chains of
    PREFIX_CHAIN. Tables take one of two shapes, so many shards cost the
    same; on 16 or 32 workers up to W // 16 tables of a third shape need 16
    row shards. The device budget sits near the mean load, so memory repair
    moves tables, and some models do not fit at all."""
    rng = np.random.default_rng([seed, 25])
    nodes, gpn = ((2, 8), (4, 8), (1, 3), (2, 2))[seed % 4]
    W = nodes * gpn
    pool = list(PREFIX_CHAIN)
    for _ in range(40):
        size = int(rng.integers(1, 5))
        pool.append("".join(ID_CHARS[i] for i in rng.integers(len(ID_CHARS), size=size)))
    pool = list(dict.fromkeys(pool))
    T = int(rng.integers(2, 40))
    ids = [pool[i] for i in rng.choice(len(pool), T, replace=False)]  # no U array
    shapes = [(64, 8), (1024, 16)]  # (rows, dim), 8 bytes an element
    picks = rng.integers(2, size=T)
    total = sum(shapes[p][0] * shapes[p][1] * 8 for p in picks.tolist())
    bigs = int(rng.integers(0, W // 16 + 1))
    budget = max(1024 * 16 * 8 + 1, int(total * rng.uniform(0.95, 1.8) / (W - 12 * bigs)))
    # a big table holds 12 budgets: 8 row shards do not fit a device, 16 do
    shapes.append((12 * budget // (16 * 8), 16))
    picks[rng.choice(T, min(bigs, T), replace=False)] = 2
    tables = [
        TableSpec(id=tid, num_rows=shapes[p][0], dim=shapes[p][1], avg_pooling=2.0)
        for tid, p in zip(ids, picks.tolist())
    ]
    model = desk_model(tables, local_batch=8)
    hbm = budget // 2
    cluster = _cluster(nodes, gpn, hbm, (budget - hbm) * gpn)
    policy = CandidatePolicy(
        dp_threshold_bytes=[None, 64 * 8 * 4][int(rng.integers(2))],
        fine_grain=bool(rng.random() < 0.3),
        flags=CompressionFlags(rowwise_optimizer=False),
    )
    return model, cluster, policy, WEIGHTS[int(rng.integers(len(WEIGHTS)))]


@pytest.fixture
def attempts(monkeypatch):
    """A list whose last entry counts the calls to planner._place since it
    was appended."""
    place = planner._place
    calls = []

    def counted(*args):
        calls[-1] += 1
        return place(*args)

    monkeypatch.setattr(planner, "_place", counted)
    return calls


def test_placement_ties_match_oracle(attempts):
    """plan_4d (greedy and KK, memory repair included) and hierarchical_plan
    place ties as the position-keyed oracle does, over 48 rank_case models:
    tables of more than 10 row shards, repaired placements and infeasible
    models all occur."""
    seen = dict.fromkeys(("over_10_shards", "repaired", "infeasible"), 0)
    for seed in range(48):
        model, cluster, policy, weights = rank_case(seed)
        for heuristic in ("greedy", "kk"):
            attempts.append(0)
            got = outcome(planner.plan_4d, model, cluster, weights, policy, heuristic)
            assert got == outcome(plan_4d, model, cluster, weights, policy, heuristic)
            seen["repaired"] += attempts[-1] > 1
            if isinstance(got, tuple):
                seen["infeasible"] += 1
            else:
                seen["over_10_shards"] += any(len(a.shards) > 10 for a in got.assignments)
        if cluster.num_nodes > 1:
            got = outcome(planner.hierarchical_plan, model, cluster, weights, policy)
            assert got == outcome(hierarchical_plan, model, cluster, weights, policy)
    assert min(seen.values()) > 0, seen


RELABEL_CHARS = ID_CHARS + ("b", "z", "~", "\x7f")


def relabeled(model: ModelSpec, seed: int) -> ModelSpec:
    """`model` with each id replaced by a distinct other string, drawn from
    `seed`; every table keeps its position and its columns."""
    rng = np.random.default_rng([seed, 26])
    fresh = {}
    while len(fresh) < model.num_tables:
        size = int(rng.integers(1, 7))
        tid = "".join(RELABEL_CHARS[i] for i in rng.integers(len(RELABEL_CHARS), size=size))
        if tid not in model._table_pos:
            fresh[tid] = None
    tables = [replace(t, id=tid) for t, tid in zip(model.tables, fresh)]
    return replace(model, tables=tuple(tables))


def placement_text(plan) -> object:
    """The id-free columns of a plan, or the outcome of a failed call."""
    if isinstance(plan, tuple):
        return plan
    cols = plan.shard_columns
    return tuple(
        getattr(cols, name).tolist() for name in ("kind", "num_shards", "worker", "rows", "cols")
    )


def test_placement_ignores_the_id_text(attempts):
    """Placement reads costs and positions only: relabeling every id of 48
    rank_case models with other strings leaves plan_4d's (greedy and KK,
    memory repair included) and hierarchical_plan's kinds, shard counts,
    workers and bounds, and shrink_to_fit's rows, as they were. Ids that
    continue another below '#', tables of more than 10 row shards, repaired
    placements, infeasible models and shrunk models all occur."""
    seen = dict.fromkeys(("conflict", "over_10_shards", "repaired", "infeasible", "shrunk"), 0)
    for seed in range(48):
        model, cluster, policy, weights = rank_case(seed)
        other = relabeled(model, seed)
        seen["conflict"] += _conflict(model._ids)
        for heuristic in ("greedy", "kk"):
            attempts.append(0)
            got = outcome(planner.plan_4d, model, cluster, weights, policy, heuristic)
            seen["repaired"] += attempts[-1] > 1
            want = outcome(planner.plan_4d, other, cluster, weights, policy, heuristic)
            assert placement_text(got) == placement_text(want)
            if isinstance(got, tuple):
                seen["infeasible"] += 1
            else:
                seen["over_10_shards"] += any(len(a.shards) > 10 for a in got.assignments)
        if cluster.num_nodes > 1:
            got = outcome(planner.hierarchical_plan, model, cluster, weights, policy)
            want = outcome(planner.hierarchical_plan, other, cluster, weights, policy)
            assert placement_text(got) == placement_text(want)
        shrunk = shrink_to_fit(model, cluster, policy.flags)
        rows = shrunk.table_columns.rows.tolist()
        assert rows == shrink_to_fit(other, cluster, policy.flags).table_columns.rows.tolist()
        seen["shrunk"] += shrunk is not model
    assert min(seen.values()) > 0, seen


def test_cores_match_their_public_wrappers():
    """Each positional core, run as the planners run it on items in plan
    order, gives its public function's bins and insertion order on the
    (plan position, cost) items: up to 20 shards a table, costs with many
    ties."""
    for seed in range(32):
        rng = np.random.default_rng([seed, 26])
        counts = rng.integers(1, 21, size=int(rng.integers(2, 40)))
        table = np.repeat(np.arange(len(counts)), counts)
        shard = np.arange(len(table)) - (np.cumsum(counts) - counts)[table]
        keys = list(zip(table.tolist(), shard.tolist()))
        cost = np.array([0.0, 0.5, 1.0, 1.0, 3.0, 2.0**53])[rng.integers(6, size=len(keys))]
        items = list(zip(keys, cost.tolist()))
        for k in (1, 2, 3, 16):
            order = np.argsort(-cost, kind="stable")
            bins = planner._greedy_bins(cost[order].tolist(), k)
            got = list(zip([keys[j] for j in order], bins))
            assert got == list(greedy_partition(items, k).items())
            seqs, bins = planner._kk_bins(cost.tolist(), k)
            got = dict(zip([keys[j] for j in seqs], bins))
            want = karmarkar_karp_partition(items, k)
            assert got == want
            if k > 1:  # k = 1 lists the items in their given order
                assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("heuristic", ["greedy", "kk"])
@pytest.mark.parametrize(
    "ids", [("a", "a!"), ("a", "a\x00"), ("a", "a "), ("t1", "t1#"), ("a", "a#0"), ("a", "a0")]
)
def test_a_tie_goes_to_the_earlier_table(heuristic, ids):
    """Of two tables of equal cost on two workers, the earlier in the model
    takes worker 0, in either order of the ids, whichever "<id>#0" sorts
    first."""
    for order in (ids, ids[::-1]):
        tables = [TableSpec(id=tid, num_rows=100, dim=8, avg_pooling=2.0) for tid in order]
        model = desk_model(tables)
        cluster = _cluster(1, 2, 2**30, 2**30)
        policy = CandidatePolicy(dp_threshold_bytes=0)
        plan = planner.plan_4d(model, cluster, CostWeights(), policy, heuristic)
        assert plan == plan_4d(model, cluster, CostWeights(), policy, heuristic)
        assert [a.shards[0].worker for a in plan.assignments] == [0, 1]


def test_non_finite_costs_name_the_item_in_plan_order():
    """A weight that takes one table's objective past the float range
    raises InvalidValue at that item's position in plan order, as the
    oracle's partition does: item 1, table t1's shard, in plan_4d and in
    hierarchical_plan's node split."""
    tables = [
        TableSpec(id="t0", num_rows=8, dim=4, avg_pooling=1.0),
        TableSpec(id="t1", num_rows=8, dim=128, avg_pooling=1.0),
    ]
    model = desk_model(tables)
    cluster = _cluster(2, 2, 2**30, 2**30)
    policy = CandidatePolicy(dp_threshold_bytes=0)
    comm = CandidateColumns.table_wise(model, cluster, policy.flags).comm_bytes
    # w_comm x comm passes the float range for t1 only
    weights = CostWeights(w_comm=float(np.finfo(float).max) / comm[1] * 1.5)
    error = ("InvalidValue", "invalid value at items[1]: expected a finite cost")
    with np.errstate(over="ignore"):
        for heuristic in ("greedy", "kk"):
            got = outcome(planner.plan_4d, model, cluster, weights, policy, heuristic)
            assert got == outcome(plan_4d, model, cluster, weights, policy, heuristic) == error
        got = outcome(planner.hierarchical_plan, model, cluster, weights, policy)
        assert got == outcome(hierarchical_plan, model, cluster, weights, policy) == error
