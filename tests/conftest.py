import dataclasses
import heapq
import struct
from typing import IO, Sequence

import numpy as np

from neosim import (
    CandidatePolicy,
    ClusterSpec,
    CompressionFlags,
    CostWeights,
    EmbeddingTable,
    MalformedDocument,
    ModelSpec,
    Precision,
    ShardingPlan,
    TableSpec,
    hierarchical_plan,
    plan_4d,
)
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.embedding import (
    _MAGIC,
    RowGradients,
    _check_ids,
    _checked_input,
    _pool,
    _sum_rows,
    _upstream_rows,
)
from neosim.perf import shrink_to_fit


def pytest_assertrepr_compare(config, op, left, right):
    """The explanation of a failing == between two ModelSpecs or two
    ShardingPlans: their table or assignment counts and the first differing
    table or assignment, and its first differing field. pytest would
    otherwise diff their one-line reprs character by character, which at
    the bundled models' size runs for minutes. No assertion changes."""
    if op != "==" or type(left) is not type(right):
        return None
    if isinstance(left, ModelSpec):
        return _first_difference(left, right, "tables", "id")
    if isinstance(left, ShardingPlan):
        return _first_difference(left, right, "assignments", "table_id")
    return None


def _first_difference(left, right, items: str, name: str) -> list[str]:
    """Lines naming the counts of `items` in two dataclasses of one type,
    then the first compared field in which they differ: for `items`, the
    first differing item (by its `name` field) and the item's first
    differing field, or one element of that field where it is a tuple."""
    a, b = getattr(left, items), getattr(right, items)
    lines = [f"{type(left).__name__}s differ: {len(a)} vs {len(b)} {items}"]
    for f in dataclasses.fields(left):
        x, y = getattr(left, f.name), getattr(right, f.name)
        if not f.compare or x == y:
            continue
        if f.name != items:
            lines.append(f"{f.name}: {x!r} != {y!r}")
            break
        i = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), None)
        if i is None:  # one is a prefix of the other
            extra = (a if len(a) > len(b) else b)[min(len(a), len(b))]
            lines.append(f"{items}[{min(len(a), len(b))}] only on one side: {getattr(extra, name)!r}")
            break
        p, q = a[i], b[i]
        field = next(g.name for g in dataclasses.fields(p) if getattr(p, g.name) != getattr(q, g.name))
        u, v = getattr(p, field), getattr(q, field)
        where = f"{items}[{i}] ({name} {getattr(p, name)!r}).{field}"
        if isinstance(u, tuple) and isinstance(v, tuple) and len(u) == len(v):
            j = next(j for j, (s, t) in enumerate(zip(u, v)) if s != t)
            where, u, v = f"{where}[{j}]", u[j], v[j]
        lines.append(f"{where}: {u!r} != {v!r}")
        break
    return lines


def desk_cluster(
    workers: int = 4,
    gpus_per_node: int = None,
    hbm: int = 16 * 2**30,
    dram_per_node: int = 0,
) -> ClusterSpec:
    gpn = workers if gpus_per_node is None else gpus_per_node
    assert workers % gpn == 0
    return ClusterSpec(
        num_nodes=workers // gpn,
        gpus_per_node=gpn,
        hbm_capacity_per_gpu=hbm,
        hbm_bw=1.3e12,
        dram_capacity_per_node=dram_per_node if dram_per_node else 64 * 2**30,
        dram_to_gpu_bw=26e9,
        scaleup_bw=300e9,
        scaleout_bw_per_gpu=25e9,
        peak_flops={"FP32": 19.5e12, "TF32": 156e12, "FP16": 312e12, "BF16": 312e12},
        mlp_efficiency=0.705,
        alltoall_bw_points=(
            (1048576.0, 8e8),
            (8388608.0, 2.5e9),
            (67108864.0, 5e9),
            (268435456.0, 7e9),
        ),
        allreduce_bw_points=(
            (8388608.0, 1.5e10),
            (268435456.0, 6e10),
            (4294967296.0, 1.4e11),
        ),
        fixed_latency_per_collective=2e-5,
    )


def desk_model(tables, local_batch=4, **kwargs) -> ModelSpec:
    defaults = dict(
        bottom_mlp_layers=(),
        top_mlp_layers=(),
        mflops_per_sample=1.0,
        interaction_flops_per_sample=0.0,
        dense_param_bytes=0,
    )
    defaults.update(kwargs)
    return ModelSpec(tables=tuple(tables), local_batch=local_batch, **defaults)


def index_bytes(num_rows: int) -> int:
    """Bytes per row id of a table of `num_rows` rows: int32 up to 2**31
    rows, else int64."""
    return 4 if num_rows <= 2**31 else 8


def random_desk_model(rng: np.random.Generator, max_tables=8, max_batch=4):
    num_tables = int(rng.integers(1, max_tables + 1))
    tables = [
        TableSpec(
            id=f"t{i}",
            num_rows=int(rng.integers(6, 40)),
            dim=int(rng.integers(1, 3)) * 2,
            avg_pooling=float(rng.uniform(1.0, 4.0)),
        )
        for i in range(num_tables)
    ]
    return desk_model(tables, local_batch=int(rng.integers(1, max_batch + 1)))


def mixed_desk_case():
    """(model, cluster, policy) on which plan_4d uses all four schemes.

    Eight tables on 2 nodes x 4 GPUs with 2 MiB HBM: three tiny tables go
    data-parallel, two outgrow a device, and fine grain offers column splits.
    """
    shapes = (
        # (rows, dim, pooling)
        (4, 4, 30.0),
        (6, 2, 40.0),
        (5000, 16, 8.0),
        (20000, 32, 12.0),
        (300, 4, 1.5),
        (20000, 64, 20.0),
        (3, 2, 50.0),
        (1200, 8, 4.0),
    )
    tables = [
        TableSpec(id=f"t{i}", num_rows=h, dim=d, avg_pooling=L)
        for i, (h, d, L) in enumerate(shapes)
    ]
    model = desk_model(tables, local_batch=8, dense_param_bytes=4096)
    cluster = desk_cluster(8, gpus_per_node=4, hbm=2**21, dram_per_node=2**22)
    policy = CandidatePolicy(
        dp_threshold_bytes=4096,
        fine_grain=True,
        flags=CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=False),
    )
    return model, cluster, policy


def bundled_plans(flags):
    """(model, cluster, plan) of every plan kind the benchmark writes, up to
    8000 shards: model_a shrunk to fit 1 to 16 nodes under greedy, KK and
    hierarchical placement; model_f greedy, KK and fine-grained; model_i
    greedy, KK and hierarchical; each planned under `flags`."""
    cluster = load_bundled_cluster()
    cases = []
    for nodes in (1, 2, 4, 8, 16):
        at = dataclasses.replace(cluster, num_nodes=nodes)
        shrunk = shrink_to_fit(load_bundled_model("model_a"), at, flags)
        cases += [(shrunk, at, h, False) for h in ("greedy", "kk", "hierarchical")]
    model_f, model_i = load_bundled_model("model_f"), load_bundled_model("model_i")
    cases += [(model_f, cluster, "greedy", False), (model_f, cluster, "kk", False)]
    cases += [(model_f, cluster, "greedy", True)]
    cases += [(model_i, cluster, h, False) for h in ("greedy", "kk", "hierarchical")]
    plans = []
    for model, at, heuristic, fine_grain in cases:
        policy = CandidatePolicy(fine_grain=fine_grain, flags=flags)
        if heuristic == "hierarchical":
            plan = hierarchical_plan(model, at, CostWeights(), policy)
        else:
            plan = plan_4d(model, at, CostWeights(), policy, heuristic=heuristic)
        plans.append((model, at, plan))
    return plans


def list_greedy_partition(items, k):
    """greedy_partition as it was before it ran on a positional core: the
    (id, cost) items sorted by (-cost, id), one heap of (float sum, bin), an
    {id: bin} dict filled in placement order. The oracle for its bins and
    their order."""
    order = sorted(items, key=lambda it: (-it[1], it[0]))
    sums = [0.0] * k
    assign = {}
    for i, (item_id, cost) in enumerate(order[:k]):
        assign[item_id] = i
        sums[i] += cost
    heap = [(total, j) for j, total in enumerate(sums)]
    heapq.heapify(heap)
    for item_id, cost in order[k:]:
        total, bin_idx = heap[0]
        assign[item_id] = bin_idx
        heapq.heapreplace(heap, (total + cost, bin_idx))
    return assign


VOLUME_BYTES = ("per_worker_send_bytes", "metadata_bytes", "scaleup_bytes")


def assert_volumes_equal(got, want) -> None:
    """Two sequences of CollectiveVolumes hold the same fields, in order, and
    every byte field of `got` is a read-only float64 array."""

    def fields(v):
        arrays = (getattr(v, f).tolist() for f in VOLUME_BYTES)
        return (v.kind, v.label, v.message_count, *arrays)

    for v in got:
        for f in VOLUME_BYTES:
            array = getattr(v, f)
            assert array.dtype == np.float64 and not array.flags.writeable, (v.label, f)
    assert [fields(v) for v in got] == [fields(v) for v in want]


# reads what `verify --dump-tables` writes (embedding.dump_table)
def load_table(spec: TableSpec, fh: IO[bytes]) -> EmbeddingTable:
    magic = fh.read(4)
    if magic != _MAGIC:
        raise MalformedDocument("bad table checkpoint magic")
    rows, dim, prec_code, moment_code = struct.unpack("<QQBB", fh.read(18))
    values = np.frombuffer(fh.read(rows * dim * 8), dtype=np.float64).reshape(rows, dim)
    if moment_code == 0:
        moment = None
    elif moment_code == 1:
        moment = np.frombuffer(fh.read(rows * 8), dtype=np.float64)
    else:
        moment = np.frombuffer(fh.read(rows * dim * 8), dtype=np.float64).reshape(
            rows, dim
        )
    return EmbeddingTable(spec, values.copy(), None if moment is None else moment.copy())


# The training step's aggregation under a general upstream, as
# embedding._train_piece ran it before it counted lookups: the oracle of
# the count gradient and of the data-parallel merge.
def pool_and_aggregate(
    table: EmbeddingTable, parts: Sequence[tuple], upstream: np.ndarray
) -> tuple[np.ndarray, RowGradients]:
    """Pool the (lengths, indices) of `parts` from one table, stacked in
    order, and sum each part's gradients (upstream: a row per stacked
    sample), merged in part order as a data-parallel AllReduce adds them.
    One part gives forward_pooled and backward_sort_aggregate, checked once."""
    lengths, indices = (np.concatenate(column) for column in zip(*parts))
    batch = _checked_input(lengths, indices, table.num_rows, table.spec.id)
    pooled, grads = _pool(table.values, *batch[:2]), _upstream_rows(batch, upstream)
    ends = np.array([len(i) for _, i in parts]).cumsum().tolist()
    sums = [_sum_rows(batch[1][a:b], grads[a:b], table.num_rows) for a, b in zip([0, *ends], ends)]
    # merging one part's sums is a no-op: they never hold -0.0
    merged = sums[0] if len(sums) == 1 else merge_row_gradients(sums, *table.values.shape)
    return pooled, merged


def merge_row_gradients(
    parts: Sequence[RowGradients], num_rows: int, dim: int
) -> RowGradients:
    """Sum per-row gradients across partial results (e.g. DP replicas) of a
    table of num_rows rows; each row's parts are added in the order given."""
    ids = np.concatenate([np.empty(0, np.int64), *(p.ids for p in parts)])
    _check_ids(ids, num_rows, "")
    grads = np.concatenate([np.zeros((0, dim)), *(p.grads for p in parts)])
    return _sum_rows(ids, grads, num_rows)
