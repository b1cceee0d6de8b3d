"""Input redistribution semantics, collective volume models and the
simulated multi-worker training step.

Collectives are executed in-process with deterministic scheduling: this
module owns the data movement and the bytes each worker sends, latency
belongs to the performance model. collective_volumes composes one
iteration's volumes, each built once at the width it travels at: pooled
embeddings, their gradients and row-wise partial pools at their direction's
AlltoAll precision. The lengths phase and the index payloads have no such
width, and DP gradients travel at the model spec's value precision. Pooled
AlltoAll send volumes exclude a worker's own slice (self-traffic is free
under per-link accounting). Row-wise reduction volumes also record the
share of each worker's send that stays on the scale-up fabric, which the
performance model charges there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .embedding import (
    EmbeddingTable,
    OptimizerConfig,
    _checked_input,
    _fresh_table,
    _train_piece,
    build_tables,
)
from .errors import InvalidValue, LayoutMismatch
from .model import (
    ACTIVATION_BYTES,
    PRECISION_BYTES,
    CombinedBatch,
    ModelSpec,
    Precision,
    frozen_array,
)
from .planner import (
    CW,
    DP,
    RW,
    TW,
    ShardingPlan,
    validate_plan,
)

LENGTH_BYTES = 8  # lengths travel as int64 in the metadata phase


class CollectiveKind(str, Enum):
    ALLTOALL = "alltoall"
    ALLREDUCE = "allreduce"
    REDUCE_SCATTER = "reduce_scatter"
    MANY_TO_MANY = "many_to_many"


@dataclass(frozen=True, eq=False)
class CollectiveVolume:
    """Per-worker send bytes for one logical collective, at the width its
    payload travels at, as read-only float64 arrays.

    metadata_bytes is the lengths phase of the input AlltoAll. scaleup_bytes
    is the part of each worker's send that stays on the scale-up fabric
    (hierarchical row-wise shards); only row-wise reduction volumes carry
    it, and to_dict leaves it out. A field a volume lacks is empty.
    """

    kind: CollectiveKind
    label: str
    per_worker_send_bytes: np.ndarray
    message_count: int
    metadata_bytes: np.ndarray = ()
    scaleup_bytes: np.ndarray = ()

    def __post_init__(self):
        for name in ("per_worker_send_bytes", "metadata_bytes", "scaleup_bytes"):
            object.__setattr__(self, name, frozen_array(getattr(self, name), np.float64))
        send = self.per_worker_send_bytes
        if (send < 0).any():
            raise InvalidValue("per_worker_send_bytes", "must be >= 0")
        if self.kind is CollectiveKind.ALLREDUCE and (send != send[:1]).any():
            raise InvalidValue(
                "per_worker_send_bytes", "AllReduce volume must match across workers"
            )

    @property
    def max_bytes(self) -> float:
        return float(self.per_worker_send_bytes.max(initial=0.0))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "label": self.label,
            "per_worker_send_bytes": self.per_worker_send_bytes.tolist(),
            "message_count": self.message_count,
            "metadata_bytes": self.metadata_bytes.tolist(),
        }


# ---------------------------------------------------------------------------
# bucketize and wire layout


def bucketize_rowwise(
    lengths: np.ndarray,
    indices: np.ndarray,
    boundaries: Sequence[tuple[int, int]],
    table_id: str = "",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Route each index to the row shard containing it, rebased to the shard.

    Per-sample lengths are recomputed per shard; the original order of
    indices is preserved within each bucket. The boundaries are checked
    first, then the batch as every pooling kernel checks it.
    """
    pos = 0
    for a, b in boundaries:
        if a != pos or b <= a:
            raise InvalidValue("boundaries", "must tile [0, H) in order")
        pos = b
    lengths, indices, sample_ids = _checked_input(lengths, indices, pos, table_id)
    starts = np.array([a for a, _ in boundaries], dtype=np.int64)
    ends = np.array([b for _, b in boundaries], dtype=np.int64)
    shard_of = np.searchsorted(ends, indices, side="right")
    out = []
    for s in range(len(boundaries)):
        mask = shard_of == s
        shard_lengths = np.bincount(
            sample_ids[mask], minlength=len(lengths)
        ).astype(np.int64)
        out.append((shard_lengths, indices[mask] - starts[s]))
    return out


@dataclass(frozen=True)
class LaidOutBatch:
    """A flattened global batch in (W, T, B) wire order: block (w, t) holds
    worker w's local-batch lengths and index chunk for table t."""

    workers: int
    tables: int
    local_batch: int
    lengths: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("workers", "tables", "local_batch"):
            if getattr(self, name) < 0:
                raise InvalidValue(name, "must be >= 0")
        expected = self.workers * self.tables * self.local_batch
        if len(self.lengths) != expected:
            raise LayoutMismatch(
                f"expected {expected} length entries, got {len(self.lengths)}"
            )
        if int(np.sum(self.lengths)) != len(self.indices):
            raise LayoutMismatch("lengths do not cover the index buffer")


def to_wtb(batch: CombinedBatch, workers: int) -> LaidOutBatch:
    """Lay a canonical batch out in (W, T, B) wire order.

    Global sample w*B + b is worker w's local sample b.
    """
    if workers < 1 or batch.num_samples % workers:
        raise LayoutMismatch("workers must divide the global sample count")
    T = batch.num_tables
    B = batch.num_samples // workers
    # (lengths, indices, index offset of each worker's first sample) per table
    tables = []
    for t in range(T):
        lens_t, idx_t = batch.table_slice(t)
        offsets = np.concatenate(([0], np.cumsum(lens_t)))
        tables.append((lens_t, idx_t, offsets[np.arange(workers + 1) * B].tolist()))
    lengths_chunks = []
    index_chunks = []
    for w in range(workers):
        for lens_t, idx_t, starts in tables:
            lengths_chunks.append(lens_t[w * B : (w + 1) * B])
            index_chunks.append(idx_t[starts[w] : starts[w + 1]])
    return LaidOutBatch(
        workers,
        T,
        B,
        np.concatenate(lengths_chunks) if lengths_chunks else np.empty(0, np.int64),
        np.concatenate(index_chunks) if index_chunks else np.empty(0, np.int64),
    )


# ---------------------------------------------------------------------------
# redistribution


@dataclass
class ShardInput:
    """Post-redistribution input slice for one shard on one worker.

    position is the shard's index in its assignment's shard list; for a
    data-parallel table, which every worker holds, it is the worker's
    index. The receiving worker is its WorkerSlice's.
    """

    table_id: str
    position: int
    lengths: np.ndarray
    indices: np.ndarray


@dataclass
class WorkerSlice:
    worker: int
    inputs: list[ShardInput] = field(default_factory=list)


def _table_shards(plan: ShardingPlan, model: ModelSpec) -> list[tuple]:
    """Per model table, in model order, from the plan's shard columns: the
    kind code of its assignment and, per shard in plan order, its worker and
    its (start, end) row and column bounds, a bound the shard lacks resolved
    to the table's extent. An assignment without shards places nothing, so
    its kind reads TW. A table the plan does not assign raises KeyError."""
    cols = plan.shard_columns
    first: dict[str, int] = {}  # table id -> its first assignment
    for i, table_id in enumerate(cols.table_ids):
        first.setdefault(table_id, i)
    ends = cols.ends().tolist()
    kind, worker = cols.kind.tolist(), cols.worker.tolist()
    rows, has_rows = cols.rows.tolist(), cols.has_rows.tolist()
    width, has_cols = cols.cols.tolist(), cols.has_cols.tolist()
    out = []
    for table in model.tables:
        i = first[table.id]
        span = range(ends[i - 1] if i else 0, ends[i])
        out.append(
            (
                kind[span.start] if span else TW,
                [worker[s] for s in span],
                [tuple(rows[s]) if has_rows[s] else (0, table.num_rows) for s in span],
                [tuple(width[s]) if has_cols[s] else (0, table.dim) for s in span],
            )
        )
    return out


def alltoall_redistribute(
    laidout: LaidOutBatch, plan: ShardingPlan, model: ModelSpec
) -> list[WorkerSlice]:
    """Two-phase exchange: lengths first, then variable-size indices.

    Every worker ends up with the full global batch for each of its local
    table shards, received worker-major and permuted table-major; row-wise
    shards receive bucketized shard-local indices, column shards identical
    replicas, data-parallel tables keep their local slice (a view of it).
    """
    if laidout.workers != plan.num_workers or laidout.tables != model.num_tables:
        raise LayoutMismatch("batch layout does not match plan/model")
    W, T, B = laidout.workers, laidout.tables, laidout.local_batch
    lengths_mat = laidout.lengths.reshape(W, T, B)
    block_counts = lengths_mat.sum(axis=2)
    offsets = np.concatenate(([0], np.cumsum(block_counts.reshape(-1))))

    def block(w: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        blk = w * T + t
        return lengths_mat[w, t], laidout.indices[offsets[blk] : offsets[blk + 1]]

    slices = [WorkerSlice(worker=v) for v in range(W)]
    tables = zip(model.tables, _table_shards(plan, model))
    for t, (table, (kind, workers, rows, _)) in enumerate(tables):
        if kind == DP:
            for v in range(W):
                slices[v].inputs.append(ShardInput(table.id, v, *block(v, t)))
            continue
        # the table's global stream, worker-major: TW and CW shards receive
        # it whole, column shards each a full replica of the indices
        lens = lengths_mat[:, t].reshape(-1)
        idx = np.concatenate([block(w, t)[1] for w in range(W)])
        received = [(lens, idx)] * len(workers)
        if kind == RW:
            # Sources bucketize their blocks for the shard owners. Buckets keep
            # stream order and per-sample lengths, so received worker-major
            # they equal one bucketize of the stream, which routes by row
            # order; the shard list may hold any order.
            order = sorted(range(len(rows)), key=rows.__getitem__)
            parts = bucketize_rowwise(lens, idx, [rows[i] for i in order], table.id)
            for i, part in zip(order, parts):
                received[i] = part
        for i, w in enumerate(workers):
            slices[w].inputs.append(ShardInput(table.id, i, *received[i]))
    return slices


# ---------------------------------------------------------------------------
# collective volume models


def _pooled_elements(
    plan: ShardingPlan, model: ModelSpec, num_workers: int
) -> np.ndarray:
    """Per-worker elements of the pooled AlltoAll, in either direction: each
    worker sends its local TW/CW shard rows destined to other workers,
    D_shard x (global - local)."""
    global_batch = model.local_batch * num_workers
    remote = global_batch - model.local_batch
    cols = plan.shard_columns
    width = cols.extents("cols", model.table_columns.dim[cols.tables(model)])
    pooled = (cols.kind == TW) | (cols.kind == CW)
    return cols.per_worker(np.where(pooled, width * float(remote), 0.0), num_workers)


def _pooled_alltoall(label: str, send: np.ndarray) -> CollectiveVolume:
    return CollectiveVolume(CollectiveKind.ALLTOALL, label, send, message_count=1)


def _allreduce(label: str, nbytes: float, num_workers: int) -> CollectiveVolume:
    send = np.full(num_workers, nbytes)  # equal on every worker
    return CollectiveVolume(CollectiveKind.ALLREDUCE, label, send, message_count=1)


def volume_forward_alltoall(
    plan: ShardingPlan, model: ModelSpec, num_workers: int
) -> CollectiveVolume:
    """Pooled-output exchange: the pooled AlltoAll elements at FP32
    activation width."""
    elements = _pooled_elements(plan, model, num_workers)
    return _pooled_alltoall("pooled_a2a_fwd", elements * ACTIVATION_BYTES)


def volume_gradient_collectives(
    plan: ShardingPlan,
    model: ModelSpec,
    num_workers: int,
    fwd_elem_bytes: int = ACTIVATION_BYTES,
    bwd_elem_bytes: int = ACTIVATION_BYTES,
) -> list[CollectiveVolume]:
    """Row-wise partial-pool exchanges, then the gradient AllReduces.

    The row-wise forward ReduceScatter travels at fwd_elem_bytes and the
    backward gather that mirrors it at bwd_elem_bytes; hierarchical row
    shards reduce inside one node, so their bytes also count in
    scaleup_bytes. DP tables and dense parameters synchronize with ring
    AllReduce at 2(W-1)/W x bytes, DP tables at the value precision of
    the model spec (a forced table precision does not apply).
    """
    global_batch = model.local_batch * num_workers
    cols = plan.shard_columns
    tc = model.table_columns
    t = cols.tables(model)
    k = cols.num_shards
    rw = cols.kind == RW
    per_shard = (k - 1) / k * global_batch * tc.dim[t]
    elements = cols.per_worker(np.where(rw, per_shard, 0.0), num_workers)
    scaleup = cols.per_worker(
        np.where(rw & (cols.hierarchical != 0), per_shard, 0.0), num_workers
    )
    out = []
    if rw.any():
        for kind, label, elem in (
            (CollectiveKind.REDUCE_SCATTER, "rw_reduce_scatter_fwd", fwd_elem_bytes),
            (CollectiveKind.MANY_TO_MANY, "rw_gather_bwd", bwd_elem_bytes),
        ):
            send, on_node = elements * elem, scaleup * elem
            out.append(CollectiveVolume(kind, label, send, 1, scaleup_bytes=on_node))
    dp = t[cols.kind == DP]
    scale = 2 * (num_workers - 1) / num_workers
    dp_terms = scale * (tc.rows[dp] * tc.dim[dp]) * tc.elem_bytes[dp]
    dp_bytes = reduce(add, dp_terms.tolist(), 0.0)  # in plan order
    if dp_bytes > 0:
        out.append(_allreduce("dp_table_allreduce", dp_bytes, num_workers))
    out.append(_allreduce("dense_allreduce", scale * model.dense_param_bytes, num_workers))
    return out


def volume_input_alltoall(
    plan: ShardingPlan, model: ModelSpec, num_workers: int
) -> CollectiveVolume:
    """Two-phase index redistribution volume (expected under uniform skew).

    Payload counts each sender's local-batch indices routed to remote shard
    owners; column shards replicate, row shards take a 1/k split. The lengths
    phase rides in metadata_bytes. Every worker sends each shard's payload
    unless it owns the shard, so worker w sends the total payload less the
    payload of its own shards.
    """
    B = model.local_batch
    cols = plan.shard_columns
    tc = model.table_columns
    t = cols.tables(model)
    owned_by = cols.kind != DP
    payload = B * tc.pooling[t] * cols.row_share() * tc.index_bytes[t]
    owned = cols.per_worker(np.where(owned_by, payload, 0.0), num_workers)
    # a sum of non-negative terms never rounds below one of them, so send >= 0
    send = owned.sum() - owned
    held = cols.per_worker(owned_by.astype(np.int64), num_workers)
    meta = B * LENGTH_BYTES * (int(owned_by.sum()) - held)
    return CollectiveVolume(  # two messages: the lengths phase, then the indices
        CollectiveKind.ALLTOALL, "input_a2a", send, 2, metadata_bytes=meta
    )


def collective_volumes(
    plan: ShardingPlan,
    model: ModelSpec,
    a2a_fwd_precision: Precision = Precision.FP32,
    a2a_bwd_precision: Precision = Precision.FP32,
) -> list[CollectiveVolume]:
    """Every collective of one iteration, each built once at its wire width:
    the pooled AlltoAll forward and backward, the gradient-path collectives,
    then the input AlltoAll. Pooled and row-wise volumes travel at their
    direction's AlltoAll precision; the input, DP and dense volumes do not
    depend on it."""
    W = plan.num_workers
    fwd = PRECISION_BYTES[a2a_fwd_precision]
    bwd = PRECISION_BYTES[a2a_bwd_precision]
    elements = _pooled_elements(plan, model, W)
    return [
        _pooled_alltoall("pooled_a2a_fwd", elements * fwd),
        _pooled_alltoall("pooled_a2a_bwd", elements * bwd),
        *volume_gradient_collectives(plan, model, W, fwd, bwd),
        volume_input_alltoall(plan, model, W),
    ]


# ---------------------------------------------------------------------------
# sharded training step


@dataclass
class ShardedState:
    """Post-step state, each table held once: placed shards, views of their
    drawn table, and data-parallel tables, the drawn table itself."""

    shards: dict[tuple[str, int], EmbeddingTable]
    dp_tables: dict[str, EmbeddingTable]


def _slice_table(
    full: EmbeddingTable,
    rows: tuple[int, int],
    cols: tuple[int, int],
    cfg: OptimizerConfig,
) -> EmbeddingTable:
    """A view of `full` at rows x cols, so updates write into `full`. Its
    moment is its own: under row-wise AdaGrad a column shard's is per row."""
    (r0, r1), (c0, c1) = rows, cols
    return _fresh_table(full.spec, full.values[r0:r1, c0:c1], cfg)


def train_step_sharded(
    model: ModelSpec,
    plan: ShardingPlan,
    batch: CombinedBatch,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> tuple[np.ndarray, ShardedState]:
    """Execute one iteration across W logical workers, deterministically.

    Redistribute, then run each table end to end with the reference's
    per-piece step (_train_piece: each row's gradient is its lookup count)
    on inputs checked here, and assemble the pooled output (AlltoAll for
    TW/CW, ReduceScatter for RW, worker-local rows for DP). Shards train
    views of the drawn table and tile it, so no two write one cell; a DP
    table trains once on the W local batches, counts added in worker order
    as the AllReduce adds them. A table reads only its own shards, so this
    equals running every forward first. Outputs match the reference's shape.
    """
    validate_plan(plan, model)
    batch.validate_against(model)
    W = plan.num_workers
    if batch.num_samples % W:
        raise LayoutMismatch("global batch must split evenly across workers")
    n = batch.num_samples
    full_tables = build_tables(model, cfg, seed)
    slices = alltoall_redistribute(to_wtb(batch, W), plan, model)
    inputs = {(s.table_id, s.position): (s.lengths, s.indices) for w in slices for s in w.inputs}
    state = ShardedState(shards={}, dp_tables={})
    outputs = []
    tables = zip(model.tables, full_tables, _table_shards(plan, model))
    for table, full, (kind, _, rows, cols) in tables:
        if kind == DP:
            state.dp_tables[table.id] = full
            parts = [inputs[(table.id, w)] for w in range(W)]
            outputs.append(_train_piece(full, parts, cfg))
            continue
        out = np.zeros((n, table.dim), dtype=np.float64)
        for i, (r, c) in enumerate(zip(rows, cols)):
            piece = _slice_table(full, r, c, cfg)
            state.shards[(table.id, i)] = piece
            pooled = _train_piece(piece, [inputs[(table.id, i)]], cfg)
            if kind == RW:
                out += pooled  # partial pools reduce in shard-list order
            else:
                out[:, c[0] : c[1]] = pooled
        outputs.append(out)

    stacked = np.concatenate(outputs, axis=1) if outputs else np.zeros((n, 0))
    return stacked, state


def reassemble_values(
    model: ModelSpec, plan: ShardingPlan, state: ShardedState
) -> list[np.ndarray]:
    """Stitch post-step shard values back into fresh full (H, D) matrices;
    a DP table's come from its one table."""
    out = []
    for table, (kind, _, rows, cols) in zip(model.tables, _table_shards(plan, model)):
        if kind == DP:
            out.append(state.dp_tables[table.id].values.copy())
            continue
        full = np.zeros((table.num_rows, table.dim), dtype=np.float64)
        for i, ((r0, r1), (c0, c1)) in enumerate(zip(rows, cols)):
            full[r0:r1, c0:c1] = state.shards[(table.id, i)].values
        out.append(full)
    return out
