"""Input redistribution semantics, collective volume models and the
simulated multi-worker training step.

Collectives are executed in-process with deterministic scheduling: this
module owns the data movement and per-worker volumes, latency belongs to the
performance model. Pooled AlltoAll send volumes exclude a worker's own slice
(self-traffic is free under per-link accounting). Row-wise reduction volumes
also record the share of each worker's send that stays on the scale-up
fabric, which the performance model charges there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .embedding import (
    EmbeddingTable,
    OptimizerConfig,
    OptimizerKind,
    RowGradients,
    apply_optimizer,
    backward_sort_aggregate,
    build_tables,
    forward_pooled,
    merge_row_gradients,
    storage_roundtrip,
)
from .errors import IndexOutOfRange, InvalidValue, LayoutMismatch
from .model import CombinedBatch, ModelSpec, Precision, PRECISION_BYTES
from .planner import (
    CW,
    DP,
    RW,
    TW,
    Shard,
    ShardingPlan,
    SchemeKind,
    validate_plan,
)

LENGTH_BYTES = 8  # lengths travel as int64 in the metadata phase


class CollectiveKind(str, Enum):
    ALLTOALL = "alltoall"
    ALLREDUCE = "allreduce"
    REDUCE_SCATTER = "reduce_scatter"
    MANY_TO_MANY = "many_to_many"


@dataclass(frozen=True)
class CollectiveVolume:
    """Per-worker send bytes for one logical collective.

    payload_elem_bytes records the element width the payload was computed at
    (None for raw-byte payloads); metadata_bytes is the lengths phase, which
    quantization never scales. scaleup_bytes is the part of each worker's
    send that stays on the scale-up fabric (hierarchical row-wise shards);
    only row-wise reduction volumes carry it, and to_dict leaves it out.
    """

    kind: CollectiveKind
    label: str
    per_worker_send_bytes: tuple[float, ...]
    message_count: int
    payload_elem_bytes: Optional[int] = None
    direction: Optional[str] = None  # "fwd" | "bwd" | None
    metadata_bytes: tuple[float, ...] = ()
    scaleup_bytes: tuple[float, ...] = ()

    def __post_init__(self):
        if any(b < 0 for b in self.per_worker_send_bytes):
            raise InvalidValue("per_worker_send_bytes", "must be >= 0")
        if self.kind is CollectiveKind.ALLREDUCE and self.per_worker_send_bytes:
            first = self.per_worker_send_bytes[0]
            if any(b != first for b in self.per_worker_send_bytes):
                raise InvalidValue(
                    "per_worker_send_bytes", "AllReduce volume must match across workers"
                )

    @property
    def total_bytes(self) -> float:
        return sum(self.per_worker_send_bytes)

    @property
    def max_bytes(self) -> float:
        return max(self.per_worker_send_bytes, default=0.0)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "label": self.label,
            "per_worker_send_bytes": list(self.per_worker_send_bytes),
            "message_count": self.message_count,
            "metadata_bytes": list(self.metadata_bytes),
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
    indices is preserved within each bucket.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if int(lengths.sum()) != len(indices):
        raise LayoutMismatch("lengths do not cover the index buffer")
    pos = 0
    for a, b in boundaries:
        if a != pos or b <= a:
            raise InvalidValue("boundaries", "must tile [0, H) in order")
        pos = b
    if len(indices) and (indices.min() < 0 or indices.max() >= pos):
        bad = indices[(indices < 0) | (indices >= pos)][0]
        raise IndexOutOfRange(table_id, int(bad))
    starts = np.array([a for a, _ in boundaries], dtype=np.int64)
    ends = np.array([b for _, b in boundaries], dtype=np.int64)
    shard_of = np.searchsorted(ends, indices, side="right")
    sample_ids = np.repeat(np.arange(len(lengths)), lengths)
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
    data-parallel table, whose single shard is replicated, it is the index
    of the worker's replica.
    """

    table_id: str
    shard: Shard
    position: int
    lengths: np.ndarray
    indices: np.ndarray


@dataclass
class WorkerSlice:
    worker: int
    inputs: list[ShardInput] = field(default_factory=list)


def alltoall_redistribute(
    laidout: LaidOutBatch, plan: ShardingPlan, model: ModelSpec
) -> list[WorkerSlice]:
    """Two-phase exchange: lengths first, then variable-size indices.

    Every worker ends up with the full global batch for each of its local
    table shards, received worker-major and permuted table-major; row-wise
    shards receive bucketized shard-local indices, column shards identical
    replicas, data-parallel tables keep their local slice.
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
    for t, table in enumerate(model.tables):
        assignment = plan.assignment_for(table.id)
        kind = assignment.scheme.kind
        shards = assignment.shards
        if kind is SchemeKind.DATA_PARALLEL:
            for v in range(W):
                lens, idx = block(v, t)
                slices[v].inputs.append(
                    ShardInput(table.id, shards[0], v, lens.copy(), idx.copy())
                )
            continue
        if kind is SchemeKind.ROW_WISE:
            # bucketize routes by row order; the shard list may hold any order
            order = sorted(range(len(shards)), key=lambda i: shards[i].rows)
            bounds = [shards[i].rows for i in order]
            received: list[list] = [[] for _ in shards]
            # phase 1+2 per source worker: bucketize locally, send to shard owners
            for w in range(W):
                lens, idx = block(w, t)
                parts = bucketize_rowwise(lens, idx, bounds, table.id)
                for i, part in zip(order, parts):
                    received[i].append(part)
            for i, (shard, parts) in enumerate(zip(shards, received)):
                lens = np.concatenate([p[0] for p in parts])
                idx = np.concatenate([p[1] for p in parts])
                slices[shard.worker].inputs.append(
                    ShardInput(table.id, shard, i, lens, idx)
                )
            continue
        # TABLE_WISE and COLUMN_WISE receive the raw global stream; column
        # shards each get a full replica of the indices.
        lens = lengths_mat[:, t].reshape(-1)
        idx = np.concatenate([block(w, t)[1] for w in range(W)])
        for i, shard in enumerate(shards):
            slices[shard.worker].inputs.append(ShardInput(table.id, shard, i, lens, idx))
    return slices


# ---------------------------------------------------------------------------
# collective volume models


# Pooled embeddings travel as activations: 4-byte elements unless the caller
# overrides or quantized_volume rescales. Table storage precision only
# affects parameter traffic (DP gradient AllReduce) and memory reads.
ACTIVATION_BYTES = PRECISION_BYTES[Precision.FP32]


def volume_forward_alltoall(
    plan: ShardingPlan,
    model: ModelSpec,
    num_workers: int,
    elem_bytes: Optional[int] = None,
) -> CollectiveVolume:
    """Pooled-output exchange: each worker sends its local TW/CW shard rows
    destined to other workers, D_shard x (global - local) x elem bytes."""
    elem = ACTIVATION_BYTES if elem_bytes is None else elem_bytes
    global_batch = model.local_batch * num_workers
    remote = global_batch - model.local_batch
    cols = plan.shard_columns
    width = cols.extents("cols", model.table_columns.dim[cols.tables(model)])
    pooled = (cols.kind == TW) | (cols.kind == CW)
    send = cols.per_worker(
        np.where(pooled, width * float(remote) * elem, 0.0), num_workers
    )
    return CollectiveVolume(
        kind=CollectiveKind.ALLTOALL,
        label="pooled_a2a_fwd",
        per_worker_send_bytes=tuple(send.tolist()),
        message_count=1,
        payload_elem_bytes=elem,
        direction="fwd",
    )


def volume_gradient_collectives(
    plan: ShardingPlan,
    model: ModelSpec,
    num_workers: int,
    elem_bytes: Optional[int] = None,
    forward: Optional[CollectiveVolume] = None,
) -> list[CollectiveVolume]:
    """Backward-path collectives plus the row-wise forward ReduceScatter.

    The backward pooled AlltoAll mirrors the forward volume, which callers
    that already hold it (computed at the same elem_bytes) pass as
    `forward`; DP tables and dense parameters synchronize with ring
    AllReduce at 2(W-1)/W x bytes.
    """
    global_batch = model.local_batch * num_workers
    elem = ACTIVATION_BYTES if elem_bytes is None else elem_bytes
    fwd = forward
    if fwd is None:
        fwd = volume_forward_alltoall(plan, model, num_workers, elem_bytes)
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
    # The gather mirrors the ReduceScatter; hierarchical row shards reduce
    # inside one node, so their bytes also count in scaleup.
    cols = plan.shard_columns
    t = cols.tables(model)
    k = cols.num_shards
    rw = cols.kind == RW
    per_shard = (k - 1) / k * global_batch * model.table_columns.dim[t] * elem
    rs = cols.per_worker(np.where(rw, per_shard, 0.0), num_workers)
    scaleup = cols.per_worker(
        np.where(rw & cols.hierarchical, per_shard, 0.0), num_workers
    )
    has_rw = bool(rw.any())
    dp_bytes = 0.0
    for i in t[cols.kind == DP].tolist():
        # parameter gradients synchronize at the table's storage width
        table = model.tables[i]
        dp_bytes += (
            2 * (num_workers - 1) / num_workers
            * table.num_params
            * table.elem_bytes
        )
    if has_rw:
        send, scaleup = tuple(rs.tolist()), tuple(scaleup.tolist())
        for collective, label, direction in (
            (CollectiveKind.REDUCE_SCATTER, "rw_reduce_scatter_fwd", "fwd"),
            (CollectiveKind.MANY_TO_MANY, "rw_gather_bwd", "bwd"),
        ):
            out.append(
                CollectiveVolume(
                    kind=collective,
                    label=label,
                    per_worker_send_bytes=send,
                    message_count=1,
                    payload_elem_bytes=elem,
                    direction=direction,
                    scaleup_bytes=scaleup,
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
    return CollectiveVolume(
        kind=CollectiveKind.ALLTOALL,
        label="input_a2a",
        per_worker_send_bytes=tuple(send.tolist()),
        message_count=2,  # lengths phase + indices phase
        payload_elem_bytes=None,  # integer ids, not quantizable
        direction=None,
        metadata_bytes=tuple(meta.astype(np.float64).tolist()),
    )


def quantized_volume(
    volume: CollectiveVolume,
    fwd_precision: Precision,
    bwd_precision: Precision,
) -> CollectiveVolume:
    """Scale payload bytes by target/stored element width; metadata and
    direction-less payloads are untouched."""
    if volume.payload_elem_bytes is None or volume.direction is None:
        return volume
    target = fwd_precision if volume.direction == "fwd" else bwd_precision
    ratio = PRECISION_BYTES[target] / volume.payload_elem_bytes
    return CollectiveVolume(
        kind=volume.kind,
        label=volume.label,
        per_worker_send_bytes=tuple(b * ratio for b in volume.per_worker_send_bytes),
        message_count=volume.message_count,
        payload_elem_bytes=PRECISION_BYTES[target],
        direction=volume.direction,
        metadata_bytes=volume.metadata_bytes,
        scaleup_bytes=tuple(b * ratio for b in volume.scaleup_bytes),
    )


# ---------------------------------------------------------------------------
# sharded training step


@dataclass
class ShardedState:
    """Post-step parameter state: placed shards plus DP replicas per worker."""

    shards: dict[tuple[str, int], EmbeddingTable]
    dp_replicas: dict[str, list[EmbeddingTable]]


def _slice_table(
    full: EmbeddingTable, shard: Shard, cfg: OptimizerConfig
) -> EmbeddingTable:
    r0, r1 = shard.rows if shard.rows else (0, full.num_rows)
    c0, c1 = shard.cols if shard.cols else (0, full.dim)
    values = full.values[r0:r1, c0:c1].copy()
    if cfg.kind is OptimizerKind.SGD:
        moment = None
    elif cfg.kind is OptimizerKind.ROWWISE_ADAGRAD:
        # a column shard keeps an independent moment scalar per (row, shard)
        moment = np.zeros(r1 - r0, dtype=np.float64)
    else:
        moment = np.zeros((r1 - r0, c1 - c0), dtype=np.float64)
    return EmbeddingTable(full.spec, values, moment, row_base=r0, col_base=c0)


def _row_gradients(si: ShardInput, dim: int) -> RowGradients:
    # the sum-of-outputs loss sends an upstream gradient of ones
    upstream = np.ones((len(si.lengths), dim), dtype=np.float64)
    return backward_sort_aggregate(si.lengths, si.indices, upstream)


def train_step_sharded(
    model: ModelSpec,
    plan: ShardingPlan,
    batch: CombinedBatch,
    cfg: OptimizerConfig,
    seed: int = 0,
    zero_init: bool = False,
) -> tuple[np.ndarray, ShardedState]:
    """Execute one iteration across W logical workers, deterministically.

    Redistribute, then run each table end to end: slice its shards (or W
    data-parallel replicas), pool each over its received input, assemble the
    pooled output (AlltoAll for TW/CW, ReduceScatter for RW, worker-local
    rows for DP), backpropagate and apply the sparse update (after the
    gradient AllReduce for DP). A table reads only its own shards, so this
    equals running every forward first. Outputs match
    train_step_reference's shape.
    """
    validate_plan(plan, model)
    batch.validate_against(model)
    W = plan.num_workers
    if batch.num_samples % W:
        raise LayoutMismatch("global batch must split evenly across workers")
    n = batch.num_samples
    full_tables = build_tables(model, cfg, seed, zero_init=zero_init)
    slices = alltoall_redistribute(to_wtb(batch, W), plan, model)
    inputs = {(si.table_id, si.position): si for ws in slices for si in ws.inputs}
    state = ShardedState(shards={}, dp_replicas={})
    outputs = []
    for table, full in zip(model.tables, full_tables):
        assignment = plan.assignment_for(table.id)
        kind = assignment.scheme.kind
        if kind is SchemeKind.DATA_PARALLEL:
            replicas = [_slice_table(full, assignment.shards[0], cfg) for _ in range(W)]
            state.dp_replicas[table.id] = replicas
            local = [inputs[(table.id, w)] for w in range(W)]
            pooled = [
                forward_pooled(r, si.lengths, si.indices) for r, si in zip(replicas, local)
            ]
            outputs.append(np.vstack(pooled))
            # gradient AllReduce: parts merge in worker order
            merged = merge_row_gradients(
                [_row_gradients(si, table.dim) for si in local], table.dim
            )
            for replica in replicas:
                apply_optimizer(replica, merged, cfg)
                storage_roundtrip(replica)
            continue
        out = np.zeros((n, table.dim), dtype=np.float64)
        for i, shard in enumerate(assignment.shards):
            piece = _slice_table(full, shard, cfg)
            state.shards[(table.id, i)] = piece
            si = inputs[(table.id, i)]
            pooled = forward_pooled(piece, si.lengths, si.indices)
            if kind is SchemeKind.ROW_WISE:
                out += pooled  # partial pools reduce in shard-list order
            else:
                c0, c1 = shard.cols or (0, table.dim)
                out[:, c0:c1] = pooled
            apply_optimizer(piece, _row_gradients(si, piece.dim), cfg)
            storage_roundtrip(piece)
        outputs.append(out)

    stacked = np.concatenate(outputs, axis=1) if outputs else np.zeros((n, 0))
    return stacked, state


def reassemble_values(
    model: ModelSpec, plan: ShardingPlan, state: ShardedState
) -> list[np.ndarray]:
    """Stitch post-step shard values back into full (H, D) matrices; DP
    tables come from replica 0 (replicas are identical by construction)."""
    out = []
    for table in model.tables:
        assignment = plan.assignment_for(table.id)
        if assignment.scheme.kind is SchemeKind.DATA_PARALLEL:
            out.append(state.dp_replicas[table.id][0].values.copy())
            continue
        full = np.zeros((table.num_rows, table.dim), dtype=np.float64)
        for i, shard in enumerate(assignment.shards):
            st = state.shards[(table.id, i)]
            r0, r1 = shard.rows if shard.rows else (0, table.num_rows)
            c0, c1 = shard.cols if shard.cols else (0, table.dim)
            full[r0:r1, c0:c1] = st.values
        out.append(full)
    return out
