"""Executable reference semantics for the embedding operator family.

Pooling is SUM over the rows selected by each sample's multi-hot indices.
The fused backward path aggregates duplicate row ids before a single
optimizer application per touched row; applying a non-linear sparse
optimizer once per occurrence instead would corrupt the update. Master
weights are float64; FP16 table storage is emulated by a round trip of the
rows a step touched, at step boundaries. The initial values depend only on
the seed and each table's rows, dim and storage precision; the last draw is
held read-only, and each build_tables call trains a copy of it.

Every sum adds each output cell's terms in buffer order starting from 0.0,
exactly as a scalar loop does, so every result is bit-for-bit reproducible.
Pooling (`_pool`) runs in sample order: one slice add per position over the
samples long enough to reach it, then a seeded cumsum for the few longest.
Per-row aggregation of a general upstream gradient (`_sum_rows`) is one
bincount over the table's (row, column) cells, with no sort. Reductions
such as np.add.reduceat are not usable: numpy's reduction loop reassociates.
The training step backpropagates the sum of all pooled outputs, under which
each row's gradient is its lookup count in every column: one bincount of
ids per part, exact in float64, with no upstream matrix.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import IO, Optional, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidValue, LayoutMismatch
from .model import CombinedBatch, ModelSpec, Precision, TableSpec
from .model import _check_ids, _check_lengths, _check_seed


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ROWWISE_ADAGRAD = "rowwise_adagrad"
    ADAGRAD = "adagrad"


@dataclass(frozen=True)
class OptimizerConfig:
    kind: OptimizerKind
    lr: float
    eps: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidValue("lr", "must be finite and > 0")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InvalidValue("eps", "must be finite and >= 0")


class EmbeddingTable:
    """Mutable single-owner table state: values plus optimizer moments."""

    def __init__(
        self,
        spec: TableSpec,
        values: np.ndarray,
        moment: Optional[np.ndarray] = None,
    ):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise InvalidValue("values", "must be a 2-D matrix")
        if moment is not None:
            moment = np.asarray(moment, dtype=np.float64)
            if moment.shape not in ((values.shape[0],), values.shape):
                raise InvalidValue("moment", "must be (H,) or (H, D)")
            if np.any(moment < 0):
                raise InvalidValue("moment", "must be >= 0")
        self.spec = spec
        self.values = values
        self.moment = moment

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class RowGradients:
    """Aggregated gradients, one D-vector per touched row, ids ascending."""

    ids: np.ndarray
    grads: np.ndarray

    def __post_init__(self):
        if len(self.ids) != len(self.grads):
            raise InvalidValue("grads", "one gradient per row id required")
        ids = np.asarray(self.ids)
        if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
            raise InvalidValue("ids", "must be strictly increasing")


def _moment_for(spec_rows: int, dim: int, cfg: OptimizerConfig) -> Optional[np.ndarray]:
    if cfg.kind is OptimizerKind.SGD:
        return None
    if cfg.kind is OptimizerKind.ROWWISE_ADAGRAD:
        return np.zeros(spec_rows, dtype=np.float64)
    return np.zeros((spec_rows, dim), dtype=np.float64)


def _fresh_table(spec: TableSpec, values: np.ndarray, cfg: OptimizerConfig) -> EmbeddingTable:
    """A table of `values`, a 2-D float64 matrix or a view of one, held as
    given, with the zero moment of `cfg` (_moment_for): made here, so it
    skips the moment checks of a caller's moment."""
    table = EmbeddingTable(spec, values)
    table.moment = _moment_for(*values.shape, cfg)
    return table


@functools.lru_cache(maxsize=1)
def _draw(seed: int, shapes: tuple[tuple[int, int, bool], ...]) -> tuple[np.ndarray, ...]:
    """Read-only initial values of tables of (rows, dim, stores FP16) `shapes`,
    in order, drawn per (seed, table position). It reads nothing else, so
    the last draw is held: a reference and a sharded step on one (model,
    seed) draw once."""
    _check_seed(seed)
    drawn = []
    for t, (rows, dim, fp16) in enumerate(shapes):
        values = np.random.default_rng([seed, t]).standard_normal((rows, dim))
        if fp16:  # normals are finite and in range
            values, _ = quantize_fp16_roundtrip(values)
        values.flags.writeable = False
        drawn.append(values)
    return tuple(drawn)


def build_tables(
    model: ModelSpec,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> list[EmbeddingTable]:
    """Deterministic per-(seed, table) initialization of full tables: writable
    copies of the held draw (_draw), each with a zero moment of `cfg`."""
    shapes = tuple(
        (spec.num_rows, spec.dim, spec.value_precision is Precision.FP16)
        for spec in model.tables
    )
    drawn = _draw(seed, shapes)
    return [_fresh_table(spec, values.copy(), cfg) for spec, values in zip(model.tables, drawn)]


# ---------------------------------------------------------------------------
# input checks and the pooling and aggregation kernels


def _checked_input(
    lengths, indices, num_rows: int, table_id: str = ""
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked (lengths, indices, owning sample of each index) of one pooled
    batch; raises IndexOutOfRange on the first id outside [0, num_rows)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    _check_lengths(lengths, len(indices))
    _check_ids(indices, num_rows, table_id)
    return lengths, indices, np.arange(len(lengths)).repeat(lengths)


def _pool(values: np.ndarray, lengths: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """out[s] = 0.0 + values[i1] + values[i2] + ... over sample s's ids in
    buffer order. Samples sorted by descending length (stably) put their
    k-th ids in one block of a position-major gather, so position k is one
    slice add over the samples still active at k. Those still active at
    `split` finish with a cumsum seeded with their partial sum; `split`
    minimizes the numpy calls (slice adds before it, samples after it).
    The int64 lengths and indices are checked by the caller."""
    out = np.zeros((len(lengths), values.shape[1]))
    if not len(indices):
        return out
    order = (-lengths).argsort(kind="stable")
    sorted_len = lengths.take(order)
    starts = (lengths.cumsum() - lengths).take(order)
    # active[k]: samples holding a k-th id, the first active[k] of `order`
    active = (-sorted_len).searchsorted(-np.arange(sorted_len[0] + 1))
    split = int((np.arange(len(active)) + active).argmin())
    counts = active[:split]
    ends = counts.cumsum()
    first = (ends - counts).repeat(counts)  # of each slot, its block's first slot
    head = starts.take(np.arange(len(first)) - first) + np.arange(split).repeat(counts)
    rows = values.take(indices.take(head), 0)  # block k: the k-th rows of active samples
    acc = np.zeros((int(active[0]), values.shape[1]))
    for end, n in zip(ends.tolist(), counts.tolist()):
        acc[:n] += rows[end - n : end]
    for i, (s, n) in enumerate(zip(starts.tolist(), sorted_len[: active[split]].tolist())):
        seg = values.take(indices[s + split : s + n], 0)
        seg[0] = acc[i] + seg[0]
        acc[i] = np.cumsum(seg, axis=0)[-1]
    out[order[: len(acc)]] = acc
    return out


def _sum_rows(ids: np.ndarray, grads: np.ndarray, num_rows: int) -> RowGradients:
    """Ascending present ids, each with the buffer-order sum of its grads:
    one bincount over the (row, column) cells of the table's row space, so
    no sort is needed. Every id must lie in [0, num_rows)."""
    dim = grads.shape[1]
    cells = (ids[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(cells, weights=grads.ravel(), minlength=num_rows * dim)
    present = np.bincount(ids, minlength=num_rows).nonzero()[0]
    return RowGradients(present, sums.reshape(num_rows, dim).take(present, 0))


def _upstream_rows(batch: tuple, upstream) -> np.ndarray:
    """Each index's upstream gradient row."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape[0] != len(batch[0]):
        raise LayoutMismatch("one upstream gradient row per sample required")
    return upstream.take(batch[2], 0)


# ---------------------------------------------------------------------------
# forward


def forward_pooled(
    table: EmbeddingTable, lengths: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Sum-pool table rows per sample; an empty sample yields a zero vector."""
    lengths, indices, _ = _checked_input(lengths, indices, table.num_rows, table.spec.id)
    return _pool(table.values, lengths, indices)


def fused_forward(
    tables: Sequence[EmbeddingTable], batch: CombinedBatch
) -> np.ndarray:
    """One pass over the combined buffer; equals per-table pooling, concatenated."""
    if batch.num_tables != len(tables):
        raise LayoutMismatch(
            f"batch has {batch.num_tables} tables, worker has {len(tables)}"
        )
    if not tables:
        return np.zeros((batch.num_samples, 0), dtype=np.float64)
    outs = [forward_pooled(table, *batch.table_slice(t)) for t, table in enumerate(tables)]
    return np.concatenate(outs, axis=1)


# ---------------------------------------------------------------------------
# backward


def backward_sort_aggregate(
    lengths: np.ndarray, indices: np.ndarray, upstream: np.ndarray, num_rows: int
) -> RowGradients:
    """Adjoint of sum pooling over a table of num_rows rows: per-row sums of
    the contributing samples' upstream gradients. Duplicate indices within a
    sample contribute once per occurrence."""
    batch = _checked_input(lengths, indices, num_rows)
    return _sum_rows(batch[1], _upstream_rows(batch, upstream), num_rows)


# ---------------------------------------------------------------------------
# sparse optimizers


def apply_rowwise_adagrad(
    table: EmbeddingTable, grads: RowGradients, cfg: OptimizerConfig
) -> EmbeddingTable:
    """m_r += mean_j g_rj^2; w_rj -= lr * g_rj / (sqrt(m_r) + eps).

    Rows whose aggregated gradient is identically zero are untouched, so the
    moment never moves and no 0/0 arises at eps = 0.
    """
    if cfg.kind is not OptimizerKind.ROWWISE_ADAGRAD:
        raise InvalidValue("cfg.kind", "expected rowwise_adagrad")
    if table.moment is None or table.moment.ndim != 1:
        raise InvalidValue("moment", "row-wise state must be a length-H vector")
    ids, g = grads.ids, grads.grads
    nz = np.any(g != 0.0, axis=1)
    ids, g = ids[nz], g[nz]
    if len(ids) == 0:
        return table
    table.moment[ids] += np.mean(g * g, axis=1)
    denom = np.sqrt(table.moment[ids]) + cfg.eps
    table.values[ids] -= cfg.lr * g / denom[:, None]
    return table


def apply_adagrad(
    table: EmbeddingTable, grads: RowGradients, cfg: OptimizerConfig
) -> EmbeddingTable:
    if table.moment is None or table.moment.ndim != 2:
        raise InvalidValue("moment", "elementwise state must be an (H, D) matrix")
    ids, g = grads.ids, grads.grads
    nz = np.any(g != 0.0, axis=1)
    ids, g = ids[nz], g[nz]
    if len(ids) == 0:
        return table
    table.moment[ids] += g * g
    table.values[ids] -= cfg.lr * g / (np.sqrt(table.moment[ids]) + cfg.eps)
    return table


def apply_sgd(
    table: EmbeddingTable, grads: RowGradients, cfg: OptimizerConfig
) -> EmbeddingTable:
    table.values[grads.ids] -= cfg.lr * grads.grads
    return table


_OPTIMIZERS = {
    OptimizerKind.SGD: apply_sgd,
    OptimizerKind.ROWWISE_ADAGRAD: apply_rowwise_adagrad,
    OptimizerKind.ADAGRAD: apply_adagrad,
}


def apply_optimizer(
    table: EmbeddingTable, grads: RowGradients, cfg: OptimizerConfig
) -> EmbeddingTable:
    return _OPTIMIZERS[cfg.kind](table, grads, cfg)


def fused_backward_update(
    table: EmbeddingTable,
    lengths: np.ndarray,
    indices: np.ndarray,
    upstream: np.ndarray,
    cfg: OptimizerConfig,
) -> RowGradients:
    """Aggregate per row, then exactly one optimizer application per touched row,
    never one per occurrence. The batch is checked once, lengths first, and
    a bad one is rejected before the table is touched."""
    try:
        grads = backward_sort_aggregate(lengths, indices, upstream, table.num_rows)
    except IndexOutOfRange as err:  # given no table id, it reports none
        raise IndexOutOfRange(table.spec.id, err.index) from None
    apply_optimizer(table, grads, cfg)
    return grads


# ---------------------------------------------------------------------------
# precision emulation


def quantize_fp16_roundtrip(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Round-to-nearest-even through 16-bit binary floats, widened back.

    Returns (quantized, overflow_mask); values past the FP16 range become
    +/-inf and are flagged rather than raised.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidValue("values", "inputs must be finite")
    with np.errstate(over="ignore"):
        quantized = arr.astype(np.float16).astype(np.float64)
    return quantized, np.isinf(quantized)


def storage_roundtrip(table: EmbeddingTable, rows: np.ndarray) -> None:
    """Apply the table's storage precision at a step boundary to the rows
    the step touched. Every other row is still what build_tables or the last
    round trip stored, which the round trip would leave as it is. A value
    past the FP16 range is stored as +/-inf, not flagged: verify fails on
    the non-finite deviation it causes."""
    if table.spec.value_precision is Precision.FP16:
        table.values[rows], _ = quantize_fp16_roundtrip(table.values.take(rows, 0))


# ---------------------------------------------------------------------------
# single-worker reference step


def _train_piece(
    table: EmbeddingTable, parts: Sequence[tuple], cfg: OptimizerConfig
) -> np.ndarray:
    """One training step of a table piece on the (lengths, indices) of
    `parts`, checked by the caller: pool them, stacked in order, and
    backpropagate the sum-of-outputs loss, under which each row's gradient
    is its lookup count in every column. Each part counts its ids in one
    bincount and the counts add in part order, as a data-parallel AllReduce
    adds them. Integer counts are exact, so the gradient equals, byte for
    byte, the buffer-order float64 sum of an upstream of ones. Then the
    table is updated once per touched row and round-trips those rows to
    storage precision. Returns the rows pooled before the update."""
    lengths, indices = (np.concatenate(column) for column in zip(*parts))
    rows, dim = table.values.shape
    pooled = _pool(table.values, lengths, indices)
    counts = sum(np.bincount(ids, minlength=rows) for _, ids in parts)
    touched = counts.nonzero()[0]
    count = counts.take(touched).astype(np.float64)
    grads = RowGradients(touched, count.repeat(dim).reshape(-1, dim))
    apply_optimizer(table, grads, cfg)
    storage_roundtrip(table, touched)
    return pooled


def train_step_reference(
    model: ModelSpec,
    batch: CombinedBatch,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> tuple[np.ndarray, list[EmbeddingTable]]:
    """Desk-scale oracle: each table in turn pools the batch, backpropagates
    the sum-of-outputs loss (each row's gradient is its lookup count) and
    takes its optimizer update (_train_piece). Tables are independent, so
    this equals fused_forward followed by a fused_backward_update per table
    under an upstream gradient of ones. The batch is checked once, here."""
    batch.validate_against(model)
    tables = build_tables(model, cfg, seed)
    outputs = [
        _train_piece(table, [batch.table_slice(t)], cfg) for t, table in enumerate(tables)
    ]
    return np.concatenate([np.zeros((batch.num_samples, 0)), *outputs], axis=1), tables


# ---------------------------------------------------------------------------
# table checkpoint dump


_MAGIC = b"NEOT"
_PRECISION_CODE = {Precision.FP32: 0, Precision.FP16: 1}


def dump_table(table: EmbeddingTable, fh: IO[bytes]) -> None:
    moment = table.moment
    fh.write(_MAGIC)
    fh.write(
        struct.pack(
            "<QQBB",
            table.num_rows,
            table.dim,
            _PRECISION_CODE[table.spec.value_precision],
            0 if moment is None else moment.ndim,  # 1 row-wise, 2 element-wise
        )
    )
    fh.write(np.ascontiguousarray(table.values, dtype=np.float64).tobytes())
    if moment is not None:
        fh.write(np.ascontiguousarray(moment, dtype=np.float64).tobytes())

