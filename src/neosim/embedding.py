"""Executable reference semantics for the embedding operator family.

Pooling is SUM over the rows selected by each sample's multi-hot indices.
The fused backward path sorts gradients by row id and aggregates duplicates
before a single optimizer application per touched row; applying a non-linear
sparse optimizer once per occurrence instead would corrupt the update.
Master weights are float64; FP16 table storage is emulated by a round-trip
at step boundaries.

Sample pooling, per-row gradient aggregation and the data-parallel gradient
merge are all one scatter-sum (`_scatter_sum`). It adds each output cell's
terms in buffer order starting from 0.0, exactly as a scalar loop does, so
every result is bit-for-bit reproducible. Sort-and-reduce forms such as
np.add.reduceat are not: numpy's reduction loop reassociates the sum.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import IO, Optional, Sequence

import numpy as np

from .errors import IndexOutOfRange, InvalidValue, LayoutMismatch
from .model import CombinedBatch, ModelSpec, Precision, TableSpec


class OptimizerKind(str, Enum):
    SGD = "sgd"
    ROWWISE_ADAGRAD = "rowwise_adagrad"
    ADAGRAD = "adagrad"


@dataclass(frozen=True)
class OptimizerConfig:
    kind: OptimizerKind
    lr: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.lr > 0:
            raise InvalidValue("lr", "must be > 0")
        if self.eps < 0:
            raise InvalidValue("eps", "must be >= 0")


class EmbeddingTable:
    """Mutable single-owner table state: values plus optimizer moments."""

    def __init__(
        self,
        spec: TableSpec,
        values: np.ndarray,
        moment: Optional[np.ndarray] = None,
        row_base: int = 0,
        col_base: int = 0,
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
        # global offsets when this table object is a shard of a larger table
        self.row_base = row_base
        self.col_base = col_base

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(
            self.spec,
            self.values.copy(),
            None if self.moment is None else self.moment.copy(),
            self.row_base,
            self.col_base,
        )


@dataclass(frozen=True)
class RowGradients:
    """Aggregated gradients, one D-vector per touched row, ids ascending."""

    ids: np.ndarray
    grads: np.ndarray

    def __post_init__(self):
        if len(self.ids) != len(self.grads):
            raise InvalidValue("grads", "one gradient per row id required")
        if len(self.ids) > 1 and not np.all(np.diff(self.ids) > 0):
            raise InvalidValue("ids", "must be strictly increasing")


def _moment_for(spec_rows: int, dim: int, cfg: OptimizerConfig) -> Optional[np.ndarray]:
    if cfg.kind is OptimizerKind.SGD:
        return None
    if cfg.kind is OptimizerKind.ROWWISE_ADAGRAD:
        return np.zeros(spec_rows, dtype=np.float64)
    return np.zeros((spec_rows, dim), dtype=np.float64)


def build_tables(
    model: ModelSpec,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> list[EmbeddingTable]:
    """Deterministic per-(seed, table) initialization of full tables."""
    tables = []
    for t, spec in enumerate(model.tables):
        rng = np.random.default_rng([seed, t])
        values = rng.standard_normal((spec.num_rows, spec.dim))
        if spec.value_precision is Precision.FP16:
            values, _ = quantize_fp16_roundtrip(values)
        tables.append(
            EmbeddingTable(spec, values, _moment_for(spec.num_rows, spec.dim, cfg))
        )
    return tables


# ---------------------------------------------------------------------------
# scatter-sum kernel and input checks


def _scatter_sum(rows: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """out[r] = sum of values[i] over every i with rows[i] == r.

    One bincount over flattened (row, column) cells. bincount adds its
    weights in buffer order into a zeroed output, so each cell's sum is the
    scalar loop's, bit for bit (the same as np.add.at on a zero matrix).
    """
    dim = values.shape[1]
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    out = np.bincount(cells, weights=values.ravel(), minlength=num_rows * dim)
    return out.reshape(num_rows, dim)


def _sum_by_row(ids: np.ndarray, grads: np.ndarray) -> RowGradients:
    """Ascending unique ids, each with the buffer-order sum of its grads."""
    unique, inverse = np.unique(ids, return_inverse=True)
    return RowGradients(unique, _scatter_sum(inverse, grads, len(unique)))


def _checked_batch(lengths, indices) -> tuple[np.ndarray, np.ndarray]:
    """Checked (indices, owning sample of each index) for a pooled batch."""
    lengths = np.asarray(lengths, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(lengths < 0):
        raise InvalidValue("lengths", "must be >= 0")
    if int(lengths.sum()) != len(indices):
        raise LayoutMismatch("lengths do not cover the index buffer")
    return indices, np.repeat(np.arange(len(lengths)), lengths)


def _check_rows(table: EmbeddingTable, indices: np.ndarray) -> None:
    """Raise IndexOutOfRange on the first index outside [0, H)."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) and (indices.min() < 0 or indices.max() >= table.num_rows):
        bad = indices[(indices < 0) | (indices >= table.num_rows)][0]
        raise IndexOutOfRange(table.spec.id, int(bad))


# ---------------------------------------------------------------------------
# forward


def forward_pooled(
    table: EmbeddingTable, lengths: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Sum-pool table rows per sample; an empty sample yields a zero vector."""
    indices, sample_ids = _checked_batch(lengths, indices)
    _check_rows(table, indices)
    # each sample's rows are added in buffer order, matching a scalar loop
    return _scatter_sum(sample_ids, table.values[indices], len(lengths))


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
    outs = []
    for t, table in enumerate(tables):
        lengths, indices = batch.table_slice(t)
        outs.append(forward_pooled(table, lengths, indices))
    return np.concatenate(outs, axis=1)


# ---------------------------------------------------------------------------
# backward


def backward_sort_aggregate(
    lengths: np.ndarray, indices: np.ndarray, upstream: np.ndarray
) -> RowGradients:
    """Adjoint of sum pooling: per-row sums of the contributing samples'
    upstream gradients. Duplicate indices within a sample contribute once per
    occurrence."""
    indices, sample_ids = _checked_batch(lengths, indices)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape[0] != len(lengths):
        raise LayoutMismatch("one upstream gradient row per sample required")
    return _sum_by_row(indices, upstream[sample_ids])


def merge_row_gradients(parts: Sequence[RowGradients], dim: int) -> RowGradients:
    """Sum per-row gradients across partial results (e.g. DP replicas);
    each row's parts are added in the order given."""
    parts = [p for p in parts if len(p.ids)]
    if not parts:
        return RowGradients(np.empty(0, dtype=np.int64), np.zeros((0, dim)))
    return _sum_by_row(
        np.concatenate([p.ids for p in parts]),
        np.concatenate([p.grads for p in parts]),
    )


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
    """Sort-aggregate then exactly one optimizer application per touched row,
    never one per occurrence. Ids outside the table are rejected before the
    table is touched."""
    _check_rows(table, indices)
    grads = backward_sort_aggregate(lengths, indices, upstream)
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


def storage_roundtrip(table: EmbeddingTable) -> None:
    """Apply the table's storage precision at a step boundary."""
    if table.spec.value_precision is Precision.FP16:
        table.values[:], _ = quantize_fp16_roundtrip(table.values)


# ---------------------------------------------------------------------------
# single-worker reference step


def train_step_reference(
    model: ModelSpec,
    batch: CombinedBatch,
    cfg: OptimizerConfig,
    seed: int = 0,
) -> tuple[np.ndarray, list[EmbeddingTable]]:
    """Desk-scale oracle: fused forward, backward from the sum-of-outputs
    loss (upstream gradient of all ones), fused optimizer update."""
    batch.validate_against(model)
    tables = build_tables(model, cfg, seed)
    outputs = fused_forward(tables, batch)
    for t, table in enumerate(tables):
        lengths, indices = batch.table_slice(t)
        upstream = np.ones((batch.num_samples, table.dim), dtype=np.float64)
        fused_backward_update(table, lengths, indices, upstream, cfg)
        storage_roundtrip(table)
    return outputs, tables


# ---------------------------------------------------------------------------
# table checkpoint dump


_MAGIC = b"NEOT"
_PRECISION_CODE = {Precision.FP32: 0, Precision.FP16: 1}
_MOMENT_CODE = {"none": 0, "rowwise": 1, "elementwise": 2}


def dump_table(table: EmbeddingTable, fh: IO[bytes]) -> None:
    if table.moment is None:
        moment_kind = "none"
    elif table.moment.ndim == 1:
        moment_kind = "rowwise"
    else:
        moment_kind = "elementwise"
    fh.write(_MAGIC)
    fh.write(
        struct.pack(
            "<QQBB",
            table.num_rows,
            table.dim,
            _PRECISION_CODE[table.spec.value_precision],
            _MOMENT_CODE[moment_kind],
        )
    )
    fh.write(np.ascontiguousarray(table.values, dtype=np.float64).tobytes())
    if table.moment is not None:
        fh.write(np.ascontiguousarray(table.moment, dtype=np.float64).tobytes())

