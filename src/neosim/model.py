"""Domain types, JSON spec parsing/validation and sparse-batch utilities.

Model and cluster specs are single JSON documents with a `spec_version` key.
Sparse input batches use the combined lengths format: per-table lengths plus
one concatenated index buffer, table-major then sample-major.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import mul
from typing import Iterable, NamedTuple

import numpy as np

from .errors import IndexOutOfRange, InvalidValue, MalformedDocument, MissingKey

SPEC_VERSION = 1

INT64_MAX = 2**63 - 1


class Precision(str, Enum):
    FP32 = "FP32"
    TF32 = "TF32"
    FP16 = "FP16"
    BF16 = "BF16"


PRECISION_BYTES = {
    Precision.FP32: 4,
    Precision.TF32: 4,  # TF32 is stored as 4 bytes
    Precision.FP16: 2,
    Precision.BF16: 2,
}

# Pooled embeddings and their gradients travel as activations, 4 bytes per
# element unless an AlltoAll direction is quantized. Table storage precision
# only affects parameter traffic (DP gradient AllReduce) and memory reads.
ACTIVATION_BYTES = PRECISION_BYTES[Precision.FP32]

# Precisions allowed for embedding-table storage.
TABLE_PRECISIONS = (Precision.FP32, Precision.FP16)


class SkewKind(str, Enum):
    UNIFORM = "uniform"
    ZIPF = "zipf"


@dataclass(frozen=True)
class IndexSkew:
    """Row-id distribution used when generating synthetic traces."""

    kind: SkewKind = SkewKind.UNIFORM
    alpha: float = 0.0  # Zipf exponent, > 0 when kind is ZIPF

    def __post_init__(self):
        if self.kind is SkewKind.ZIPF and not self.alpha > 0:
            raise InvalidValue("index_skew.alpha", "Zipf alpha must be > 0")


@dataclass(frozen=True)
class TableSpec:
    """One embedding table: H rows of dimension D, average pooling size L."""

    id: str
    num_rows: int
    dim: int
    avg_pooling: float
    value_precision: Precision = Precision.FP32
    index_skew: IndexSkew = field(default_factory=IndexSkew)

    def __post_init__(self):
        if self.num_rows < 1:
            raise InvalidValue(f"tables[{self.id}].num_rows", "must be >= 1")
        if self.dim < 1:
            raise InvalidValue(f"tables[{self.id}].dim", "must be >= 1")
        # row ids and extents are int64 in batches and in the plan arithmetic
        for name in ("num_rows", "dim"):
            if getattr(self, name) > INT64_MAX:
                raise InvalidValue(f"tables[{self.id}].{name}", "must be < 2**63")
        if not self.avg_pooling > 0:
            raise InvalidValue(f"tables[{self.id}].avg_pooling", "must be > 0")
        if self.value_precision not in TABLE_PRECISIONS:
            raise InvalidValue(
                f"tables[{self.id}].value_precision", "must be FP32 or FP16"
            )

    @property
    def elem_bytes(self) -> int:
        return PRECISION_BYTES[self.value_precision]


def _index_bytes(rows):
    """Bytes per row id of tables of `rows` rows: int32 where it fits, else int64."""
    return 4 + 4 * (rows > 2**31)


def frozen_array(values, dtype) -> np.ndarray:
    """A read-only numpy array of `values`."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class TableColumns(NamedTuple):
    """Read-only per-table arrays, in `ModelSpec.tables` order."""

    rows: np.ndarray  # int64
    dim: np.ndarray  # int64
    pooling: np.ndarray  # float64
    elem_bytes: np.ndarray  # int64, at the stored value precision
    index_bytes: np.ndarray  # int64

    @classmethod
    def of(cls, tables) -> "TableColumns":
        rows = frozen_array([t.num_rows for t in tables], np.int64)
        return cls(
            rows=rows,
            dim=frozen_array([t.dim for t in tables], np.int64),
            pooling=frozen_array([t.avg_pooling for t in tables], np.float64),
            elem_bytes=frozen_array([t.elem_bytes for t in tables], np.int64),
            index_bytes=frozen_array(_index_bytes(rows), np.int64),
        )


@dataclass(frozen=True)
class ModelSpec:
    """One recommendation model: embedding tables plus dense MLP/interaction
    shapes and the per-worker batch size.

    A model shrunk by _with_rows holds its rows in `table_columns` and
    builds `tables` on first access, from the TableSpecs of the model it
    was shrunk from. Shrinking, planning, plan_to_json, simulate,
    validate_plan, memory_check, total_table_params and
    CombinedBatch.validate_against read only the ids and the columns, so a
    shrunk model that is planned and simulated builds no TableSpec. The
    ids only name tables: placement, memory repair and shrinking break
    their ties by table position. Equality, hash, repr, pickling and
    dataclasses.replace read `tables`, so they behave the same for a
    shrunk model and one built from TableSpecs.
    """

    tables: tuple[TableSpec, ...]
    bottom_mlp_layers: tuple[tuple[int, int], ...]
    top_mlp_layers: tuple[tuple[int, int], ...]
    local_batch: int
    mflops_per_sample: float
    interaction_flops_per_sample: float
    dense_param_bytes: int
    # table id -> position in `tables`, the ids in that order, and the
    # per-table arrays; derived, so outside eq/hash/repr
    _table_pos: dict[str, int] = field(init=False, repr=False, compare=False)
    _ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    table_columns: TableColumns = field(init=False, repr=False, compare=False)
    # the model whose TableSpecs a shrunk model's `tables` copy; a class
    # attribute, not a field
    _source = None

    def __post_init__(self):
        if self.local_batch < 1:
            raise InvalidValue("local_batch", "must be >= 1")
        if self.mflops_per_sample < 0:
            raise InvalidValue("mflops_per_sample", "must be >= 0")
        if self.interaction_flops_per_sample < 0:
            raise InvalidValue("interaction_flops_per_sample", "must be >= 0")
        ids = tuple(t.id for t in self.tables)
        pos = dict(zip(ids, range(len(ids))))
        if len(pos) != len(ids):
            raise InvalidValue("tables", "duplicate table ids")
        object.__setattr__(self, "_table_pos", pos)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "table_columns", TableColumns.of(self.tables))
        layers = self.bottom_mlp_layers + self.top_mlp_layers
        if layers:
            expected = mlp_param_bytes(layers)
            if self.dense_param_bytes != expected:
                raise InvalidValue(
                    "dense_param_bytes",
                    f"must equal MLP parameter bytes {expected} when layers are given",
                )

    def __getattr__(self, name):
        # reached only for what is not set yet: a shrunk model's tables
        if name != "tables" or self._source is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        rows = self.table_columns.rows.tolist()
        value = tuple(_copy_with(t, num_rows=n) for t, n in zip(self._source.tables, rows))
        object.__setattr__(self, name, value)
        return value

    @property
    def num_tables(self) -> int:
        return len(self.table_columns.rows)

    @property
    def total_table_params(self) -> int:
        tc = self.table_columns  # Python ints: no int64 overflow
        return sum(map(mul, tc.rows.tolist(), tc.dim.tolist()))

    @property
    def bottom_mlp_flops_per_sample(self) -> float:
        return sum(2.0 * i * o for i, o in self.bottom_mlp_layers)

    @property
    def top_mlp_flops_per_sample(self) -> float:
        return sum(2.0 * i * o for i, o in self.top_mlp_layers)

    @property
    def dense_input_dim(self) -> int:
        return self.bottom_mlp_layers[0][0] if self.bottom_mlp_layers else 0

    def __reduce__(self):
        # rebuild the derived fields, so unpickled arrays stay read-only
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def table_indices(self, table_ids) -> np.ndarray:
        """Positions in `tables` of each id; unknown ids raise KeyError."""
        return np.fromiter(
            map(self._table_pos.__getitem__, table_ids), np.int64, len(table_ids)
        )

    def _with_rows(self, rows: np.ndarray) -> "ModelSpec":
        """This model with rows[i] rows (whole floats >= 1) in table i, checked in
        bulk as TableSpec checks one; no other check reruns. Only the rows
        and index widths are new: the ids and other columns are shared, and
        `tables` is built on first access (see ModelSpec)."""
        past = rows >= 2.0**63
        if past.any():
            raise InvalidValue(f"tables[{self._ids[past.argmax()]}].num_rows", "must be < 2**63")
        rows = frozen_array(rows, np.int64)
        index_bytes = frozen_array(_index_bytes(rows), np.int64)
        columns = self.table_columns._replace(rows=rows, index_bytes=index_bytes)
        source = self if self._source is None else self._source
        shrunk = _copy_with(self, table_columns=columns, _source=source)
        vars(shrunk).pop("tables", None)
        return shrunk


def _copy_with(obj, **changes):
    """A copy of `obj` with `changes` to its attributes; its checks do not run."""
    copy = object.__new__(type(obj))
    vars(copy).update(vars(obj), **changes)
    return copy


def mlp_param_bytes(layers: Iterable[tuple[int, int]]) -> int:
    """Weight + bias parameters at 4 bytes each."""
    return sum((i * o + o) * 4 for i, o in layers)


def default_interaction_flops(num_tables: int, mean_dim: float) -> float:
    """Pairwise dot products over (T + 1) feature vectors of the mean dim."""
    pairs = (num_tables + 1) * num_tables / 2
    return pairs * mean_dim * 2.0


@dataclass(frozen=True)
class ClusterSpec:
    """Hierarchical device model with calibrated achieved bandwidths.

    Bandwidth point lists map per-worker message bytes to achieved bytes/s and
    come from collective benchmarks at target scale; `scaleup_bw` and
    `scaleout_bw_per_gpu` are per-GPU uni-directional link rates.
    """

    num_nodes: int
    gpus_per_node: int
    hbm_capacity_per_gpu: int
    hbm_bw: float
    dram_capacity_per_node: int
    dram_to_gpu_bw: float
    scaleup_bw: float
    scaleout_bw_per_gpu: float
    peak_flops: dict[str, float]
    mlp_efficiency: float
    alltoall_bw_points: tuple[tuple[float, float], ...]
    allreduce_bw_points: tuple[tuple[float, float], ...]
    fixed_latency_per_collective: float

    def __post_init__(self):
        if self.num_nodes < 1:
            raise InvalidValue("num_nodes", "must be >= 1")
        if self.gpus_per_node < 1:
            raise InvalidValue("gpus_per_node", "must be >= 1")
        for name in (
            "hbm_capacity_per_gpu",
            "hbm_bw",
            "dram_capacity_per_node",
            "dram_to_gpu_bw",
            "scaleup_bw",
            "scaleout_bw_per_gpu",
        ):
            if not getattr(self, name) > 0:
                raise InvalidValue(name, "must be > 0")
        if not 0 < self.mlp_efficiency <= 1:
            raise InvalidValue("mlp_efficiency", "must be in (0, 1]")
        for prec, rate in self.peak_flops.items():
            if prec not in Precision.__members__:
                raise InvalidValue(f"peak_flops.{prec}", "unknown precision")
            if not rate > 0:
                raise InvalidValue(f"peak_flops.{prec}", "must be > 0")
        if self.fixed_latency_per_collective < 0:
            raise InvalidValue("fixed_latency_per_collective", "must be >= 0")
        _check_bw_points(
            "alltoall_bw_points", self.alltoall_bw_points, self.scaleout_bw_per_gpu
        )
        _check_bw_points(
            "allreduce_bw_points",
            self.allreduce_bw_points,
            max(self.scaleup_bw, self.scaleout_bw_per_gpu),
        )

    @property
    def num_workers(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def dram_capacity_per_gpu(self) -> float:
        return self.dram_capacity_per_node / self.gpus_per_node


def _check_bw_points(name, points, link_peak):
    if not points:
        raise InvalidValue(name, "at least one calibration point required")
    sizes = [p[0] for p in points]
    if sizes != sorted(sizes) or len(set(sizes)) != len(sizes):
        raise InvalidValue(name, "points must be strictly sorted by message size")
    for size, bw in points:
        if not size > 0 or not bw > 0:
            raise InvalidValue(name, "sizes and bandwidths must be > 0")
        if bw > link_peak:
            raise InvalidValue(
                name, f"achieved {bw} exceeds relevant link peak {link_peak}"
            )
    # more bytes never take less time: bandwidth may grow by the size ratio at most
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if y1 * x0 > y0 * x1:
            raise InvalidValue(name, f"bandwidth grows faster than size from {x0} to {x1}")


def _check_ids(ids: np.ndarray, num_rows: int, table_id: str) -> None:
    """Raise IndexOutOfRange at the first of the int64 `ids` outside
    [0, num_rows)."""
    if len(ids) and (ids.min() < 0 or ids.max() >= num_rows):
        raise IndexOutOfRange(table_id, int(ids[(ids < 0) | (ids >= num_rows)][0]))


class CombinedBatch:
    """Lengths-format sparse batch for all tables of one model.

    `lengths[t, s]` is the pooling size of sample s for table t, `indices`
    is the single concatenated row-id buffer in canonical table-major then
    sample-major order.
    """

    def __init__(self, lengths: np.ndarray, indices: np.ndarray):
        lengths = np.asarray(lengths, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if lengths.ndim != 2:
            raise InvalidValue("lengths", "must be a (tables, samples) matrix")
        if np.any(lengths < 0):
            raise InvalidValue("lengths", "must be >= 0")
        if int(lengths.sum()) != len(indices):
            raise InvalidValue(
                "indices", "total index count must equal the sum of lengths"
            )
        self.lengths = lengths
        self.indices = indices
        # offset of each table's chunk inside the concatenated index buffer
        per_table = lengths.sum(axis=1)
        self._table_offsets = np.concatenate(([0], np.cumsum(per_table)))

    @property
    def num_tables(self) -> int:
        return self.lengths.shape[0]

    @property
    def num_samples(self) -> int:
        return self.lengths.shape[1]

    def table_slice(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(per-sample lengths, indices) for one table."""
        lo, hi = self._table_offsets[t], self._table_offsets[t + 1]
        return self.lengths[t], self.indices[lo:hi]

    def validate_against(self, model: ModelSpec) -> None:
        if self.num_tables != model.num_tables:
            raise InvalidValue("lengths", "table count does not match model")
        rows = model.table_columns.rows.tolist()
        for t, (num_rows, table_id) in enumerate(zip(rows, model._ids)):
            _check_ids(self.table_slice(t)[1], num_rows, table_id)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CombinedBatch)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"CombinedBatch(tables={self.num_tables}, samples={self.num_samples})"


# ---------------------------------------------------------------------------
# synthetic batch generation


def gen_synthetic_batch(model: ModelSpec, num_samples: int, seed: int) -> CombinedBatch:
    """Deterministic synthetic batch with expected per-sample pooling L.

    Per-sample pooling is floor(L) plus a Bernoulli(frac(L)) extra index, so
    the expectation equals L exactly; row ids follow each table's index_skew.
    """
    if num_samples < 1:
        raise InvalidValue("num_samples", "must be >= 1")
    rng = np.random.default_rng(seed)
    lengths = np.empty((model.num_tables, num_samples), dtype=np.int64)
    chunks = []
    for t, table in enumerate(model.tables):
        base = math.floor(table.avg_pooling)
        frac = table.avg_pooling - base
        lens = np.full(num_samples, base, dtype=np.int64)
        if frac > 0:
            lens += rng.random(num_samples) < frac
        lengths[t] = lens
        total = int(lens.sum())
        if table.index_skew.kind is SkewKind.UNIFORM:
            idx = rng.integers(0, table.num_rows, size=total, dtype=np.int64)
        else:
            # bounded Zipf needs the full probability vector; desk scale only
            if table.num_rows > 10**7:
                raise InvalidValue(
                    f"tables[{table.id}].index_skew",
                    "zipf trace generation supports at most 1e7 rows",
                )
            probs = np.arange(1, table.num_rows + 1, dtype=np.float64) ** (
                -table.index_skew.alpha
            )
            probs /= probs.sum()
            idx = rng.choice(table.num_rows, size=total, p=probs).astype(np.int64)
        chunks.append(idx)
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return CombinedBatch(lengths, indices)


# ---------------------------------------------------------------------------
# JSON parsing helpers


def _as_dict(obj, path):
    if not isinstance(obj, dict):
        raise InvalidValue(path, "expected an object")
    return obj


def _take(doc: dict, key: str, path: str, required: bool = True, default=None):
    if key not in doc:
        if required:
            raise MissingKey(f"{path}.{key}" if path else key)
        return default
    return doc.pop(key)

def _reject_unknown(doc: dict, path: str):
    if doc:
        key = sorted(doc)[0]
        raise InvalidValue(f"{path}.{key}" if path else key, "unknown key")


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidValue(path, "expected an integer")
    return value


def _as_real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValue(path, "expected a number")
    try:
        real = float(value)
    except OverflowError:  # an integer literal beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise InvalidValue(path, "expected a finite number")
    return real


def _parse_skew(doc, path) -> IndexSkew:
    if doc is None:
        return IndexSkew()
    doc = dict(_as_dict(doc, path))
    kind = _take(doc, "kind", path)
    if kind == "uniform":
        _reject_unknown(doc, path)
        return IndexSkew(SkewKind.UNIFORM)
    if kind == "zipf":
        alpha = _as_real(_take(doc, "alpha", path), f"{path}.alpha")
        _reject_unknown(doc, path)
        return IndexSkew(SkewKind.ZIPF, alpha)
    raise InvalidValue(f"{path}.kind", "must be 'uniform' or 'zipf'")


def _parse_precision(value, path, allowed=TABLE_PRECISIONS) -> Precision:
    try:
        prec = Precision(value)
    except ValueError:
        raise InvalidValue(path, f"unknown precision {value!r}") from None
    if prec not in allowed:
        raise InvalidValue(path, f"precision {value} not allowed here")
    return prec


def _parse_table(doc, path) -> TableSpec:
    doc = dict(_as_dict(doc, path))
    tid = _take(doc, "id", path)
    if not isinstance(tid, str) or not tid:
        raise InvalidValue(f"{path}.id", "expected a non-empty string")
    num_rows = _as_int(_take(doc, "num_rows", path), f"{path}.num_rows")
    dim = _as_int(_take(doc, "dim", path), f"{path}.dim")
    pooling = _as_real(_take(doc, "avg_pooling", path), f"{path}.avg_pooling")
    prec = _take(doc, "value_precision", path, required=False, default="FP32")
    skew = _parse_skew(
        _take(doc, "index_skew", path, required=False), f"{path}.index_skew"
    )
    _reject_unknown(doc, path)
    if num_rows < 1:
        raise InvalidValue(f"{path}.num_rows", "must be >= 1")
    if dim < 1:
        raise InvalidValue(f"{path}.dim", "must be >= 1")
    if not pooling > 0:
        raise InvalidValue(f"{path}.avg_pooling", "must be > 0")
    return TableSpec(
        id=tid,
        num_rows=num_rows,
        dim=dim,
        avg_pooling=pooling,
        value_precision=_parse_precision(prec, f"{path}.value_precision"),
        index_skew=skew,
    )


def _expand_generator(doc, path) -> list[TableSpec]:
    """Many-table stanza: count plus a cycled dim palette, fixed rows/pooling.

    The palette is cycled deterministically, so the expansion needs no RNG and
    parsing stays pure. Shipped specs document the palette they chose; the
    source tables only publish dim ranges and averages.
    """
    doc = dict(_as_dict(doc, path))
    count = _as_int(_take(doc, "count", path), f"{path}.count")
    dims = _take(doc, "dims", path)
    num_rows = _as_int(_take(doc, "num_rows", path), f"{path}.num_rows")
    pooling = _as_real(_take(doc, "avg_pooling", path), f"{path}.avg_pooling")
    prec = _take(doc, "value_precision", path, required=False, default="FP32")
    skew_doc = _take(doc, "index_skew", path, required=False)
    prefix = _take(doc, "id_prefix", path, required=False, default="emb")
    _reject_unknown(doc, path)
    if count < 1:
        raise InvalidValue(f"{path}.count", "must be >= 1")
    if not isinstance(dims, list) or not dims:
        raise InvalidValue(f"{path}.dims", "expected a non-empty list")
    precision = _parse_precision(prec, f"{path}.value_precision")
    skew = _parse_skew(skew_doc, f"{path}.index_skew")
    width = len(str(count - 1))
    return [
        TableSpec(
            id=f"{prefix}_{i:0{width}d}",
            num_rows=num_rows,
            dim=_as_int(dims[i % len(dims)], f"{path}.dims[{i % len(dims)}]"),
            avg_pooling=pooling,
            value_precision=precision,
            index_skew=skew,
        )
        for i in range(count)
    ]


def _parse_layers(doc, path) -> tuple[tuple[int, int], ...]:
    if doc is None:
        return ()
    if not isinstance(doc, list):
        raise InvalidValue(path, "expected a list of [in, out] pairs")
    layers = []
    for i, pair in enumerate(doc):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidValue(f"{path}[{i}]", "expected an [in, out] pair")
        lin = _as_int(pair[0], f"{path}[{i}][0]")
        lout = _as_int(pair[1], f"{path}[{i}][1]")
        if lin < 1 or lout < 1:
            raise InvalidValue(f"{path}[{i}]", "layer sizes must be >= 1")
        layers.append((lin, lout))
    return tuple(layers)


def _load_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    return _as_dict(doc, "")


def _check_version(doc, path=""):
    version = _as_int(_take(doc, "spec_version", path), "spec_version")
    if version != SPEC_VERSION:
        raise InvalidValue("spec_version", f"unsupported version {version}")


def parse_model_spec(text: str) -> ModelSpec:
    """Parse and validate a model spec document; unknown keys are rejected."""
    doc = _load_json(text)
    _check_version(doc)
    local_batch = _as_int(_take(doc, "local_batch", ""), "local_batch")
    mflops = _as_real(_take(doc, "mflops_per_sample", ""), "mflops_per_sample")
    bottom = _parse_layers(
        _take(doc, "bottom_mlp_layers", "", required=False), "bottom_mlp_layers"
    )
    top = _parse_layers(
        _take(doc, "top_mlp_layers", "", required=False), "top_mlp_layers"
    )
    tables_doc = _take(doc, "tables", "", required=False, default=[])
    if not isinstance(tables_doc, list):
        raise InvalidValue("tables", "expected a list")
    tables = [_parse_table(td, f"tables[{i}]") for i, td in enumerate(tables_doc)]
    gen_doc = _take(doc, "table_generator", "", required=False)
    if gen_doc is not None:
        tables.extend(_expand_generator(gen_doc, "table_generator"))
    interaction = _take(doc, "interaction_flops_per_sample", "", required=False)
    dense_bytes = _take(doc, "dense_param_bytes", "", required=False)
    _reject_unknown(doc, "")

    if interaction is None:
        mean_dim = sum(t.dim for t in tables) / len(tables) if tables else 0.0
        interaction = default_interaction_flops(len(tables), mean_dim)
    else:
        interaction = _as_real(interaction, "interaction_flops_per_sample")
    layers = bottom + top
    if dense_bytes is None:
        dense_bytes = mlp_param_bytes(layers)
    else:
        dense_bytes = _as_int(dense_bytes, "dense_param_bytes")
        if dense_bytes < 0:
            raise InvalidValue("dense_param_bytes", "must be >= 0")
    return ModelSpec(
        tables=tuple(tables),
        bottom_mlp_layers=bottom,
        top_mlp_layers=top,
        local_batch=local_batch,
        mflops_per_sample=mflops,
        interaction_flops_per_sample=interaction,
        dense_param_bytes=dense_bytes,
    )


def parse_cluster_spec(text: str) -> ClusterSpec:
    doc = _load_json(text)
    _check_version(doc)

    def take_int(key):
        return _as_int(_take(doc, key, ""), key)

    def take_real(key):
        return _as_real(_take(doc, key, ""), key)

    num_nodes = take_int("num_nodes")
    gpus_per_node = take_int("gpus_per_node")
    hbm_cap = take_int("hbm_capacity_per_gpu")
    hbm_bw = take_real("hbm_bw")
    dram_cap = take_int("dram_capacity_per_node")
    dram_bw = take_real("dram_to_gpu_bw")
    scaleup = take_real("scaleup_bw")
    scaleout = take_real("scaleout_bw_per_gpu")
    peak_doc = _as_dict(_take(doc, "peak_flops", ""), "peak_flops")
    peak = {
        k: _as_real(v, f"peak_flops.{k}") for k, v in sorted(peak_doc.items())
    }
    efficiency = take_real("mlp_efficiency")
    a2a_points = _parse_points(_take(doc, "alltoall_bw_points", ""), "alltoall_bw_points")
    ar_points = _parse_points(_take(doc, "allreduce_bw_points", ""), "allreduce_bw_points")
    fixed = take_real("fixed_latency_per_collective")
    _reject_unknown(doc, "")
    return ClusterSpec(
        num_nodes=num_nodes,
        gpus_per_node=gpus_per_node,
        hbm_capacity_per_gpu=hbm_cap,
        hbm_bw=hbm_bw,
        dram_capacity_per_node=dram_cap,
        dram_to_gpu_bw=dram_bw,
        scaleup_bw=scaleup,
        scaleout_bw_per_gpu=scaleout,
        peak_flops=peak,
        mlp_efficiency=efficiency,
        alltoall_bw_points=a2a_points,
        allreduce_bw_points=ar_points,
        fixed_latency_per_collective=fixed,
    )


def _parse_points(doc, path):
    if not isinstance(doc, list):
        raise InvalidValue(path, "expected a list of [message_bytes, bytes_per_s]")
    points = []
    for i, pair in enumerate(doc):
        if not isinstance(pair, list) or len(pair) != 2:
            raise InvalidValue(f"{path}[{i}]", "expected a [size, bandwidth] pair")
        points.append(
            (_as_real(pair[0], f"{path}[{i}][0]"), _as_real(pair[1], f"{path}[{i}][1]"))
        )
    return tuple(points)

