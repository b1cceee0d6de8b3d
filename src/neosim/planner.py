"""4D sharding planner: per-table scheme selection and worker placement.

The cost of a shard combines communication volume, embedding access load
(tables-per-worker x global batch x pooling x dim) and a fixed per-collective
latency; placement minimizes the per-worker maximum of the weighted sum using
either the greedy heuristic or the largest-differencing (Karmarkar-Karp)
heuristic.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, is_, is_not, itemgetter, neg
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    Infeasible,
    InvalidScheme,
    InvalidValue,
    NoFeasibleScheme,
)
from .model import (
    ACTIVATION_BYTES,
    INT64_MAX,
    SPEC_VERSION,
    ClusterSpec,
    ModelSpec,
    Precision,
    PRECISION_BYTES,
    TableColumns,
    TableSpec,
    _as_dict,
    _as_int,
    _check_version,
    _load_json,
    _reject_unknown,
    _take,
)

OPTIMIZER_STATE_BYTES = 4  # AdaGrad moments are kept in FP32


class SchemeKind(str, Enum):
    TABLE_WISE = "table_wise"
    ROW_WISE = "row_wise"
    COLUMN_WISE = "column_wise"
    DATA_PARALLEL = "data_parallel"


@dataclass(frozen=True)
class Scheme:
    """How one table is parallelized across workers."""

    kind: SchemeKind
    num_row_shards: int = 1
    col_splits: tuple[tuple[int, int], ...] = ()
    # (node-level kind, intra-node kind) when produced by hierarchical planning
    hierarchical: Optional[tuple[SchemeKind, SchemeKind]] = None

    @property
    def num_shards(self) -> int:
        if self.kind is SchemeKind.ROW_WISE:
            return self.num_row_shards
        if self.kind is SchemeKind.COLUMN_WISE:
            return len(self.col_splits)
        return 1


@dataclass(frozen=True)
class ShardCost:
    comm_bytes: float
    load: float
    fixed_latency: float

    def __post_init__(self):
        for name in ("comm_bytes", "load", "fixed_latency"):
            if getattr(self, name) < 0:
                raise InvalidValue(name, "must be >= 0")


@dataclass(frozen=True)
class CostWeights:
    w_comm: float = 1.0
    w_load: float = 1.0
    w_latency: float = 1.0

    def __post_init__(self):
        if min(self.w_comm, self.w_load, self.w_latency) < 0:
            raise InvalidValue("weights", "must be >= 0")
        if self.w_comm == self.w_load == self.w_latency == 0:
            raise InvalidValue("weights", "must not all be zero")


@dataclass(frozen=True)
class CompressionFlags:
    """Capacity-accounting levers: forced table precision and row-wise
    optimizer state (one moment per row; False keeps one per element). The
    defaults are the CLI's."""

    table_precision: Optional[Precision] = None  # None keeps per-table precision
    rowwise_optimizer: bool = True


@dataclass(frozen=True)
class CandidatePolicy:
    dp_threshold_bytes: Optional[int] = None  # None -> HBM capacity / 1000
    fine_grain: bool = False
    flags: CompressionFlags = CompressionFlags()


@dataclass(frozen=True)
class Shard:
    """One placed piece of a table; None bounds mean the full extent.

    worker is None only for data-parallel shards, which are replicated on
    every worker.
    """

    worker: Optional[int]
    rows: Optional[tuple[int, int]] = None
    cols: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class TableAssignment:
    table_id: str
    scheme: Scheme
    shards: tuple[Shard, ...]


FULL_EXTENT = -1  # end of the (0, FULL_EXTENT) filler where a shard has no bound
# ShardColumns.kind codes: each scheme kind's position in SchemeKind
_KIND_CODE = {kind: code for code, kind in enumerate(SchemeKind)}
_KINDS = tuple(SchemeKind)  # code -> kind
# the one hierarchical tag: table-wise across nodes, then row-wise in a node
_TW_THEN_RW = (SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE)
TW, RW, CW, DP = (
    _KIND_CODE[kind]
    for kind in (
        SchemeKind.TABLE_WISE,
        SchemeKind.ROW_WISE,
        SchemeKind.COLUMN_WISE,
        SchemeKind.DATA_PARALLEL,
    )
)


class ShardColumns(NamedTuple):
    """A plan's shards as read-only numpy columns, in plan order.

    Per assignment: `table_ids` and `schemes`. Per shard: `assignment` (the
    position of its assignment), `kind` (its scheme's code: TW, RW, CW or
    DP), `num_shards` (its assignment's shard count), `hierarchical` (its
    scheme's tag code: 0 for none, 1 for _TW_THEN_RW, 2 for any other),
    `worker` (-1 for a data-parallel replica), `replica` (the shard has no
    worker), `rows`/`cols` as (start, end) pairs, (0, FULL_EXTENT) where
    the shard carries no bound, and `has_rows`/`has_cols` (the shard
    carries that bound). `dest`/`src` list every (worker, shard) charge in
    plan order, a replica once per worker at its own plan position, so
    per_worker sums any per-shard value in the order a loop over
    `plan.assignments` and their shards adds it.
    """

    table_ids: tuple[str, ...]
    schemes: tuple[Scheme, ...]
    assignment: np.ndarray
    kind: np.ndarray
    num_shards: np.ndarray
    hierarchical: np.ndarray
    worker: np.ndarray
    replica: np.ndarray
    rows: np.ndarray
    has_rows: np.ndarray
    cols: np.ndarray
    has_cols: np.ndarray
    dest: np.ndarray
    src: np.ndarray

    @classmethod
    def of(cls, plan: "ShardingPlan") -> "ShardColumns":
        """The columns of a plan built from TableAssignments: one walk over
        its shards."""
        assignments = plan.assignments
        shards = [s for a in assignments for s in a.shards]
        n = len(shards)
        workers = [s.worker for s in shards]
        rows, has_rows = _bounds_column([s.rows for s in shards], "rows")
        cols, has_cols = _bounds_column([s.cols for s in shards], "cols")
        schemes = tuple(a.scheme for a in assignments)
        tags = [s.hierarchical for s in schemes]
        codes = [0 if t is None else 1 if t == _TW_THEN_RW else 2 for t in tags]
        return cls.build(
            tuple(a.table_id for a in assignments),
            schemes,
            np.array([_KIND_CODE[s.kind] for s in schemes], np.int8),
            np.array(codes, np.int8),
            np.array([len(a.shards) for a in assignments], np.int64),
            plan.num_workers,
            worker=_int64_column((-1 if w is None else w for w in workers), n, "worker"),
            replica=np.fromiter(map(is_, workers, repeat(None)), bool, n),
            rows=rows,
            has_rows=has_rows,
            cols=cols,
            has_cols=has_cols,
        )

    @classmethod
    def build(
        cls, table_ids, schemes, kind, hierarchical, num_shards, num_workers, **shards
    ) -> "ShardColumns":
        """Columns from each assignment's id, scheme, kind code, tag code and
        shard count, and the per-shard columns `shards` (worker, replica,
        rows, has_rows, cols, has_cols) in plan order."""
        assignment = np.repeat(np.arange(len(table_ids)), num_shards)
        # every charge in plan order: a replica expands to workers 0..W-1
        W, replica = num_workers, shards["replica"]
        src = np.repeat(np.arange(len(assignment)), np.where(replica, W, 1))
        dest = shards["worker"][src]
        dest[replica[src]] = np.tile(np.arange(W), int(replica.sum()))
        arrays = dict(
            shards,
            assignment=assignment,
            kind=kind[assignment],
            num_shards=num_shards[assignment],
            hierarchical=hierarchical[assignment],
            dest=dest,
            src=src,
        )
        for array in arrays.values():
            array.flags.writeable = False
        return cls(table_ids, schemes, **arrays)

    @property
    def charges(self) -> int:
        """(worker, shard) pairs charged: a replica counts once per worker."""
        return len(self.dest)

    def shard_lists(self, make) -> tuple[list[tuple], list[int]]:
        """The distinct shard lists of the assignments, and the position of
        each assignment's list among them. A list holds make(worker, rows,
        cols) of its shards, None for a replica's worker and for a bound the
        shard lacks; make runs once per distinct shard, equal shards share
        one result, and equal lists share one tuple."""
        layout = self.replica + 2 * self.has_rows + 4 * self.has_cols
        keys = np.column_stack((layout, self.worker, self.rows, self.cols))
        shard, first = _distinct_rows(keys)
        made = [  # layout bits: 1 a replica, 2 has rows, 4 has cols
            make(None if m & 1 else w, (r0, r1) if m & 2 else None, (c0, c1) if m & 4 else None)
            for m, w, r0, r1, c0, c1 in keys[first].tolist()
        ]
        counts = np.bincount(self.assignment, minlength=len(self.table_ids))
        if len(made) == len(keys) and counts.all():
            # no shard repeats and no list is empty, so no list repeats
            shards = map(made.__getitem__, shard.tolist())
            return [tuple(islice(shards, c)) for c in counts.tolist()], list(range(len(counts)))
        starts = np.cumsum(counts) - counts
        which = np.empty(len(counts), np.int64)
        lists = []
        # the lists of c shards are the rows of one (assignments x c) matrix
        for c in np.flatnonzero(np.bincount(counts)).tolist():
            group = np.flatnonzero(counts == c)
            ids = shard[starts[group, None] + np.arange(c)]
            position, first = _distinct_rows(ids)
            which[group] = position + len(lists)
            shards = map(made.__getitem__, ids[first].ravel().tolist())
            lists += zip(*[shards] * c) if c else [()]  # tuples of c in a row
        return lists, which.tolist()

    def table_assignments(self) -> tuple[TableAssignment, ...]:
        """The assignments these columns hold; equal shard lists share one
        tuple of Shards."""
        lists, which = self.shard_lists(Shard)
        return tuple(
            map(TableAssignment, self.table_ids, self.schemes, map(lists.__getitem__, which))
        )

    def extents(self, axis: str, full: np.ndarray) -> np.ndarray:
        """Rows (axis "rows") or columns ("cols") of each shard, its bounds
        resolved by _resolve_bounds against its table extent `full`."""
        start, end = _resolve_bounds(getattr(self, axis), getattr(self, f"has_{axis}"), full)
        return end - start

    def row_share(self) -> np.ndarray:
        """Each shard's share of its table's lookups: 1/k for a row-wise
        shard of k, else 1.0."""
        return np.where(self.kind == RW, 1.0 / self.num_shards, 1.0)

    def per_worker(self, values: np.ndarray, num_workers: int) -> np.ndarray:
        """Per-worker sums of a per-shard value, every replica on every worker.

        Float sums add in plan order from 0.0: np.bincount adds its weights
        in buffer order. Integer sums are exact in int64. The plan gate
        (_plan_tables) keeps every worker in [0, num_workers).
        """
        dest = self.dest
        charged = values[self.src]
        if charged.dtype.kind == "f":
            return np.bincount(dest, weights=charged, minlength=num_workers)
        sums = np.zeros(num_workers, dtype=np.int64)
        np.add.at(sums, dest, charged)
        return sums


def _resolve_bounds(bounds: np.ndarray, given: np.ndarray, full: np.ndarray):
    """(start, end) of each shard: its `bounds` where `given`, else (0,
    full), its table's extent. The bounds of a plan that passed validate_plan
    tile their table, and a placement's come from _even_bounds_column."""
    return np.where(given, bounds[:, 0], 0), np.where(given, bounds[:, 1], full)


def _int64_column(values, count: int, name: str) -> np.ndarray:
    try:
        return np.fromiter(values, np.int64, count)
    except OverflowError:
        raise InvalidValue(f"shards.{name}", "must fit in int64") from None


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's id among the distinct rows of a 2-D int array, and the
    index of one row per id."""
    order = np.lexsort(matrix.T) if matrix.shape[1] else np.arange(len(matrix))
    ordered = matrix[order]
    new = np.ones(len(order), bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(order), np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _bounds_column(bounds: list, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) pairs as an (n, 2) array, None as (0, FULL_EXTENT), and
    whether each pair is given."""
    n = len(bounds)
    pairs = chain.from_iterable((0, FULL_EXTENT) if b is None else b for b in bounds)
    given = np.fromiter(map(is_not, bounds, repeat(None)), bool, n)
    return _int64_column(pairs, 2 * n, name).reshape(n, 2), given


@dataclass(frozen=True)
class ShardingPlan:
    """Which scheme each table takes and where each of its shards goes.

    A plan built from TableAssignments reads their shards into
    `shard_columns` once. The planners build theirs from columns
    (from_columns): `assignments` is then a view of the columns, built on
    first access. The program reads only the columns, so planning,
    serializing, validating, simulating and verifying build no Shard.
    Equality, hash, repr, pickling and dataclasses.replace read
    `assignments`, so they behave the same for both; none of them sees the
    memory report a plan keeps (see memory_check) or the model it was
    checked against (see _plan_tables).
    """

    num_workers: int
    gpus_per_node: int
    assignments: tuple[TableAssignment, ...]
    heuristic: str = "greedy"
    # derived, so outside eq/hash/repr
    shard_columns: ShardColumns = field(init=False, repr=False, compare=False)
    # (model, cluster, flags, report) of the first memory report computed
    # for the plan; a class attribute, not a field
    _memory = None
    # (model, each shard's position in model.tables) of the first model the
    # plan passed validate_plan against; a class attribute, not a field
    _checked = None

    def __post_init__(self):
        _check_layout(self.num_workers, self.gpus_per_node)
        object.__setattr__(self, "shard_columns", ShardColumns.of(self))

    @classmethod
    def from_columns(
        cls, num_workers: int, gpus_per_node: int, columns: ShardColumns, heuristic: str
    ) -> "ShardingPlan":
        """A plan holding `columns` (built for `num_workers`) alone."""
        _check_layout(num_workers, gpus_per_node)
        plan = object.__new__(cls)
        object.__setattr__(plan, "num_workers", num_workers)
        object.__setattr__(plan, "gpus_per_node", gpus_per_node)
        object.__setattr__(plan, "heuristic", heuristic)
        object.__setattr__(plan, "shard_columns", columns)
        return plan

    def __getattr__(self, name):
        # reached only for what is not set yet: a column-built plan's assignments
        if name != "assignments":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = self.shard_columns.table_assignments()
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        # rebuild the derived fields, so unpickled arrays stay read-only
        return type(self), (
            self.num_workers, self.gpus_per_node, self.assignments, self.heuristic
        )


def _check_layout(num_workers: int, gpus_per_node: int) -> None:
    for name, value in (("num_workers", num_workers), ("gpus_per_node", gpus_per_node)):
        if value < 1:
            raise InvalidValue(name, "must be >= 1")


def _check_cluster_layout(num_workers: int, gpus_per_node: int, cluster: ClusterSpec) -> None:
    """A plan's worker count and GPUs per node must be the cluster's."""
    if num_workers != cluster.num_workers:
        raise InvalidValue("plan", "plan and cluster disagree on worker count")
    if gpus_per_node != cluster.gpus_per_node:
        raise InvalidValue("plan", "plan and cluster disagree on GPUs per node")


def _even_edges(i, extent, parts):
    """Where range i of even_bounds(extent, parts) starts, and range i - 1
    ends; elementwise over numpy arrays."""
    return i * (extent // parts) + np.minimum(i, extent % parts)


def even_bounds(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split [0, extent) into `parts` contiguous near-equal ranges: the
    first extent % parts ranges hold one more than the rest."""
    edges = _even_edges(np.arange(parts + 1), extent, parts).tolist()
    return list(zip(edges, edges[1:]))


def validate_scheme(table: TableSpec, scheme: Scheme) -> None:
    if scheme.kind is SchemeKind.ROW_WISE:
        if not 1 <= scheme.num_row_shards <= table.num_rows:
            raise InvalidScheme(
                f"{table.id}: row shard count {scheme.num_row_shards} "
                f"not in [1, {table.num_rows}]"
            )
    elif scheme.kind is SchemeKind.COLUMN_WISE:
        splits = scheme.col_splits
        if not splits:
            raise InvalidScheme(f"{table.id}: column-wise scheme needs slices")
        pos = 0
        for a, b in splits:
            if a != pos or b <= a:
                raise InvalidScheme(f"{table.id}: column slices must tile [0, D)")
            pos = b
        if pos != table.dim:
            raise InvalidScheme(f"{table.id}: column slices must cover [0, {table.dim})")


# ---------------------------------------------------------------------------
# shard cost model
#
# Every storage and cost number of the planner comes from the column
# functions of this section and the next, over many tables or candidates in
# one numpy pass. shard_cost and candidate_costs are their one-row views.


def _int64_product(factor, *factors):
    """Exact elementwise product of non-negative int64 factors.

    Raises InvalidValue at `model` where the product would pass int64,
    rather than wrap.
    """
    product = factor
    for f in factors:
        if np.any(product > INT64_MAX // np.maximum(f, 1)):
            raise InvalidValue("model", "a byte count passes int64")
        product = product * f
    return product


def _piece_bytes(rows, width, elem_bytes, flags: CompressionFlags, product=_int64_product):
    """(value bytes, optimizer state bytes) of (rows x width) pieces whose
    values take `elem_bytes` each, elementwise. `product` multiplies, exact
    in int64; a caller that has bounded every piece passes np.multiply."""
    elems = product(rows, width)
    value_bytes = product(elems, elem_bytes)
    state_bytes = product(
        rows if flags.rowwise_optimizer else elems, OPTIMIZER_STATE_BYTES
    )
    return value_bytes, state_bytes


def _storage_bytes(rows, width, elem_bytes, flags: CompressionFlags):
    """Value bytes plus optimizer state of (rows x width) pieces, the sum of
    _piece_bytes' two parts, exact in int64."""
    value_bytes, state_bytes = _piece_bytes(rows, width, elem_bytes, flags)
    if np.any(value_bytes > INT64_MAX - state_bytes):
        raise InvalidValue("model", "a byte count passes int64")
    return value_bytes + state_bytes


def _value_bytes(tc: TableColumns, flags: CompressionFlags) -> np.ndarray:
    """Each table's bytes per value: the forced table precision, else its own."""
    if flags.table_precision:
        return np.full(len(tc.rows), PRECISION_BYTES[flags.table_precision])
    return tc.elem_bytes


def table_bytes(tc: TableColumns, flags: CompressionFlags) -> np.ndarray:
    """Each table's whole storage: value bytes plus optimizer state."""
    return _storage_bytes(tc.rows, tc.dim, _value_bytes(tc, flags), flags)


def _shard_costs(tc: TableColumns, table, kind, num_shards, width, cluster, global_batch):
    """(comm_bytes, load, fixed_latency) columns of one shard per row: row i
    applies scheme kind[i] (a TW/RW/CW/DP code) with num_shards[i] shards of
    width[i] columns to table table[i] of `tc` (shards are symmetric).

    load is the embedding access size: (table fraction on the worker) x global
    batch x pooling x dim. comm_bytes charges pooled output plus index payload
    for TW/CW, bucketized indices plus ReduceScatter volume for RW, and the
    ring AllReduce volume 2(p-1)/p x table bytes for DP. Pooled activations
    count ACTIVATION_BYTES per element; parameter gradients count the model
    spec's value precision.
    Each expression keeps its operands in the order of the scalar formula,
    and integer terms are exact, so every value is the float that one
    table's arithmetic in Python gives.
    """
    act = ACTIVATION_BYTES
    gb = global_batch
    L = tc.pooling[table]
    D = tc.dim[table]
    idx = tc.index_bytes[table]
    comm = np.empty(len(table))
    load = np.empty(len(table))
    # TW and CW shards look up whole rows of their `width` columns; the
    # index payload is replicated to every column shard
    pooled = (kind == TW) | (kind == CW)
    w = width[pooled]
    batch_pooling = gb * L[pooled]
    load[pooled] = batch_pooling * w
    comm[pooled] = _int64_product(w, gb, act) + batch_pooling * idx[pooled]
    rw = kind == RW
    k = num_shards[rw]
    batch_share = gb * (L[rw] / k)
    load[rw] = batch_share * D[rw]
    reduce_scatter = (k - 1) / k * gb * D[rw] * act
    comm[rw] = batch_share * idx[rw] + reduce_scatter
    # DATA_PARALLEL: replica computes only its local batch share; gradients
    # synchronize with a ring AllReduce over the whole table.
    dp = kind == DP
    p = cluster.num_workers
    load[dp] = (gb / p) * L[dp] * D[dp]
    dp_table = table[dp]
    comm[dp] = 2 * (p - 1) / p * tc.rows[dp_table] * D[dp] * tc.elem_bytes[dp_table]
    fixed = cluster.fixed_latency_per_collective
    return comm, load, np.where(dp, 1 * fixed, 4 * fixed)


def shard_cost(
    table: TableSpec, scheme: Scheme, cluster: ClusterSpec, global_batch: int
) -> ShardCost:
    """Per-shard cost of applying `scheme` to `table`: one row of the cost
    columns (see _shard_costs). A column-wise shard costs its first slice."""
    validate_scheme(table, scheme)
    width = table.dim
    if scheme.kind is SchemeKind.COLUMN_WISE:
        width = scheme.col_splits[0][1] - scheme.col_splits[0][0]
    costs = _shard_costs(
        TableColumns.of((table,)),
        np.zeros(1, np.int64),
        np.array([_KIND_CODE[scheme.kind]], np.int8),
        np.array([scheme.num_shards], np.int64),
        np.array([width], np.int64),
        cluster,
        global_batch,
    )
    return ShardCost(*(column[0].item() for column in costs))


# ---------------------------------------------------------------------------
# candidate enumeration

MIN_COL_WIDTH = 4  # narrowest column shard offered


def _floor_bytes(limit) -> int:
    """floor(limit), clamped to [-1, INT64_MAX]: a byte count b >= 0 is
    <= limit exactly when b <= _floor_bytes(limit), also for a float limit."""
    if not limit >= 0:
        return -1
    if limit >= INT64_MAX:
        return INT64_MAX
    return math.floor(limit)


def _cluster_bytes(cluster: ClusterSpec):
    """All HBM plus all host DRAM of the cluster."""
    return (
        cluster.num_workers * cluster.hbm_capacity_per_gpu
        + cluster.num_nodes * cluster.dram_capacity_per_node
    )


def _enumerate(tc: TableColumns, ids: Sequence[str], cluster, policy):
    """Every table's feasible schemes as rows (see CandidateColumns):
    (table, kind, num_shards, width, storage, start).

    Data parallelism is offered only below the policy's size threshold;
    row/column sharding only when the table cannot fit one device or the
    policy asks for finer grain. Raises NoFeasibleScheme, naming its id from
    `ids`, for the first table in model order that needs more than the
    whole cluster or that no scheme places, the former checked first.
    """
    flags = policy.flags
    H, D = tc.rows, tc.dim
    elem_bytes = _value_bytes(tc, flags)
    full = _storage_bytes(H, D, elem_bytes, flags)
    budget = _floor_bytes(cluster.hbm_capacity_per_gpu + cluster.dram_capacity_per_gpu)
    fits = full <= budget
    # row and column shard counts offered: the powers of two 2, 4, ... <= W
    counts = 2 ** np.arange(1, cluster.num_workers.bit_length(), dtype=np.int64)
    H2, D2, elem2 = H[:, None], D[:, None], elem_bytes[:, None]
    rw_storage = _storage_bytes(-(-H2 // counts), D2, elem2, flags)
    rw = (
        (counts <= H2)
        & (~fits | policy.fine_grain)[:, None]
        & (rw_storage <= budget)
    )
    # Column splits serve the fine-grain load-balancing role; for oversized
    # tables they only step in when rows cannot split (they replicate input
    # indices and per-row optimizer state, defeating capacity sharding).
    cw_storage = _storage_bytes(H2, D2 // counts, elem2, flags)
    cw = (
        (counts <= D2 // MIN_COL_WIDTH)
        & (D2 % counts == 0)
        & (policy.fine_grain | (~fits & ~rw.any(axis=1)))[:, None]
        & (cw_storage <= budget)
    )
    threshold = policy.dp_threshold_bytes
    if threshold is None:
        threshold = cluster.hbm_capacity_per_gpu // 1000
    dp = (_int64_product(H, D, tc.elem_bytes) <= _floor_bytes(threshold)) & fits
    # one column per candidate slot, in enumeration order
    offered = np.concatenate((fits[:, None], rw, cw, dp[:, None]), axis=1)
    cluster_total = _cluster_bytes(cluster)
    too_big = full > _floor_bytes(cluster_total)
    unplaced = too_big | ~offered.any(axis=1)
    if unplaced.any():
        t = int(unplaced.argmax())
        if too_big[t]:
            raise NoFeasibleScheme(
                f"table {ids[t]} needs {int(full[t])} bytes, "
                f"cluster has {cluster_total}"
            )
        raise NoFeasibleScheme(f"no scheme places table {ids[t]} on this cluster")
    table, slot = np.nonzero(offered)
    n = len(counts)
    kind = np.array([TW, *[RW] * n, *[CW] * n, DP], np.int8)[slot]
    num_shards = np.concatenate(([1], counts, counts, [1]))[slot]
    width = D[table] // np.where(kind == CW, num_shards, 1)
    storage = np.concatenate(
        (full[:, None], rw_storage, cw_storage, full[:, None]), axis=1
    )[table, slot]
    start = np.concatenate(([0], np.cumsum(offered.sum(axis=1))))
    return table, kind, num_shards, width, storage, start


class CandidateColumns(NamedTuple):
    """Candidate schemes as numpy columns, one row per (table, candidate).

    Rows run in model order, each table's in enumeration order: TW, RW by
    ascending k, CW by ascending c, then DP; table t's rows are
    start[t]:start[t + 1]. Per row: `table` (its position in model.tables),
    `kind` (the TW/RW/CW/DP code), `num_shards`, `storage` (bytes of the
    largest shard, values plus optimizer state, exact in int64) and one
    shard's `comm_bytes`, `load` and `fixed_latency`.
    """

    table: np.ndarray
    kind: np.ndarray
    num_shards: np.ndarray
    storage: np.ndarray
    comm_bytes: np.ndarray
    load: np.ndarray
    fixed_latency: np.ndarray
    start: np.ndarray

    @classmethod
    def of(
        cls, model: ModelSpec, cluster: ClusterSpec, policy: CandidatePolicy
    ) -> "CandidateColumns":
        """Every feasible scheme of every table; raises NoFeasibleScheme for
        the first table in model order that has none (see _enumerate)."""
        tc = model.table_columns
        table, kind, num_shards, width, storage, start = _enumerate(
            tc, model._ids, cluster, policy
        )
        global_batch = model.local_batch * cluster.num_workers
        costs = _shard_costs(tc, table, kind, num_shards, width, cluster, global_batch)
        return cls(table, kind, num_shards, storage, *costs, start)

    @classmethod
    def table_wise(
        cls, model: ModelSpec, cluster: ClusterSpec, flags: CompressionFlags
    ) -> "CandidateColumns":
        """One table-wise row per table, whether or not it fits a device:
        the node-level candidates of hierarchical planning."""
        tc = model.table_columns
        T = len(tc.rows)
        table = np.arange(T)
        kind = np.full(T, TW, np.int8)
        num_shards = np.ones(T, np.int64)
        global_batch = model.local_batch * cluster.num_workers
        costs = _shard_costs(tc, table, kind, num_shards, tc.dim, cluster, global_batch)
        storage = table_bytes(tc, flags)
        return cls(table, kind, num_shards, storage, *costs, np.arange(T + 1))


def _schemes(kind: np.ndarray, num_shards: np.ndarray, dim: np.ndarray) -> list[Scheme]:
    """The Scheme of each candidate row, given its table's `dim`; equal rows
    share one object."""
    made: dict[tuple, Scheme] = {}
    schemes = []
    for key in zip(kind.tolist(), num_shards.tolist(), dim.tolist()):
        scheme = made.get(key)
        if scheme is None:
            k, n, d = key
            if k == RW:
                scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=n)
            elif k == CW:
                scheme = Scheme(SchemeKind.COLUMN_WISE, col_splits=tuple(even_bounds(d, n)))
            else:
                scheme = Scheme(_KINDS[k])
            made[key] = scheme
        schemes.append(scheme)
    return schemes


# ---------------------------------------------------------------------------
# partitioning heuristics


def _is_finite(cost) -> bool:
    try:
        return math.isfinite(cost)
    except OverflowError:  # an int beyond the float range
        return False


def _check_partition_input(items: Sequence[tuple], k: int) -> None:
    """k must be an int (not a bool) >= 1 and every cost finite (see
    _check_costs)."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise InvalidValue("k", "expected an integer")
    if k < 1:
        raise InvalidValue("k", "must be >= 1")
    _check_costs(list(map(itemgetter(1), items)))


def _check_costs(costs: list) -> None:
    """Every item's cost must be finite: NaN has no order, so no assignment
    is defined for it. The error names the first such item, items[i]."""
    try:
        finite = all(map(math.isfinite, costs))
    except OverflowError:
        finite = False
    if not finite:
        i = next(i for i, cost in enumerate(costs) if not _is_finite(cost))
        raise InvalidValue(f"items[{i}]", "expected a finite cost")


def greedy_partition(items: Sequence[tuple], k: int) -> dict:
    """Largest-first greedy over (id, cost) items: seed k bins, then fill
    the lightest bin. {item id: bin}, in placement order (-cost, id).

    Ties between bins break toward the lowest bin index. perfbench and the
    tests call it; the planners run _greedy_bins on their items in plan
    order.
    """
    _check_partition_input(items, k)
    order = sorted(items, key=lambda it: (-it[1], it[0]))
    return dict(zip(map(itemgetter(0), order), _greedy_bins(list(map(itemgetter(1), order)), k)))


def _greedy_bins(costs: list, k: int) -> list[int]:
    """greedy_partition over costs already in placement order: the bin of
    each item. Bin sums are floats from 0.0."""
    bins = list(range(min(k, len(costs))))
    # (sum, bin) pairs: the heap top is the lightest bin, ties the lowest index
    heap = [(0.0 + cost, j) for j, cost in zip(bins, costs)]
    heap += [(0.0, j) for j in range(len(bins), k)]
    heapq.heapify(heap)
    for cost in costs[k:]:
        total, bin_idx = heap[0]
        bins.append(bin_idx)
        heapq.heapreplace(heap, (total + cost, bin_idx))
    return bins


def karmarkar_karp_partition(items: Sequence[tuple], k: int) -> dict:
    """k-way largest differencing method with full partition reconstruction:
    {item id: bin}.

    The items, ranked by id (an item's seq is its rank), are partitioned by
    _kk_bins, which describes the merges. The result lists the items bin by
    bin, each bin's items in the order of concatenating A's items before
    B's at each merge. k=1 puts every item in bin 0, in the given order;
    k=2 is the classic LDM. Raises InvalidValue for a k that is not an int
    >= 1 and for a non-finite cost. perfbench and the tests call it; the
    planners run _kk_bins on their items in plan order.
    """
    _check_partition_input(items, k)
    if k == 1:
        return {item_id: 0 for item_id, _ in items}
    by_id = sorted(items, key=itemgetter(0))
    seqs, bins = _kk_bins(list(map(itemgetter(1), by_id)), k)
    return dict(zip([by_id[seq][0] for seq in seqs], bins))


def _kk_bins(raw: list, k: int) -> tuple[list[int], list[int]]:
    """karmarkar_karp_partition over the costs of items already in seq
    order (item seq costs raw[seq]; k >= 1, every cost finite): the seqs in
    the order the merge trees flatten, bin by bin and each left-first, and
    the bin of each.

    Each entry is a vector of k bins, sums in descending order, keyed by
    (-spread, smallest contained seq), where spread is max sum - min sum
    and seq is an item's position in raw. A merge takes the two smallest keys,
    pairs slot i of A with slot k-1-i of B and sorts the k merged bins by a
    stable descending sort on sum, so equal sums keep their slot order.

    An entry holds only the prefix of its k (sum, tree) bins that ends at
    its last occupied bin; every slot past it is (0.0, no items), and an
    item starts as a one-bin prefix. With prefix lengths pa + pb <= k no
    occupied bins meet, so the merged vector is A's prefix, k-pa-pb empty
    slots, then B's prefix reversed, and its stable sort is an insertion
    sort into A's prefix: each slot goes after every bin of equal or larger
    sum (a binary search). The empty slots are spelled out only if a bin
    sorts after them, which takes a zero-sum or negative bin. Only when
    pa + pb > k are both padded to k and paired, O(k); at k = 2 two full
    pairs merge in two additions and one comparison. Trailing empty slots
    are then trimmed, so the spread's min sum is 0.0 unless the prefix has
    k bins.

    Items no merge has touched wait in a ranked queue, sorted once by key
    (-cost, seq); only merged entries go in a heap, and each pop takes the
    smaller key of the queue head and the heap top (seqs are unique, so
    keys never tie). When a merge leaves entry E with p < k bins, the
    stepwise loop would pop E again and merge the queue head q into it
    while E's key is below q's and the heap top's, q's key is below the
    heap top's, and 0 < cost(q) <= E's last sum. Such an E holds one item
    per bin, each popped before q and so costing no less: a positive
    cost(q) implies the last condition, and E's key is above q's only
    where float() rounds an int cost. q's bin sorts last with no empty slot
    spelled out, E keeps its spread (its first sum), its seq can only fall,
    and the next queue item has a larger key and no larger cost, so the
    conditions hold on a prefix of the queue. That run, cut at k - p items,
    is appended in one slice and E is pushed once.

    A bin's items are a merge tree, never a copied list: one shared empty
    list (no items), an item's seq, or a two-element list [left, right].
    The trees are flattened left-first at the end, which gives every item
    the bin, and the result the insertion order, of concatenating A's items
    before B's at each merge. Keys compare the raw costs, so ints beyond
    2**53 order exactly; only the bin sums are floats.
    """
    if k == 1:
        return list(range(len(raw))), [0] * len(raw)
    keys = sorted(zip(map(neg, raw), count()))
    ids = list(map(itemgetter(1), keys))  # the queue's items, each a tree leaf
    costs = list(map(float, map(raw.__getitem__, ids)))
    n = len(keys)
    positive = bisect_left(keys, (0,))  # the queue items of cost > 0
    q = 0  # the queue head
    heap = []
    empty = []  # the tree of an empty bin
    while n - q + len(heap) > 1:
        # pop A, then B: the queue head unless the heap top's key is smaller
        # (written out twice: a call per pop costs ~10% at k = 2)
        if q < n and not (heap and heap[0] < keys[q]):
            seq_a, sums_a, trees_a = keys[q][1], [costs[q]], [ids[q]]
            q += 1
        else:
            _, seq_a, sums_a, trees_a = heapq.heappop(heap)
        if q < n and not (heap and heap[0] < keys[q]):
            seq_b, sums_b, trees_b = keys[q][1], [costs[q]], [ids[q]]
            q += 1
        else:
            _, seq_b, sums_b, trees_b = heapq.heappop(heap)
        pa = len(sums_a)
        pb = len(sums_b)
        gap = k - pa - pb
        if gap >= 0:
            # no occupied bins meet: an insertion sort of A's prefix, the gap
            # empty slots and B's prefix reversed, one binary search each
            sums, trees = sums_a, trees_a
            if sums_a[-1] < 0 or sums_b[-1] <= 0:
                # a bin sorts after the empty slots: spell them out
                i = bisect_right(sums, 0.0, key=neg)
                sums[i:i] = [0.0] * gap
                trees[i:i] = [empty] * gap
            for s, t in zip(reversed(sums_b), reversed(trees_b)):
                i = bisect_right(sums, -s, key=neg)
                sums.insert(i, s)
                trees.insert(i, t)
        elif gap == -2 and k == 2:  # two full pairs, each with an occupied last bin
            (a0, a1), (b0, b1) = trees_a, trees_b
            s0, s1 = sums_a[0] + sums_b[1], sums_a[1] + sums_b[0]
            t0, t1 = b1 if a0 is empty else [a0, b1], a1 if b0 is empty else [a1, b0]
            sums, trees = ([s1, s0], [t1, t0]) if s0 < s1 else ([s0, s1], [t0, t1])
        else:
            # largest sums of A absorb the smallest sums of B
            sums_a += [0.0] * (k - pa)
            trees_a += [empty] * (k - pa)
            sums_b += [0.0] * (k - pb)
            trees_b += [empty] * (k - pb)
            sums = list(map(add, sums_a, reversed(sums_b)))
            trees = [
                b if a is empty else a if b is empty else [a, b]
                for a, b in zip(trees_a, reversed(trees_b))
            ]
            pick = itemgetter(*sorted(range(k), key=sums.__getitem__, reverse=True))
            sums = list(pick(sums))
            trees = list(pick(trees))
        while trees[-1] is empty:
            sums.pop()
            trees.pop()
        seq = min(seq_a, seq_b)
        p = len(sums)
        if (
            p < k
            and q < positive
            and (-sums[0], seq) < keys[q]
            and not (heap and heap[0] < keys[q])
        ):
            # a run: the queue items below the heap top, at most k - p
            end = min(positive, q + k - p)
            if heap:
                end = bisect_left(keys, heap[0], q, end)
            sums += costs[q:end]
            trees += ids[q:end]
            seq = min(seq, *map(itemgetter(1), keys[q:end]))
            q = end
        spread = sums[0] - sums[-1] if len(sums) == k else sums[0]
        heapq.heappush(heap, (-spread, seq, sums, trees))
    seqs, bins = [], []
    # without a merge, ids holds the one item or none
    for bin_idx, root in enumerate(heap[0][3] if heap else ids):
        stack = [root]
        held = len(seqs)
        while stack:
            node = stack.pop()
            if type(node) is not list:
                seqs.append(node)
            elif node:
                stack += node[1], node[0]
        bins += [bin_idx] * (len(seqs) - held)
    return seqs, bins


HEURISTICS = ("greedy", "kk")


# ---------------------------------------------------------------------------
# scalar objective


@dataclass(frozen=True)
class CostNorms:
    """Per-term means used to bring comm/load/latency to a common scale."""

    comm: float
    load: float
    latency: float


def cost_norms(costs: CandidateColumns) -> CostNorms:
    """Per-term means over the rows of a CandidateColumns. Each mean adds its
    terms in row order from 0."""
    terms = [costs.comm_bytes.tolist(), costs.load.tolist(), costs.fixed_latency.tolist()]
    n = max(len(terms[0]), 1)
    return CostNorms(*(sum(values) / n for values in terms))


def scalar_objective(cost, weights: CostWeights, norms: CostNorms):
    """The normalized weighted cost of a ShardCost, or of every row of a
    CandidateColumns as one array."""
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
    """Each table's candidates with one shard's cost: CandidateColumns.of as
    objects, keyed by table id."""
    cands = CandidateColumns.of(model, cluster, policy)
    schemes = _schemes(cands.kind, cands.num_shards, model.table_columns.dim[cands.table])
    costs = map(
        ShardCost,
        cands.comm_bytes.tolist(),
        cands.load.tolist(),
        cands.fixed_latency.tolist(),
    )
    rows = list(zip(schemes, costs))
    start = cands.start.tolist()
    return {tid: rows[start[i] : start[i + 1]] for i, tid in enumerate(model._ids)}


# ---------------------------------------------------------------------------
# memory accounting

TIERS = ("hbm", "hbm+dram", "infeasible")  # a worker's tier code indexes this
HBM, HBM_DRAM, INFEASIBLE = range(len(TIERS))


class MemoryReport(NamedTuple):
    """Per-worker bytes and the memory tier each worker lands in.

    Each column is a read-only int64 array over workers: `table_bytes` (the
    values), `optimizer_bytes` (the optimizer state), `dense_bytes` (the
    dense replica), `totals` (their sum) and `tier` (an index into TIERS).
    `feasible` holds when no worker is INFEASIBLE.
    """

    feasible: bool
    table_bytes: np.ndarray
    optimizer_bytes: np.ndarray
    dense_bytes: np.ndarray
    totals: np.ndarray
    tier: np.ndarray


# widest per-element charge: a value at FP32 or an element-wise moment
_MAX_ELEMENT_BYTES = max(*PRECISION_BYTES.values(), OPTIMIZER_STATE_BYTES)


def _check_int64_bytes(charges: int, model: ModelSpec) -> None:
    """Raise InvalidValue if a per-worker byte total of a placement with
    `charges` (worker, shard) charges (ShardColumns.charges) could pass
    int64.

    With Python ints: every charge holds at most the widest table's rows
    times its widest dim elements, each of at most _MAX_ELEMENT_BYTES. That
    relies on validate_plan's tile and cover rules, which memory_check's
    plans pass through the gate (_plan_tables), and on _even_bounds_column
    for a placement's bounds: no bound passes its table.
    """
    tc = model.table_columns
    rows = int(tc.rows.max(initial=0))
    width = int(tc.dim.max(initial=0))
    bound = charges * rows * width * _MAX_ELEMENT_BYTES
    if bound > INT64_MAX:
        raise InvalidValue(
            "model",
            f"a worker's table bytes may reach {bound}, beyond int64 "
            f"({charges} shard charges of up to {rows} x {width} elements)",
        )


def memory_check(
    plan: ShardingPlan,
    model: ModelSpec,
    cluster: ClusterSpec,
    flags: CompressionFlags,
) -> MemoryReport:
    """Per-worker bytes (values + optimizer state + dense replica) and the
    memory tier each placement lands in, as columns (see MemoryReport).

    Tiers compare each exact int64 total against the capacities floored to
    integers (_floor_bytes), so they match an exact comparison with a float
    capacity. A plan that breaks a validate_plan rule raises InvalidScheme
    at the gate (_plan_tables); a total that would pass int64 raises
    InvalidValue at `model`, and a plan whose worker count or GPUs per node
    differ from the cluster's raises InvalidValue at `plan`.

    A plan keeps the first report computed for it, here or by plan_4d or
    hierarchical_plan, keyed by the identity of `model` and `cluster` and by
    equal `flags`: a call with that model, that cluster and equal flags
    returns the kept report, and any other call evaluates afresh.
    """
    kept = plan._memory
    if kept is not None and kept[0] is model and kept[1] is cluster and kept[2] == flags:
        return kept[3]
    cols = plan.shard_columns
    t = _plan_tables(plan, model)
    _check_int64_bytes(cols.charges, model)
    tc = model.table_columns
    report = _memory_report(
        model,
        cluster,
        flags,
        (plan.num_workers, plan.gpus_per_node),
        t,
        cols.extents("rows", tc.rows[t]),
        cols.extents("cols", tc.dim[t]),
        cols.worker,
        cols.replica,
    )
    if kept is None:
        object.__setattr__(plan, "_memory", (model, cluster, flags, report))
    return report


def _memory_report(
    model, cluster, flags, layout, table, rows, width, worker, replica
) -> MemoryReport:
    """The memory core: the report of a placement over `layout` (its
    worker count and GPUs per node, which must be the cluster's), from its
    per-shard facts in plan order: the table (position in model.tables),
    rows, width, worker and whether the shard is a replica, charged to
    every worker. The caller has run _check_int64_bytes, so every piece's
    product is exact. Every placed worker is in [0, W): validate_plan's
    worker rule holds for memory_check's plans through the gate
    (_plan_tables), and a placement's workers are partition bins.
    """
    _check_cluster_layout(*layout, cluster)
    W = cluster.num_workers
    elem_bytes = _value_bytes(model.table_columns, flags)[table]
    value_bytes, state_bytes = _piece_bytes(rows, width, elem_bytes, flags, np.multiply)
    held = ~replica  # charged to its own worker only
    workers = worker[held]
    values, states = np.zeros(W, np.int64), np.zeros(W, np.int64)
    # integer sums are exact in any order
    np.add.at(values, workers, value_bytes[held])
    np.add.at(states, workers, state_bytes[held])
    values += value_bytes[replica].sum()
    states += state_bytes[replica].sum()
    dense = model.dense_param_bytes
    if np.any(values > INT64_MAX - states):
        raise InvalidValue("model", "a worker's table bytes pass int64")
    placed = values + states
    if np.any(placed > INT64_MAX - dense):
        raise InvalidValue("model", "a worker's bytes with the dense replica pass int64")
    totals = placed + dense
    hbm = cluster.hbm_capacity_per_gpu
    budget = _floor_bytes(hbm + cluster.dram_capacity_per_gpu)
    tier = np.where(
        totals > _floor_bytes(hbm), np.where(totals > budget, INFEASIBLE, HBM_DRAM), HBM
    )
    columns = (values, states, np.full(W, dense), totals, tier)
    for column in columns:
        column.flags.writeable = False
    return MemoryReport(not np.any(tier == INFEASIBLE), *columns)


# ---------------------------------------------------------------------------
# plan construction


class _Placement(NamedTuple):
    """One assignment per table of a model, in model order, before a plan
    holds it. Per table: its kind code `kind` and `num_shards`. Per shard:
    its `table` (position in model.tables) and the columns `shards` that
    ShardColumns.build takes. `report` is the placement's memory report
    against `key`, its (model, cluster, flags)."""

    kind: np.ndarray
    num_shards: np.ndarray
    table: np.ndarray
    shards: dict
    report: MemoryReport
    key: tuple

    def plan(self, schemes: Sequence[Scheme], tags: np.ndarray, heuristic: str) -> ShardingPlan:
        """The plan of this placement, keeping its report and the record of
        its model and its shards' tables (built for that model, so checked
        against it): table t takes schemes[t] with tag code tags[t]."""
        model, cluster, _ = self.key
        W = cluster.num_workers
        columns = ShardColumns.build(
            model._ids,
            tuple(schemes),
            self.kind,
            tags,
            self.num_shards,
            W,
            **self.shards,
        )
        plan = ShardingPlan.from_columns(W, cluster.gpus_per_node, columns, heuristic)
        object.__setattr__(plan, "_memory", (*self.key, self.report))
        self.table.flags.writeable = False
        object.__setattr__(plan, "_checked", (model, self.table))
        return plan


def _placement(model, cluster, flags, kind, num_shards, workers) -> _Placement:
    """Table t of `model` takes kind code kind[t] with num_shards[t] shards;
    `workers` holds every non-DP shard's worker in plan order. Row-wise
    shard i of k holds rows even_bounds(H, k)[i]; column-wise shard i of c
    holds columns even_bounds(D, c)[i]. The memory report reads each
    shard's extents from those bounds; no plan is built."""
    tc = model.table_columns
    table = np.repeat(np.arange(len(kind)), num_shards)
    k = kind[table]
    n = num_shards[table]
    i = np.arange(len(table)) - (np.cumsum(num_shards) - num_shards)[table]
    replica = k == DP
    worker = np.full(len(table), -1, np.int64)
    worker[~replica] = workers
    has_rows = k == RW
    has_cols = k == CW
    H, D = tc.rows[table], tc.dim[table]
    rows = _even_bounds_column(H, n, i, has_rows)
    cols = _even_bounds_column(D, n, i, has_cols)
    W = cluster.num_workers
    _check_int64_bytes(len(table) + (W - 1) * int(replica.sum()), model)
    r0, r1 = _resolve_bounds(rows, has_rows, H)
    c0, c1 = _resolve_bounds(cols, has_cols, D)
    report = _memory_report(
        model,
        cluster,
        flags,
        (W, cluster.gpus_per_node),
        table,
        r1 - r0,
        c1 - c0,
        worker,
        replica,
    )
    shards = dict(
        worker=worker, replica=replica, rows=rows, has_rows=has_rows, cols=cols, has_cols=has_cols
    )
    return _Placement(kind, num_shards, table, shards, report, (model, cluster, flags))


def _even_bounds_column(extent, parts, i, bounded) -> np.ndarray:
    """(start, end) of range i of even_bounds(extent, parts), elementwise,
    where `bounded`; (0, FULL_EXTENT) elsewhere."""
    bounds = np.stack(
        (_even_edges(i, extent, parts), _even_edges(i + 1, extent, parts)), axis=1
    )
    return np.where(bounded[:, None], bounds, (0, FULL_EXTENT))


# each kind code's rank by kind name, plan_4d's tie-break between equal
# aggregates
_NAME_RANK = np.array(
    [sorted(k.value for k in SchemeKind).index(k.value) for k in SchemeKind]
)


def plan_4d(
    model: ModelSpec,
    cluster: ClusterSpec,
    weights: CostWeights,
    policy: CandidatePolicy,
    heuristic: str = "greedy",
) -> ShardingPlan:
    """Select a scheme per table and place all shards across workers.

    Each table's candidates are ranked by their aggregate: the normalized
    scalar objective times the shards placed (W for a data-parallel
    replica). Ties go by kind name, then shard count, then enumeration
    order: one stable lexsort over every candidate row. Non-DP shards of
    each table's first-ranked candidate are partitioned with the chosen
    heuristic, equal costs in plan order (see _place). If the resulting
    placement fails the memory check, the most memory-hungry offending
    table (ties: the first in model order) is moved to its next ranked
    candidate with strictly more shards and placement is retried; a final
    attempt balances shard bytes instead of the objective.
    """
    if heuristic not in HEURISTICS:
        raise InvalidValue("heuristic", f"unknown heuristic {heuristic!r}")
    W = cluster.num_workers
    if not model.num_tables:
        return ShardingPlan(W, cluster.gpus_per_node, (), heuristic)
    total_bytes = sum(table_bytes(model.table_columns, policy.flags).tolist())
    cluster_total = _cluster_bytes(cluster)
    if total_bytes > cluster_total:
        raise Infeasible(
            f"model needs {total_bytes} bytes, cluster has {cluster_total}"
        )
    try:
        cands = CandidateColumns.of(model, cluster, policy)
    except NoFeasibleScheme as exc:
        raise Infeasible(str(exc)) from None
    objective = scalar_objective(cands, weights, cost_norms(cands))
    # DP replicas charge every worker, so they weigh W times in the
    # pooled-AlltoAll vs whole-table-AllReduce trade-off
    aggregate = np.where(cands.kind == DP, W, cands.num_shards) * objective
    ranked = np.lexsort(
        (cands.num_shards, _NAME_RANK[cands.kind], aggregate, cands.table)
    )
    # per ranked position; table t's candidates hold positions start[t]:start[t+1]
    shards = cands.num_shards[ranked].tolist()
    storage = cands.storage[ranked].tolist()
    start = cands.start.tolist()
    choice = start[:-1]
    for _ in range(len(ranked) + 1):
        placed = _place(model, cluster, policy.flags, cands, ranked[choice], objective, heuristic)
        if placed.report.feasible:
            break
        worker, replica = placed.shards["worker"], placed.shards["replica"]
        # a replica's worker -1 reads the last worker's flag; ~replica drops it
        overloaded = (placed.report.tier == INFEASIBLE)[worker] & ~replica
        offenders = set(placed.table[overloaded].tolist())
        move = None  # (-storage, table, next position) of the pick
        for t in offenders:
            j = choice[t]
            finer = (i for i in range(j + 1, start[t + 1]) if shards[i] > shards[j])
            nxt = next(finer, None)
            if nxt is not None:
                key = (-storage[j], t, nxt)
                move = key if move is None else min(move, key)
        if move is None:
            break
        _, t, nxt = move
        choice[t] = nxt
    if not placed.report.feasible:
        # last resort: balance bytes rather than the objective
        by_memory = cands.storage.astype(np.float64)
        placed = _place(model, cluster, policy.flags, cands, ranked[choice], by_memory, heuristic)
    report = placed.report
    if not report.feasible:
        worst = int(report.totals.argmax())  # the first of the largest
        raise Infeasible(
            f"no feasible placement found; worker {worst} needs "
            f"{report.totals[worst]} bytes"
        )
    schemes = _schemes(placed.kind, placed.num_shards, model.table_columns.dim)
    return placed.plan(schemes, np.zeros(len(schemes), np.int8), heuristic)


def _place(
    model: ModelSpec,
    cluster: ClusterSpec,
    flags: CompressionFlags,
    cands: CandidateColumns,
    rows: np.ndarray,
    item_costs: np.ndarray,
    heuristic: str,
) -> _Placement:
    """The placement of one chosen candidate row per table (model order):
    each non-DP shard i of table t is a partition item costing
    item_costs[row], in plan order (table position, then i); DP tables are
    replicated. Ties go to the earlier item in plan order: greedy places
    the items largest first, equal costs in plan order, and KK ranks them
    by (-cost, plan position)."""
    kind = cands.kind[rows]
    num_shards = cands.num_shards[rows]
    placed = np.where(kind == DP, 0, num_shards)  # items per table
    table = np.repeat(np.arange(len(rows)), placed)
    cost = item_costs[rows][table]
    if not np.isfinite(cost).all():
        _check_costs(cost.tolist())  # names the first non-finite item
    workers = np.empty(len(table), np.int64)
    if heuristic == "greedy":
        order = np.argsort(-cost, kind="stable")
        workers[order] = _greedy_bins(cost[order].tolist(), cluster.num_workers)
    else:
        seqs, bins = _kk_bins(cost.tolist(), cluster.num_workers)
        workers[seqs] = bins
    return _placement(model, cluster, flags, kind, num_shards, workers)


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
    if not model.num_tables:
        return ShardingPlan(W, cluster.gpus_per_node, (), "kk")
    tw = CandidateColumns.table_wise(model, cluster, policy.flags)
    objective = scalar_objective(tw, weights, cost_norms(tw))
    # KK over the tables' objectives, seq by table position
    if not np.isfinite(objective).all():
        _check_costs(objective.tolist())  # names the first non-finite item
    seqs, bins = _kk_bins(objective.tolist(), cluster.num_nodes)
    node = np.empty(len(seqs), np.int64)
    node[seqs] = bins
    gpn = cluster.gpus_per_node
    # table t holds k = min(gpn, H) row shards, shard i on GPU i of its node
    k = np.minimum(model.table_columns.rows, gpn)
    counts = k.tolist()
    schemes = {
        n: Scheme(
            SchemeKind.ROW_WISE,
            num_row_shards=n,
            hierarchical=_TW_THEN_RW,
        )
        for n in set(counts)
    }
    # node * gpn + i is that GPU, i the shard's plan position less t's first
    first = node * gpn - (np.cumsum(k) - k)
    T = len(counts)
    placed = _placement(
        model,
        cluster,
        policy.flags,
        np.full(T, RW, np.int8),
        k,
        np.repeat(first, k) + np.arange(int(k.sum())),
    )
    report = placed.report
    if not report.feasible:
        worst = int(report.totals.argmax())  # the first of the largest
        raise Infeasible(
            f"hierarchical placement overflows worker {worst} "
            f"({report.totals[worst]} bytes)"
        )
    # tag code 1: _TW_THEN_RW
    return placed.plan(list(map(schemes.__getitem__, counts)), np.ones(T, np.int8), "kk")


# ---------------------------------------------------------------------------
# plan validation and JSON round-trip


def validate_plan(plan: ShardingPlan, model: ModelSpec) -> np.ndarray:
    """Coverage and placement invariants; raises InvalidScheme on breach.

    Every table is assigned once. Table-wise and data-parallel tables hold
    one shard without bounds. Row-wise shards carry row bounds only, one per
    row shard of the scheme, tiling [0, H). Column-wise shards carry column
    bounds only, tiling [0, D) in exactly the scheme's column splits. A
    hierarchical assignment's shards all sit on one node (worker //
    gpus_per_node), where its reduction is charged to the scale-up fabric.
    A hierarchical tag is [table_wise, row_wise] on a row-wise scheme, the
    only tag the planner writes and the simulator models.

    Each rule is a pass over the shard columns. The error names the first
    assignment in plan order that breaks a rule, and the first rule in the
    order below that it breaks; tables left unassigned come last.

    Returns each shard's position in model.tables, read-only. A plan that
    passes keeps the first model it passed against, with those positions,
    which every reader of the plan reads through the gate (_plan_tables).
    """
    cols = plan.shard_columns
    ids, schemes, a = cols.table_ids, cols.schemes, cols.assignment
    A = len(ids)
    table = model.table_indices(ids)
    held = np.bincount(table + 1, minlength=model.num_tables + 1)[1:]  # per table
    twice = np.zeros(A, bool)  # an earlier assignment holds the same table
    if (held > 1).any():
        # an unknown id (-1) breaks the first rule, so its repeats need no own flag
        twice[:] = True
        twice[np.unique(table, return_index=True)[1]] = False
    counts = np.bincount(a, minlength=A)
    kind = np.zeros(A, np.int8)
    kind[a] = cols.kind
    for i in np.flatnonzero(counts == 0).tolist():  # no shard holds its code
        kind[i] = _KIND_CODE[schemes[i].kind]
    single = (kind == TW) | (kind == DP)
    split = ~single
    row = kind == RW
    ends = np.cumsum(counts)
    starts = ends - counts

    def any_shard(mask):  # per assignment: whether any of its shards meets `mask`
        return np.bincount(a[mask], minlength=A) > 0

    W = plan.num_workers
    out_of_range = ~cols.replica & ((cols.worker < 0) | (cols.worker >= W))
    # a split shard carries the bound of its own axis only: rows for RW
    row_shard = cols.kind == RW
    own = np.where(row_shard, cols.has_rows, cols.has_cols)
    other = np.where(row_shard, cols.has_cols, cols.has_rows)
    # sorted within each assignment, a bound starts where the previous one
    # ended (the first at 0) and is not empty; `a` ascends, so assignment i
    # keeps positions starts[i]:ends[i] in sorted order
    bounds = np.where(row_shard[:, None], cols.rows, cols.cols)
    lo, hi = bounds[np.lexsort((bounds[:, 1], bounds[:, 0], a))].T
    prev = np.concatenate(([0], hi[:-1]))
    prev[starts[counts > 0]] = 0
    gap = (lo != prev) | (hi <= lo)
    # where the last bound ends, 0 without bounds (index -1 picks the pad)
    last = np.append(hi, 0)[np.where(counts > 0, ends - 1, -1)]
    tc = model.table_columns
    extent = np.where(row, np.append(tc.rows, 0)[table], np.append(tc.dim, 0)[table])
    count_list = counts.tolist()
    wrong_count = np.zeros(A, bool)
    rw_rows = np.flatnonzero(row).tolist()
    wrong_count[[i for i in rw_rows if schemes[i].num_row_shards != count_list[i]]] = True
    differ = np.zeros(A, bool)
    for i in np.flatnonzero(kind == CW).tolist():
        sorted_cols = zip(*(x[starts[i] : ends[i]].tolist() for x in (lo, hi)))
        differ[i] = list(sorted_cols) != list(schemes[i].col_splits)
    node, first = cols.worker // plan.gpus_per_node, starts[counts > 0]
    low, high = np.minimum.reduceat(node, first), np.maximum.reduceat(node, first)
    spans_nodes = np.zeros(A, bool)
    spans_nodes[counts > 0] = low < high  # the shards sit on more than one node
    # an assignment without shards has broken a rule before the tag rule
    tag = np.zeros(A, np.int8)
    tag[a] = cols.hierarchical
    tagged = tag != 0
    odd_tag = tagged & ((kind != RW) | (tag != 1))
    # (the assignments that break a rule, the rule's message)
    rules = (
        (table < 0, "plan names unknown table {tid}"),
        (twice, "table {tid} assigned twice"),
        (single & (counts != 1), "{tid}: expected a single shard"),
        (
            any_shard(cols.replica != (cols.kind == DP)),
            "{tid}: replicated shard only valid for DP",
        ),
        (any_shard(out_of_range), "{tid}: worker {worker} out of range"),
        (
            single & any_shard(cols.has_rows | cols.has_cols),
            "{tid}: bounds on a {kind} shard",
        ),
        (split & any_shard(other), "{tid}: {other} bounds on a {axis}-wise shard"),
        (split & any_shard(~own), "{tid}: {axis} shard missing bounds"),
        (wrong_count, "{tid}: {count} row shards, scheme has {scheme.num_row_shards}"),
        (split & any_shard(gap), "{tid}: {axis} shards must tile [0, {letter})"),
        (split & (last != extent), "{tid}: {axis} shards must cover [0, {extent})"),
        (differ, "{tid}: column shards differ from the scheme's column splits"),
        (
            tagged & spans_nodes,
            "{tid}: hierarchical shards must lie on one node",
        ),
        (odd_tag, "{tid}: hierarchical must be [table_wise, row_wise] on a row_wise scheme"),
    )
    broken = np.logical_or.reduce([breach for breach, _ in rules])
    if broken.any():
        i = int(broken.argmax())
        shards = slice(starts[i], ends[i])
        axes = ("row", "column", "H") if row[i] else ("column", "row", "D")
        text = next(text for breach, text in rules if breach[i])
        raise InvalidScheme(
            text.format(
                tid=ids[i],
                worker=next(iter(cols.worker[shards][out_of_range[shards]].tolist()), 0),
                kind=_KINDS[kind[i]].value,
                axis=axes[0],
                other=axes[1],
                letter=axes[2],
                count=count_list[i],
                scheme=schemes[i],
                extent=extent[i],
            )
        )
    unassigned = np.flatnonzero(held == 0).tolist()
    if unassigned:
        raise InvalidScheme(f"tables not assigned: {sorted(model._ids[t] for t in unassigned)}")
    shard_tables = table[a]
    shard_tables.flags.writeable = False
    if plan._checked is None:
        object.__setattr__(plan, "_checked", (model, shard_tables))
    return shard_tables


def _plan_tables(plan: ShardingPlan, model: ModelSpec) -> np.ndarray:
    """Each shard's position in model.tables: the one plan gate, which every
    reader of a plan passes. The plan's record if it is for this model
    object, else validate_plan's, which raises InvalidScheme for a plan
    that breaks one of its rules."""
    checked = plan._checked
    if checked is not None and checked[0] is model:
        return checked[1]
    return validate_plan(plan, model)


def plan_to_json(
    plan: ShardingPlan,
    model: Optional[ModelSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    flags: CompressionFlags = CompressionFlags(),
) -> str:
    """The plan document, plus a per-worker memory summary (`workers`) when
    both the model and the cluster are given.

    The text equals json.dumps(doc, indent=2, sort_keys=True) of that
    document byte for byte. The layout is fixed, so it is written directly:
    json's indent path runs its pure-Python encoder, which on a plan of
    thousands of shards takes longer than planning it. Keys are written in
    sorted order. Shards and schemes are written from the shard columns:
    each distinct shard is one f-string, with `rows` and `cols` as two-int
    lists and `"worker": null` for a data-parallel replica, written once per
    call, as are each distinct shard list's and scheme object's texts; each
    `workers` record is written field by field from the memory report's
    columns, and the document is joined once. Strings go through json's own
    ASCII escaper, and an empty list is `[]`, as json writes it.
    """
    esc = encode_basestring_ascii
    cols = plan.shard_columns
    lists, which = cols.shard_lists(_shard_text)
    list_texts = [_json_list(shards, "      ") for shards in lists]
    schemes = {id(scheme): scheme for scheme in cols.schemes}  # alive in cols
    scheme_texts = {key: _scheme_text(scheme) for key, scheme in schemes.items()}
    tables = zip(  # each table's texts, each followed by the piece after it
        map(scheme_texts.__getitem__, map(id, cols.schemes)), repeat(',\n      "shards": '),
        map(list_texts.__getitem__, which), repeat(',\n      "table_id": '),
        map(esc, cols.table_ids), repeat('\n    },\n    {\n      "scheme": '),
    )
    parts = [
        f'{{\n  "gpus_per_node": {plan.gpus_per_node},\n'
        f'  "heuristic": {esc(plan.heuristic)},\n'
        f'  "num_workers": {plan.num_workers},\n'
        f'  "spec_version": {SPEC_VERSION},\n'
        '  "tables": ' + ('[\n    {\n      "scheme": ' if cols.table_ids else "[]"),
        *chain.from_iterable(tables),
    ]
    if cols.table_ids:
        parts[-1] = "\n    }\n  ]"  # the last table opens no other
    if model is not None and cluster is not None:
        report = memory_check(plan, model, cluster, flags)
        tiers = [esc(tier) for tier in TIERS]
        workers = [
            f'    {{\n      "dense_bytes": {dense},\n'
            f'      "optimizer_bytes": {state},\n'
            f'      "table_bytes": {value},\n'
            f'      "tier": {tiers[tier]},\n'
            f'      "total_bytes": {total},\n'
            f'      "worker": {w}\n    }}'
            for w, value, state, dense, total, tier in zip(
                count(), *(column.tolist() for column in report[1:])  # after feasible
            )
        ]
        parts += ',\n  "workers": ', _json_list(workers, "  ")
    parts.append("\n}")
    return "".join(parts)


_I12 = " " * 12  # indent of a shard's bound values


def _shard_text(worker, rows, cols) -> str:
    """A shard object as it is indented in a table entry's "shards" list."""
    text = "        {\n"
    if cols:
        c0, c1 = cols
        text += f'          "cols": [\n{_I12}{c0},\n{_I12}{c1}\n          ],\n'
    if rows:
        r0, r1 = rows
        text += f'          "rows": [\n{_I12}{r0},\n{_I12}{r1}\n          ],\n'
    worker = "null" if worker is None else worker
    return f'{text}          "worker": {worker}\n        }}'


def _json_list(items: Sequence[str], indent: str) -> str:
    """A JSON list of already-indented item texts, closed at `indent`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _scheme_text(scheme: Scheme) -> str:
    """A scheme object as it is indented under a table entry's "scheme" key."""
    esc = encode_basestring_ascii
    fields = []
    if scheme.kind is SchemeKind.COLUMN_WISE:
        splits = [
            f"          [\n{_I12}{a},\n{_I12}{b}\n          ]"
            for a, b in scheme.col_splits
        ]
        fields.append(f'"col_splits": {_json_list(splits, " " * 8)}')
    if scheme.hierarchical:
        levels = [f"          {esc(kind.value)}" for kind in scheme.hierarchical]
        fields.append(f'"hierarchical": {_json_list(levels, " " * 8)}')
    fields.append(f'"kind": {esc(scheme.kind.value)}')
    if scheme.kind is SchemeKind.ROW_WISE:
        fields.append(f'"num_row_shards": {scheme.num_row_shards}')
    return "{\n        " + ",\n        ".join(fields) + "\n      }"


def plan_from_json(text: str) -> ShardingPlan:
    """Parse a plan document; the version, unknown keys and types are checked.

    The per-worker memory summary (`workers`) that plan_to_json writes is
    derived output: it is accepted and ignored.
    """
    doc = _load_json(text)
    _check_version(doc)
    num_workers = _as_int(_take(doc, "num_workers", ""), "num_workers")
    gpus_per_node = _as_int(
        _take(doc, "gpus_per_node", "", required=False, default=num_workers),
        "gpus_per_node",
    )
    _check_layout(num_workers, gpus_per_node)
    heuristic = _take(doc, "heuristic", "", required=False, default="greedy")
    if not isinstance(heuristic, str):
        raise InvalidValue("heuristic", "expected a string")
    tables = _as_list(_take(doc, "tables", ""), "tables")
    _as_list(_take(doc, "workers", "", required=False, default=[]), "workers")
    _reject_unknown(doc, "")
    assignments = tuple(
        _parse_assignment(td, f"tables[{i}]") for i, td in enumerate(tables)
    )
    return ShardingPlan(num_workers, gpus_per_node, assignments, heuristic)


def _as_list(value, path) -> list:
    if not isinstance(value, list):
        raise InvalidValue(path, "expected a list")
    return value


def _as_kind(value, path) -> SchemeKind:
    try:
        return SchemeKind(value)
    except (ValueError, TypeError):
        raise InvalidValue(path, f"unknown scheme kind {value!r}") from None


def _as_bounds(value, path) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise InvalidValue(path, "expected a [start, end] pair")
    return (_as_int(value[0], f"{path}[0]"), _as_int(value[1], f"{path}[1]"))


def _parse_assignment(doc, path) -> TableAssignment:
    doc = dict(_as_dict(doc, path))
    table_id = _take(doc, "table_id", path)
    if not isinstance(table_id, str):
        raise InvalidValue(f"{path}.table_id", "expected a string")
    scheme = _parse_scheme(_take(doc, "scheme", path), f"{path}.scheme")
    shards_doc = _as_list(_take(doc, "shards", path), f"{path}.shards")
    _reject_unknown(doc, path)
    shards = tuple(
        _parse_shard(sd, f"{path}.shards[{i}]") for i, sd in enumerate(shards_doc)
    )
    return TableAssignment(table_id, scheme, shards)


def _parse_scheme(doc, path) -> Scheme:
    doc = dict(_as_dict(doc, path))
    kind = _as_kind(_take(doc, "kind", path), f"{path}.kind")
    num_row_shards = _as_int(
        _take(doc, "num_row_shards", path, required=False, default=1),
        f"{path}.num_row_shards",
    )
    splits = _as_list(
        _take(doc, "col_splits", path, required=False, default=[]),
        f"{path}.col_splits",
    )
    hierarchical = _take(doc, "hierarchical", path, required=False)
    _reject_unknown(doc, path)
    if hierarchical is not None:
        levels = _as_list(hierarchical, f"{path}.hierarchical")
        if len(levels) != 2:
            raise InvalidValue(f"{path}.hierarchical", "expected two scheme kinds")
        hierarchical = tuple(
            _as_kind(v, f"{path}.hierarchical[{i}]") for i, v in enumerate(levels)
        )
    return Scheme(
        kind,
        num_row_shards=num_row_shards,
        col_splits=tuple(
            _as_bounds(p, f"{path}.col_splits[{i}]") for i, p in enumerate(splits)
        ),
        hierarchical=hierarchical,
    )


def _parse_shard(doc, path) -> Shard:
    doc = dict(_as_dict(doc, path))
    worker = _take(doc, "worker", path)
    if worker is not None:
        worker = _as_int(worker, f"{path}.worker")
    rows = _take(doc, "rows", path, required=False)
    cols = _take(doc, "cols", path, required=False)
    _reject_unknown(doc, path)
    return Shard(
        worker=worker,
        rows=None if rows is None else _as_bounds(rows, f"{path}.rows"),
        cols=None if cols is None else _as_bounds(cols, f"{path}.cols"),
    )
