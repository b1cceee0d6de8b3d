"""Property test: the pooling and aggregation kernels against a pure-Python
scalar loop, byte for byte.

The oracle adds each output cell's terms one at a time, in buffer order,
starting from 0.0, with Python floats. The kernels must give the same bytes
for every input: empty samples, lengths far from the mean, one sample
holding most of the indices, hot rows, and -0.0, +-inf and subnormal values
(inf - inf gives the same NaN on both sides).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import merge_row_gradients, pool_and_aggregate
from neosim import (
    EmbeddingTable,
    OptimizerConfig,
    OptimizerKind,
    Precision,
    RowGradients,
    TableSpec,
    forward_pooled,
)
from neosim.embedding import (
    _train_piece,
    apply_optimizer,
    backward_sort_aggregate,
    quantize_fp16_roundtrip,
    storage_roundtrip,
)

# inf - inf is expected here, and numpy warns about it
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

SPECIAL = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True),
)


def matrix(draw, rows, dim):
    flat = draw(st.lists(FLOATS, min_size=rows * dim, max_size=rows * dim))
    return np.array(flat, dtype=np.float64).reshape(rows, dim)


@st.composite
def csr_batches(draw):
    """(values, lengths, indices) of one table's pooled batch."""
    rows = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 5), max_size=8))
    if draw(st.booleans()):  # one sample holds most of the indices
        total = sum(lengths)
        at = draw(st.integers(0, len(lengths)))
        lengths.insert(at, draw(st.integers(total + 1, 3 * total + 60)))
    count = sum(lengths)
    indices = draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count))
    if draw(st.booleans()):  # row 0 is hot
        hot = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        indices = [0 if h else i for h, i in zip(hot, indices)]
    return (
        matrix(draw, rows, dim),
        np.array(lengths, dtype=np.int64),
        np.array(indices, dtype=np.int64),
    )


def table_of(values):
    rows, dim = values.shape
    spec = TableSpec(id="t", num_rows=rows, dim=dim, avg_pooling=1.0)
    return EmbeddingTable(spec, values)


def scalar_pool(values, lengths, indices):
    rows = values.tolist()
    out, pos = [], 0
    for n in lengths.tolist():
        acc = [0.0] * values.shape[1]
        for i in indices[pos : pos + n].tolist():
            acc = [a + v for a, v in zip(acc, rows[i])]
        out.append(acc)
        pos += n
    return np.array(out, dtype=np.float64).reshape(len(lengths), values.shape[1])


def scalar_sum_rows(pairs, dim):
    """(ascending ids, sums) of (row id, gradient row) pairs added in order."""
    sums = {}
    for r, g in pairs:
        sums[r] = [a + v for a, v in zip(sums.get(r, [0.0] * dim), g)]
    ids = sorted(sums)
    grads = np.array([sums[r] for r in ids], dtype=np.float64).reshape(len(ids), dim)
    return np.array(ids, dtype=np.int64), grads


def scalar_aggregate(lengths, indices, upstream):
    samples = np.repeat(np.arange(len(lengths)), lengths).tolist()
    up = upstream.tolist()
    return scalar_sum_rows(
        [(i, up[s]) for i, s in zip(indices.tolist(), samples)], upstream.shape[1]
    )


def same(got: RowGradients, ids, grads) -> bool:
    return (
        got.ids.tobytes() == ids.tobytes()
        and got.grads.shape == grads.shape
        and got.grads.tobytes() == grads.tobytes()
    )


@settings(max_examples=200, deadline=None)
@given(case=csr_batches())
def test_pooling_matches_scalar_loop(case):
    values, lengths, indices = case
    got = forward_pooled(table_of(values), lengths, indices)
    assert got.tobytes() == scalar_pool(values, lengths, indices).tobytes()


@settings(max_examples=200, deadline=None)
@given(case=csr_batches(), data=st.data())
def test_aggregation_matches_scalar_loop(case, data):
    values, lengths, indices = case
    upstream = matrix(data.draw, len(lengths), values.shape[1])
    got = backward_sort_aggregate(lengths, indices, upstream, len(values))
    assert same(got, *scalar_aggregate(lengths, indices, upstream))


@st.composite
def gradient_parts(draw):
    rows = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        ids = sorted(draw(st.sets(st.integers(0, rows - 1))))
        grads = matrix(draw, len(ids), dim)
        parts.append(RowGradients(np.array(ids, dtype=np.int64), grads))
    return rows, dim, parts


@settings(max_examples=200, deadline=None)
@given(case=gradient_parts())
def test_merge_matches_scalar_loop(case):
    rows, dim, parts = case
    pairs = [(r, g) for p in parts for r, g in zip(p.ids.tolist(), p.grads.tolist())]
    got = merge_row_gradients(parts, rows, dim)
    assert same(got, *scalar_sum_rows(pairs, dim))


@settings(max_examples=200, deadline=None)
@given(case=csr_batches(), data=st.data())
def test_pool_and_aggregate_parts_match_scalar_loop(case, data):
    """Split into consecutive parts (workers): pooled rows stack in order,
    and each part's sums merge in part order, as the AllReduce adds them."""
    values, lengths, indices = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(lengths)), max_size=3)))
    bounds = [0, *cuts, len(lengths)]
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    parts = [
        (lengths[a:b], indices[offsets[a] : offsets[b]]) for a, b in zip(bounds, bounds[1:])
    ]
    upstream = matrix(data.draw, len(lengths), values.shape[1])
    pooled, got = pool_and_aggregate(table_of(values), parts, upstream)
    assert pooled.tobytes() == scalar_pool(values, lengths, indices).tobytes()
    part_sums = []
    for (part_lengths, part_indices), a in zip(parts, bounds):
        part_up = upstream[a : a + len(part_lengths)]
        part_sums.append(scalar_aggregate(part_lengths, part_indices, part_up))
    pairs = [(r, g) for ids, grads in part_sums for r, g in zip(ids.tolist(), grads.tolist())]
    assert same(got, *scalar_sum_rows(pairs, values.shape[1]))


@st.composite
def piece_steps(draw):
    """(table, parts, cfg) of one piece step on 1 to 4 parts (a worker's
    pooled batch each). Parts may hold no sample or only empty samples,
    samples may repeat an id, rows may go untouched."""
    rows = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 4))
    precision = draw(st.sampled_from([Precision.FP32, Precision.FP16]))
    kind = draw(st.sampled_from(list(OptimizerKind)))
    lr, eps = draw(st.sampled_from([0.05, 1.0])), draw(st.sampled_from([0.0, 1e-8]))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        lengths = draw(st.lists(st.integers(0, 6), max_size=4))
        count = sum(lengths)
        indices = draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count))
        parts.append((np.array(lengths, dtype=np.int64), np.array(indices, dtype=np.int64)))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=True)
    flat = draw(st.lists(finite, min_size=rows * dim, max_size=rows * dim))
    values = np.array(flat, dtype=np.float64).reshape(rows, dim)
    if precision is Precision.FP16:
        values, _ = quantize_fp16_roundtrip(values)
    moment = None
    if kind is not OptimizerKind.SGD:
        shape = (rows,) if kind is OptimizerKind.ROWWISE_ADAGRAD else (rows, dim)
        size = math.prod(shape)
        flat = draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size))
        moment = np.array(flat, dtype=np.float64).reshape(shape)
    spec = TableSpec(id="t", num_rows=rows, dim=dim, avg_pooling=1.0, value_precision=precision)
    return EmbeddingTable(spec, values, moment), parts, OptimizerConfig(kind, lr=lr, eps=eps)


def copied(table):
    moment = None if table.moment is None else table.moment.copy()
    return EmbeddingTable(table.spec, table.values.copy(), moment)


def step_by_upstream(table, parts, cfg):
    """_train_piece as it ran before it counted lookups: an upstream of ones
    aggregated per part and merged in part order."""
    upstream = np.ones((sum(len(lengths) for lengths, _ in parts), table.dim))
    pooled, grads = pool_and_aggregate(table, parts, upstream)
    apply_optimizer(table, grads, cfg)
    storage_roundtrip(table, grads.ids)
    return pooled


@settings(max_examples=300, deadline=None)
@given(case=piece_steps())
def test_count_gradient_matches_upstream_of_ones(case):
    """The piece step's lookup-count gradient gives, byte for byte, the
    pooled rows, post-step values and moments of summing an all-ones
    upstream, under every optimizer, storage precision and part count."""
    table, parts, cfg = case
    twin = copied(table)
    pooled = _train_piece(table, parts, cfg)
    assert pooled.tobytes() == step_by_upstream(twin, parts, cfg).tobytes()
    assert table.values.tobytes() == twin.values.tobytes()
    if cfg.kind is not OptimizerKind.SGD:
        assert table.moment.tobytes() == twin.moment.tobytes()
