"""Input redistribution, collective volumes and sharded-vs-reference execution."""

import dataclasses
from typing import Sequence

import numpy as np
import pytest

from conftest import (
    assert_volumes_equal,
    desk_cluster,
    desk_model,
    index_bytes,
    mixed_desk_case,
    random_desk_model,
)

from neosim import (
    CandidatePolicy,
    CollectiveKind,
    CombinedBatch,
    CostWeights,
    IndexOutOfRange,
    InvalidScheme,
    InvalidValue,
    LayoutMismatch,
    OptimizerConfig,
    OptimizerKind,
    Precision,
    Scheme,
    SchemeKind,
    Shard,
    TableAssignment,
    TableSpec,
    ShardingPlan,
    alltoall_redistribute,
    bucketize_rowwise,
    gen_synthetic_batch,
    hierarchical_plan,
    plan_4d,
    train_step_reference,
    train_step_sharded,
    volume_forward_alltoall,
    volume_gradient_collectives,
)
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.comms import (
    LENGTH_BYTES,
    LaidOutBatch,
    collective_volumes,
    reassemble_values,
    to_wtb,
    volume_input_alltoall,
)
from neosim import comms, embedding
from neosim.embedding import apply_rowwise_adagrad, quantize_fp16_roundtrip, RowGradients
from neosim.planner import CompressionFlags, even_bounds


def tw_plan(model, workers, gpus_per_node=None):
    gpn = gpus_per_node or workers
    return ShardingPlan(
        workers,
        gpn,
        tuple(
            TableAssignment(
                t.id, Scheme(SchemeKind.TABLE_WISE), (Shard(worker=i % workers),)
            )
            for i, t in enumerate(model.tables)
        ),
    )


def unbucketize_rowwise(
    parts: Sequence[tuple[np.ndarray, np.ndarray]],
    boundaries: Sequence[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of bucketize up to per-sample index order (multiset identity)."""
    num_samples = len(parts[0][0])
    lengths = np.zeros(num_samples, dtype=np.int64)
    per_sample_chunks: list[list[np.ndarray]] = [[] for _ in range(num_samples)]
    for (part_lengths, part_indices), (start, _) in zip(parts, boundaries):
        lengths += part_lengths
        offsets = np.concatenate(([0], np.cumsum(part_lengths)))
        for s in range(num_samples):
            per_sample_chunks[s].append(part_indices[offsets[s] : offsets[s + 1]] + start)
    chunks = [c for group in per_sample_chunks for c in group]
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return lengths, indices


class TestBucketize:
    def test_hand_example(self):
        # H=10, two equal shards, indices [1,7,3,9] in one sample
        parts = bucketize_rowwise([4], [1, 7, 3, 9], [(0, 5), (5, 10)])
        (l0, i0), (l1, i1) = parts
        assert l0.tolist() == [2] and i0.tolist() == [1, 3]
        assert l1.tolist() == [2] and i1.tolist() == [2, 4]

    def test_single_shard_identity(self):
        parts = bucketize_rowwise([2, 1], [4, 0, 3], [(0, 5)])
        assert parts[0][0].tolist() == [2, 1]
        assert parts[0][1].tolist() == [4, 0, 3]

    def test_round_trip_multiset_per_sample(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            lengths = rng.integers(0, 5, size=n)
            indices = rng.integers(0, 30, size=int(lengths.sum()))
            bounds = [(0, 11), (11, 17), (17, 30)]
            parts = bucketize_rowwise(lengths, indices, bounds)
            back_lengths, back_indices = unbucketize_rowwise(parts, bounds)
            assert back_lengths.tolist() == lengths.tolist()
            off = np.concatenate(([0], np.cumsum(lengths)))
            for s in range(n):
                assert sorted(back_indices[off[s] : off[s + 1]]) == sorted(
                    indices[off[s] : off[s + 1]]
                )

    def test_out_of_range(self):
        from neosim import IndexOutOfRange

        with pytest.raises(IndexOutOfRange):
            bucketize_rowwise([1], [10], [(0, 5), (5, 10)])


def _bad_input_entries():
    """Each public entry that checks a pooled batch of table "t" (4 x 2),
    as entry(lengths, indices), with the table id it reports: the id it is
    given, "" for backward_sort_aggregate, which is given none."""
    spec = TableSpec(id="t", num_rows=4, dim=2, avg_pooling=1.0)
    model = desk_model([spec])

    def table():
        return embedding.EmbeddingTable(spec, np.ones((4, 2)))

    def upstream(lengths):
        return np.ones((len(lengths), 2))

    cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)

    return {
        "forward_pooled": (lambda l, i: embedding.forward_pooled(table(), l, i), "t"),
        "backward_sort_aggregate": (
            lambda l, i: embedding.backward_sort_aggregate(l, i, upstream(l), 4),
            "",
        ),
        "fused_backward_update": (
            lambda l, i: embedding.fused_backward_update(table(), l, i, upstream(l), cfg),
            "t",
        ),
        "bucketize_rowwise": (
            lambda l, i: bucketize_rowwise(l, i, [(0, 2), (2, 4)], "t"),
            "t",
        ),
        # the batch itself refuses negative lengths, before validate_against
        "CombinedBatch.validate_against": (
            lambda l, i: CombinedBatch(np.array([l]), i).validate_against(model),
            "t",
        ),
    }


@pytest.mark.parametrize("entry", list(_bad_input_entries()))
@pytest.mark.parametrize(
    "lengths, indices, error, where",
    [
        ([1, 1], [0, -1], IndexOutOfRange, -1),
        ([1, 1], [0, 4], IndexOutOfRange, 4),
        ([2, 1], [3, 4, 0], IndexOutOfRange, 4),
        ([2, -1], [0], InvalidValue, "lengths"),
        ([3, -1], [0, 4], InvalidValue, "lengths"),
    ],
    ids=["id_-1", "id_H", "id_H_second", "negative_length", "negative_length_and_id_H"],
)
def test_every_entry_rejects_a_bad_batch_alike(entry, lengths, indices, error, where):
    """One bad batch sent through every entry that checks it raises the same
    error class at the same id, index or path; lengths are checked before
    ids."""
    run, table_id = _bad_input_entries()[entry]
    with pytest.raises(error) as err:
        run(np.array(lengths), np.array(indices))
    assert type(err.value) is error
    if error is IndexOutOfRange:
        assert (err.value.table_id, err.value.index) == (table_id, where)
    else:
        assert err.value.path == where


def column_wise_inputs(splits, seed=5):
    """Every column shard's redistributed input for table "c", whose
    column shards go to workers 0, 1, 0, ..., and c's global batch slice."""
    model = desk_model(
        [
            TableSpec(id="t0", num_rows=8, dim=4, avg_pooling=2.0),
            TableSpec(id="c", num_rows=8, dim=splits[-1][1], avg_pooling=3.0),
        ],
        local_batch=3,
    )
    plan = ShardingPlan(
        2,
        2,
        (
            TableAssignment("t0", Scheme(SchemeKind.TABLE_WISE), (Shard(worker=0),)),
            TableAssignment(
                "c",
                Scheme(SchemeKind.COLUMN_WISE, col_splits=splits),
                tuple(Shard(worker=i % 2, cols=s) for i, s in enumerate(splits)),
            ),
        ),
    )
    batch = gen_synthetic_batch(model, 6, seed=seed)
    slices = alltoall_redistribute(to_wtb(batch, 2), plan, model)
    received = [
        (w, si) for w, ws in enumerate(slices) for si in ws.inputs if si.table_id == "c"
    ]
    assert sorted(si.position for _, si in received) == list(range(len(splits)))
    shards = plan.assignments[1].shards
    assert all(shards[si.position].worker == w for w, si in received)
    return [si for _, si in received], batch.table_slice(1)


class TestReplicate:
    """Column shards each receive a full copy of their table's global batch."""

    def test_payload_doubles(self):
        received, (_, idx) = column_wise_inputs(((0, 2), (2, 4)))
        assert len(received) == 2
        assert sum(len(si.indices) for si in received) == 2 * len(idx)

    def test_single_copy_identity(self):
        received, (lens, idx) = column_wise_inputs(((0, 4),))
        assert np.array_equal(received[0].lengths, lens)
        assert np.array_equal(received[0].indices, idx)

    def test_copies_equal(self):
        received, (lens, idx) = column_wise_inputs(((0, 2), (2, 4), (4, 6)))
        for si in received:
            assert np.array_equal(si.lengths, lens)
            assert np.array_equal(si.indices, idx)


class TestPermute:
    """to_wtb lays the table-major batch out worker-major; redistribution
    permutes it back."""

    def test_block_permutation_w2_t2_b1(self):
        # table-major blocks [a, b, c, d] = (t, w) order become [a, c, b, d]
        batch = CombinedBatch(np.ones((2, 2), np.int64), np.array([10, 20, 30, 40]))
        out = to_wtb(batch, 2)
        assert (out.workers, out.tables, out.local_batch) == (2, 2, 1)
        assert out.indices.tolist() == [10, 30, 20, 40]

    def test_degenerate_dimensions_identity(self):
        rng = np.random.default_rng(0)
        for W, T in ((1, 3), (3, 1)):
            lengths = rng.integers(0, 4, size=(T, W * 2))
            batch = CombinedBatch(lengths, np.arange(int(lengths.sum())))
            out = to_wtb(batch, W)
            assert out.indices.tolist() == batch.indices.tolist()

    def test_inverse_round_trip(self):
        # each table's owner receives its global slice: the batch back
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = random_desk_model(rng)
            W = int(rng.integers(1, 4))
            batch = gen_synthetic_batch(model, W * model.local_batch, seed=int(rng.integers(100)))
            slices = alltoall_redistribute(to_wtb(batch, W), tw_plan(model, W), model)
            inputs = {si.table_id: si for ws in slices for si in ws.inputs}
            back = [inputs[t.id] for t in model.tables]
            assert CombinedBatch(
                np.stack([si.lengths for si in back]),
                np.concatenate([si.indices for si in back]),
            ) == batch

    def test_layout_checked(self):
        with pytest.raises(LayoutMismatch):
            LaidOutBatch(2, 2, 1, np.ones(3, np.int64), np.zeros(3, np.int64))
        with pytest.raises(LayoutMismatch):
            LaidOutBatch(2, 2, 1, np.ones(4, np.int64), np.zeros(3, np.int64))
        with pytest.raises(InvalidValue):
            LaidOutBatch(-1, 2, 1, np.ones(0, np.int64), np.zeros(0, np.int64))
        model = desk_model([TableSpec(id="t", num_rows=8, dim=2, avg_pooling=1.0)])
        batch = gen_synthetic_batch(model, 2 * model.local_batch, seed=0)
        with pytest.raises(LayoutMismatch):
            alltoall_redistribute(to_wtb(batch, 1), tw_plan(model, 2), model)


# ---------------------------------------------------------------------------
# the lengths rule: one check behind every batch form


def _combined(lengths, indices):
    return CombinedBatch(np.array([lengths]), np.array(indices))


def _laid_out(lengths, indices):
    return LaidOutBatch(1, 1, len(lengths), np.array(lengths), np.array(indices))


def _pooled(lengths, indices):
    table = embedding.EmbeddingTable(
        TableSpec(id="t", num_rows=4, dim=2, avg_pooling=1.0), np.zeros((4, 2))
    )
    return embedding.forward_pooled(table, lengths, indices)


@pytest.mark.parametrize("make", [_combined, _laid_out, _pooled])
def test_every_batch_form_checks_lengths_alike(make):
    make([1, 2], [0, 1, 2])  # lengths >= 0 that cover the buffer
    with pytest.raises(InvalidValue) as err:
        make([-1, 2], [0])  # sums to the buffer's length, but negative
    assert err.value.path == "lengths"
    with pytest.raises(LayoutMismatch, match="^lengths do not cover the index buffer$"):
        make([2, 1], [1])
    if make is _pooled:
        with pytest.raises(IndexOutOfRange):
            make([1], [4])


class TestRedistribute:
    def test_table_wise_owner_receives_global_batch(self):
        model = desk_model(
            [
                TableSpec(id="t0", num_rows=8, dim=2, avg_pooling=2.0),
                TableSpec(id="t1", num_rows=8, dim=2, avg_pooling=2.0),
            ],
            local_batch=3,
        )
        plan = tw_plan(model, 2)
        batch = gen_synthetic_batch(model, 6, seed=2)
        slices = alltoall_redistribute(to_wtb(batch, 2), plan, model)
        worker0 = slices[0].inputs
        assert [si.table_id for si in worker0] == ["t0"]
        lens, idx = batch.table_slice(0)
        assert np.array_equal(worker0[0].lengths, lens)
        assert np.array_equal(worker0[0].indices, idx)
        # a model table the plan does not assign is named, not skipped
        fewer = dataclasses.replace(plan, assignments=plan.assignments[:1])
        with pytest.raises(InvalidScheme, match=r"tables not assigned: \['t1'\]"):
            alltoall_redistribute(to_wtb(batch, 2), fewer, model)

    def test_bytes_conserved(self):
        model = random_desk_model(np.random.default_rng(3))
        W = 2
        batch = gen_synthetic_batch(model, W * model.local_batch, seed=3)
        plan = tw_plan(model, W)
        slices = alltoall_redistribute(to_wtb(batch, W), plan, model)
        received = sum(len(si.indices) for ws in slices for si in ws.inputs)
        assert received == len(batch.indices)

    def test_reassembly_reproduces_global_batch(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model = random_desk_model(rng)
            W = int(rng.choice([1, 2, 4]))
            batch = gen_synthetic_batch(model, W * model.local_batch, seed=int(rng.integers(100)))
            laid = to_wtb(batch, W)
            T, B = batch.num_tables, model.local_batch
            assert (laid.workers, laid.tables, laid.local_batch) == (W, T, B)
            lengths = laid.lengths.reshape(W, T, B)
            ends = np.cumsum(lengths.sum(axis=2).ravel())
            for w in range(W):
                for t in range(T):
                    lens, idx = batch.table_slice(t)
                    starts = np.concatenate(([0], np.cumsum(lens)))
                    end = ends[w * T + t]
                    block = laid.indices[end - lengths[w, t].sum() : end]
                    assert np.array_equal(lengths[w, t], lens[w * B : (w + 1) * B])
                    assert np.array_equal(block, idx[starts[w * B] : starts[(w + 1) * B]])


    @pytest.mark.parametrize("W", [2, 4, 8])
    def test_rowwise_inputs_equal_per_source_buckets(self, W):
        """Oracle: each source worker bucketizes its own block and every
        owner receives its buckets worker-major. The row-wise inputs equal
        that array for array, in stream order, whatever the shard list order."""
        rng = np.random.default_rng(W)
        tables = [
            TableSpec(
                id=f"t{i}",
                num_rows=int(rng.integers(8, 40)),
                dim=2,
                avg_pooling=float(rng.uniform(0.5, 4.0)),
            )
            for i in range(3)
        ]
        model = desk_model(tables, local_batch=int(rng.integers(1, 6)))
        assignments = []
        for table in tables:
            k = int(rng.integers(1, 5))
            shards = [
                Shard(worker=int(rng.integers(W)), rows=r) for r in even_bounds(table.num_rows, k)
            ]
            scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=k)
            shuffled = tuple(shards[i] for i in rng.permutation(k))
            assignments.append(TableAssignment(table.id, scheme, shuffled))
        plan = ShardingPlan(W, W, tuple(assignments))
        laid = to_wtb(gen_synthetic_batch(model, W * model.local_batch, seed=W), W)
        slices = alltoall_redistribute(laid, plan, model)
        T, B = model.num_tables, model.local_batch
        lengths = laid.lengths.reshape(W, T, B)
        ends = np.cumsum(lengths.sum(axis=2).ravel())
        for t, a in enumerate(assignments):
            bounds = sorted(shard.rows for shard in a.shards)
            sources = []
            for w in range(W):
                end = ends[w * T + t]
                block = laid.indices[end - lengths[w, t].sum() : end]
                sources.append(dict(zip(bounds, bucketize_rowwise(lengths[w, t], block, bounds))))
            got = {
                si.position: (ws.worker, si)
                for ws in slices
                for si in ws.inputs
                if si.table_id == a.table_id
            }
            assert sorted(got) == list(range(len(a.shards)))
            for i, shard in enumerate(a.shards):
                worker, si = got[i]
                want = [source[shard.rows] for source in sources]
                assert worker == shard.worker
                assert si.lengths.dtype == si.indices.dtype == np.int64
                assert np.array_equal(si.lengths, np.concatenate([l for l, _ in want]))
                assert np.array_equal(si.indices, np.concatenate([x for _, x in want]))


class TestVolumes:
    def two_table_plan_and_model(self):
        model = desk_model(
            [
                TableSpec(id="a", num_rows=100, dim=64, avg_pooling=2.0),
                TableSpec(id="b", num_rows=100, dim=128, avg_pooling=2.0),
            ],
            local_batch=512,
        )
        plan = ShardingPlan(
            2,
            2,
            (
                TableAssignment("a", Scheme(SchemeKind.TABLE_WISE), (Shard(worker=0),)),
                TableAssignment("b", Scheme(SchemeKind.TABLE_WISE), (Shard(worker=0),)),
            ),
        )
        return model, plan

    def test_forward_alltoall_formula(self):
        # dims 64+128 on one worker, global 1024, local 512, FP16
        model, plan = self.two_table_plan_and_model()
        vol = collective_volumes(plan, model, Precision.FP16)[0]
        assert vol.label == "pooled_a2a_fwd"
        assert vol.per_worker_send_bytes[0] == (64 + 128) * 512 * 2 == 196_608
        assert vol.per_worker_send_bytes[1] == 0

    def test_single_worker_sends_nothing(self):
        model = desk_model(
            [TableSpec(id="a", num_rows=10, dim=4, avg_pooling=1.0)], local_batch=8
        )
        vol = volume_forward_alltoall(tw_plan(model, 1), model, 1)
        assert vol.max_bytes == 0

    def test_dense_allreduce_volume(self):
        # 1e6 dense bytes, W=2: 2(p-1)/p x bytes = 1e6 per worker
        model = desk_model(
            [TableSpec(id="a", num_rows=10, dim=4, avg_pooling=1.0)],
            local_batch=4,
            bottom_mlp_layers=(),
            top_mlp_layers=(),
            dense_param_bytes=10**6,
        )
        vols = volume_gradient_collectives(tw_plan(model, 2), model, 2)
        dense = [v for v in vols if v.label == "dense_allreduce"][0]
        assert dense.per_worker_send_bytes.tolist() == [1e6, 1e6]

    def test_no_rw_tables_no_reduce_scatter(self):
        model, plan = self.two_table_plan_and_model()
        vols = volume_gradient_collectives(plan, model, 2)
        assert not any(v.kind is CollectiveKind.REDUCE_SCATTER for v in vols)

    def test_backward_alltoall_mirrors_forward(self):
        model, plan = self.two_table_plan_and_model()
        fwd, bwd = collective_volumes(plan, model)[:2]
        assert (fwd.label, bwd.label) == ("pooled_a2a_fwd", "pooled_a2a_bwd")
        assert_volumes_equal([fwd], [volume_forward_alltoall(plan, model, 2)])
        assert fwd.per_worker_send_bytes.tolist() == bwd.per_worker_send_bytes.tolist()


def make_mixed_plan(model, W, gpn):
    """One assignment of each scheme kind, cycling over the model's tables."""
    kinds = [
        SchemeKind.TABLE_WISE,
        SchemeKind.ROW_WISE,
        SchemeKind.COLUMN_WISE,
        SchemeKind.DATA_PARALLEL,
    ]
    assignments = []
    for i, t in enumerate(model.tables):
        kind = kinds[i % len(kinds)]
        if kind is SchemeKind.COLUMN_WISE and t.dim % 2:
            kind = SchemeKind.TABLE_WISE
        if kind is SchemeKind.TABLE_WISE:
            assignments.append(
                TableAssignment(t.id, Scheme(kind), (Shard(worker=i % W),))
            )
        elif kind is SchemeKind.ROW_WISE:
            k = min(W, t.num_rows, 2 + i % 3)
            bounds = even_bounds(t.num_rows, k)
            assignments.append(
                TableAssignment(
                    t.id,
                    Scheme(kind, num_row_shards=k),
                    tuple(
                        Shard(worker=(i + j) % W, rows=b) for j, b in enumerate(bounds)
                    ),
                )
            )
        elif kind is SchemeKind.COLUMN_WISE:
            splits = ((0, t.dim // 2), (t.dim // 2, t.dim))
            assignments.append(
                TableAssignment(
                    t.id,
                    Scheme(kind, col_splits=splits),
                    tuple(
                        Shard(worker=(i + j) % W, cols=s) for j, s in enumerate(splits)
                    ),
                )
            )
        else:
            assignments.append(TableAssignment(t.id, Scheme(kind), (Shard(worker=None),)))
    return ShardingPlan(W, gpn, tuple(assignments))


def brute_input_volume(plan, model, W):
    """Loop over (shard, sender): each sender ships its local-batch share of
    the shard's indices, and its lengths, unless it owns the shard."""
    tables = {t.id: t for t in model.tables}
    B = model.local_batch
    send = [0.0] * W
    meta = [0.0] * W
    for a in plan.assignments:
        kind = a.scheme.kind
        if kind is SchemeKind.DATA_PARALLEL:
            continue
        t = tables[a.table_id]
        share = 1.0 / len(a.shards) if kind is SchemeKind.ROW_WISE else 1.0
        for shard in a.shards:
            for src in range(W):
                if src != shard.worker:
                    send[src] += B * t.avg_pooling * share * index_bytes(t.num_rows)
                    meta[src] += B * LENGTH_BYTES
    return send, meta


class TestInputAlltoallVolume:
    def assert_matches_brute_force(self, plan, model, exact=False):
        W = plan.num_workers
        vol = volume_input_alltoall(plan, model, W)
        send, meta = brute_input_volume(plan, model, W)
        assert len(vol.per_worker_send_bytes) == len(vol.metadata_bytes) == W
        assert list(vol.metadata_bytes) == meta
        if exact:
            assert list(vol.per_worker_send_bytes) == send
        else:
            assert list(vol.per_worker_send_bytes) == pytest.approx(send, rel=1e-12)

    def test_random_mixed_plans(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            model = random_desk_model(rng)
            W = int(rng.integers(1, 10))
            self.assert_matches_brute_force(make_mixed_plan(model, W, W), model)

    def test_random_planner_plans(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = random_desk_model(rng)
            cluster = desk_cluster(int(rng.integers(1, 9)))
            plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy(fine_grain=True))
            self.assert_matches_brute_force(plan, model)

    def test_six_gpu_hierarchical_plans(self):
        # 1/6 row shares are not dyadic, so summation order shows in the last bits
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_desk_model(rng)
            cluster = desk_cluster(6 * int(rng.integers(2, 4)), gpus_per_node=6)
            plan = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
            assert {len(a.shards) for a in plan.assignments} == {6}
            self.assert_matches_brute_force(plan, model)

    def test_single_worker_sends_nothing(self):
        model = random_desk_model(np.random.default_rng(14))
        vol = volume_input_alltoall(make_mixed_plan(model, 1, 1), model, 1)
        assert vol.per_worker_send_bytes.tolist() == [0.0]
        assert vol.metadata_bytes.tolist() == [0.0]

    def test_data_parallel_only_plan_sends_nothing(self):
        model = random_desk_model(np.random.default_rng(15))
        plan = ShardingPlan(
            4,
            4,
            tuple(
                TableAssignment(
                    t.id, Scheme(SchemeKind.DATA_PARALLEL), (Shard(worker=None),)
                )
                for t in model.tables
            ),
        )
        vol = volume_input_alltoall(plan, model, 4)
        assert vol.per_worker_send_bytes.tolist() == [0.0] * 4
        assert vol.metadata_bytes.tolist() == [0.0] * 4
        self.assert_matches_brute_force(plan, model, exact=True)

    @pytest.mark.parametrize(
        "name,nodes,hierarchical",
        [("model_a", 16, False), ("model_a", 2, True), ("model_f", 16, False)],
    )
    def test_bundled_plans_exact(self, name, nodes, hierarchical):
        model = load_bundled_model(name)
        cluster = dataclasses.replace(load_bundled_cluster(), num_nodes=nodes)
        policy = CandidatePolicy(
            flags=CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=True)
        )
        if hierarchical:
            plan = hierarchical_plan(model, cluster, CostWeights(), policy)
        else:
            plan = plan_4d(model, cluster, CostWeights(), policy)
        self.assert_matches_brute_force(plan, model, exact=True)


class TestTrainStepSharded:
    def test_all_schemes_match_reference(self):
        rng = np.random.default_rng(5)
        for kind in OptimizerKind:
            model = desk_model(
                [
                    TableSpec(id=f"t{i}", num_rows=24, dim=4, avg_pooling=2.5)
                    for i in range(5)
                ],
                local_batch=3,
            )
            plan = make_mixed_plan(model, 4, 2)
            cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)
            batch = gen_synthetic_batch(model, 12, seed=6)
            ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=7)
            sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=7)
            assert np.max(np.abs(ref_out - sh_out)) <= 1e-9
            for ref, values in zip(ref_tables, reassemble_values(model, plan, state)):
                dev = np.max(np.abs(ref.values - values))
                if kind is OptimizerKind.SGD:
                    assert np.array_equal(ref.values, values)  # bitwise
                else:
                    assert dev <= 1e-9

    def test_shard_lists_out_of_bound_order(self):
        # Row shards listed in reverse row order, two of them on worker 0;
        # column shards listed out of column order; no shard list follows
        # worker order. Inputs must follow each shard, not its rank in bounds.
        model = desk_model(
            [
                TableSpec(id="rw", num_rows=30, dim=4, avg_pooling=3.0),
                TableSpec(id="cw", num_rows=20, dim=6, avg_pooling=2.0),
                TableSpec(id="tw", num_rows=12, dim=2, avg_pooling=1.5),
                TableSpec(id="dp", num_rows=10, dim=2, avg_pooling=2.0),
            ],
            local_batch=4,
        )
        plan = ShardingPlan(
            4,
            4,
            (
                TableAssignment(
                    "rw",
                    Scheme(SchemeKind.ROW_WISE, num_row_shards=3),
                    (
                        Shard(worker=0, rows=(18, 30)),
                        Shard(worker=3, rows=(7, 18)),
                        Shard(worker=0, rows=(0, 7)),
                    ),
                ),
                TableAssignment(
                    "cw",
                    Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 2), (2, 6))),
                    (Shard(worker=2, cols=(2, 6)), Shard(worker=1, cols=(0, 2))),
                ),
                TableAssignment("tw", Scheme(SchemeKind.TABLE_WISE), (Shard(worker=1),)),
                TableAssignment(
                    "dp", Scheme(SchemeKind.DATA_PARALLEL), (Shard(worker=None),)
                ),
            ),
        )
        batch = gen_synthetic_batch(model, 16, seed=30)
        slices = alltoall_redistribute(to_wtb(batch, 4), plan, model)
        by_table = {a.table_id: a for a in plan.assignments}
        for ws in slices:
            for si in ws.inputs:
                a = by_table[si.table_id]
                if a.scheme.kind is SchemeKind.DATA_PARALLEL:
                    assert si.position == ws.worker  # the worker's own replica
                else:
                    assert a.shards[si.position].worker == ws.worker
        # the input at position i holds shard i's rows, shard-local, in
        # global sample order, and nothing else
        lens, idx = batch.table_slice(0)
        sample = np.repeat(np.arange(len(lens)), lens)
        rw = [si for ws in slices for si in ws.inputs if si.table_id == "rw"]
        assert sorted(si.position for si in rw) == [0, 1, 2]
        for si in rw:
            r0, r1 = by_table["rw"].shards[si.position].rows
            inside = (idx >= r0) & (idx < r1)
            assert np.array_equal(si.indices, idx[inside] - r0)
            assert np.array_equal(
                si.lengths, np.bincount(sample[inside], minlength=len(lens))
            )
        for kind in OptimizerKind:
            cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)
            ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=31)
            sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=31)
            assert np.max(np.abs(ref_out - sh_out)) <= 1e-9
            for ref, values in zip(ref_tables, reassemble_values(model, plan, state)):
                if kind is OptimizerKind.SGD:
                    assert np.array_equal(ref.values, values)  # bitwise
                else:
                    assert np.max(np.abs(ref.values - values)) <= 1e-9

    @pytest.mark.parametrize("heuristic", ["greedy", "kk", "hierarchical"])
    def test_column_plans_verify_without_shards(self, heuristic):
        """The verify step reads a planner's shard columns and builds no
        Shard: outputs, every state piece and the reassembled tables equal,
        bit for bit, those of the same plan built from TableAssignments."""
        model, cluster, policy = mixed_desk_case()
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=40)

        def pieces(state):
            for key in sorted(state.shards):
                yield key, state.shards[key]
            for table_id in sorted(state.dp_tables):
                yield (table_id, "dp"), state.dp_tables[table_id]

        for kind in OptimizerKind:
            if heuristic == "hierarchical":
                plan = hierarchical_plan(model, cluster, CostWeights(), policy)
            else:
                plan = plan_4d(model, cluster, CostWeights(), policy, heuristic)
            cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)
            out, state = train_step_sharded(model, plan, batch, cfg, seed=41)
            values = reassemble_values(model, plan, state)
            assert "assignments" not in vars(plan)
            twin = ShardingPlan(
                plan.num_workers, plan.gpus_per_node, plan.assignments, plan.heuristic
            )
            twin_out, twin_state = train_step_sharded(model, twin, batch, cfg, seed=41)
            assert np.array_equal(out, twin_out)
            got, want = list(pieces(state)), list(pieces(twin_state))
            assert [key for key, _ in got] == [key for key, _ in want]
            for (key, a), (_, b) in zip(got, want):
                assert np.array_equal(a.values, b.values), key
                if kind is OptimizerKind.SGD:
                    assert a.moment is None and b.moment is None, key
                else:
                    assert np.array_equal(a.moment, b.moment), key
            for a, b in zip(values, reassemble_values(model, twin, twin_state)):
                assert np.array_equal(a, b)

    def test_verify_steps_build_no_upstream(self, monkeypatch):
        """Both training steps take each row's gradient as its lookup count:
        on a plan with TW, RW, CW and DP tables, neither gathers an upstream
        row per index (_upstream_rows) nor sums (row, column) cells
        (_sum_rows)."""
        model, cluster, policy = mixed_desk_case()
        plan = plan_4d(model, cluster, CostWeights(), policy)
        assert {a.scheme.kind for a in plan.assignments} == set(SchemeKind)
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=44)
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=1e-8)

        def forbidden(*args):
            raise AssertionError("a verify step aggregated an upstream gradient")

        monkeypatch.setattr(embedding, "_sum_rows", forbidden)
        monkeypatch.setattr(embedding, "_upstream_rows", forbidden)
        with pytest.raises(AssertionError):  # the general-upstream kernel does call them
            embedding.backward_sort_aggregate([1], [0], np.ones((1, 2)), 1)
        train_step_reference(model, batch, cfg, seed=45)
        train_step_sharded(model, plan, batch, cfg, seed=45)

    @pytest.mark.parametrize("heuristic", ["greedy", "hierarchical"])
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_touched_row_roundtrip_equals_whole_table(self, monkeypatch, kind, heuristic):
        """FP16 storage round-trips only the rows a step touched. Every other
        row is still FP16-exact from build_tables, so outputs, values and
        moments equal, byte for byte, those of a whole-table round trip, in
        the reference, every shard and every data-parallel table."""
        model, cluster, policy = mixed_desk_case()
        fp16 = Precision.FP16
        tables = tuple(dataclasses.replace(t, value_precision=fp16) for t in model.tables)
        model = dataclasses.replace(model, tables=tables)
        if heuristic == "hierarchical":
            plan = hierarchical_plan(model, cluster, CostWeights(), policy)
        else:
            plan = plan_4d(model, cluster, CostWeights(), policy)
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=42)
        cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)

        def step_bytes():
            out, ref_tables = train_step_reference(model, batch, cfg, seed=43)
            sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=43)
            pieces = [*ref_tables, *(state.shards[k] for k in sorted(state.shards))]
            pieces += [state.dp_tables[table_id] for table_id in sorted(state.dp_tables)]
            arrays = [out, sh_out]
            for piece in pieces:
                arrays += [piece.values] if piece.moment is None else [piece.values, piece.moment]
            return len(state.dp_tables), [a.tobytes() for a in arrays]

        def whole_table(table, rows):
            table.values[:], _ = quantize_fp16_roundtrip(table.values)

        replicated, touched = step_bytes()
        monkeypatch.setattr(embedding, "storage_roundtrip", whole_table)
        assert step_bytes() == (replicated, touched)
        assert replicated or heuristic == "hierarchical"

    def test_dp_table_held_once(self):
        """Each data-parallel assignment yields one EmbeddingTable, trained on
        every worker's local batch: no W copies. Lookup counts are exact, so
        it equals the reference's table bit for bit."""
        model, cluster, policy = mixed_desk_case()
        plan = plan_4d(model, cluster, CostWeights(), policy)
        dp = [a.table_id for a in plan.assignments if a.scheme.kind is SchemeKind.DATA_PARALLEL]
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=8)
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=1e-8)
        _, state = train_step_sharded(model, plan, batch, cfg, seed=9)
        _, ref_tables = train_step_reference(model, batch, cfg, seed=9)
        assert dp and sorted(state.dp_tables) == sorted(dp)
        assert not any(table_id in dp for table_id, _ in state.shards)
        for table_id in dp:
            table = state.dp_tables[table_id]
            assert type(table) is embedding.EmbeddingTable
            ref = ref_tables[model.table_indices([table_id])[0]]
            assert np.array_equal(table.values, ref.values)
            assert np.array_equal(table.moment, ref.moment)

    def test_shards_are_views_of_one_table(self):
        """Every shard of a table views one (H, D) matrix, the drawn table,
        which after the step holds the reassembled post-step values."""
        model, cluster, policy = mixed_desk_case()
        plan = plan_4d(model, cluster, CostWeights(), policy)
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=10)
        cfg = OptimizerConfig(OptimizerKind.ADAGRAD, lr=0.1, eps=1e-8)
        _, state = train_step_sharded(model, plan, batch, cfg, seed=11)
        values = reassemble_values(model, plan, state)
        by_table = {}
        for (table_id, _), piece in state.shards.items():
            by_table.setdefault(table_id, []).append(piece.values)
        assert max(map(len, by_table.values())) > 1
        for table_id, pieces in by_table.items():
            t = model.table_indices([table_id])[0]
            drawn = pieces[0].base
            assert drawn is not None and drawn.shape == values[t].shape
            for piece in pieces:
                assert np.shares_memory(piece, drawn) and piece.base is drawn
            assert np.array_equal(drawn, values[t])
            assert not np.shares_memory(values[t], drawn)  # reassembled afresh

    def test_each_step_checks_its_batch_once(self, monkeypatch):
        """The batch is checked at entry (CombinedBatch.validate_against), so
        the reference runs no per-table input check and the sharded step
        runs one per row-wise table, as bucketize_rowwise re-checks its
        stream."""
        model, cluster, policy = mixed_desk_case()
        plan = plan_4d(model, cluster, CostWeights(), policy)
        rw = [a.table_id for a in plan.assignments if a.scheme.kind is SchemeKind.ROW_WISE]
        batch = gen_synthetic_batch(model, 8 * model.local_batch, seed=12)
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)
        checked = []

        def counted(lengths, indices, num_rows, table_id=""):
            checked.append(table_id)
            return real(lengths, indices, num_rows, table_id)

        real = embedding._checked_input
        monkeypatch.setattr(embedding, "_checked_input", counted)
        monkeypatch.setattr(comms, "_checked_input", counted)
        train_step_reference(model, batch, cfg, seed=13)
        assert checked == []
        train_step_sharded(model, plan, batch, cfg, seed=13)
        assert rw and sorted(checked) == sorted(rw)

    def test_w1_bitwise_equals_reference(self):
        model = desk_model(
            [TableSpec(id=f"t{i}", num_rows=12, dim=2, avg_pooling=1.5) for i in range(3)],
            local_batch=6,
        )
        plan = tw_plan(model, 1)
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.05, eps=1e-8)
        batch = gen_synthetic_batch(model, 6, seed=10)
        ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=11)
        sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=11)
        assert np.array_equal(ref_out, sh_out)
        for ref, values in zip(ref_tables, reassemble_values(model, plan, state)):
            assert np.array_equal(ref.values, values)

    def test_cw_rowwise_moment_is_per_column_shard(self):
        # documented divergence: a column-sharded row keeps one moment scalar
        # per shard, so slice moments see the slice-mean squared gradient
        full = np.array([[1.0, 1.0]])
        g = np.array([[3.0, 4.0]])
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=0.0)
        from test_embedding import make_table

        whole = make_table(full.copy(), moment=np.zeros(1))
        apply_rowwise_adagrad(whole, RowGradients(np.array([0]), g.copy()), cfg)
        left = make_table(full[:, :1].copy(), moment=np.zeros(1))
        right = make_table(full[:, 1:].copy(), moment=np.zeros(1))
        apply_rowwise_adagrad(left, RowGradients(np.array([0]), g[:, :1].copy()), cfg)
        apply_rowwise_adagrad(right, RowGradients(np.array([0]), g[:, 1:].copy()), cfg)
        assert whole.moment[0] == 12.5
        assert left.moment[0] == 9.0 and right.moment[0] == 16.0
        assert left.values[0, 0] != whole.values[0, 0]

    def test_conservation_of_index_multiset(self):
        rng = np.random.default_rng(12)
        model = desk_model(
            [TableSpec(id=f"t{i}", num_rows=20, dim=2, avg_pooling=2.0) for i in range(4)],
            local_batch=4,
        )
        plan = make_mixed_plan(model, 2, 2)
        batch = gen_synthetic_batch(model, 8, seed=13)
        slices = alltoall_redistribute(to_wtb(batch, 2), plan, model)
        by_table = {a.table_id: a for a in plan.assignments}
        for t, table in enumerate(model.tables):
            assignment = by_table[table.id]
            _, original = batch.table_slice(t)
            received = []
            for ws in slices:
                for si in ws.inputs:
                    if si.table_id != table.id:
                        continue
                    base = 0
                    if assignment.scheme.kind is SchemeKind.ROW_WISE:
                        base = assignment.shards[si.position].rows[0]
                    received.append(si.indices + base)
            got = np.sort(np.concatenate(received)) if received else np.array([])
            if assignment.scheme.kind is SchemeKind.COLUMN_WISE:
                assert len(got) == 2 * len(original)  # replicated copies
            else:
                assert np.array_equal(np.sort(original), got)
