"""Embedding operator reference semantics: pooling, fused backward, optimizers."""

import io
import math

import numpy as np
import pytest

from conftest import desk_model, load_table

from neosim import (
    EmbeddingTable,
    InvalidValue,
    OptimizerConfig,
    OptimizerKind,
    Precision,
    RowGradients,
    TableSpec,
    apply_rowwise_adagrad,
    backward_sort_aggregate,
    build_tables,
    forward_pooled,
    fused_backward_update,
    fused_forward,
    gen_synthetic_batch,
    quantize_fp16_roundtrip,
    train_step_reference,
)
from neosim.embedding import (
    apply_adagrad,
    apply_optimizer,
    apply_sgd,
    dump_table,
    merge_row_gradients,
)


def make_table(values, moment=None, precision=Precision.FP32):
    values = np.asarray(values, dtype=np.float64)
    spec = TableSpec(
        id="t",
        num_rows=values.shape[0],
        dim=values.shape[1],
        avg_pooling=1.0,
        value_precision=precision,
    )
    return EmbeddingTable(spec, values, moment)


def naive_forward(values, lengths, indices):
    """Scalar-loop oracle for sum pooling."""
    out = np.zeros((len(lengths), values.shape[1]))
    pos = 0
    for s, count in enumerate(lengths):
        for _ in range(count):
            out[s] += values[indices[pos]]
            pos += 1
    return out


def naive_backward(lengths, indices, upstream):
    """Scalar-loop oracle for sort-aggregate: ascending unique ids, each
    row's sum built occurrence by occurrence in buffer order."""
    ids = sorted({int(i) for i in indices})
    row = {r: k for k, r in enumerate(ids)}
    grads = np.zeros((len(ids), upstream.shape[1]))
    pos = 0
    for s, count in enumerate(lengths):
        for _ in range(count):
            grads[row[int(indices[pos])]] += upstream[s]
            pos += 1
    return np.array(ids, dtype=np.int64), grads


def naive_merge(parts, dim):
    """Scalar-loop oracle for the gradient AllReduce: parts added in order."""
    ids = sorted({int(i) for p in parts for i in p.ids})
    row = {r: k for k, r in enumerate(ids)}
    grads = np.zeros((len(ids), dim))
    for p in parts:
        for r, g in zip(p.ids, p.grads):
            grads[row[int(r)]] += g
    return np.array(ids, dtype=np.int64), grads


def pooling_cases():
    """Inputs for the zero-ULP oracles: pooling up to 40, a hot row repeated
    hundreds of times as under Zipf skew, empty samples, an empty batch and
    dim 1. Row magnitudes span e^-5..e^5 so that any reordering of a sum
    shows up in the last bits."""
    rng = np.random.default_rng(12)

    def rows(n, dim):
        scale = np.exp(rng.uniform(-5.0, 5.0, size=(n, 1)))
        return rng.standard_normal((n, dim)) * scale

    cases = []
    for dim in (1, 3, 16):
        for _ in range(8):
            num_rows = int(rng.integers(1, 50))
            lengths = rng.integers(0, 41, size=int(rng.integers(1, 16)))
            lengths[rng.random(len(lengths)) < 0.25] = 0  # empty samples
            indices = rng.integers(0, num_rows, size=int(lengths.sum()))
            cases.append((rows(num_rows, dim), lengths, indices))
        # hot row 0 takes 80% of ~600 occurrences, across and within samples
        lengths = rng.integers(0, 41, size=30)
        total = int(lengths.sum())
        indices = np.where(rng.random(total) < 0.8, 0, rng.integers(0, 20, size=total))
        cases.append((rows(20, dim), lengths, indices))
        # one sample repeating row 5 four hundred times
        cases.append((rows(8, dim), np.array([400]), np.full(400, 5)))
        # every sample empty, then an empty batch
        cases.append((rows(5, dim), np.zeros(4, dtype=np.int64), np.zeros(0, np.int64)))
        cases.append((rows(5, dim), np.zeros(0, dtype=np.int64), np.zeros(0, np.int64)))
    return cases


class TestForwardPooled:
    def test_two_row_sum(self):
        table = make_table([[1, 2], [3, 4], [5, 6]])
        out = forward_pooled(table, [2], [0, 2])
        assert out.tolist() == [[6, 8]]

    def test_single_hot_identity(self):
        table = make_table([[1, 2], [3, 4], [5, 6]])
        out = forward_pooled(table, [1], [1])
        assert out.tolist() == [[3, 4]]

    def test_empty_sample_zero_vector(self):
        table = make_table([[1, 2], [3, 4]])
        out = forward_pooled(table, [0, 1], [0])
        assert out.tolist() == [[0, 0], [1, 2]]

    def test_matches_scalar_loop_to_zero_ulp(self):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(10):
            values = rng.standard_normal((30, 5))
            lengths = rng.integers(0, 6, size=12)
            indices = rng.integers(0, 30, size=int(lengths.sum()))
            cases.append((values, lengths, indices))
        for values, lengths, indices in cases + pooling_cases():
            got = forward_pooled(make_table(values), lengths, indices)
            want = naive_forward(values, lengths, indices)
            assert got.shape == want.shape
            assert np.array_equal(got, want)  # identical accumulation order

    def test_index_out_of_range(self):
        from neosim import IndexOutOfRange

        table = make_table([[1.0, 2.0]])
        with pytest.raises(IndexOutOfRange):
            forward_pooled(table, [1], [5])

    def test_negative_length_rejected(self):
        table = make_table([[1.0], [2.0], [3.0]])
        with pytest.raises(InvalidValue) as err:
            forward_pooled(table, [3, -1], [0, 1])
        assert err.value.path == "lengths"

    def test_pooling_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((10, 3))
        b = rng.standard_normal((10, 3))
        lengths = rng.integers(0, 4, size=6)
        indices = rng.integers(0, 10, size=int(lengths.sum()))
        lhs = forward_pooled(make_table(2.0 * a + 0.5 * b), lengths, indices)
        rhs = 2.0 * forward_pooled(make_table(a), lengths, indices) + 0.5 * forward_pooled(
            make_table(b), lengths, indices
        )
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestFusedForward:
    def test_equals_per_table_concat(self):
        model = desk_model(
            [
                TableSpec(id="a", num_rows=20, dim=3, avg_pooling=2.0),
                TableSpec(id="b", num_rows=10, dim=5, avg_pooling=1.5),
            ]
        )
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)
        tables = build_tables(model, cfg, seed=1)
        batch = gen_synthetic_batch(model, 8, seed=2)
        fused = fused_forward(tables, batch)
        parts = [
            forward_pooled(tables[t], *batch.table_slice(t)) for t in range(2)
        ]
        assert np.array_equal(fused, np.concatenate(parts, axis=1))

    def test_zero_tables_empty_output(self):
        from neosim import CombinedBatch

        empty = CombinedBatch(np.zeros((0, 4), dtype=np.int64), np.zeros(0, np.int64))
        out = fused_forward([], empty)
        assert out.shape == (4, 0)

    def test_many_tables_match_per_table_loop(self):
        # 64 tables at the benchmark shapes, rows scaled 1e6 -> 1e4
        model = desk_model(
            [
                TableSpec(id=f"t{i}", num_rows=10_000, dim=128, avg_pooling=32.0)
                for i in range(64)
            ],
            local_batch=16,
        )
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)
        tables = build_tables(model, cfg, seed=3)
        batch = gen_synthetic_batch(model, 16, seed=4)
        fused = fused_forward(tables, batch)
        col = 0
        for t, table in enumerate(tables):
            part = forward_pooled(table, *batch.table_slice(t))
            assert np.array_equal(fused[:, col : col + 128], part)
            col += 128


class TestBackwardSortAggregate:
    def test_two_samples_same_row_sum(self):
        upstream = np.array([[1.0, 2.0], [10.0, 20.0]])
        grads = backward_sort_aggregate([1, 1], [1, 1], upstream, 2)
        assert grads.ids.tolist() == [1]
        assert grads.grads.tolist() == [[11.0, 22.0]]

    def test_single_sample_identity(self):
        upstream = np.array([[3.0, 4.0]])
        grads = backward_sort_aggregate([1], [7], upstream, 8)
        assert grads.ids.tolist() == [7]
        assert grads.grads.tolist() == [[3.0, 4.0]]

    def test_duplicate_index_in_one_sample_counts_twice(self):
        upstream = np.array([[1.0]])
        grads = backward_sort_aggregate([2], [3, 3], upstream, 4)
        assert grads.grads.tolist() == [[2.0]]

    def test_ids_sorted_ascending(self):
        upstream = np.ones((1, 2))
        grads = backward_sort_aggregate([3], [9, 2, 5], upstream, 10)
        assert grads.ids.tolist() == [2, 5, 9]

    def test_sample_order_permutation_invariance(self):
        rng = np.random.default_rng(5)
        lengths = rng.integers(0, 4, size=8)
        indices = rng.integers(0, 12, size=int(lengths.sum()))
        upstream = rng.standard_normal((8, 3))
        base = backward_sort_aggregate(lengths, indices, upstream, 12)
        perm = rng.permutation(8)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        shuffled_indices = np.concatenate(
            [indices[offsets[p] : offsets[p + 1]] for p in perm]
        )
        shuffled = backward_sort_aggregate(
            lengths[perm], shuffled_indices, upstream[perm], 12
        )
        assert base.ids.tolist() == shuffled.ids.tolist()
        assert np.allclose(base.grads, shuffled.grads, atol=1e-12)

    def test_matches_scalar_loop_to_zero_ulp(self):
        rng = np.random.default_rng(13)
        for values, lengths, indices in pooling_cases():
            upstream = rng.standard_normal((len(lengths), values.shape[1]))
            upstream *= np.exp(rng.uniform(-5.0, 5.0, size=(len(lengths), 1)))
            got = backward_sort_aggregate(lengths, indices, upstream, len(values))
            want_ids, want_grads = naive_backward(lengths, indices, upstream)
            assert np.array_equal(got.ids, want_ids)
            assert got.grads.shape == want_grads.shape
            assert np.array_equal(got.grads, want_grads)

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidValue) as err:
            backward_sort_aggregate([3, -1], [0, 1], np.ones((2, 1)), 2)
        assert err.value.path == "lengths"

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_id_outside_the_row_count_rejected(self, bad):
        from neosim import IndexOutOfRange

        with pytest.raises(IndexOutOfRange) as err:
            backward_sort_aggregate([2], [1, bad], np.ones((1, 2)), 4)
        assert err.value.index == bad

    def test_matches_central_finite_differences(self):
        # loss = sum_s w_s . pooled_s with random per-sample weights; FD step 1e-4
        rng = np.random.default_rng(6)
        for _ in range(5):
            H, D, n = 10, 3, 5
            values = rng.standard_normal((H, D))
            lengths = rng.integers(0, 4, size=n)
            indices = rng.integers(0, H, size=int(lengths.sum()))
            sample_w = rng.standard_normal((n, 1))

            def loss(vals):
                pooled = naive_forward(vals, lengths, indices)
                return float((sample_w * pooled).sum())

            upstream = np.repeat(sample_w, D, axis=1)
            analytic = backward_sort_aggregate(lengths, indices, upstream, H)
            dense = np.zeros((H, D))
            dense[analytic.ids] = analytic.grads
            step = 1e-4
            for r in range(H):
                for j in range(D):
                    up = values.copy()
                    up[r, j] += step
                    down = values.copy()
                    down[r, j] -= step
                    fd = (loss(up) - loss(down)) / (2 * step)
                    assert abs(fd - dense[r, j]) <= 1e-6


class TestMergeRowGradients:
    def test_matches_scalar_loop_to_zero_ulp(self):
        rng = np.random.default_rng(14)
        for dim in (1, 3, 16):
            for _ in range(20):
                parts = []
                for _ in range(int(rng.integers(1, 13))):  # up to 12 replicas
                    ids = np.unique(rng.integers(0, 30, size=int(rng.integers(0, 25))))
                    grads = rng.standard_normal((len(ids), dim))
                    grads *= np.exp(rng.uniform(-5.0, 5.0, size=(len(ids), 1)))
                    parts.append(RowGradients(ids, grads))
                got = merge_row_gradients(parts, 30, dim)
                want_ids, want_grads = naive_merge(parts, dim)
                assert np.array_equal(got.ids, want_ids)
                assert got.grads.shape == want_grads.shape
                assert np.array_equal(got.grads, want_grads)

    @pytest.mark.parametrize("bad", [-1, 30])
    def test_id_outside_the_row_count_rejected(self, bad):
        from neosim import IndexOutOfRange

        parts = [RowGradients(np.array([bad]), np.ones((1, 2)))]
        with pytest.raises(IndexOutOfRange) as err:
            merge_row_gradients(parts, 30, 2)
        assert err.value.index == bad

    def test_all_parts_empty(self):
        empty = RowGradients(np.empty(0, dtype=np.int64), np.zeros((0, 2)))
        got = merge_row_gradients([empty, empty], 5, 2)
        assert got.ids.shape == (0,) and got.grads.shape == (0, 2)


class TestRowWiseAdagrad:
    def test_hand_computed_update(self):
        # w=[1,1], g=[3,4], m=0, lr=0.1, eps=0:
        #   m = (9 + 16) / 2 = 12.5
        #   w = [1 - 0.3/sqrt(12.5), 1 - 0.4/sqrt(12.5)]
        table = make_table([[1.0, 1.0]], moment=np.zeros(1))
        grads = RowGradients(np.array([0]), np.array([[3.0, 4.0]]))
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=0.0)
        apply_rowwise_adagrad(table, grads, cfg)
        assert table.moment[0] == 12.5
        root = math.sqrt(12.5)
        assert table.values[0, 0] == pytest.approx(1 - 0.3 / root, abs=1e-12)
        assert table.values[0, 1] == pytest.approx(1 - 0.4 / root, abs=1e-12)

    def test_dim_one_equals_elementwise_adagrad(self):
        grads = RowGradients(np.array([0]), np.array([[2.0]]))
        cfg_rw = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=1e-8)
        cfg_el = OptimizerConfig(OptimizerKind.ADAGRAD, lr=0.1, eps=1e-8)
        rw = make_table([[1.0]], moment=np.zeros(1))
        el = make_table([[1.0]], moment=np.zeros((1, 1)))
        apply_rowwise_adagrad(rw, grads, cfg_rw)
        apply_adagrad(el, grads, cfg_el)
        assert rw.values[0, 0] == el.values[0, 0]

    def test_zero_gradient_leaves_state(self):
        table = make_table([[1.0, 1.0]], moment=np.array([4.0]))
        grads = RowGradients(np.array([0]), np.array([[0.0, 0.0]]))
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=0.0)
        apply_rowwise_adagrad(table, grads, cfg)
        assert table.values.tolist() == [[1.0, 1.0]]
        assert table.moment.tolist() == [4.0]

    def test_moment_nondecreasing_over_steps(self):
        rng = np.random.default_rng(7)
        table = make_table(rng.standard_normal((6, 3)), moment=np.zeros(6))
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.05, eps=1e-8)
        prev = table.moment.copy()
        for _ in range(10):
            ids = np.unique(rng.integers(0, 6, size=3))
            grads = RowGradients(ids, rng.standard_normal((len(ids), 3)))
            apply_rowwise_adagrad(table, grads, cfg)
            assert np.all(table.moment >= prev)
            prev = table.moment.copy()


class TestFusedBackwardUpdate:
    def test_aggregated_adagrad_differs_from_per_occurrence(self):
        # same row touched twice with g each: one aggregated step with 2g
        # is NOT two steps with g under a non-linear optimizer
        cfg = OptimizerConfig(OptimizerKind.ADAGRAD, lr=0.1, eps=0.0)
        g = 1.0
        fused = make_table([[1.0]], moment=np.zeros((1, 1)))
        fused_backward_update(fused, [1, 1], [0, 0], np.full((2, 1), g), cfg)
        twice = make_table([[1.0]], moment=np.zeros((1, 1)))
        for _ in range(2):
            apply_adagrad(
                twice, RowGradients(np.array([0]), np.array([[g]])), cfg
            )
        assert fused.values[0, 0] != twice.values[0, 0]
        # aggregated: w -= lr * 2g / sqrt(4g^2) = lr; per-occurrence: 2 x lr * g/|g|
        assert fused.values[0, 0] == pytest.approx(1.0 - 0.1)
        assert twice.values[0, 0] == pytest.approx(1.0 - 0.1 - 0.1 / math.sqrt(2))

    def test_sgd_fused_equals_sequential_occurrences(self):
        # linear optimizer with exactly representable values: equality is exact
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.5)
        fused = make_table([[4.0], [8.0]])
        fused_backward_update(fused, [1, 1], [0, 0], np.array([[1.0], [2.0]]), cfg)
        seq = make_table([[4.0], [8.0]])
        apply_sgd(seq, RowGradients(np.array([0]), np.array([[1.0]])), cfg)
        apply_sgd(seq, RowGradients(np.array([0]), np.array([[2.0]])), cfg)
        assert np.array_equal(fused.values, seq.values)

    def test_fused_equals_composition_bitwise(self):
        rng = np.random.default_rng(8)
        for kind in OptimizerKind:
            lengths = rng.integers(0, 4, size=6)
            indices = rng.integers(0, 8, size=int(lengths.sum()))
            upstream = rng.standard_normal((6, 2))
            cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)
            values = rng.standard_normal((8, 2))
            moment = None
            if kind is OptimizerKind.ROWWISE_ADAGRAD:
                moment = np.zeros(8)
            elif kind is OptimizerKind.ADAGRAD:
                moment = np.zeros((8, 2))
            fused = make_table(values.copy(), None if moment is None else moment.copy())
            fused_backward_update(fused, lengths, indices, upstream, cfg)
            manual = make_table(values.copy(), None if moment is None else moment.copy())
            grads = backward_sort_aggregate(lengths, indices, upstream, 8)
            apply_optimizer(manual, grads, cfg)
            assert np.array_equal(fused.values, manual.values)

    @pytest.mark.parametrize("bad", [-1, 4])
    @pytest.mark.parametrize("kind", list(OptimizerKind))
    def test_out_of_range_id_rejected_table_unchanged(self, kind, bad):
        from neosim import IndexOutOfRange

        rng = np.random.default_rng(9)
        moment = None
        if kind is OptimizerKind.ROWWISE_ADAGRAD:
            moment = np.zeros(4)
        elif kind is OptimizerKind.ADAGRAD:
            moment = np.zeros((4, 2))
        table = make_table(rng.standard_normal((4, 2)), moment)
        before = table.copy()
        cfg = OptimizerConfig(kind, lr=0.1, eps=1e-8)
        with pytest.raises(IndexOutOfRange) as err:
            fused_backward_update(table, [1, 1], [2, bad], np.ones((2, 2)), cfg)
        assert err.value.table_id == "t" and err.value.index == bad
        assert np.array_equal(table.values, before.values)
        if moment is not None:
            assert np.array_equal(table.moment, before.moment)


class TestFp16Roundtrip:
    def test_exactly_representable(self):
        q, overflow = quantize_fp16_roundtrip(np.array([1.0]))
        assert q.tolist() == [1.0]
        assert not overflow.any()

    def test_rounds_to_nearest_even(self):
        # FP16 has an 11-bit significand: 2049 ties to even 2048
        q, _ = quantize_fp16_roundtrip(np.array([2049.0]))
        assert q.tolist() == [2048.0]

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100) * 100
        once, _ = quantize_fp16_roundtrip(x)
        twice, _ = quantize_fp16_roundtrip(once)
        assert np.array_equal(once, twice)

    def test_overflow_flagged(self):
        q, overflow = quantize_fp16_roundtrip(np.array([1e6, 1.0]))
        assert overflow.tolist() == [True, False]

    def test_relative_error_bound(self):
        # normal FP16 range: relative error <= 2^-11
        rng = np.random.default_rng(10)
        x = rng.uniform(1e-3, 6e4, size=1000)
        q, _ = quantize_fp16_roundtrip(x)
        assert np.all(np.abs(q - x) / np.abs(x) <= 2.0**-11)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidValue):
            quantize_fp16_roundtrip(np.array([np.inf]))


class TestTrainStepReference:
    def test_sgd_on_zero_tables_writes_occurrence_counts(self):
        spec = TableSpec(id="t", num_rows=6, dim=3, avg_pooling=2.0)
        model = desk_model([spec], local_batch=4)
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)
        batch = gen_synthetic_batch(model, 4, seed=11)
        table = EmbeddingTable(spec, np.zeros((6, 3)))
        lengths, indices = batch.table_slice(0)
        # the sum-of-outputs loss sends an upstream gradient of ones
        fused_backward_update(table, lengths, indices, np.ones((4, 3)), cfg)
        counts = np.bincount(indices, minlength=6).astype(float)
        expected = -0.1 * counts[:, None] * np.ones((6, 3))
        assert np.allclose(table.values, expected, atol=1e-15)

    def test_purity(self):
        model = desk_model(
            [TableSpec(id="t", num_rows=10, dim=2, avg_pooling=1.5)], local_batch=4
        )
        cfg = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1, eps=1e-8)
        batch = gen_synthetic_batch(model, 4, seed=12)
        out1, tables1 = train_step_reference(model, batch, cfg, seed=5)
        out2, tables2 = train_step_reference(model, batch, cfg, seed=5)
        assert np.array_equal(out1, out2)
        for a, b in zip(tables1, tables2):
            assert np.array_equal(a.values, b.values)

    def test_fp16_storage_roundtrip_applied(self):
        model = desk_model(
            [
                TableSpec(
                    id="t",
                    num_rows=8,
                    dim=2,
                    avg_pooling=1.0,
                    value_precision=Precision.FP16,
                )
            ],
            local_batch=2,
        )
        cfg = OptimizerConfig(OptimizerKind.SGD, lr=0.1)
        batch = gen_synthetic_batch(model, 2, seed=13)
        _, tables = train_step_reference(model, batch, cfg, seed=1)
        q, _ = quantize_fp16_roundtrip(tables[0].values)
        assert np.array_equal(tables[0].values, q)


class TestTableCheckpoint:
    def test_dump_load_round_trip(self):
        rng = np.random.default_rng(14)
        spec = TableSpec(id="t", num_rows=5, dim=3, avg_pooling=1.0)
        table = EmbeddingTable(spec, rng.standard_normal((5, 3)), np.abs(rng.standard_normal(5)))
        buf = io.BytesIO()
        dump_table(table, buf)
        buf.seek(0)
        loaded = load_table(spec, buf)
        assert np.array_equal(loaded.values, table.values)
        assert np.array_equal(loaded.moment, table.moment)
