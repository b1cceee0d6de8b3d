"""Core domain types, spec parsing and synthetic batches."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import desk_model, index_bytes

from neosim import (
    CombinedBatch,
    IndexSkew,
    InvalidValue,
    LayoutMismatch,
    MissingKey,
    MalformedDocument,
    ModelSpec,
    Precision,
    Scheme,
    SchemeKind,
    Shard,
    ShardingPlan,
    SkewKind,
    TableAssignment,
    TableSpec,
    gen_synthetic_batch,
    parse_cluster_spec,
    parse_model_spec,
)
from neosim.bundled import data_path, load_bundled_model


def small_model(tables=None, local_batch=4):
    tables = tables or (
        TableSpec(id="t0", num_rows=10, dim=2, avg_pooling=1.0),
        TableSpec(id="t1", num_rows=6, dim=3, avg_pooling=2.0),
    )
    return ModelSpec(
        tables=tuple(tables),
        bottom_mlp_layers=(),
        top_mlp_layers=(),
        local_batch=local_batch,
        mflops_per_sample=1.0,
        interaction_flops_per_sample=0.0,
        dense_param_bytes=0,
    )


class TestTableSpec:
    def test_invariants(self):
        with pytest.raises(InvalidValue):
            TableSpec(id="x", num_rows=0, dim=4, avg_pooling=1.0)
        with pytest.raises(InvalidValue):
            TableSpec(id="x", num_rows=4, dim=0, avg_pooling=1.0)
        with pytest.raises(InvalidValue):
            TableSpec(id="x", num_rows=4, dim=4, avg_pooling=0.0)
        with pytest.raises(InvalidValue):
            IndexSkew(kind=SkewKind.ZIPF, alpha=0.0)

    def test_index_bytes_widens_past_int32(self):
        rows = (100, 2**31, 2**31 + 1)
        tables = [
            TableSpec(id=f"t{i}", num_rows=h, dim=4, avg_pooling=1.0)
            for i, h in enumerate(rows)
        ]
        widths = desk_model(tables).table_columns.index_bytes
        assert widths.tolist() == [4, 4, 8] and widths.dtype == np.int64
        assert widths.tolist() == [index_bytes(h) for h in rows]


class TestParseModelSpec:
    def test_bundled_model_f_sizes(self):
        model = load_bundled_model("model_f")
        assert {t.dim for t in model.tables} == {256}
        assert model.local_batch == 512
        assert model.total_table_params == 12 * 10**12

    def test_dim_zero_rejected(self):
        doc = {
            "spec_version": 1,
            "local_batch": 4,
            "mflops_per_sample": 1,
            "tables": [{"id": "t", "num_rows": 5, "dim": 0, "avg_pooling": 1.0}],
        }
        with pytest.raises(InvalidValue) as err:
            parse_model_spec(json.dumps(doc))
        assert "dim" in err.value.path

    def test_literal_document_sets_every_field(self):
        doc = {
            "spec_version": 1,
            "local_batch": 8,
            "mflops_per_sample": 1.5,
            "interaction_flops_per_sample": 2.5,
            "dense_param_bytes": 148,
            "bottom_mlp_layers": [[2, 4]],
            "top_mlp_layers": [[4, 4], [4, 1]],
            "tables": [
                {
                    "id": "z",
                    "num_rows": 7,
                    "dim": 3,
                    "avg_pooling": 2.5,
                    "value_precision": "FP16",
                    "index_skew": {"kind": "zipf", "alpha": 1.25},
                },
                {
                    "id": "u",
                    "num_rows": 5,
                    "dim": 2,
                    "avg_pooling": 1.0,
                    "value_precision": "FP32",
                    "index_skew": {"kind": "uniform"},
                },
            ],
        }
        assert parse_model_spec(json.dumps(doc)) == ModelSpec(
            tables=(
                TableSpec(
                    id="z",
                    num_rows=7,
                    dim=3,
                    avg_pooling=2.5,
                    value_precision=Precision.FP16,
                    index_skew=IndexSkew(SkewKind.ZIPF, 1.25),
                ),
                TableSpec(id="u", num_rows=5, dim=2, avg_pooling=1.0),
            ),
            bottom_mlp_layers=((2, 4),),
            top_mlp_layers=((4, 4), (4, 1)),
            local_batch=8,
            mflops_per_sample=1.5,
            interaction_flops_per_sample=2.5,
            dense_param_bytes=148,
        )

    def test_table_index_is_position_and_unknown_id_raises(self):
        model = load_bundled_model("model_a")
        ids = [t.id for t in model.tables]
        assert model.table_indices(ids).tolist() == list(range(model.num_tables))
        assert model.table_indices(["nope", ids[1]]).tolist() == [-1, 1]

    def test_rebuilt_model_equal_hash_repr(self):
        model = small_model()
        again = small_model()
        assert again == model
        assert hash(again) == hash(model)
        assert repr(again) == repr(model)
        assert "_table_pos" not in repr(model)
        renamed = dataclasses.replace(
            model, tables=(dataclasses.replace(model.tables[0], id="x"),) + model.tables[1:]
        )
        assert renamed.table_indices(["x"])[0] == 0
        assert renamed.table_indices(["t0"])[0] == -1

    def test_unknown_key_rejected_with_path(self):
        doc = {
            "spec_version": 1,
            "local_batch": 4,
            "mflops_per_sample": 1,
            "tables": [
                {"id": "t", "num_rows": 5, "dim": 2, "avg_pooling": 1.0, "bogus": 1}
            ],
        }
        with pytest.raises(InvalidValue) as err:
            parse_model_spec(json.dumps(doc))
        assert "tables[0].bogus" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(MissingKey):
            parse_model_spec(json.dumps({"spec_version": 1, "local_batch": 4}))

    def test_malformed_document(self):
        with pytest.raises(MalformedDocument):
            parse_model_spec("not json {")

    def test_dense_bytes_must_match_layers(self):
        doc = {
            "spec_version": 1,
            "local_batch": 4,
            "mflops_per_sample": 1,
            "bottom_mlp_layers": [[4, 4]],
            "dense_param_bytes": 999,
        }
        with pytest.raises(InvalidValue):
            parse_model_spec(json.dumps(doc))
        doc["dense_param_bytes"] = (4 * 4 + 4) * 4
        assert parse_model_spec(json.dumps(doc)).dense_param_bytes == 80


    @pytest.mark.parametrize(
        "path, literal",
        [
            ("mflops_per_sample", "NaN"),
            ("interaction_flops_per_sample", "1e400"),
            ("tables[0].avg_pooling", "Infinity"),
            ("tables[0].index_skew.alpha", "NaN"),
            ("table_generator.avg_pooling", "-Infinity"),
            ("table_generator.avg_pooling", "1" + "0" * 400),
        ],
    )
    def test_non_finite_numbers_rejected(self, path, literal):
        # json reads NaN, Infinity and 1e400 as floats; a finite spec has none
        doc = {
            "spec_version": 1,
            "local_batch": 4,
            "mflops_per_sample": 1,
            "interaction_flops_per_sample": 2.0,
            "tables": [
                {
                    "id": "t",
                    "num_rows": 5,
                    "dim": 2,
                    "avg_pooling": 1.0,
                    "index_skew": {"kind": "zipf", "alpha": 1.1},
                }
            ],
            "table_generator": {
                "count": 2,
                "dims": [4],
                "num_rows": 8,
                "avg_pooling": 2.0,
            },
        }
        parse_model_spec(json.dumps(doc))
        text = json.dumps(_set_path(doc, path, "@@"))
        with pytest.raises(InvalidValue) as err:
            parse_model_spec(text.replace('"@@"', literal))
        assert err.value.path == path
        assert err.value.reason == "expected a finite number"


def _set_path(doc, path, value):
    """doc with the dotted, indexed path (a.b[0].c) set to value."""
    node = doc
    keys = path.replace("[", ".").replace("]", "").split(".")
    keys = [int(key) if key.isdigit() else key for key in keys]
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


class TestParseClusterSpec:
    @pytest.mark.parametrize(
        "path, literal",
        [
            ("fixed_latency_per_collective", "NaN"),
            ("fixed_latency_per_collective", "Infinity"),
            ("hbm_bw", "Infinity"),
            ("scaleup_bw", "Infinity"),
            ("scaleout_bw_per_gpu", "1e400"),
            ("mlp_efficiency", "NaN"),
            ("peak_flops.FP32", "NaN"),
            ("alltoall_bw_points[0][1]", "Infinity"),
            ("allreduce_bw_points[0][0]", "1" + "0" * 400),
        ],
    )
    def test_non_finite_numbers_rejected(self, path, literal):
        doc = json.loads(data_path("cluster_16node.json").read_text())
        text = json.dumps(_set_path(doc, path, "@@"))
        with pytest.raises(InvalidValue) as err:
            parse_cluster_spec(text.replace('"@@"', literal))
        assert err.value.path == path
        assert err.value.reason == "expected a finite number"

    def test_bandwidth_growing_faster_than_size_rejected(self):
        # 1 MiB at 0.1 GB/s takes 10.5 ms, 8 MiB at 2 GB/s only 4.2 ms
        doc = json.loads(data_path("cluster_16node.json").read_text())
        doc["alltoall_bw_points"] = [[2**20, 1e8], [8 * 2**20, 2e9]]
        with pytest.raises(InvalidValue) as err:
            parse_cluster_spec(json.dumps(doc))
        assert err.value.path == "alltoall_bw_points"
        assert "grows faster than size" in err.value.reason
        # bandwidth growing exactly with size keeps the time flat: accepted
        doc["alltoall_bw_points"] = [[2**20, 1e8], [8 * 2**20, 8e8]]
        assert parse_cluster_spec(json.dumps(doc)).alltoall_bw_points[1] == (8 * 2**20, 8e8)


class TestSyntheticBatch:
    def test_deterministic(self):
        model = small_model()
        a = gen_synthetic_batch(model, 32, seed=5)
        b = gen_synthetic_batch(model, 32, seed=5)
        assert a == b
        assert a != gen_synthetic_batch(model, 32, seed=6)

    def test_uniform_frequencies_within_3_sigma(self):
        # H=10, 1e5 draws: 3 sigma = 3 * sqrt(n p (1-p)) ~= 284.6
        table = TableSpec(id="u", num_rows=10, dim=2, avg_pooling=1.0)
        model = small_model(tables=(table,))
        batch = gen_synthetic_batch(model, 100_000, seed=0)
        _, idx = batch.table_slice(0)
        freq = np.bincount(idx, minlength=10)
        assert np.all(np.abs(freq - 10_000) <= 284.6)

    def test_unit_pooling_is_exact(self):
        model = small_model(
            tables=(
                TableSpec(id="a", num_rows=4, dim=2, avg_pooling=1.0),
                TableSpec(id="b", num_rows=4, dim=2, avg_pooling=1.0),
            )
        )
        batch = gen_synthetic_batch(model, 1, seed=0)
        assert batch.lengths.tolist() == [[1], [1]]

    def test_expected_pooling(self):
        table = TableSpec(id="p", num_rows=100, dim=2, avg_pooling=2.5)
        model = small_model(tables=(table,))
        batch = gen_synthetic_batch(model, 20_000, seed=1)
        mean = batch.lengths[0].mean()
        assert abs(mean - 2.5) < 0.02

    def test_zipf_skews_toward_low_ids(self):
        table = TableSpec(
            id="z",
            num_rows=1000,
            dim=2,
            avg_pooling=4.0,
            index_skew=IndexSkew(kind=SkewKind.ZIPF, alpha=1.2),
        )
        model = small_model(tables=(table,))
        batch = gen_synthetic_batch(model, 5000, seed=2)
        _, idx = batch.table_slice(0)
        assert (idx < 10).mean() > (idx >= 990).mean() * 5


class TestCombinedBatch:
    def test_length_index_consistency(self):
        with pytest.raises(LayoutMismatch, match="lengths do not cover the index buffer"):
            CombinedBatch(np.array([[2, 1]]), np.array([1]))

    def test_canonical_reserialization(self):
        model = small_model()
        batch = gen_synthetic_batch(model, 16, seed=3)
        clone = CombinedBatch(batch.lengths.copy(), batch.indices.copy())
        assert clone.indices.tobytes() == batch.indices.tobytes()


class TestModelSpecIds:
    def test_ids_and_id_order(self):
        """The ids in model order; ids that differ only in trailing NULs keep
        their order."""
        ids = ["t10", "a\x00", "t1", "a", "a\x00\x00", "#", "a!"]
        model = small_model(
            tables=[TableSpec(id=tid, num_rows=4, dim=2, avg_pooling=1.0) for tid in ids]
        )
        assert model._ids == tuple(ids)


class TestAssertionExplanation:
    """tests/conftest.py's pytest_assertrepr_compare hook."""

    @staticmethod
    def explanation(left, right) -> str:
        with pytest.raises(AssertionError) as failed:
            assert left == right
        return str(failed.value)

    def test_models_differing_in_one_table(self):
        model = load_bundled_model("model_a")
        tables = list(model.tables)
        tables[437] = dataclasses.replace(tables[437], num_rows=tables[437].num_rows + 1)
        other = dataclasses.replace(model, tables=tuple(tables))
        text = self.explanation(model, other)
        assert len(text.splitlines()) <= 4
        assert "ModelSpecs differ: 1000 vs 1000 tables" in text
        assert "tables[437] (id 'emb_a_437').num_rows: 8500000 != 8500001" in text

    def test_models_differing_in_a_shape_field(self):
        model = small_model()
        other = dataclasses.replace(model, local_batch=8)
        assert "local_batch: 4 != 8" in self.explanation(model, other)
        shorter = dataclasses.replace(model, tables=model.tables[:1])
        assert "tables[1] only on one side: 't1'" in self.explanation(model, shorter)

    def test_plans_differing_in_one_shard(self):
        rw = Scheme(SchemeKind.ROW_WISE, num_row_shards=2)

        def plan(worker):
            shards = (Shard(0, rows=(0, 3)), Shard(worker, rows=(3, 6)))
            return ShardingPlan(2, 2, (TableAssignment("t1", rw, shards),))

        text = self.explanation(plan(1), plan(0))
        assert "ShardingPlans differ: 1 vs 1 assignments" in text
        assert (
            "assignments[0] (table_id 't1').shards[1]: "
            "Shard(worker=1, rows=(3, 6), cols=None) != Shard(worker=0, rows=(3, 6), cols=None)"
        ) in text
