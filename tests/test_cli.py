"""Command-line interface: exit codes, reports, manifests, determinism."""

import argparse
import inspect
import json
import math
from operator import attrgetter

import pytest

from neosim import (
    CacheConfig,
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    OptimizerConfig,
    ReplacementPolicy,
    build_tables,
    component_latencies,
    plan_4d,
    scaling_sweep,
    simulate,
    train_step_reference,
    train_step_sharded,
)
from neosim.bundled import data_path
from neosim.cli import (
    _policy_from_args,
    _precision,
    _weights_from_args,
    _write_report,
    build_parser,
    main,
)
from neosim.comms import collective_volumes
from neosim.planner import SchemeKind, plan_from_json

MODEL_A = str(data_path("model_a.json"))
MODEL_F = str(data_path("model_f.json"))
CLUSTER = str(data_path("cluster_16node.json"))
TRACE = str(data_path("trace_scan_hot.txt"))


@pytest.fixture
def desk_model_file(tmp_path):
    doc = {
        "spec_version": 1,
        "local_batch": 4,
        "mflops_per_sample": 1,
        "tables": [
            {"id": "t0", "num_rows": 60, "dim": 8, "avg_pooling": 2.0},
            {"id": "t1", "num_rows": 40, "dim": 4, "avg_pooling": 1.5},
            {"id": "t2", "num_rows": 24, "dim": 6, "avg_pooling": 3.0},
        ],
    }
    path = tmp_path / "desk_model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def tiny_cluster_file(tmp_path):
    doc = {
        "spec_version": 1,
        "num_nodes": 1,
        "gpus_per_node": 2,
        "hbm_capacity_per_gpu": 1048576,
        "dram_capacity_per_node": 1048576,
        "hbm_bw": 1.3e12,
        "dram_to_gpu_bw": 26e9,
        "scaleup_bw": 3e11,
        "scaleout_bw_per_gpu": 2.5e10,
        "peak_flops": {"TF32": 1.56e14},
        "mlp_efficiency": 0.705,
        "alltoall_bw_points": [[268435456, 7e9]],
        "allreduce_bw_points": [[268435456, 6e10]],
        "fixed_latency_per_collective": 2e-5,
    }
    path = tmp_path / "tiny_cluster.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestPlanCommand:
    def test_model_f_plan_has_multi_node_row_wise(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                "--model",
                MODEL_F,
                "--cluster",
                CLUSTER,
                "--heuristic",
                "kk",
                "--fp16-tables",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        plan = plan_from_json(out.read_text())
        rw = [a for a in plan.assignments if a.scheme.kind is SchemeKind.ROW_WISE]
        assert rw
        nodes = {s.worker // plan.gpus_per_node for s in rw[0].shards}
        assert len(nodes) > 1

    def test_stdout_table_has_one_row_per_worker(self, tmp_path, capsys, desk_model_file):
        out = tmp_path / "plan.json"
        args = ["plan", "--model", desk_model_file, "--cluster", CLUSTER]
        assert main([*args, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["worker", "memory_gb", "tier", "a2a_send_mb"]
        workers = plan_from_json(out.read_text()).num_workers
        assert [int(row.split()[0]) for row in lines[2:]] == list(range(workers))

    def test_empty_model_exit_zero(self, tmp_path):
        model = tmp_path / "empty.json"
        model.write_text(
            json.dumps({"spec_version": 1, "local_batch": 4, "mflops_per_sample": 1})
        )
        out = tmp_path / "plan.json"
        code = main(
            ["plan", "--model", str(model), "--cluster", CLUSTER, "--out", str(out)]
        )
        assert code == 0
        assert plan_from_json(out.read_text()).assignments == ()

    def test_cluster_too_small_exit_two(self, tmp_path, tiny_cluster_file):
        code = main(
            [
                "plan",
                "--model",
                MODEL_F,
                "--cluster",
                tiny_cluster_file,
                "--out",
                str(tmp_path / "plan.json"),
            ]
        )
        assert code == 2

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code = main(
            ["plan", "--model", str(bad), "--cluster", CLUSTER, "--out", str(tmp_path / "p.json")]
        )
        assert code == 1


class TestVerifyCommand:
    def test_desk_model_passes(self, tmp_path, desk_model_file):
        code = main(
            [
                "verify",
                "--model",
                desk_model_file,
                "--workers",
                "4",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["body"]["passed"] is True
        assert set(report["body"]["per_table_deviation"]) == {"t0", "t1", "t2"}

    def test_corrupted_plan_rejected_before_execution(self, tmp_path, desk_model_file):
        plan_doc = {
            "spec_version": 1,
            "num_workers": 2,
            "gpus_per_node": 2,
            "heuristic": "greedy",
            "tables": [
                {
                    "table_id": "t0",
                    "scheme": {"kind": "row_wise", "num_row_shards": 2},
                    "shards": [
                        {"worker": 0, "rows": [0, 20]},
                        {"worker": 1, "rows": [30, 60]},  # gap
                    ],
                },
                {
                    "table_id": "t1",
                    "scheme": {"kind": "table_wise"},
                    "shards": [{"worker": 0}],
                },
                {
                    "table_id": "t2",
                    "scheme": {"kind": "table_wise"},
                    "shards": [{"worker": 1}],
                },
            ],
        }
        plan_path = tmp_path / "bad_plan.json"
        plan_path.write_text(json.dumps(plan_doc))
        code = main(
            [
                "verify",
                "--model",
                desk_model_file,
                "--plan",
                str(plan_path),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_single_worker_bitwise_mode(self, tmp_path, desk_model_file):
        code = main(
            [
                "verify",
                "--model",
                desk_model_file,
                "--workers",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["body"]["bitwise"] is True
        assert report["body"]["max_deviation"] == 0.0

    def test_oversized_model_rejected(self, tmp_path):
        code = main(
            ["verify", "--model", MODEL_A, "--workers", "2", "--out", str(tmp_path)]
        )
        assert code == 1

    def test_dump_tables_round_trip(self, tmp_path, desk_model_file):
        code = main(
            [
                "verify",
                "--model",
                desk_model_file,
                "--workers",
                "2",
                "--dump-tables",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        from neosim import parse_model_spec
        from conftest import load_table
        from pathlib import Path

        model = parse_model_spec(Path(desk_model_file).read_text())
        for table in model.tables:
            with open(tmp_path / "tables" / f"{table.id}.bin", "rb") as fh:
                loaded = load_table(table, fh)
            assert loaded.num_rows == table.num_rows
            assert loaded.dim == table.dim


    def test_non_finite_deviation_fails_with_strict_json(self, tmp_path, capsys):
        """SGD at lr 1e6 pushes FP16 table a past its range on both sides,
        so its deviation is inf - inf = NaN: the run fails, names the table
        and writes the deviation as null."""
        doc = {
            "spec_version": 1,
            "local_batch": 4,
            "mflops_per_sample": 1,
            "tables": [
                {"id": "a", "num_rows": 30, "dim": 4, "avg_pooling": 2.0,
                 "value_precision": "FP16"},
                {"id": "b", "num_rows": 20, "dim": 4, "avg_pooling": 2.0},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", "--model", str(path), "--workers", "2", "--optimizer", "sgd"]
        assert main([*argv, "--lr", "1e6", "--out", str(tmp_path)]) == 3
        assert "FAIL: deviation not finite in a (" in capsys.readouterr().out

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        body = json.loads((tmp_path / "verify.json").read_text(), parse_constant=reject)["body"]
        assert body["per_table_deviation"] == {"a": None, "b": 0.0}
        assert body["max_deviation"] is None
        assert body["passed"] is False

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--eps", "inf", "eps"),
            ("--eps", "nan", "eps"),
            ("--eps", "-1", "eps"),
            ("--lr", "inf", "lr"),
            ("--lr", "0", "lr"),
            ("--seed", "-1", "seed"),
        ],
    )
    def test_bad_value_names_its_field(self, tmp_path, capsys, desk_model_file, flag, value, field):
        argv = ["verify", "--model", desk_model_file, f"{flag}={value}"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert f"error: invalid value at {field}: " in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()


class TestSimulateCommand:
    def test_quantized_comm_halves_a2a_volumes(self, tmp_path):
        args = [
            "simulate",
            "--model",
            MODEL_A,
            "--cluster",
            CLUSTER,
            "--fp16-tables",
        ]
        assert main(args + ["--out", str(tmp_path / "fp32")]) == 0
        assert (
            main(
                args
                + [
                    "--a2a-fwd-precision",
                    "fp16",
                    "--a2a-bwd-precision",
                    "bf16",
                    "--out",
                    str(tmp_path / "fp16"),
                ]
            )
            == 0
        )
        fp32 = json.loads((tmp_path / "fp32" / "simulate.json").read_text())["body"]
        fp16 = json.loads((tmp_path / "fp16" / "simulate.json").read_text())["body"]

        def a2a_bytes(body, label):
            vols = [v for v in body["volumes"] if v["label"] == label]
            return sum(vols[0]["per_worker_send_bytes"])

        for label in ("pooled_a2a_fwd", "pooled_a2a_bwd"):
            assert a2a_bytes(fp16, label) == a2a_bytes(fp32, label) / 2

    def test_report_body_deterministic(self, tmp_path):
        args = [
            "simulate",
            "--model",
            MODEL_A,
            "--cluster",
            CLUSTER,
            "--fp16-tables",
        ]
        assert main(args + ["--out", str(tmp_path / "run1")]) == 0
        assert main(args + ["--out", str(tmp_path / "run2")]) == 0
        a = json.loads((tmp_path / "run1" / "simulate.json").read_text())
        b = json.loads((tmp_path / "run2" / "simulate.json").read_text())
        assert json.dumps(a["body"], sort_keys=True) == json.dumps(
            b["body"], sort_keys=True
        )
        assert a["manifest"]["inputs"] == b["manifest"]["inputs"]

    def test_csv_emitted(self, tmp_path):
        code = main(
            [
                "simulate",
                "--model",
                MODEL_A,
                "--cluster",
                CLUSTER,
                "--fp16-tables",
                "--format",
                "csv",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == "component,serialized_ms,exposed_ms"
        assert len(lines) == 15  # 14 components + header


class TestNoWorkModel:
    """A model with no tables and no FLOPs has an iteration of no time, so
    no QPS: simulate and sweep exit 1 and write no report, which would
    otherwise hold Infinity and NaN."""

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--nodes", "1,2"]])
    def test_exits_one(self, tmp_path, capsys, command):
        model = tmp_path / "no_work.json"
        model.write_text(
            json.dumps(
                {"spec_version": 1, "local_batch": 4, "mflops_per_sample": 0, "tables": []}
            )
        )
        out = tmp_path / "out"
        argv = [*command, "--model", str(model), "--cluster", CLUSTER, "--out", str(out)]
        assert main(argv) == 1
        assert "QPS is undefined for an iteration with no work" in capsys.readouterr().err
        assert not out.exists()

    def test_a_report_body_holds_no_non_finite_number(self, tmp_path):
        args = argparse.Namespace(command="simulate", out=str(tmp_path))
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                _write_report(args, [], {"qps": value})
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_single_node_efficiency_one(self, tmp_path):
        code = main(
            [
                "sweep",
                "--model",
                MODEL_A,
                "--cluster",
                CLUSTER,
                "--nodes",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        body = json.loads((tmp_path / "sweep.json").read_text())["body"]
        assert body["entries"][0]["efficiency"] == pytest.approx(1.0)


class TestCacheCommand:
    def test_matches_simulator(self, tmp_path):
        code = main(
            [
                "cache",
                "--sets",
                "4",
                "--ways",
                "8",
                "--policy",
                "lfu",
                "--trace",
                TRACE,
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        body = json.loads((tmp_path / "cache.json").read_text())["body"]
        from neosim import CacheConfig, ReplacementPolicy, simulate_trace
        from neosim.cache import make_scan_hot_trace

        stats = simulate_trace(
            CacheConfig(4, 8, ReplacementPolicy.LFU), make_scan_hot_trace()
        )
        assert body["hits"] == stats.hits
        assert body["hit_rate"] == pytest.approx(stats.hit_rate)


class TestReportCommand:
    def test_reemit_csv(self, tmp_path, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    MODEL_A,
                    "--cluster",
                    CLUSTER,
                    "--fp16-tables",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            ["report", "--input", str(tmp_path / "simulate.json"), "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("component,serialized_ms,exposed_ms")


    @pytest.mark.parametrize(
        "doc,fmt",
        [
            ([1, 2], "json"),
            ({"body": 5}, "json"),
            ({"body": {"components_ms": [1]}}, "csv"),
            ({"body": {"components_ms": {"emb": 1}}}, "csv"),
            ({"body": {"components_ms": {"emb": {"serialized": 1.0}}}}, "csv"),
            ({"body": {"passed": True}}, "csv"),
            ({}, "csv"),
        ],
    )
    def test_malformed_report_is_input_error(self, tmp_path, capsys, doc, fmt):
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(doc))
        assert main(["report", "--input", str(stored), "--format", fmt]) == 1
        assert capsys.readouterr().err.startswith("error: invalid value at ")

class TestManifest:
    def test_embedded_with_digests(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--model",
                    MODEL_A,
                    "--cluster",
                    CLUSTER,
                    "--fp16-tables",
                    "--out",
                    str(tmp_path),
                ]
            )
            == 0
        )
        doc = json.loads((tmp_path / "simulate.json").read_text())
        manifest = doc["manifest"]
        assert manifest["command"] == "simulate"
        assert manifest["seed"] is None
        assert len(manifest["inputs"]) == 2
        for digest in manifest["inputs"].values():
            assert len(digest) == 64


class TestInputHardening:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["plan", "--cluster", CLUSTER], "the following arguments are required: --model"),
            (["simulate", "--hit-rate", "abc"], "argument --hit-rate: invalid float value: 'abc'"),
            (["plan", "--seed", "3"], "unrecognized arguments: --seed 3"),
            (["plan", "--format", "csv"], "unrecognized arguments: --format csv"),
            (["simulate", "--seed", "3"], "unrecognized arguments: --seed 3"),
            # scaling_sweep plans with plan_4d only, so sweep must not accept it
            (
                ["sweep", "--nodes", "1", "--hierarchical"],
                "unrecognized arguments: --hierarchical",
            ),
        ],
    )
    def test_usage_error_exit_one(self, tmp_path, capsys, argv, message):
        # exit 2 is reserved for infeasible plans
        if "--cluster" not in argv:
            argv = [*argv, "--model", MODEL_A, "--cluster", CLUSTER]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: neosim ")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize(
        "command, given",
        [
            ("simulate", "--hierarchical"),
            ("simulate", "--weights 0,1,0"),
            ("simulate", "--weights nonsense"),
            ("simulate", "--heuristic kk"),
            ("simulate", "--heuristic greedy"),  # the default, given
            ("simulate", "--fine-grain"),
            ("simulate", "--dp-threshold 0"),
            ("verify", "--workers 4"),
            ("verify", "--workers 2"),  # the default, given
        ],
    )
    def test_plan_refuses_planning_options(
        self, tmp_path, capsys, desk_model_file, tiny_cluster_file, command, given, first
    ):
        """A stored plan is used as it is, so an option only planning reads
        is a usage error beside --plan, before or after it and at its
        default value too; the error names the option. Without it the plan
        is used."""
        tw = {"kind": "table_wise"}
        plan_doc = {
            "spec_version": 1,
            "num_workers": 2,
            "gpus_per_node": 2,
            "tables": [
                {"table_id": f"t{i}", "scheme": tw, "shards": [{"worker": i % 2}]}
                for i in range(3)
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc))
        argv = [command, "--model", desk_model_file, "--plan", str(plan_path)]
        if command == "simulate":
            argv += ["--cluster", tiny_cluster_file]
        out = ["--out", str(tmp_path / "out")]
        given = given.split()
        with pytest.raises(SystemExit) as exc:
            main([argv[0], *given, *argv[1:], *out] if first else [*argv, *given, *out])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: neosim {command} ")
        assert f"error: argument {given[0]}: not allowed with argument --plan" in err
        assert not (tmp_path / "out").exists()
        assert main([*argv, *out]) == 0

    def test_plan_keeps_the_memory_accounting_options(
        self, tmp_path, desk_model_file, tiny_cluster_file
    ):
        """--fp16-tables and --elementwise-state set how simulate accounts
        memory, which a stored plan does not fix, so --plan accepts them."""
        plan_path = tmp_path / "plan.json"
        argv = ["--model", desk_model_file, "--cluster", tiny_cluster_file]
        assert main(["plan", *argv, "--out", str(plan_path)]) == 0
        argv += ["--plan", str(plan_path), "--fp16-tables", "--elementwise-state"]
        assert main(["simulate", *argv, "--out", str(tmp_path)]) == 0

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--hit-rate" in capsys.readouterr().out

    def test_malformed_weights(self, tmp_path):
        code = main(
            [
                "plan",
                "--model",
                MODEL_A,
                "--cluster",
                CLUSTER,
                "--weights",
                "a,b,c",
                "--out",
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 1

    def test_malformed_nodes(self, tmp_path):
        code = main(
            [
                "sweep",
                "--model",
                MODEL_A,
                "--cluster",
                CLUSTER,
                "--nodes",
                "1,zz",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 1

    def test_malformed_trace(self, tmp_path):
        bad = tmp_path / "trace.txt"
        bad.write_text("not-a-number\n")
        code = main(
            ["cache", "--sets", "1", "--ways", "1", "--trace", str(bad), "--out", str(tmp_path)]
        )
        assert code == 1

    def test_missing_file(self, tmp_path):
        code = main(
            [
                "plan",
                "--model",
                str(tmp_path / "missing.json"),
                "--cluster",
                CLUSTER,
                "--out",
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 1

    def test_simulate_plan_for_other_gpus_per_node_rejected(
        self, tmp_path, capsys, desk_model_file, tiny_cluster_file
    ):
        # two nodes of one GPU, simulated on one node of two
        tw = {"kind": "table_wise"}
        plan_doc = {
            "spec_version": 1,
            "num_workers": 2,
            "gpus_per_node": 1,
            "tables": [
                {"table_id": f"t{i}", "scheme": tw, "shards": [{"worker": i % 2}]}
                for i in range(3)
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc))
        args = ["simulate", "--model", desk_model_file, "--plan", str(plan_path)]
        args += ["--cluster", tiny_cluster_file, "--out", str(tmp_path)]
        assert main(args) == 1
        assert "disagree on GPUs per node" in capsys.readouterr().err
        plan_doc["gpus_per_node"] = 2
        plan_path.write_text(json.dumps(plan_doc))
        assert main(args) == 0

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_plan_shard_without_bounds_rejected(
        self, tmp_path, capsys, desk_model_file, tiny_cluster_file, command
    ):
        tw = {"kind": "table_wise"}
        plan_doc = {
            "spec_version": 1,
            "num_workers": 2,
            "gpus_per_node": 2,
            "tables": [
                {
                    "table_id": "t0",
                    "scheme": {"kind": "row_wise", "num_row_shards": 2},
                    "shards": [{"worker": 0, "rows": [0, 30]}, {"worker": 1}],
                },
                {"table_id": "t1", "scheme": tw, "shards": [{"worker": 0}]},
                {"table_id": "t2", "scheme": tw, "shards": [{"worker": 1}]},
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_doc))
        args = [command, "--model", desk_model_file, "--plan", str(plan_path)]
        if command == "simulate":
            args += ["--cluster", tiny_cluster_file]
        assert main([*args, "--out", str(tmp_path)]) == 1
        assert "t0: row shard missing bounds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the library's defaults are the CLI's


def default(function, parameter: str):
    return inspect.signature(function).parameters[parameter].default


def precision(option: str):
    return lambda args: _precision(getattr(args, option))


REQUIRED = {
    "plan": ["--model", "m.json", "--cluster", "c.json"],
    "simulate": ["--model", "m.json", "--cluster", "c.json"],
    "sweep": ["--model", "m.json", "--cluster", "c.json"],
    "verify": ["--model", "m.json"],
    "cache": ["--sets", "4", "--trace", "t.txt"],
}

# (command, the value the CLI passes, the library default that value feeds)
CLI_DEFAULTS = {
    "flags": ("plan", lambda args: _policy_from_args(args).flags, CompressionFlags),
    "policy": ("plan", _policy_from_args, CandidatePolicy),
    "weights": ("plan", _weights_from_args, CostWeights),
    "heuristic-plan_4d": ("plan", attrgetter("heuristic"), lambda: default(plan_4d, "heuristic")),
    "policy-scaling_sweep": (
        "sweep", _policy_from_args, lambda: default(scaling_sweep, "policy")
    ),
    "weights-scaling_sweep": (
        "sweep", _weights_from_args, lambda: default(scaling_sweep, "weights")
    ),
    "heuristic-scaling_sweep": (
        "sweep", attrgetter("heuristic"), lambda: default(scaling_sweep, "heuristic")
    ),
    "hit_rate-simulate": (
        "simulate", attrgetter("hit_rate"), lambda: default(simulate, "cache_hit_rate")
    ),
    "hit_rate-component_latencies": (
        "simulate",
        attrgetter("hit_rate"),
        lambda: default(component_latencies, "cache_hit_rate"),
    ),
    "hit_rate-scaling_sweep": (
        "sweep", attrgetter("hit_rate"), lambda: default(scaling_sweep, "cache_hit_rate")
    ),
    "eps": ("verify", attrgetter("eps"), lambda: default(OptimizerConfig, "eps")),
    "ways": ("cache", attrgetter("ways"), lambda: default(CacheConfig, "ways")),
    "cache_policy": (
        "cache",
        lambda args: ReplacementPolicy(args.policy),
        lambda: default(CacheConfig, "policy"),
    ),
}
for function in (train_step_reference, train_step_sharded, build_tables):
    CLI_DEFAULTS[f"seed-{function.__name__}"] = (
        "verify", attrgetter("seed"), lambda f=function: default(f, "seed")
    )
for option, functions in (
    ("compute_precision", (simulate, scaling_sweep)),
    ("a2a_fwd_precision", (simulate, component_latencies, collective_volumes, scaling_sweep)),
    ("a2a_bwd_precision", (simulate, component_latencies, collective_volumes, scaling_sweep)),
):
    for function in functions:
        command = "sweep" if function is scaling_sweep else "simulate"
        CLI_DEFAULTS[f"{option}-{function.__name__}"] = (
            command, precision(option), lambda f=function, o=option: default(f, o)
        )


@pytest.mark.parametrize("row", CLI_DEFAULTS)
def test_library_defaults_are_the_clis(row):
    """Each value a command passes when given only its required arguments
    equals the library default of the parameter it feeds, so a library call
    that leaves the parameter out means what the bare command means."""
    command, passed, library = CLI_DEFAULTS[row]
    args = build_parser().parse_args([command, *REQUIRED[command]])
    assert passed(args) == library()

