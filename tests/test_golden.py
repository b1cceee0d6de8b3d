"""Golden outputs, pinned by SHA-256: the plan JSON and the simulate report
body of the bundled models, and the verify path's training steps.

The plan and simulate digests were captured at commit 812b26e, before the
planner and the simulator were rewritten for speed (id->index maps, one
volume pass per simulate, the O(shards + W) input-AlltoAll volume, heap
greedy placement). The KK digests of model_f (with and without fine grain)
and model_i, and the desk plan that holds data-parallel shards, were
captured at commit c80e978, before plan_to_json and the Karmarkar-Karp
merge were rewritten. The verify digests (train_step_reference and
train_step_sharded on a fixed desk model, SGD / row-wise AdaGrad / AdaGrad
at W = 1, 2 and 8) were captured at commit 34a43bf, before the np.add.at
scatters of embedding.py were replaced. The cache counts and the `neosim
cache` report digests were captured at commit 0d16fd5, from the list-scan
replay, before each set became a recency-ordered dict. The shrunk
small-cluster digests (model_a sweeps over 1, 2 and 4 nodes, and its
hierarchical plan shrunk to 2 nodes) were captured at commit e11129a, before
the per-worker sums moved onto per-plan shard columns. The load-only
fine-grain plans of model_a (greedy and KK) and model_i, model_i's
fine-grain KK plan, model_a's element-wise-state plan and model_f's
element-wise-state infeasibility message were captured at commit a25a10b,
before the planner scored every table's candidates as columns in one pass.
The ragged verify digests (a hand-built batch with empty and dominant
samples and hot Zipf rows, every optimizer, W = 1 and 4) were captured at
commit 1e1e4da, before pooling moved to sample-order slice adds and
aggregation to the table's row space. The plan digests of model_f's
fine-grain, KK and fine-grain KK cases were re-captured in the change
after commit d2f8150, which moved placement ties from the str order of
"<id>#<i>" to plan order: model_f's equal-cost shards trade workers, and
their simulate digests held.
Any change that moves a digest
changes what neosim prints or computes; a pure performance change must
leave every digest as it is.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import desk_model, mixed_desk_case

from neosim import (
    CacheConfig,
    CombinedBatch,
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    IndexSkew,
    OptimizerConfig,
    OptimizerKind,
    Precision,
    ReplacementPolicy,
    Scheme,
    SchemeKind,
    Shard,
    ShardingPlan,
    SkewKind,
    TableAssignment,
    TableSpec,
    gen_synthetic_batch,
    hierarchical_plan,
    parse_cluster_spec,
    parse_model_spec,
    plan_4d,
    plan_to_json,
    simulate,
    simulate_trace,
    train_step_reference,
    train_step_sharded,
)
from neosim.bundled import data_path
from neosim.cli import main
from neosim.comms import reassemble_values
from neosim.perf import shrink_to_fit
from neosim.planner import even_bounds

CLUSTER = str(data_path("cluster_16node.json"))

# (model, CLI policy and precision flags) -> (plan_to_json digest, simulate body digest)
GOLDEN = {
    ("model_a", ("--fp16-tables",)): (
        "b341b40738000e6f08eda0edbf14181bc68fea75da03f11af81a3fcc296a8f6c",
        "2ea98020d415d2288816b165a20747327653c29ca5d3b68eb355eb3245812b45",
    ),
    ("model_a", ("--fp16-tables", "--heuristic", "kk")): (
        "ffe4d4ab85c04a1d3e47f23749b26070fa6f42b240737f0470471f504171399f",
        "e91b23115788b95dc195e4bdb6f7a707a607b154ad8b0c009cd6e9e25c9294cf",
    ),
    (
        "model_a",
        (
            "--fp16-tables",
            "--hierarchical",
            "--a2a-fwd-precision",
            "fp16",
            "--a2a-bwd-precision",
            "bf16",
        ),
    ): (
        "b87bdaf664913ef9151e2ec2fb2da836d436c6afc0d8c8a409c5a86ec851fbaf",
        "6c849bb00d212d0e630f624dcaf893b44e39d618ad336a6a100aeb456ad839db",
    ),
    ("model_i", ("--hierarchical",)): (
        "164fc8e7abaaa640bc76a2caed7c0ef9061bd4f737db658a0eb32db43d08bb1e",
        "7058ff77b4246a362a0d309c9f9a311c04d24325d3b97efaf5cbfc5f374d12d0",
    ),
    ("model_f", ("--fp16-tables", "--fine-grain")): (
        "3958b33ea3d696234fe8e3eb5af9c6253a11774dcc0641ce18210e08c12045d4",
        "fe6e600dd3827de810796e0736c800077d635b79c2e5a8d09f35a1ffb16988cc",
    ),
    # KK placement; on model_f, plan_4d's memory repair runs KK five times
    ("model_f", ("--heuristic", "kk")): (
        "074c849b1a3a9cd7fd34edf558db526d56f1cb554717f0abeb60366e41e7d3f6",
        "36f141256c4edc9052dd6627f57a68215426ff2245efa4847a7f052bc1b025ba",
    ),
    ("model_f", ("--heuristic", "kk", "--fine-grain")): (
        "5170da94b86ad054069ef5e48fec780a186f725439dfe813e78f4edbbed56377",
        "fe6e600dd3827de810796e0736c800077d635b79c2e5a8d09f35a1ffb16988cc",
    ),
    ("model_i", ("--heuristic", "kk")): (
        "b2d1ee2a720dfa99f2a9fef9399a26daef7d010802b7be27bb0c92959b80bc22",
        "800ef9c86f52c4b2c68c98b2248b70b74dc79dbdf90fa4c9429f26007f7970bc",
    ),
    # load-only ranking: 125 row-wise and 875 column-wise tables, and
    # table-wise and column-wise aggregates can tie
    ("model_a", ("--weights", "0,1,0", "--fine-grain")): (
        "759679a3dcd79b0a1e1d4ae44ea6ab7e5a6eeefcc14686e04dd38a6596b54e88",
        "25c1160ad179ca1d2bc365cc53148a8a1b643241e5f21eb52a75b84af5435079",
    ),
    ("model_a", ("--weights", "0,1,0", "--fine-grain", "--heuristic", "kk")): (
        "bfac04529bba932ff34c208d2757f7daa985d4254f3a35ddf61619415a77b937",
        "31888a2e0dfa2c87e8d7877c421dc04795ca4dc57f5e531e2e2af7800625f7d6",
    ),
    # 100 column-wise tables
    ("model_i", ("--weights", "0,1,0", "--fine-grain")): (
        "8e30b85bb071ce3d41dcad8250b39abe53cc7a38c8ec9b809d85567ae59bf9ed",
        "f0ace13f50e37213deda17d1523427a30d89c7ea96e86896f620ceaef8641035",
    ),
    ("model_i", ("--fine-grain", "--heuristic", "kk")): (
        "b2d1ee2a720dfa99f2a9fef9399a26daef7d010802b7be27bb0c92959b80bc22",
        "800ef9c86f52c4b2c68c98b2248b70b74dc79dbdf90fa4c9429f26007f7970bc",
    ),
    ("model_a", ("--elementwise-state",)): (
        "b04f57230ca3ff9d276a36806de3761d544a8bf9400fdf0503679ff963a5bae4",
        "2ea98020d415d2288816b165a20747327653c29ca5d3b68eb355eb3245812b45",
    ),
}

SIM_ONLY = ("--a2a-fwd-precision", "--a2a-bwd-precision")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _plan_flags(flags):
    """Drop the simulate-only precision options, which `plan` does not take."""
    out, skip = [], False
    for f in flags:
        if skip:
            skip = False
        elif f in SIM_ONLY:
            skip = True
        else:
            out.append(f)
    return out


def golden_digests(tmp_path, model, flags):
    model_path = str(data_path(f"{model}.json"))
    plan_path = tmp_path / "plan.json"
    common = ["--model", model_path, "--cluster", CLUSTER]
    assert main(["plan", *common, *_plan_flags(flags), "--out", str(plan_path)]) == 0
    assert main(["simulate", *common, *flags, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "simulate.json").read_text())["body"]
    return (
        _sha(plan_path.read_text()),
        _sha(json.dumps(body, indent=2, sort_keys=True)),
    )


@pytest.mark.parametrize(
    "model,flags",
    list(GOLDEN),
    ids=[
        "a-greedy",
        "a-kk",
        "a-hierarchical",
        "i-hierarchical",
        "f-fine_grain",
        "f-kk",
        "f-kk-fine_grain",
        "i-kk",
        "a-load_only-fine_grain",
        "a-load_only-fine_grain-kk",
        "i-load_only-fine_grain",
        "i-kk-fine_grain",
        "a-elementwise_state",
    ],
)
def test_golden_plan_and_simulate(tmp_path, capsys, model, flags):
    """Both digests are compared by name, so a failure shows whether the
    plan, the simulate report or both moved."""
    got = dict(zip(("plan", "simulate"), golden_digests(tmp_path, model, flags)))
    assert got == dict(zip(("plan", "simulate"), GOLDEN[(model, flags)]))


def test_golden_infeasible_message(tmp_path, capsys):
    """model_f with element-wise optimizer state outgrows the cluster."""
    model_path = str(data_path("model_f.json"))
    args = ["plan", "--model", model_path, "--cluster", CLUSTER, "--elementwise-state"]
    assert main([*args, "--out", str(tmp_path / "plan.json")]) == 2
    assert capsys.readouterr().err == (
        "infeasible: model needs 72000000000000 bytes, cluster has 29120000000000\n"
    )


# heuristic -> SHA-256 of plan_to_json (with the workers block) of the desk plan
DESK_PLAN_GOLDEN = {
    "greedy": "58c4851b86f26c1c70315781bce14042cf40d11fe21b8cd3abbd0252ba975bcf",
    "kk": "fcfb07ef129a752647437a8ff8ca240c4fd52facf4190fd379fba8c9815146fc",
}


@pytest.mark.parametrize("heuristic", list(DESK_PLAN_GOLDEN))
def test_golden_desk_plan_with_dp_shards(heuristic):
    model, cluster, policy = mixed_desk_case()
    plan = plan_4d(model, cluster, CostWeights(), policy, heuristic)
    kinds = {a.scheme.kind for a in plan.assignments}
    assert kinds == set(SchemeKind)
    text = plan_to_json(plan, model, cluster, policy.flags)
    assert '"worker": null' in text
    assert _sha(text) == DESK_PLAN_GOLDEN[heuristic]


# ---------------------------------------------------------------------------
# the shrunk small-cluster path: weak-scaling sweeps shrink model_a's rows to
# fit 1, 2 and 4 nodes, which no 16-node case above reaches

# heuristic flags -> SHA-256 of the `neosim sweep --nodes 1,2,4` report body
SWEEP_GOLDEN = {
    (): "f65e1bc6d576d0d2044413ce95597a9688b011d2b4c781fafd894af6174b2417",
    ("--heuristic", "kk"): "7aff365895e81d00c2e48e150393c0acfef3d29298bc604d8e8f39fd298b04ba",
}


@pytest.mark.parametrize("flags", list(SWEEP_GOLDEN), ids=["greedy", "kk"])
def test_golden_shrunk_sweep(tmp_path, capsys, flags):
    model_path = str(data_path("model_a.json"))
    args = ["sweep", "--model", model_path, "--cluster", CLUSTER, "--nodes", "1,2,4"]
    assert main([*args, *flags, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "sweep.json").read_text())["body"]
    assert len(body["entries"]) == 3 and all(e["qps"] for e in body["entries"])
    assert _sha(json.dumps(body, indent=2, sort_keys=True)) == SWEEP_GOLDEN[flags]


# (FP16 tables, element-wise state, AlltoAll fwd/bwd precision) ->
# (plan_to_json digest, simulate digest) of the hierarchical plan of model_a
# shrunk to 2 nodes
SHRUNK_HIER_GOLDEN = {
    (True, False, "FP16", "BF16"): (
        "5802ae285561417da098d5d306feda0344dc62f5d7449d6900295062d203a752",
        "0a64ae5e987bcd6ed6205868a69ff97ca9641ab40ce865bd6f922cc7cf608564",
    ),
    (False, True, "FP32", "FP32"): (
        "cdd1af839407286fd944a23cbcf511e5b9078f48768c4794a853c1de9cc8561a",
        "48cc1f9ed1bbc6f25e56eee5b23b419245f839a2b9ee10ec47fecaf887ef67ad",
    ),
}


@pytest.mark.parametrize("case", list(SHRUNK_HIER_GOLDEN))
def test_golden_shrunk_hierarchical_plan(case):
    fp16, elementwise, fwd, bwd = case
    model = parse_model_spec(data_path("model_a.json").read_text())
    cluster = dataclasses.replace(
        parse_cluster_spec(Path(CLUSTER).read_text()), num_nodes=2
    )
    flags = CompressionFlags(
        table_precision=Precision.FP16 if fp16 else None,
        rowwise_optimizer=not elementwise,
    )
    model = shrink_to_fit(model, cluster, flags)
    plan = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy(flags=flags))
    result = simulate(
        model,
        cluster,
        plan,
        a2a_fwd_precision=Precision(fwd),
        a2a_bwd_precision=Precision(bwd),
        flags=flags,
    )
    sim = {
        "estimate": dataclasses.asdict(result.estimate),
        "volumes": [dataclasses.asdict(v) for v in result.volumes],
    }
    got = (
        _sha(plan_to_json(plan, model, cluster, flags)),
        # volume byte arrays serialize as JSON lists
        _sha(json.dumps(sim, sort_keys=True, default=np.ndarray.tolist)),
    )
    assert got == SHRUNK_HIER_GOLDEN[case]


# ---------------------------------------------------------------------------
# verify path: the executable reference and the sharded step


def _verify_model(workers: int):
    """Eight tables mixing dims 1..16, pooling 2..40, uniform and Zipf rows,
    FP32 and FP16 storage; the global batch is 32 samples at every W."""
    zipf = IndexSkew(SkewKind.ZIPF, alpha=1.05)
    rows = (
        # (id, rows, dim, pooling, zipf, fp16)
        ("tw", 50, 4, 3.0, False, False),
        ("rw", 60, 6, 8.0, True, True),
        ("cw", 40, 8, 5.0, False, False),
        ("dp", 30, 3, 12.0, True, True),
        ("hier", 64, 2, 20.0, True, False),
        ("tw_d1", 20, 1, 2.0, False, False),
        ("cw_hot", 45, 16, 40.0, True, True),
        ("dp_d1", 25, 1, 6.0, False, False),
    )
    tables = [
        TableSpec(
            id=i,
            num_rows=h,
            dim=d,
            avg_pooling=L,
            value_precision=Precision.FP16 if fp16 else Precision.FP32,
            index_skew=zipf if z else IndexSkew(),
        )
        for i, h, d, L, z, fp16 in rows
    ]
    return desk_model(tables, local_batch=32 // workers)


def _verify_plan(model, workers: int, gpus_per_node: int):
    """Table-wise, row-wise, column-wise and data-parallel shards at every W;
    the "hier" table is row-wise inside node 1 when there are two nodes."""
    assignments = []
    for i, table in enumerate(model.tables):
        kind = table.id.split("_")[0]
        if kind == "tw":
            scheme, shards = Scheme(SchemeKind.TABLE_WISE), (Shard(worker=i % workers),)
        elif kind == "dp":
            scheme, shards = Scheme(SchemeKind.DATA_PARALLEL), (Shard(worker=None),)
        elif kind == "cw":
            splits = even_bounds(table.dim, 3)
            scheme = Scheme(SchemeKind.COLUMN_WISE, col_splits=tuple(splits))
            shards = tuple(
                Shard(worker=(i + j) % workers, cols=s) for j, s in enumerate(splits)
            )
        elif kind == "hier" and workers > gpus_per_node:
            bounds = even_bounds(table.num_rows, gpus_per_node)
            scheme = Scheme(
                SchemeKind.ROW_WISE,
                num_row_shards=len(bounds),
                hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
            )
            shards = tuple(
                Shard(worker=gpus_per_node + j, rows=b) for j, b in enumerate(bounds)
            )
        else:  # row-wise, three shards (two may share a worker)
            bounds = even_bounds(table.num_rows, 3)
            scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=3)
            shards = tuple(
                Shard(worker=(i + j) % workers, rows=b) for j, b in enumerate(bounds)
            )
        assignments.append(TableAssignment(table.id, scheme, shards))
    return ShardingPlan(workers, gpus_per_node, tuple(assignments))


def _array_sha(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


VERIFY_LAYOUTS = ((1, 1), (2, 2), (8, 4))  # (workers, gpus per node)

# (workers, optimizer) -> (reference digest, sharded digest)
VERIFY_GOLDEN = {
    (1, "sgd"): (
        "3a00019b36f995f0262ac1563d97f1942a61903995a8012367bbdf994ab176c4",
        "30f79f2da62a706421cd5c8382c694b55ccef5bd901c070b08b35f592710ed7f",
    ),
    (1, "rowwise_adagrad"): (
        "6d37ba8d245735f69c0afa1cf522f231e64c4cea69585c557557234a7a2aff37",
        "b1a09a620c70ac40f156c0cf9f35a93d4b1d31847cacb17d9aa9606e3b3c944c",
    ),
    (1, "adagrad"): (
        "4c27ebffa56b41173012eb76c5d4a2619ffda722020652e874510c891c1df7d1",
        "92b1806f70cfe214f89a40540d4cba73110740e898a5052177570ef28093f94e",
    ),
    (2, "sgd"): (
        "3a00019b36f995f0262ac1563d97f1942a61903995a8012367bbdf994ab176c4",
        "30f79f2da62a706421cd5c8382c694b55ccef5bd901c070b08b35f592710ed7f",
    ),
    (2, "rowwise_adagrad"): (
        "6d37ba8d245735f69c0afa1cf522f231e64c4cea69585c557557234a7a2aff37",
        "b1a09a620c70ac40f156c0cf9f35a93d4b1d31847cacb17d9aa9606e3b3c944c",
    ),
    (2, "adagrad"): (
        "4c27ebffa56b41173012eb76c5d4a2619ffda722020652e874510c891c1df7d1",
        "92b1806f70cfe214f89a40540d4cba73110740e898a5052177570ef28093f94e",
    ),
    (8, "sgd"): (
        "3a00019b36f995f0262ac1563d97f1942a61903995a8012367bbdf994ab176c4",
        "98116d4f5e10099dbb763bcf542981e176eb1216bba7fb473f28c5e700f18abd",
    ),
    (8, "rowwise_adagrad"): (
        "6d37ba8d245735f69c0afa1cf522f231e64c4cea69585c557557234a7a2aff37",
        "f94a98406bef57ce9b8dcc08db3457f0d4fceddc5a8d55c5317e2b6a90f0ae46",
    ),
    (8, "adagrad"): (
        "4c27ebffa56b41173012eb76c5d4a2619ffda722020652e874510c891c1df7d1",
        "e898de09ed32149336d87363586eed3dcb813c119ca3baf7073257815f15b93f",
    ),
}


def verify_digests(workers, gpus_per_node, optimizer):
    """Run both steps on the fixed desk model and digest what they leave."""
    model = _verify_model(workers)
    plan = _verify_plan(model, workers, gpus_per_node)
    batch = gen_synthetic_batch(_verify_model(1), 32, seed=20)
    return _step_digests(model, plan, batch, optimizer, seed=21)


def _step_digests(model, plan, batch, optimizer, seed):
    """(reference digest, sharded digest) of one step on `batch`.

    The reference digest covers the outputs and every table's post-step
    values and moment; the sharded digest covers the outputs, the
    reassemble_values matrices and every shard's and data-parallel table's
    moment.
    """
    cfg = OptimizerConfig(OptimizerKind(optimizer), lr=0.05, eps=1e-8)

    ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=seed)
    sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=seed)
    values = reassemble_values(model, plan, state)

    ref_arrays = [ref_out]
    for table in ref_tables:
        ref_arrays.append(table.values)
        if table.moment is not None:
            ref_arrays.append(table.moment)
    moments = [state.shards[key].moment for key in sorted(state.shards)]
    moments += [state.dp_tables[key].moment for key in sorted(state.dp_tables)]
    sh_arrays = [sh_out, *values, *(m for m in moments if m is not None)]
    return _array_sha(ref_arrays), _array_sha(sh_arrays)


@pytest.mark.parametrize("optimizer", ["sgd", "rowwise_adagrad", "adagrad"])
@pytest.mark.parametrize("workers,gpus_per_node", VERIFY_LAYOUTS)
def test_golden_verify_step(workers, gpus_per_node, optimizer):
    model = _verify_model(workers)
    kinds = {
        "hier" if a.scheme.hierarchical else a.scheme.kind.value
        for a in _verify_plan(model, workers, gpus_per_node).assignments
    }
    assert kinds >= {"table_wise", "row_wise", "column_wise", "data_parallel"}
    assert ("hier" in kinds) == (workers == 8)
    got = verify_digests(workers, gpus_per_node, optimizer)
    assert got == VERIFY_GOLDEN[(workers, optimizer)]


def _ragged_model(workers: int):
    """Five tables whose one hand-built batch (16 samples) holds empty
    samples, lengths far from each table's mean, and one sample holding most
    of a table's rows; "rw_hot" and "dp_hot" are Zipf tables whose row 0 is
    hot. The global batch is 16 samples at every W."""
    zipf = IndexSkew(SkewKind.ZIPF, alpha=1.2)
    rows = (
        # (id, rows, dim, pooling, zipf, fp16)
        ("tw", 30, 3, 2.0, False, False),
        ("rw_hot", 40, 5, 10.0, True, True),
        ("cw", 24, 6, 4.0, False, True),
        ("dp_hot", 20, 2, 9.0, True, True),
        ("hier", 36, 4, 3.0, False, False),
    )
    tables = [
        TableSpec(
            id=i,
            num_rows=h,
            dim=d,
            avg_pooling=L,
            value_precision=Precision.FP16 if fp16 else Precision.FP32,
            index_skew=zipf if z else IndexSkew(),
        )
        for i, h, d, L, z, fp16 in rows
    ]
    return desk_model(tables, local_batch=16 // workers)


# per table of _ragged_model, each sample's pooling size
RAGGED_LENGTHS = (
    (0, 0, 5, 1, 0, 2, 0, 9, 1, 0, 0, 3, 1, 0, 4, 0),
    (0, 57, 1, 0, 2, 0, 0, 3, 1, 0, 0, 0, 6, 0, 1, 0),
    (4, 4, 0, 13, 4, 1, 0, 4, 7, 4, 0, 2, 4, 4, 0, 11),
    (1, 0, 0, 2, 0, 0, 88, 0, 1, 0, 0, 3, 0, 0, 0, 1),
    (0, 3, 3, 0, 3, 0, 3, 29, 3, 0, 3, 0, 3, 0, 3, 0),
)


def _ragged_batch(model) -> CombinedBatch:
    """Ids drawn per table; three quarters of a hot table's ids are row 0."""
    rng = np.random.default_rng(1801)
    chunks = []
    for table, lengths in zip(model.tables, RAGGED_LENGTHS):
        idx = rng.integers(0, table.num_rows, size=sum(lengths))
        if table.id.endswith("_hot"):
            idx[rng.random(len(idx)) < 0.75] = 0
        chunks.append(idx)
    return CombinedBatch(np.array(RAGGED_LENGTHS), np.concatenate(chunks))


RAGGED_LAYOUTS = ((1, 1), (4, 2))  # (workers, gpus per node)

# (workers, optimizer) -> (reference digest, sharded digest)
RAGGED_GOLDEN = {
    (1, "sgd"): (
        "f561697d83b46544cba448d800ca561ae641039abce6a1250cdde5c406c6cd2e",
        "1f4a07aeddd544144893fc3f279a9831ff113fcd4bbd4a757dfbe33702f52c70",
    ),
    (1, "rowwise_adagrad"): (
        "28f97529b4237d67978eb4d2b797d67c61d371edfe519667fc9ea013ce68b266",
        "9ce818e187bc9f7195bf01bbdf2c807ae3f11929c4e9a251f1a703aabb540631",
    ),
    (1, "adagrad"): (
        "7543fddbcfb1432ca64c0f425a18104178af4aff791f8842a752d5c9b899a1f3",
        "479d9c4cec89857f4f8af2df1facbd9ce361ee817178a0fddb7eb651b69da682",
    ),
    (4, "sgd"): (
        "f561697d83b46544cba448d800ca561ae641039abce6a1250cdde5c406c6cd2e",
        "2ef8a8a6f5de26d1ef27e7b088b652d4c084fd6d419a521b3591bf67228ecdb7",
    ),
    (4, "rowwise_adagrad"): (
        "28f97529b4237d67978eb4d2b797d67c61d371edfe519667fc9ea013ce68b266",
        "bfdb7f7539f356a7b2b9bb1668d8381328a333699f5d785921706a448be8e468",
    ),
    (4, "adagrad"): (
        "7543fddbcfb1432ca64c0f425a18104178af4aff791f8842a752d5c9b899a1f3",
        "1779c122b7bc7c251187f60a85d3debc63a7f3b815c5919da636d2bad14fc247",
    ),
}


@pytest.mark.parametrize("optimizer", ["sgd", "rowwise_adagrad", "adagrad"])
@pytest.mark.parametrize("workers,gpus_per_node", RAGGED_LAYOUTS)
def test_golden_ragged_verify_step(workers, gpus_per_node, optimizer):
    model = _ragged_model(workers)
    plan = _verify_plan(model, workers, gpus_per_node)
    batch = _ragged_batch(_ragged_model(1))
    lengths = batch.lengths
    assert (lengths == 0).any(axis=1).all()
    assert (lengths.max(axis=1) > lengths.sum(axis=1) / 2).sum() == 3
    got = _step_digests(model, plan, batch, optimizer, seed=1802)
    assert got == RAGGED_GOLDEN[(workers, optimizer)]


# ---------------------------------------------------------------------------
# software cache replay

SCAN_HOT = data_path("trace_scan_hot.txt")


def _zipf_trace(seed: int, rows: int, alpha: float, length: int) -> list[int]:
    rng = np.random.default_rng(seed)
    probs = np.arange(1, rows + 1, dtype=np.float64) ** -alpha
    probs /= probs.sum()
    return rng.choice(rows, size=length, p=probs).tolist()


# (trace, sets, ways, policy) -> (hits, misses, evictions)
CACHE_GOLDEN = {
    ("scan_hot", 4, 8, "lru"): (1280, 4496, 4464),
    ("scan_hot", 4, 8, "lfu"): (1920, 3856, 3824),
    ("zipf_hot", 64, 32, "lru"): (15972, 4028, 1980),
    ("zipf_hot", 64, 32, "lfu"): (16052, 3948, 1900),
    ("zipf_cold", 64, 32, "lru"): (907, 7093, 5045),
    ("zipf_cold", 64, 32, "lfu"): (964, 7036, 4988),
    # no set receives more than 32 distinct rows: compulsory misses only
    ("zipf_fit", 64, 32, "lru"): (15034, 966, 0),
    ("zipf_fit", 64, 32, "lfu"): (15034, 966, 0),
}

CACHE_TRACES = {
    "scan_hot": lambda: [int(v) for v in SCAN_HOT.read_text().split()],
    "zipf_hot": lambda: _zipf_trace(20240, 8192, 1.05, 20_000),
    "zipf_cold": lambda: _zipf_trace(20241, 1 << 20, 0.8, 8_000),
    "zipf_fit": lambda: _zipf_trace(20242, 1024, 1.05, 16_000),
}

# policy -> SHA-256 of the `neosim cache` report body, scan-hot trace at 4 x 8
CACHE_REPORT_GOLDEN = {
    "lru": "cb3f0581d7d7bccd3c0c67fb68a8b646f35fd881dd7b823f45868f42819ee862",
    "lfu": "0ec3b46c304d237b360a3571ce47d03ad46ca2628bf2ca303d7e3cc5a152e01f",
}


@pytest.mark.parametrize("trace,sets,ways,policy", list(CACHE_GOLDEN))
def test_golden_cache_counts(trace, sets, ways, policy):
    stats = simulate_trace(
        CacheConfig(sets, ways, ReplacementPolicy(policy)), CACHE_TRACES[trace]()
    )
    assert (stats.hits, stats.misses, stats.evictions) == CACHE_GOLDEN[
        (trace, sets, ways, policy)
    ]


@pytest.mark.parametrize("policy", list(CACHE_REPORT_GOLDEN))
def test_golden_cache_report(tmp_path, capsys, policy):
    args = ["cache", "--sets", "4", "--ways", "8", "--policy", policy]
    assert main([*args, "--trace", str(SCAN_HOT), "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "cache.json").read_text())["body"]
    assert _sha(json.dumps(body, indent=2, sort_keys=True)) == CACHE_REPORT_GOLDEN[policy]
