"""The plan gate: every reader of a plan reads each shard's table through
planner._plan_tables, which returns the record of a plan checked against
that model and otherwise runs validate_plan. So each reader refuses a plan
that breaks any validate_plan rule, in validate_plan's words, and a plan is
checked against a model once."""

import ast
import dataclasses
import pickle
import re
from pathlib import Path

import pytest

from conftest import mixed_desk_case

from neosim import (
    CostWeights,
    InvalidScheme,
    InvalidValue,
    ModelSpec,
    OptimizerConfig,
    OptimizerKind,
    SchemeKind,
    Shard,
    gen_synthetic_batch,
    hierarchical_plan,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    simulate,
    validate_plan,
    volume_forward_alltoall,
    volume_gradient_collectives,
)
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.comms import (
    alltoall_redistribute,
    collective_volumes,
    reassemble_values,
    to_wtb,
    train_step_sharded,
    volume_input_alltoall,
)
from neosim.model import Precision
from neosim.perf import _component_latencies, component_latencies
from neosim.planner import CandidatePolicy, CompressionFlags, _plan_tables

CFG = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1)
SRC = Path(__file__).resolve().parents[1] / "src" / "neosim"


@pytest.fixture(scope="module")
def case():
    """(model, cluster, flags, plan, batch, state): plan_4d's plan of the
    mixed desk case (all four schemes), a batch and its sharded step."""
    model, cluster, policy = mixed_desk_case()
    plan = plan_4d(model, cluster, CostWeights(), policy)
    batch = gen_synthetic_batch(model, cluster.num_workers * model.local_batch, seed=5)
    _, state = train_step_sharded(model, plan, batch, CFG)
    return model, cluster, policy.flags, plan, batch, state


def readers(model, cluster, flags, plan, batch, state):
    """name -> a call that reads a plan `p` against the case's model; the
    gate, and each reader it serves, validate_plan aside."""
    W = plan.num_workers
    volumes = collective_volumes(plan, model)  # of the valid plan
    return {
        "_plan_tables": lambda p: _plan_tables(p, model),
        "memory_check": lambda p: memory_check(p, model, cluster, flags),
        "plan_to_json": lambda p: plan_to_json(p, model, cluster, flags),
        "volume_forward_alltoall": lambda p: volume_forward_alltoall(p, model, W),
        "volume_gradient_collectives": lambda p: volume_gradient_collectives(p, model, W),
        "volume_input_alltoall": lambda p: volume_input_alltoall(p, model, W),
        "collective_volumes": lambda p: collective_volumes(p, model),
        "_component_latencies": lambda p: _component_latencies(
            model, p, cluster, 0.9, Precision.TF32, flags, volumes
        ),
        "component_latencies": lambda p: component_latencies(model, p, cluster, flags=flags),
        "simulate": lambda p: simulate(model, cluster, p, flags=flags),
        "alltoall_redistribute": lambda p: alltoall_redistribute(to_wtb(batch, W), p, model),
        "train_step_sharded": lambda p: train_step_sharded(model, p, batch, CFG),
        "reassemble_values": lambda p: reassemble_values(model, p, state),
    }


READERS = [
    "_plan_tables",
    "memory_check",
    "plan_to_json",
    "volume_forward_alltoall",
    "volume_gradient_collectives",
    "volume_input_alltoall",
    "collective_volumes",
    "_component_latencies",
    "component_latencies",
    "simulate",
    "alltoall_redistribute",
    "train_step_sharded",
    "reassemble_values",
]


def broken(plan):
    """name -> a copy of `plan` that breaks one validate_plan rule, and the
    message validate_plan gives it. The case's assignments: t0 data-parallel,
    t2 table-wise on worker 6, t3 row-wise in two shards on workers 4 and 5
    (one node of 4 GPUs), t5 column-wise in four shards of 16 columns."""
    a = plan.assignments
    dp, tw, rw, cw = a[0], a[2], a[3], a[5]
    assert [x.scheme.kind for x in (dp, tw, rw, cw)] == [
        SchemeKind.DATA_PARALLEL,
        SchemeKind.TABLE_WISE,
        SchemeKind.ROW_WISE,
        SchemeKind.COLUMN_WISE,
    ]

    def replaced(*assignments):
        return dataclasses.replace(plan, assignments=tuple(assignments))

    def entry(i, scheme=None, shards=None):
        """`plan` with assignment i's scheme or shards replaced."""
        new = dataclasses.replace(a[i], scheme=scheme or a[i].scheme, shards=shards or a[i].shards)
        return replaced(*a[:i], new, *a[i + 1 :])

    def shard(i, j, new):
        """`plan` with shard j of assignment i replaced by `new`."""
        shards = a[i].shards
        return entry(i, shards=(*shards[:j], new, *shards[j + 1 :]))

    r0, r1 = rw.shards
    hier = dataclasses.replace(rw.scheme, hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE))
    unknown = dataclasses.replace(a[2], table_id="nope")
    return {
        # coverage
        "unknown": (replaced(*a[:2], unknown, *a[3:]), "plan names unknown table nope"),
        "left_out": (replaced(*a[:3], *a[4:]), f"tables not assigned: ['{a[3].table_id}']"),
        "twice": (replaced(*a[:5], a[1], *a[5:]), f"table {a[1].table_id} assigned twice"),
        "none": (replaced(), f"tables not assigned: {sorted(x.table_id for x in a)}"),
        # the earliest breach in plan order wins
        "twice_then_unknown": (
            replaced(a[0], a[0], *a[1:2], unknown, *a[3:]),
            f"table {a[0].table_id} assigned twice",
        ),
        "left_out_and_twice": (replaced(*a[1:], a[1]), f"table {a[1].table_id} assigned twice"),
        # one shard for TW and DP; replicas for DP only; workers in [0, W)
        "single": (
            entry(2, shards=(Shard(6), Shard(7))),
            "t2: expected a single shard",
        ),
        "replica": (shard(2, 0, Shard(None)), "t2: replicated shard only valid for DP"),
        "dp_worker": (shard(0, 0, Shard(3)), "t0: replicated shard only valid for DP"),
        "worker_past": (shard(2, 0, Shard(8)), "t2: worker 8 out of range"),
        "worker_negative": (shard(3, 1, Shard(-1, r1.rows)), "t3: worker -1 out of range"),
        # bounds
        "tw_bounds": (shard(2, 0, Shard(6, rows=(0, 1))), "t2: bounds on a table_wise shard"),
        "dp_bounds": (shard(0, 0, Shard(None, cols=(0, 4))), "t0: bounds on a data_parallel shard"),
        "rw_cols": (
            shard(3, 0, Shard(4, r0.rows, (0, 32))),
            "t3: column bounds on a row-wise shard",
        ),
        "cw_rows": (
            shard(5, 1, Shard(1, (0, 20000), (16, 32))),
            "t5: row bounds on a column-wise shard",
        ),
        "rw_missing": (shard(3, 1, Shard(5)), "t3: row shard missing bounds"),
        "cw_missing": (shard(5, 2, Shard(2)), "t5: column shard missing bounds"),
        # tiling
        "row_count": (
            entry(3, dataclasses.replace(rw.scheme, num_row_shards=3)),
            "t3: 2 row shards, scheme has 3",
        ),
        "tile": (shard(3, 1, Shard(5, (10001, 20000))), "t3: row shards must tile [0, H)"),
        "overlap": (shard(3, 1, Shard(5, (0, 20000))), "t3: row shards must tile [0, H)"),
        "cover": (shard(3, 1, Shard(5, (10000, 19999))), "t3: row shards must cover [0, 20000)"),
        "past": (shard(5, 3, Shard(3, cols=(48, 65))), "t5: column shards must cover [0, 64)"),
        "col_splits": (
            entry(5, dataclasses.replace(cw.scheme, col_splits=((0, 32), (32, 64)))),
            "t5: column shards differ from the scheme's column splits",
        ),
        # hierarchical
        "hier_nodes": (
            entry(3, hier, (r0, Shard(0, r1.rows))),
            "t3: hierarchical shards must lie on one node",
        ),
        "hier_tag": (
            entry(2, dataclasses.replace(tw.scheme, hierarchical=hier.hierarchical)),
            "t2: hierarchical must be [table_wise, row_wise] on a row_wise scheme",
        ),
    }


COVERAGE = ["unknown", "left_out", "twice", "none", "twice_then_unknown", "left_out_and_twice"]
PLACEMENT = [
    "single",
    "replica",
    "dp_worker",
    "worker_past",
    "worker_negative",
    "tw_bounds",
    "dp_bounds",
    "rw_cols",
    "cw_rows",
    "rw_missing",
    "cw_missing",
    "row_count",
    "tile",
    "overlap",
    "cover",
    "past",
    "col_splits",
    "hier_nodes",
    "hier_tag",
]


def test_the_case_reads_every_reader(case):
    """The valid plan passes every reader, and the lists above name them
    all; the hierarchical tag alone, on shards of one node, is valid."""
    calls = readers(*case)
    assert list(calls) == READERS
    plan = case[3]
    assert {a.scheme.kind.value for a in plan.assignments} == {
        "table_wise",
        "row_wise",
        "column_wise",
        "data_parallel",
    }
    for call in calls.values():
        call(plan)
    assert list(broken(plan)) == COVERAGE + PLACEMENT
    a = plan.assignments
    tag = (SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE)
    tagged = dataclasses.replace(a[3], scheme=dataclasses.replace(a[3].scheme, hierarchical=tag))
    validate_plan(dataclasses.replace(plan, assignments=(*a[:3], tagged, *a[4:])), case[0])


def refused_by_every_reader(case, reader, breach):
    plan, message = broken(case[3])[breach]
    for read in (lambda p: validate_plan(p, case[0]), readers(*case)[reader]):
        with pytest.raises(InvalidScheme) as err:
            read(plan)
        assert str(err.value) == message
    assert plan._checked is None


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("breach", COVERAGE)
def test_every_reader_refuses_bad_coverage(case, reader, breach):
    refused_by_every_reader(case, reader, breach)


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("breach", PLACEMENT)
def test_every_reader_refuses_a_bad_placement(case, reader, breach):
    """One plan per validate_plan rule past coverage."""
    refused_by_every_reader(case, reader, breach)


@pytest.mark.parametrize("workers", [4, 16])
def test_volumes_refuse_another_worker_count(case, workers):
    """A volume over fewer or more workers than its 8-worker plan is
    refused, not summed over the plan's workers."""
    model, plan = case[0], case[3]
    for volume in (volume_forward_alltoall, volume_gradient_collectives, volume_input_alltoall):
        with pytest.raises(InvalidValue, match="plan and volume disagree on worker count"):
            volume(plan, model, workers)


def test_model_i_partial_and_repeated_plans_are_not_priced():
    """model_i's default plan prices at 4.146M QPS. With one table left out
    it used to price at 4.151M, and with one table assigned twice at 2.566M
    while memory_check doubled that table's bytes; both are now refused."""
    model, cluster = load_bundled_model("model_i"), load_bundled_cluster()
    plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy())
    assert simulate(model, cluster, plan).estimate.qps == pytest.approx(4.1456e6, rel=1e-4)
    a = plan.assignments
    first = a[0].table_id
    for assignments, message in (
        (a[1:], f"tables not assigned: ['{first}']"),
        (a + a[:1], f"table {first} assigned twice"),
    ):
        bad = dataclasses.replace(plan, assignments=assignments)
        for read in (
            lambda: simulate(model, cluster, bad),
            lambda: memory_check(bad, model, cluster, CandidatePolicy().flags),
            lambda: validate_plan(bad, model),
        ):
            with pytest.raises(InvalidScheme, match=f"^{re.escape(message)}$"):
                read()


def _with_shards(plan, i, change):
    """`plan` with assignment i's shards replaced by change(shards)."""
    a = plan.assignments
    entry = dataclasses.replace(a[i], shards=change(a[i].shards))
    return dataclasses.replace(plan, assignments=(*a[:i], entry, *a[i + 1 :]))


def test_model_i_plans_that_break_placement_rules_are_not_priced():
    """Three model_i plans (FP16 tables, the bundled cluster) that
    validate_plan refuses used to be priced: the hierarchical plan with
    shard 0 of emb_i_00 moved off its node at 9.46M QPS, not 10.02M,
    charging a cross-node reduction to the scale-up link; the same plan
    with every shard of emb_i_00 holding all its rows at 10.02M, with twice
    the bytes on that node's workers; the flat plan with emb_i_00's
    table-wise shard given a one-row bound at 184 table bytes, not 6.62 GB.
    simulate and memory_check now refuse each with validate_plan's message."""
    model, cluster = load_bundled_model("model_i"), load_bundled_cluster()
    flags = CompressionFlags(table_precision=Precision.FP16)
    policy = CandidatePolicy(flags=flags)
    i = int(model.table_indices(["emb_i_00"])[0])
    H = model.tables[i].num_rows
    hier = hierarchical_plan(model, cluster, CostWeights(), policy)
    flat = plan_4d(model, cluster, CostWeights(), policy)
    assert [s.worker for s in hier.assignments[i].shards] == list(range(120, 128))
    assert flat.assignments[i].scheme.kind is SchemeKind.TABLE_WISE
    rep = dataclasses.replace
    cases = (
        (
            _with_shards(hier, i, lambda s: (rep(s[0], worker=0), *s[1:])),
            "emb_i_00: hierarchical shards must lie on one node",
        ),
        (
            _with_shards(hier, i, lambda s: tuple(rep(x, rows=(0, H)) for x in s)),
            "emb_i_00: row shards must tile [0, H)",
        ),
        (
            _with_shards(flat, i, lambda s: (rep(s[0], rows=(0, 1)),)),
            "emb_i_00: bounds on a table_wise shard",
        ),
    )
    for bad, message in cases:
        for read in (
            lambda: simulate(model, cluster, bad, flags=flags),
            lambda: memory_check(bad, model, cluster, flags),
            lambda: validate_plan(bad, model),
        ):
            with pytest.raises(InvalidScheme, match=f"^{re.escape(message)}$"):
                read()


def test_table_indices_map_unknown_ids_to_minus_one():
    model = load_bundled_model("model_a")
    ids = list(model._ids)
    assert model.table_indices(ids[::-1] + ["nope"]).tolist() == [
        *range(model.num_tables - 1, -1, -1),
        -1,
    ]


def test_a_planners_plan_maps_its_own_ids_by_position(case):
    """A planner's plan records its model and each shard's table position,
    so the gate maps it without a lookup: entry i holds table i, as the
    mapping through table_indices says."""
    model, plan = case[0], case[3]
    cols = plan.shard_columns
    checked, tables = plan._checked
    assert checked is model and not tables.flags.writeable
    mapped = model.table_indices(list(cols.table_ids))[cols.assignment]
    assert tables.tolist() == mapped.tolist() == cols.assignment.tolist()
    assert _plan_tables(plan, model) is tables


def test_the_record_is_the_first_check_and_outside_eq_pickle_and_replace(case):
    """plan_4d and hierarchical_plan record their model; a plan built from
    TableAssignments records the first model it passes validate_plan
    against, and keeps it when checked against another. The record is not
    seen by equality, hash or repr, and a dataclasses.replace copy or an
    unpickled copy holds none."""
    model, cluster, flags, plan = case[:4]
    hier = hierarchical_plan(model, cluster, CostWeights(), mixed_desk_case()[2])
    assert hier._checked[0] is model and plan._checked[0] is model
    loaded = plan_from_json(plan_to_json(plan))
    assert loaded._checked is None
    tables = validate_plan(loaded, model)
    assert loaded._checked[0] is model and loaded._checked[1] is tables
    assert not tables.flags.writeable and tables.tolist() == plan._checked[1].tolist()
    twin = dataclasses.replace(model)
    again = _plan_tables(loaded, twin)  # checked afresh, not recorded
    assert loaded._checked[0] is model and again is not tables
    assert again.tolist() == tables.tolist()
    assert _plan_tables(loaded, model) is tables
    for source in (plan, hier, loaded):
        bare = dataclasses.replace(source)
        assert bare._checked is None and bare == source and hash(bare) == hash(source)
        assert repr(bare) == repr(source)
        assert pickle.loads(pickle.dumps(source))._checked is None


def test_one_simulate_of_a_json_plan_maps_its_ids_once(case, monkeypatch):
    """A plan read from JSON is checked at its first reader; the readers
    after it, in that simulate and the next, read the record."""
    model, cluster, flags, plan = case[:4]
    loaded = plan_from_json(plan_to_json(plan))
    mapped = []
    table_indices = ModelSpec.table_indices

    def counted(self, ids):
        mapped.append(len(ids))
        return table_indices(self, ids)

    monkeypatch.setattr(ModelSpec, "table_indices", counted)
    first = simulate(model, cluster, loaded, flags=flags).estimate
    assert mapped == [model.num_tables]
    assert simulate(model, cluster, loaded, flags=flags).estimate == first
    assert mapped == [model.num_tables]
    assert simulate(model, cluster, plan, flags=flags).estimate == first


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _reads(node, attr: str) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))


def _calls(node, name: str) -> bool:
    return any(
        isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) == name or getattr(n.func, "attr", None) == name)
        for n in ast.walk(node)
    )


def test_every_reader_of_plan_and_model_columns_calls_the_gate():
    """In src/neosim, a function that reads both a plan's shard_columns and
    a model's table_columns calls _plan_tables, validate_plan aside, and
    only validate_plan maps ids through table_indices. A reader that maps or
    checks a plan on its own fails here."""
    readers, unguarded, mappers = set(), [], []
    for path in sorted(SRC.glob("*.py")):
        for function in _functions(ast.parse(path.read_text())):
            name = f"{path.stem}.{function.name}"
            if _calls(function, "table_indices"):
                mappers.append(name)
            if not (_reads(function, "shard_columns") and _reads(function, "table_columns")):
                continue
            readers.add(name)
            if function.name != "validate_plan" and not _calls(function, "_plan_tables"):
                unguarded.append(name)
    assert unguarded == []
    assert mappers == ["planner.validate_plan"]
    assert readers >= {
        "planner.memory_check",
        "planner.validate_plan",
        "comms._table_shards",
        "comms._pooled_elements",
        "comms.volume_gradient_collectives",
        "comms.volume_input_alltoall",
        "perf._component_latencies",
    }
