"""The plan-model binding: every reader of a plan maps its tables through
ShardColumns.tables, so each refuses a plan that does not assign every
table of the model exactly once, in validate_plan's words."""

import dataclasses
import re

import pytest

from conftest import mixed_desk_case

from neosim import (
    CostWeights,
    InvalidScheme,
    OptimizerConfig,
    OptimizerKind,
    gen_synthetic_batch,
    memory_check,
    plan_4d,
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
from neosim.planner import CandidatePolicy

CFG = OptimizerConfig(OptimizerKind.ROWWISE_ADAGRAD, lr=0.1)


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
    """name -> a call that reads a plan `p` against the case's model; each
    reader the binding serves, validate_plan aside."""
    W = plan.num_workers
    volumes = collective_volumes(plan, model)  # of the valid plan
    return {
        "ShardColumns.tables": lambda p: p.shard_columns.tables(model),
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
    "ShardColumns.tables",
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


def miscovered(plan):
    """name -> a copy of `plan` whose entries do not cover its model once,
    and the message validate_plan gives it."""
    a = plan.assignments

    def replaced(*assignments):
        return dataclasses.replace(plan, assignments=tuple(assignments))

    unknown = dataclasses.replace(a[2], table_id="nope")
    return {
        "unknown": (replaced(*a[:2], unknown, *a[3:]), "plan names unknown table nope"),
        "left_out": (replaced(*a[:3], *a[4:]), f"tables not assigned: ['{a[3].table_id}']"),
        "twice": (replaced(*a[:5], a[1], *a[5:]), f"table {a[1].table_id} assigned twice"),
        "none": (replaced(), f"tables not assigned: {sorted(x.table_id for x in a)}"),
        # the earliest breach in plan order wins, as in validate_plan
        "twice_then_unknown": (
            replaced(a[0], a[0], *a[1:2], unknown, *a[3:]),
            f"table {a[0].table_id} assigned twice",
        ),
        "left_out_and_twice": (replaced(*a[1:], a[1]), f"table {a[1].table_id} assigned twice"),
    }


BREACHES = ["unknown", "left_out", "twice", "none", "twice_then_unknown", "left_out_and_twice"]


def test_the_case_reads_every_reader(case):
    """The valid plan passes every reader, and the lists above name them all."""
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
    assert list(miscovered(plan)) == BREACHES


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("breach", BREACHES)
def test_every_reader_refuses_bad_coverage(case, reader, breach):
    plan, message = miscovered(case[3])[breach]
    for read in (lambda p: validate_plan(p, case[0]), readers(*case)[reader]):
        with pytest.raises(InvalidScheme) as err:
            read(plan)
        assert str(err.value) == message


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


def test_table_indices_map_unknown_ids_to_minus_one():
    model = load_bundled_model("model_a")
    ids = list(model._ids)
    assert model.table_indices(ids[::-1] + ["nope"]).tolist() == [
        *range(model.num_tables - 1, -1, -1),
        -1,
    ]


def test_a_planners_plan_maps_its_own_ids_by_position(case):
    """A planner's plan holds its model's ids tuple, so its entry i holds
    table i: tables() equals the mapping through table_indices."""
    model, plan = case[0], case[3]
    cols = plan.shard_columns
    assert cols.table_ids is model._ids
    mapped = model.table_indices(list(cols.table_ids))[cols.assignment]
    assert cols.tables(model).tolist() == mapped.tolist()
