"""Sharding planner: cost model, heuristics, plan construction, memory math."""

import dataclasses
import heapq
import itertools
import json
import math

import numpy as np
import pytest

from conftest import desk_cluster, desk_model, mixed_desk_case

from neosim import (
    CandidatePolicy,
    ClusterSpec,
    CompressionFlags,
    CostWeights,
    Infeasible,
    InvalidScheme,
    InvalidValue,
    MissingKey,
    ModelSpec,
    NoFeasibleScheme,
    Precision,
    Scheme,
    SchemeKind,
    Shard,
    TableAssignment,
    TableSpec,
    ShardingPlan,
    greedy_partition,
    hierarchical_plan,
    karmarkar_karp_partition,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    shard_cost,
    validate_plan,
)
from neosim.bundled import load_bundled_cluster, load_bundled_model
from neosim.comms import volume_gradient_collectives
from neosim.planner import (
    CW,
    DP,
    RW,
    TIERS,
    TW,
    CandidateColumns,
    CostNorms,
    candidate_costs,
    cost_norms,
    even_bounds,
    scalar_objective,
)

ITEMS_87654 = [("a", 8.0), ("b", 7.0), ("c", 6.0), ("d", 5.0), ("e", 4.0)]


# the planner's weighted per-worker objective, the exhaustive search's yardstick
def plan_objective(
    plan: ShardingPlan,
    model: ModelSpec,
    cluster: ClusterSpec,
    weights: CostWeights,
    norms: CostNorms,
) -> float:
    """Max over workers of the weighted per-worker cost; DP shards charge
    every worker identically."""
    global_batch = model.local_batch * plan.num_workers
    totals = [0.0] * plan.num_workers
    for assignment in plan.assignments:
        table = model.tables[model.table_indices([assignment.table_id])[0]]
        cost = shard_cost(table, assignment.scheme, cluster, global_batch)
        obj = scalar_objective(cost, weights, norms)
        for shard in assignment.shards:
            if shard.worker is None:
                for w in range(plan.num_workers):
                    totals[w] += obj
            else:
                totals[shard.worker] += obj
    return max(totals) if totals else 0.0


def list_kk_partition(items, k):
    """Karmarkar-Karp as it was before the merge tree: every merge copies each
    bin's item list and re-sorts the merged bins by -sum. The oracle for
    karmarkar_karp_partition's assignments and their insertion order."""
    if not items:
        return {}
    if k == 1:
        return {item_id: 0 for item_id, _ in items}
    heap = []
    for seq, (item_id, cost) in enumerate(sorted(items, key=lambda it: it[0])):
        sums = [float(cost)] + [0.0] * (k - 1)
        groups = [[item_id]] + [[] for _ in range(k - 1)]
        heapq.heappush(heap, (-cost, seq, sums, groups))
    while len(heap) > 1:
        _, seq_a, sums_a, groups_a = heapq.heappop(heap)
        _, seq_b, sums_b, groups_b = heapq.heappop(heap)
        merged = [
            (sums_a[i] + sums_b[k - 1 - i], groups_a[i] + groups_b[k - 1 - i])
            for i in range(k)
        ]
        merged.sort(key=lambda sg: -sg[0])
        sums = [s for s, _ in merged]
        groups = [g for _, g in merged]
        heapq.heappush(heap, (-(sums[0] - sums[-1]), min(seq_a, seq_b), sums, groups))
    assign = {}
    for bin_idx, group in enumerate(heap[0][3]):
        for item_id in group:
            assign[item_id] = bin_idx
    return assign


KK_COSTS = (
    "ties",
    "zeros",
    "ints",
    "lognormal",
    "mixed_sign",
    "few_zeros",
    "equal",
    "runs",
)
KK_IDS = ("int", "pair", "nested", "str", "duplicate", "shard")


def kk_instance(rng, n, cost_kind, id_kind):
    """n items: tie-heavy, all-zero, small-integer, log-normal, mixed-sign
    (ties and -0.0 included), mostly positive with a few zeros, all-equal
    (model_f's shards), or runs of 1 to 16 equal costs (a table's shards)
    costs; ids that are ints, two-int tuples (shaped like a merge pair),
    nested tuples, strings, ints with repeats, or t#i shard names, one t
    per run."""
    order = rng.permutation(n)
    run_sizes = 2 ** rng.integers(0, 5, size=n)
    run_of = np.repeat(np.arange(n), run_sizes)[:n]
    shard_of = np.arange(n) - (np.cumsum(run_sizes) - run_sizes)[run_of]
    ids = {
        "int": lambda j: int(order[j]),
        "pair": lambda j: (int(order[j]), int(order[j]) % 3),
        "nested": lambda j: ((int(order[j]),), (None, j % 2)),
        "str": lambda j: f"t{order[j]}#{j % 4}",
        "duplicate": lambda j: int(order[j]) % 7,
        "shard": lambda j: f"t{run_of[j]}#{shard_of[j]}",
    }[id_kind]
    palette = [0, 0.0, 0.5, 1, 1.0, 2, 3, float(rng.random())]
    signed = [-3, -1, -0.5, -0.0, 0, 0.0, 0.5, 1, 2.0, float(rng.normal())]
    equal = palette[int(rng.integers(2, len(palette)))]
    run_costs = rng.lognormal(0.0, 1.5, size=n)
    cost = {
        "ties": lambda j: palette[int(rng.integers(len(palette)))],
        "zeros": lambda j: 0.0,
        "ints": lambda j: int(rng.integers(0, 6)),
        "lognormal": lambda j: float(rng.lognormal(0.0, 1.5)),
        "mixed_sign": lambda j: (
            signed[int(rng.integers(len(signed)))]
            if rng.random() < 0.5
            else float(rng.normal(0.0, 2.0))
        ),
        "few_zeros": lambda j: (
            (0, 0.0)[j % 2] if rng.random() < 0.1 else float(rng.lognormal(0.0, 1.0))
        ),
        "equal": lambda j: equal,
        "runs": lambda j: float(run_costs[run_of[j]]),
    }[cost_kind]
    return [(ids(j), cost(j)) for j in range(n)]


def bin_sums(items, assignment, k):
    sums = [0.0] * k
    for item_id, cost in items:
        sums[assignment[item_id]] += cost
    return sums


def imbalance(items, assignment, k):
    sums = bin_sums(items, assignment, k)
    return max(sums) - min(sums)


def brute_force_imbalance(costs, k):
    """Exact minimal (max bin - min bin) by exhaustive assignment with
    identical-bin-sum symmetry pruning."""
    order = sorted(costs, reverse=True)
    best = math.inf
    sums = [0.0] * k

    def rec(i):
        nonlocal best
        if i == len(order):
            best = min(best, max(sums) - min(sums))
            return
        seen = set()
        for b in range(k):
            if sums[b] in seen:
                continue
            seen.add(sums[b])
            sums[b] += order[i]
            rec(i + 1)
            sums[b] -= order[i]

    rec(0)
    return best


class TestShardCost:
    def test_table_wise_load_is_batch_pooling_dim_product(self):
        table = TableSpec(id="t", num_rows=10**6, dim=128, avg_pooling=32.0)
        cost = shard_cost(table, Scheme(SchemeKind.TABLE_WISE), desk_cluster(4), 65536)
        assert cost.load == 65536 * 32 * 128

    def test_data_parallel_smallest_ring_allreduce(self):
        table = TableSpec(id="t", num_rows=1, dim=1, avg_pooling=1.0)
        cost = shard_cost(table, Scheme(SchemeKind.DATA_PARALLEL), desk_cluster(2), 2)
        assert cost.comm_bytes == 2 * (1 / 2) * 4  # 2(p-1)/p x H x D x elem

    def test_column_wise_doubles_index_payload_keeps_pooled_total(self):
        table = TableSpec(id="t", num_rows=1000, dim=128, avg_pooling=8.0)
        cluster = desk_cluster(4)
        global_batch = 1024
        tw = shard_cost(table, Scheme(SchemeKind.TABLE_WISE), cluster, global_batch)
        cw_scheme = Scheme(
            SchemeKind.COLUMN_WISE, col_splits=((0, 64), (64, 128))
        )
        cw = shard_cost(table, cw_scheme, cluster, global_batch)
        pooled_tw = table.dim * global_batch * table.elem_bytes
        index_tw = global_batch * table.avg_pooling * table.index_bytes
        # two slices together: pooled bytes unchanged, index payload doubled
        assert 2 * cw.comm_bytes == pytest.approx(pooled_tw + 2 * index_tw)
        assert tw.comm_bytes == pytest.approx(pooled_tw + index_tw)

    def test_row_wise_splits_load(self):
        table = TableSpec(id="t", num_rows=100, dim=16, avg_pooling=8.0)
        rw = shard_cost(
            table, Scheme(SchemeKind.ROW_WISE, num_row_shards=4), desk_cluster(4), 256
        )
        assert rw.load == 256 * (8.0 / 4) * 16

    def test_invalid_scheme(self):
        table = TableSpec(id="t", num_rows=3, dim=8, avg_pooling=1.0)
        with pytest.raises(InvalidScheme):
            shard_cost(
                table, Scheme(SchemeKind.ROW_WISE, num_row_shards=5), desk_cluster(2), 8
            )
        with pytest.raises(InvalidScheme):
            shard_cost(
                table,
                Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 4),)),
                desk_cluster(2),
                8,
            )


class TestEnumerateCandidates:
    @staticmethod
    def kinds(table, cluster):
        """The kind codes CandidateColumns offers a one-table model."""
        cands = CandidateColumns.of(desk_model([table]), cluster, CandidatePolicy())
        return set(cands.kind.tolist())

    def test_tiny_table_offers_data_parallel(self):
        table = TableSpec(id="t", num_rows=100, dim=4, avg_pooling=2.0)
        kinds = self.kinds(table, desk_cluster(4))
        assert DP in kinds
        assert TW in kinds

    def test_oversized_table_drops_table_wise_keeps_row_wise(self):
        cluster = desk_cluster(4, hbm=2**30, dram_per_node=2**30)
        rows = 2 * (cluster.hbm_capacity_per_gpu + cluster.dram_capacity_per_gpu) // (
            64 * 8
        )
        table = TableSpec(id="big", num_rows=int(rows), dim=64, avg_pooling=2.0)
        kinds = self.kinds(table, cluster)
        assert TW not in kinds
        assert RW in kinds

    def test_table_exceeding_cluster_is_infeasible(self):
        cluster = desk_cluster(2, hbm=2**20, dram_per_node=2**20)
        table = TableSpec(id="huge", num_rows=10**9, dim=64, avg_pooling=2.0)
        with pytest.raises(NoFeasibleScheme):
            self.kinds(table, cluster)


class TestGreedyPartition:
    def test_descending_seed_then_lightest_bin(self):
        assignment = greedy_partition(ITEMS_87654, 2)
        sums = sorted(bin_sums(ITEMS_87654, assignment, 2))
        assert sums == [13.0, 17.0]
        assert imbalance(ITEMS_87654, assignment, 2) == 4.0

    def test_single_item_many_bins(self):
        assignment = greedy_partition([("only", 3.0)], 3)
        sums = bin_sums([("only", 3.0)], assignment, 3)
        assert sorted(sums, reverse=True) == [3.0, 0.0, 0.0]

    def test_equal_costs_one_per_bin(self):
        items = [(f"i{j}", 2.0) for j in range(4)]
        assignment = greedy_partition(items, 4)
        assert sorted(assignment.values()) == [0, 1, 2, 3]

    def test_matches_lowest_index_min_rule_on_ties(self):
        def min_rule(items, k):
            order = sorted(items, key=lambda it: (-it[1], it[0]))
            sums = [0.0] * k
            assign = {}
            for i, (item_id, cost) in enumerate(order):
                b = i if i < k else min(range(k), key=lambda j: sums[j])
                assign[item_id] = b
                sums[b] += cost
            return assign

        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(0, 60))
            k = int(rng.integers(1, 13))
            palette = [0, 0.5, 1, 1, 2, 3, float(rng.random())]
            items = [(f"i{j:02d}", palette[int(rng.integers(len(palette)))]) for j in range(n)]
            assert greedy_partition(items, k) == min_rule(items, k)


@pytest.mark.parametrize("partition", [greedy_partition, karmarkar_karp_partition])
class TestPartitionInputs:
    @pytest.mark.parametrize(
        "k, reason",
        [(k, "expected an integer") for k in (2.0, True, False, "2", None)]
        + [(k, "must be >= 1") for k in (0, -1)],
    )
    def test_k_must_be_a_positive_int(self, partition, k, reason):
        with pytest.raises(InvalidValue) as err:
            partition(ITEMS_87654, k)
        assert (err.value.path, err.value.reason) == ("k", reason)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_costs_must_be_finite(self, partition, bad):
        items = ITEMS_87654[:2] + [("x", bad)] + ITEMS_87654[2:]
        with pytest.raises(InvalidValue) as err:
            partition(items, 2)
        assert (err.value.path, err.value.reason) == ("items[2]", "expected a finite cost")

    def test_cost_beyond_float_range_rejected(self, partition):
        with pytest.raises(InvalidValue) as err:
            partition([("a", 10**400), ("b", 1.0)], 2)
        assert (err.value.path, err.value.reason) == ("items[0]", "expected a finite cost")
        assert set(partition([("a", 10**300), ("b", 1.0)], 2)) == {"a", "b"}

    def test_negative_costs_accepted(self, partition):
        items = [("a", -2.0), ("b", 3), ("c", -0.5), ("d", 0.0), ("e", 1.5)]
        assert set(partition(items, 2)) == {"a", "b", "c", "d", "e"}


class TestKarmarkarKarp:
    def test_largest_differencing_example(self):
        assignment = karmarkar_karp_partition(ITEMS_87654, 2)
        assert imbalance(ITEMS_87654, assignment, 2) == 2.0
        groups = {}
        for item_id, cost in ITEMS_87654:
            groups.setdefault(assignment[item_id], set()).add(cost)
        assert {frozenset(g) for g in groups.values()} == {
            frozenset({8.0, 6.0}),
            frozenset({7.0, 5.0, 4.0}),
        }

    def test_single_element(self):
        assignment = karmarkar_karp_partition([("a", 5.0)], 2)
        assert imbalance([("a", 5.0)], assignment, 2) == 5.0

    def test_brute_force_optimum_for_87654_is_zero(self):
        assert brute_force_imbalance([8, 7, 6, 5, 4], 2) == 0.0

    def test_kk_beats_greedy_on_average(self):
        # 200 seeded instances, 16 items, k=4, log-uniform costs; the margin
        # holds at every seed in 0..9, not just this one
        rng = np.random.default_rng(0)
        kk_total = greedy_total = 0.0
        for _ in range(200):
            costs = np.exp(rng.uniform(0, 3, size=16))
            items = [(f"i{j}", float(c)) for j, c in enumerate(costs)]
            kk_total += imbalance(items, karmarkar_karp_partition(items, 4), 4)
            greedy_total += imbalance(items, greedy_partition(items, 4), 4)
        assert kk_total / 200 <= greedy_total / 200

    def test_heuristics_never_beat_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(15):
            n = int(rng.integers(4, 11))
            k = int(rng.integers(2, 4))
            costs = [float(c) for c in rng.integers(1, 64, size=n)]
            items = [(f"i{j}", c) for j, c in enumerate(costs)]
            optimum = brute_force_imbalance(costs, k)
            assert imbalance(items, karmarkar_karp_partition(items, k), k) >= optimum - 1e-9
            assert imbalance(items, greedy_partition(items, k), k) >= optimum - 1e-9

    def test_matches_list_based_merge(self):
        """576 seeded instances: every 48 in a row cover each cost kind x id
        kind once at one k (1, 2, 3, 8, 128 or k > n); two in 48 have 500 to
        1000 items, except at k > n. Equal and run costs take k to 2k + 1
        items, which merges prefixes of k and k + 1 bins, and at k = 128 150
        to 260 items, the shape of model_f's memory-repair partitions. The
        assignments and their insertion order equal the list-copying
        oracle's."""
        rng = np.random.default_rng(5)
        k_cases = (1, 2, 3, 8, 128, "over")
        block = len(KK_COSTS) * len(KK_IDS)
        for trial in range(2 * block * len(k_cases)):
            cost_kind = KK_COSTS[trial % len(KK_COSTS)]
            id_kind = KK_IDS[trial // len(KK_COSTS) % len(KK_IDS)]
            k_case = k_cases[trial // block % len(k_cases)]
            if k_case == "over":
                n = int(rng.integers(0, 60))
                k = n + 1 + int(rng.integers(4))
            else:
                k = k_case
                if trial % block in (19, 44):
                    n = int(rng.integers(500, 1001))
                elif cost_kind in ("equal", "runs"):
                    low, high = (150, 260) if k == 128 else (k, 2 * k + 1)
                    n = int(rng.integers(low, high + 1))
                else:
                    n = int(rng.integers(0, 60))
            items = kk_instance(rng, n, cost_kind, id_kind)
            got = karmarkar_karp_partition(items, k)
            assert list(got.items()) == list(list_kk_partition(items, k).items())

    def test_ids_are_never_taken_for_merge_nodes(self):
        assert karmarkar_karp_partition([(None, 5.0)], 3) == {None: 0}
        items = [((0, 1), 3.0), ((1, 0), 3.0), ((0,), 6.0), ((), 1.0), ((1, 0, 1), 2.0)]
        for k in (2, 3, 8):
            got = karmarkar_karp_partition(items, k)
            assert list(got.items()) == list(list_kk_partition(items, k).items())
            assert set(got) == {item_id for item_id, _ in items}

    def test_scale_invariance_of_assignments(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            items = [
                (f"i{j}", float(c)) for j, c in enumerate(rng.integers(1, 100, size=12))
            ]
            scaled = [(item_id, 8.0 * c) for item_id, c in items]
            assert greedy_partition(items, 3) == greedy_partition(scaled, 3)
            assert karmarkar_karp_partition(items, 3) == karmarkar_karp_partition(
                scaled, 3
            )


class TestPlan4d:
    def test_four_identical_tables_four_workers(self):
        tables = [
            TableSpec(id=f"t{i}", num_rows=500, dim=32, avg_pooling=4.0)
            for i in range(4)
        ]
        model = desk_model(tables)
        plan = plan_4d(
            model,
            desk_cluster(4),
            CostWeights(),
            CandidatePolicy(dp_threshold_bytes=0),
        )
        workers = sorted(a.shards[0].worker for a in plan.assignments)
        assert workers == [0, 1, 2, 3]
        assert all(
            a.scheme.kind is SchemeKind.TABLE_WISE for a in plan.assignments
        )

    def test_model_f_massive_tables_go_row_wise_across_nodes(self):
        model = load_bundled_model("model_f")
        cluster = load_bundled_cluster()
        policy = CandidatePolicy(
            flags=CompressionFlags(
                table_precision=Precision.FP16, rowwise_optimizer=True
            )
        )
        plan = plan_4d(model, cluster, CostWeights(), policy, heuristic="kk")
        for assignment in plan.assignments:
            assert assignment.scheme.kind is SchemeKind.ROW_WISE
            nodes = {s.worker // cluster.gpus_per_node for s in assignment.shards}
            assert len(nodes) > 1

    def test_empty_model_empty_plan(self):
        plan = plan_4d(desk_model(()), desk_cluster(2), CostWeights(), CandidatePolicy())
        assert plan.assignments == ()

    def test_infeasible_model(self):
        cluster = desk_cluster(2, hbm=2**20, dram_per_node=2**20)
        model = desk_model(
            [TableSpec(id="big", num_rows=10**8, dim=64, avg_pooling=2.0)]
        )
        with pytest.raises(Infeasible):
            plan_4d(model, cluster, CostWeights(), CandidatePolicy())

    def test_plan_passes_memory_check(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tables = [
                TableSpec(
                    id=f"t{i}",
                    num_rows=int(rng.integers(100, 5000)),
                    dim=int(rng.integers(1, 16)) * 4,
                    avg_pooling=float(rng.uniform(1, 8)),
                )
                for i in range(int(rng.integers(1, 9)))
            ]
            model = desk_model(tables, local_batch=8)
            cluster = desk_cluster(4)
            policy = CandidatePolicy()
            plan = plan_4d(model, cluster, CostWeights(), policy)
            assert memory_check(plan, model, cluster, policy.flags).feasible

    def test_deterministic_byte_identical_plans(self):
        model = load_bundled_model("model_i")
        cluster = load_bundled_cluster()
        policy = CandidatePolicy(flags=CompressionFlags(rowwise_optimizer=True))
        a = plan_to_json(plan_4d(model, cluster, CostWeights(), policy, "kk"))
        b = plan_to_json(plan_4d(model, cluster, CostWeights(), policy, "kk"))
        assert a == b

    def test_objective_within_10pct_of_exhaustive(self):
        # 8 tables, 2 workers, TW/DP-only candidate space, 50 seeded instances
        rng = np.random.default_rng(4)
        cluster = desk_cluster(2)
        weights = CostWeights()
        for _ in range(50):
            tables = [
                TableSpec(
                    id=f"t{i}",
                    num_rows=int(np.exp(rng.uniform(3, 8))),
                    dim=int(rng.integers(1, 16)) * 4,
                    avg_pooling=float(rng.uniform(1, 10)),
                )
                for i in range(8)
            ]
            model = desk_model(tables, local_batch=16)
            policy = CandidatePolicy(dp_threshold_bytes=64 * 2**10)
            plan = plan_4d(model, cluster, weights, policy, heuristic="kk")
            cands = candidate_costs(model, cluster, policy)
            norms = cost_norms(CandidateColumns.of(model, cluster, policy))
            achieved = plan_objective(plan, model, cluster, weights, norms)

            # exhaustive optimum over (scheme, placement) per table
            per_table_options = []
            for table in tables:
                options = []
                for scheme, cost in cands[table.id]:
                    obj = scalar_objective(cost, weights, norms)
                    if scheme.kind is SchemeKind.DATA_PARALLEL:
                        options.append((obj, obj))
                    else:
                        options.append((obj, 0.0))
                        options.append((0.0, obj))
                per_table_options.append(options)
            best = math.inf
            for combo in itertools.product(*per_table_options):
                s0 = sum(c[0] for c in combo)
                s1 = sum(c[1] for c in combo)
                best = min(best, max(s0, s1))
            assert achieved <= 1.10 * best + 1e-12


class TestHierarchicalPlan:
    def test_two_nodes_two_gpus_symmetric(self):
        tables = [
            TableSpec(id=f"t{i}", num_rows=400, dim=16, avg_pooling=4.0)
            for i in range(2)
        ]
        model = desk_model(tables)
        cluster = desk_cluster(4, gpus_per_node=2)
        plan = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        nodes_used = set()
        for assignment in plan.assignments:
            assert assignment.scheme.kind is SchemeKind.ROW_WISE
            assert len(assignment.shards) == 2
            table_nodes = {s.worker // 2 for s in assignment.shards}
            assert len(table_nodes) == 1  # both shards inside one node
            nodes_used.update(table_nodes)
        assert nodes_used == {0, 1}  # one table per node

    def test_shard_moved_to_the_next_node_rejected(self):
        tables = [
            TableSpec(id=f"t{i}", num_rows=400, dim=16, avg_pooling=4.0)
            for i in range(4)
        ]
        model = desk_model(tables)
        cluster = desk_cluster(8, gpus_per_node=4)
        plan = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        validate_plan(plan, model)
        a = plan.assignments[2]
        moved = dataclasses.replace(a.shards[1], worker=(a.shards[1].worker + 4) % 8)
        shards = (a.shards[0], moved, *a.shards[2:])
        assignments = list(plan.assignments)
        assignments[2] = dataclasses.replace(a, shards=shards)
        broken = dataclasses.replace(plan, assignments=tuple(assignments))
        message = f"{a.table_id}: hierarchical shards must lie on one node"
        with pytest.raises(InvalidScheme, match=message):
            validate_plan(broken, model)
        # the same shards without the hierarchical tag are a valid flat plan
        flat_scheme = dataclasses.replace(a.scheme, hierarchical=None)
        assignments[2] = dataclasses.replace(a, scheme=flat_scheme, shards=shards)
        validate_plan(dataclasses.replace(plan, assignments=tuple(assignments)), model)

    def test_hierarchical_reduces_inter_node_bytes(self):
        tables = [
            TableSpec(id=f"t{i}", num_rows=4000, dim=32, avg_pooling=6.0)
            for i in range(4)
        ]
        model = desk_model(tables, local_batch=8)
        cluster = desk_cluster(8, gpus_per_node=4)
        hier = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        flat = ShardingPlan(
            8,
            4,
            tuple(
                TableAssignment(
                    t.id,
                    Scheme(SchemeKind.ROW_WISE, num_row_shards=8),
                    tuple(
                        Shard(worker=w, rows=b)
                        for w, b in enumerate(even_bounds(t.num_rows, 8))
                    ),
                )
                for t in tables
            ),
        )
        # hierarchical reductions stay on the scale-up fabric, flat ones never
        for plan, hierarchical in ((hier, True), (flat, False)):
            rw = [
                v for v in volume_gradient_collectives(plan, model, 8)
                if v.label in ("rw_reduce_scatter_fwd", "rw_gather_bwd")
            ]
            assert len(rw) == 2
            for v in rw:
                expect = v.per_worker_send_bytes if hierarchical else np.zeros(8)
                assert v.scaleup_bytes.tolist() == expect.tolist()

    def test_single_node_degenerates_to_flat_plan(self):
        tables = [
            TableSpec(id=f"t{i}", num_rows=300, dim=8, avg_pooling=2.0)
            for i in range(3)
        ]
        model = desk_model(tables)
        cluster = desk_cluster(4)
        hier = hierarchical_plan(model, cluster, CostWeights(), CandidatePolicy())
        flat = plan_4d(model, cluster, CostWeights(), CandidatePolicy(), "kk")
        assert plan_to_json(hier) == plan_to_json(flat)


class TestMemoryCheck:
    def test_naive_fp32_elementwise_state_doubles(self):
        # 12e12 params x 4 bytes x 2 = 96e12 bytes
        model = load_bundled_model("model_f")
        cluster = load_bundled_cluster()
        policy = CandidatePolicy(
            flags=CompressionFlags(
                table_precision=Precision.FP16, rowwise_optimizer=True
            )
        )
        plan = plan_4d(model, cluster, CostWeights(), policy, heuristic="kk")
        naive = memory_check(
            plan,
            model,
            cluster,
            CompressionFlags(table_precision=Precision.FP32, rowwise_optimizer=False),
        )
        assert sum(naive.totals.tolist()) == pytest.approx(96e12, rel=0.05)
        optimized = memory_check(plan, model, cluster, policy.flags)
        # FP16 tables + one FP32 scalar per row: 24e12 + (12e12/256) x 4
        assert 24.0e12 <= sum(optimized.totals.tolist()) <= 24.3e12
        assert optimized.feasible

    def test_empty_model(self):
        plan = plan_4d(desk_model(()), desk_cluster(2), CostWeights(), CandidatePolicy())
        report = memory_check(plan, desk_model(()), desk_cluster(2), CompressionFlags())
        assert report.totals.tolist() == [0, 0]

    def test_column_shards_replicate_rowwise_state(self):
        table = TableSpec(id="t", num_rows=100, dim=8, avg_pooling=1.0)
        model = desk_model([table])
        plan = ShardingPlan(
            2,
            2,
            (
                TableAssignment(
                    "t",
                    Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 4), (4, 8))),
                    (Shard(worker=0, cols=(0, 4)), Shard(worker=1, cols=(4, 8))),
                ),
            ),
        )
        report = memory_check(
            plan, model, desk_cluster(2), CompressionFlags(rowwise_optimizer=True)
        )
        # one moment scalar per (row, column shard): 2 x 100 x 4 bytes
        assert sum(report.optimizer_bytes.tolist()) == 800

    @pytest.mark.parametrize("rowwise", [True, False])
    def test_shard_storage_bytes_is_largest_charged_shard(self, rowwise):
        """Each candidate's storage is the bytes of the largest shard that
        memory_check charges a worker when the candidate is placed."""
        table = TableSpec(id="t", num_rows=100, dim=8, avg_pooling=1.0)
        model = desk_model([table])
        flags = CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=rowwise)
        cluster = desk_cluster(8)
        policy = CandidatePolicy(fine_grain=True, flags=flags)
        cands = CandidateColumns.of(model, cluster, policy)
        assert set(cands.kind.tolist()) == {TW, RW, CW, DP}
        for scheme, storage in zip(
            (s for s, _ in candidate_costs(model, cluster, policy)["t"]),
            cands.storage.tolist(),
        ):
            if scheme.kind is SchemeKind.ROW_WISE:
                bounds = even_bounds(100, scheme.num_shards)
                shards = [Shard(w, rows=b) for w, b in enumerate(bounds)]
            elif scheme.kind is SchemeKind.COLUMN_WISE:
                shards = [Shard(w, cols=c) for w, c in enumerate(scheme.col_splits)]
            else:
                shards = [Shard(None if scheme.kind is SchemeKind.DATA_PARALLEL else 0)]
            plan = ShardingPlan(8, 8, (TableAssignment("t", scheme, tuple(shards)),))
            report = memory_check(plan, model, cluster, flags)
            largest = max((report.table_bytes + report.optimizer_bytes).tolist())
            assert storage == largest, scheme


class TestPlanValidation:
    def make_gap_plan(self):
        return ShardingPlan(
            2,
            2,
            (
                TableAssignment(
                    "t",
                    Scheme(SchemeKind.ROW_WISE, num_row_shards=2),
                    (
                        Shard(worker=0, rows=(0, 40)),
                        Shard(worker=1, rows=(50, 100)),  # gap [40, 50)
                    ),
                ),
            ),
        )

    def test_row_gap_rejected(self):
        model = desk_model([TableSpec(id="t", num_rows=100, dim=4, avg_pooling=1.0)])
        with pytest.raises(InvalidScheme):
            validate_plan(self.make_gap_plan(), model)

    def test_missing_table_rejected(self):
        model = desk_model(
            [
                TableSpec(id="t", num_rows=100, dim=4, avg_pooling=1.0),
                TableSpec(id="u", num_rows=10, dim=4, avg_pooling=1.0),
            ]
        )
        plan = ShardingPlan(
            2,
            2,
            (TableAssignment("t", Scheme(SchemeKind.TABLE_WISE), (Shard(worker=0),)),),
        )
        with pytest.raises(InvalidScheme):
            validate_plan(plan, model)

    def test_rebuilt_plan_equal_hash_repr(self):
        plan = self.plan_with_two_tables()
        again = ShardingPlan(
            plan.num_workers, plan.gpus_per_node, plan.assignments, plan.heuristic
        )
        assert again == plan
        assert hash(again) == hash(plan)
        assert repr(again) == repr(plan)
        fewer = dataclasses.replace(plan, assignments=plan.assignments[:1])
        assert fewer != plan
        assert fewer.shard_columns.table_ids == ("t",)

    def plan_with_two_tables(self):
        tw = Scheme(SchemeKind.TABLE_WISE)
        return ShardingPlan(
            2,
            2,
            (
                TableAssignment("t", tw, (Shard(worker=0),)),
                TableAssignment("u", tw, (Shard(worker=1),)),
            ),
        )

    # (scheme, shards) of table "t" (100 rows x 8 columns) on 2 workers,
    # each breaching one bound rule
    RW2 = Scheme(SchemeKind.ROW_WISE, num_row_shards=2)
    CW2 = Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 4), (4, 8)))
    MALFORMED = {
        "row_shard_missing_rows": (RW2, (Shard(0, rows=(0, 50)), Shard(1))),
        "row_shards_all_missing_rows": (RW2, (Shard(0), Shard(1))),
        "column_shard_missing_cols": (CW2, (Shard(0, cols=(0, 4)), Shard(1))),
        "table_wise_with_rows": (
            Scheme(SchemeKind.TABLE_WISE),
            (Shard(0, rows=(0, 100)),),
        ),
        "table_wise_with_cols": (
            Scheme(SchemeKind.TABLE_WISE),
            (Shard(0, cols=(0, 8)),),
        ),
        "data_parallel_with_rows": (
            Scheme(SchemeKind.DATA_PARALLEL),
            (Shard(None, rows=(0, 50)),),
        ),
        "data_parallel_with_cols": (
            Scheme(SchemeKind.DATA_PARALLEL),
            (Shard(None, cols=(0, 8)),),
        ),
        "row_shard_with_cols": (
            RW2,
            (Shard(0, rows=(0, 50)), Shard(1, rows=(50, 100), cols=(0, 4))),
        ),
        "row_shard_count_not_scheme": (
            Scheme(SchemeKind.ROW_WISE, num_row_shards=4),
            (Shard(0, rows=(0, 50)), Shard(1, rows=(50, 100))),
        ),
        "column_shards_not_scheme_splits": (
            CW2,
            (Shard(0, cols=(0, 2)), Shard(1, cols=(2, 8))),
        ),
        "column_shards_fewer_than_splits": (
            Scheme(SchemeKind.COLUMN_WISE, col_splits=((0, 2), (2, 4), (4, 8))),
            (Shard(0, cols=(0, 4)), Shard(1, cols=(4, 8))),
        ),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_bounds_rejected(self, case):
        model = desk_model([TableSpec(id="t", num_rows=100, dim=8, avg_pooling=1.0)])
        scheme, shards = self.MALFORMED[case]
        plan = ShardingPlan(2, 2, (TableAssignment("t", scheme, shards),))
        with pytest.raises(InvalidScheme):
            validate_plan(plan, model)

    def test_planner_plans_pass(self):
        cluster = load_bundled_cluster()
        flags = CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=True)
        for name in ("model_f", "model_i"):
            model = load_bundled_model(name)
            for fine_grain, heuristic in itertools.product(
                (False, True), ("greedy", "kk")
            ):
                policy = CandidatePolicy(fine_grain=fine_grain, flags=flags)
                validate_plan(
                    plan_4d(model, cluster, CostWeights(), policy, heuristic), model
                )
        model = load_bundled_model("model_i")
        policy = CandidatePolicy(flags=flags)
        validate_plan(hierarchical_plan(model, cluster, CostWeights(), policy), model)
        model, cluster, policy = mixed_desk_case()
        kinds = set()
        for heuristic in ("greedy", "kk"):
            plan = plan_4d(model, cluster, CostWeights(), policy, heuristic)
            validate_plan(plan, model)
            kinds.update(a.scheme.kind for a in plan.assignments)
        assert kinds == set(SchemeKind)
        validate_plan(hierarchical_plan(model, cluster, CostWeights(), policy), model)
        # random desk models on small devices, so that rows split
        rng = np.random.default_rng(9)
        for _ in range(60):
            model, cluster, _, _ = random_writer_case(rng, odd_names=False)
            cluster = dataclasses.replace(
                cluster,
                hbm_capacity_per_gpu=int(rng.integers(2**14, 2**18)),
                dram_capacity_per_node=2**16,
            )
            policy = CandidatePolicy(
                dp_threshold_bytes=int(rng.integers(0, 2**12)),
                fine_grain=bool(rng.integers(2)),
            )
            planners = [
                lambda: plan_4d(model, cluster, CostWeights(), policy, "greedy"),
                lambda: plan_4d(model, cluster, CostWeights(), policy, "kk"),
                lambda: hierarchical_plan(model, cluster, CostWeights(), policy),
            ]
            for make_plan in planners:
                try:
                    plan = make_plan()
                except Infeasible:
                    continue
                validate_plan(plan, model)

    def test_json_round_trip(self):
        model = desk_model(
            [TableSpec(id=f"t{i}", num_rows=64, dim=8, avg_pooling=2.0) for i in range(3)]
        )
        cluster = desk_cluster(2)
        plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy())
        loaded = plan_from_json(plan_to_json(plan, model, cluster))
        assert plan_to_json(loaded) == plan_to_json(plan)
        validate_plan(loaded, model)


def dict_plan_to_json(plan, model=None, cluster=None, flags=CompressionFlags()):
    """The plan document built as dicts and encoded by json.dumps(indent=2,
    sort_keys=True), as plan_to_json did before it wrote the text directly:
    the oracle for its bytes."""

    def scheme_doc(scheme):
        doc = {"kind": scheme.kind.value}
        if scheme.kind is SchemeKind.ROW_WISE:
            doc["num_row_shards"] = scheme.num_row_shards
        if scheme.kind is SchemeKind.COLUMN_WISE:
            doc["col_splits"] = [list(p) for p in scheme.col_splits]
        if scheme.hierarchical:
            doc["hierarchical"] = [kind.value for kind in scheme.hierarchical]
        return doc

    doc = {
        "spec_version": 1,
        "num_workers": plan.num_workers,
        "gpus_per_node": plan.gpus_per_node,
        "heuristic": plan.heuristic,
        "tables": [
            {
                "table_id": a.table_id,
                "scheme": scheme_doc(a.scheme),
                "shards": [
                    {
                        "worker": s.worker,
                        **({"rows": list(s.rows)} if s.rows else {}),
                        **({"cols": list(s.cols)} if s.cols else {}),
                    }
                    for s in a.shards
                ],
            }
            for a in plan.assignments
        ],
    }
    if model is not None and cluster is not None:
        report = memory_check(plan, model, cluster, flags)
        columns = (
            report.table_bytes, report.optimizer_bytes, report.dense_bytes, report.tier
        )
        doc["workers"] = [
            {
                "worker": w,
                "table_bytes": value,
                "optimizer_bytes": state,
                "dense_bytes": dense,
                "total_bytes": value + state + dense,
                "tier": TIERS[tier],
            }
            for w, (value, state, dense, tier) in enumerate(
                zip(*(column.tolist() for column in columns))
            )
        ]
    return json.dumps(doc, indent=2, sort_keys=True)


# names that json must escape: quote, backslash, control characters,
# non-ASCII (one outside the BMP), the line separator; and the empty name
ODD_NAMES = (
    'say "hi"',
    "back\\slash\\",
    "tab\tnew\nline\x00\x01\x1f\x7f",
    "caf\u00e9",
    "\u8868\u683c",
    "emoji \U0001f600",
    "line\u2028sep",
    "",
)
HIER = (SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE)


def random_writer_case(rng, odd_names: bool):
    """A random desk model, cluster and plan for the writer: table-wise,
    data-parallel, row-wise, hierarchical row-wise and column-wise tables,
    shards with both rows and cols, a column-wise table with no splits and
    no shards, and a worker count that puts workers in every memory tier."""
    gpus_per_node = int(rng.integers(1, 4))
    workers = gpus_per_node * int(rng.integers(1, 4))
    tables, assignments = [], []
    for i in range(int(rng.integers(0, 12))):
        name = ODD_NAMES[int(rng.integers(len(ODD_NAMES)))] if odd_names else "t"
        table = TableSpec(
            id=f"{name}{i}",
            num_rows=int(rng.integers(1, 3000)),
            dim=int(rng.integers(1, 17)),
            avg_pooling=1.0,
        )
        tables.append(table)
        H, D = table.num_rows, table.dim
        kind = rng.choice(["tw", "dp", "rw", "hier", "cw", "empty"])
        worker = lambda: int(rng.integers(workers))  # noqa: E731
        both = bool(rng.integers(2))  # the other bound too
        if kind == "tw":
            scheme, shards = Scheme(SchemeKind.TABLE_WISE), (Shard(worker()),)
        elif kind == "dp":
            scheme, shards = Scheme(SchemeKind.DATA_PARALLEL), (Shard(None),)
        elif kind in ("rw", "hier"):
            bounds = even_bounds(H, int(rng.integers(1, min(H, 9) + 1)))
            scheme = Scheme(
                SchemeKind.ROW_WISE,
                num_row_shards=len(bounds),
                hierarchical=HIER if kind == "hier" else None,
            )
            shards = tuple(
                Shard(worker(), rows=b, cols=(0, D) if both else None) for b in bounds
            )
        elif kind == "cw":
            splits = tuple(even_bounds(D, int(rng.integers(1, D + 1))))
            scheme = Scheme(SchemeKind.COLUMN_WISE, col_splits=splits)
            shards = tuple(
                Shard(worker(), rows=(0, H) if both else None, cols=c) for c in splits
            )
        else:
            scheme, shards = Scheme(SchemeKind.COLUMN_WISE), ()
        assignments.append(TableAssignment(table.id, scheme, shards))
    heuristic = ODD_NAMES[int(rng.integers(len(ODD_NAMES)))] if odd_names else "kk"
    plan = ShardingPlan(workers, gpus_per_node, tuple(assignments), heuristic)
    model = desk_model(tables, dense_param_bytes=int(rng.integers(0, 2**14)))
    cluster = desk_cluster(
        workers,
        gpus_per_node=gpus_per_node,
        hbm=int(rng.integers(2**10, 2**17)),
        dram_per_node=int(rng.integers(2**10, 2**17)),
    )
    flags = CompressionFlags(
        table_precision=[None, Precision.FP16, Precision.FP32][int(rng.integers(3))],
        rowwise_optimizer=bool(rng.integers(2)),
    )
    return model, cluster, plan, flags


class TestPlanToJson:
    """plan_to_json writes the bytes json.dumps(indent=2, sort_keys=True)
    wrote, and plan_from_json reads them back."""

    @pytest.mark.parametrize("odd_names", [False, True], ids=["plain", "escaped"])
    def test_matches_dict_json_dumps(self, odd_names):
        rng = np.random.default_rng(7 + odd_names)
        tiers = set()
        for _ in range(150):
            model, cluster, plan, flags = random_writer_case(rng, odd_names)
            assert plan_to_json(plan) == dict_plan_to_json(plan)
            assert plan_to_json(plan, model) == dict_plan_to_json(plan)
            text = plan_to_json(plan, model, cluster, flags)
            assert text == dict_plan_to_json(plan, model, cluster, flags)
            assert plan_from_json(text) == plan
            tiers.update(w["tier"] for w in json.loads(text)["workers"])
        assert tiers == {"hbm", "hbm+dram", "infeasible"}

    def test_empty_plans(self):
        model, cluster = desk_model(()), desk_cluster(2)
        no_tables = ShardingPlan(2, 2, (), "")
        for args in ((), (model, cluster)):
            text = plan_to_json(no_tables, *args)
            assert text == dict_plan_to_json(no_tables, *args)
            assert '"tables": []' in text
            assert plan_from_json(text) == no_tables
        # a plan without workers is refused when it is built, as plan_from_json
        # refuses it, so the writer never sees one
        with pytest.raises(InvalidValue):
            ShardingPlan(0, 1, ())

    def test_never_runs_the_pure_python_encoder(self, monkeypatch):
        """json's indent path builds its encoder with _make_iterencode; the
        writer must not, or a 1.2 MB plan costs several times its planning."""

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder ran")

        model, cluster = load_bundled_model("model_a"), load_bundled_cluster()
        flags = CompressionFlags(table_precision=Precision.FP16, rowwise_optimizer=True)
        plan = hierarchical_plan(
            model, cluster, CostWeights(), CandidatePolicy(flags=flags)
        )
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        text = plan_to_json(plan, model, cluster, flags)
        assert plan_from_json(text) == plan


class TestCostWeights:
    def test_all_zero_rejected(self):
        with pytest.raises(InvalidValue):
            CostWeights(0.0, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidValue):
            CostWeights(-1.0, 1.0, 1.0)


class TestPlanLayout:
    """A plan needs at least one worker and one GPU per node, however it is
    built; numpy warnings are errors here, so no node rule may divide by 0."""

    def hierarchical_plan_on_workers_0_and_3(self, gpus_per_node):
        scheme = Scheme(
            SchemeKind.ROW_WISE,
            num_row_shards=2,
            hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
        )
        shards = (Shard(worker=0, rows=(0, 32)), Shard(worker=3, rows=(32, 64)))
        return ShardingPlan(4, gpus_per_node, (TableAssignment("t0", scheme, shards),))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "num_workers,gpus_per_node,path",
        [
            (0, 1, "num_workers"),
            (-2, 1, "num_workers"),
            (4, 0, "gpus_per_node"),
            (4, -1, "gpus_per_node"),
        ],
    )
    def test_non_positive_layout_rejected(self, num_workers, gpus_per_node, path):
        columns = self.hierarchical_plan_on_workers_0_and_3(4).shard_columns
        with pytest.raises(InvalidValue) as err:
            ShardingPlan(num_workers, gpus_per_node, ())
        assert err.value.path == path
        with pytest.raises(InvalidValue) as err:
            ShardingPlan.from_columns(num_workers, gpus_per_node, columns, "greedy")
        assert err.value.path == path

    @pytest.mark.filterwarnings("error")
    def test_zero_gpus_per_node_never_reaches_the_node_rule(self):
        model = desk_model([TableSpec(id="t0", num_rows=64, dim=4, avg_pooling=2.0)])
        with pytest.raises(InvalidScheme, match="hierarchical shards must lie on one node"):
            validate_plan(self.hierarchical_plan_on_workers_0_and_3(2), model)
        with pytest.raises(InvalidValue) as err:
            self.hierarchical_plan_on_workers_0_and_3(0)
        assert err.value.path == "gpus_per_node"

    @pytest.mark.parametrize("key", ["num_workers", "gpus_per_node"])
    def test_json_layout_rejected_with_path(self, key):
        _, doc = TestPlanFromJson().plan_doc()
        doc[key] = 0
        with pytest.raises(InvalidValue) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.path == key


class TestPlanFromJson:
    """The plan document keeps the README contract: version, keys, types."""

    def plan_doc(self):
        model = desk_model(
            [TableSpec(id=f"t{i}", num_rows=64, dim=8, avg_pooling=2.0) for i in range(3)]
        )
        cluster = desk_cluster(2)
        plan = plan_4d(model, cluster, CostWeights(), CandidatePolicy())
        text = plan_to_json(plan, model, cluster)
        return plan, json.loads(text)

    def test_memory_summary_accepted(self):
        plan, doc = self.plan_doc()
        assert "workers" in doc
        assert plan_from_json(json.dumps(doc)) == plan

    def test_missing_spec_version_rejected(self):
        _, doc = self.plan_doc()
        del doc["spec_version"]
        with pytest.raises(MissingKey):
            plan_from_json(json.dumps(doc))

    def test_wrong_spec_version_rejected(self):
        _, doc = self.plan_doc()
        doc["spec_version"] = 2
        with pytest.raises(InvalidValue) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.path == "spec_version"

    def test_unknown_top_level_key_rejected_with_path(self):
        _, doc = self.plan_doc()
        doc["bogus"] = 1
        with pytest.raises(InvalidValue) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.path == "bogus"

    def test_unknown_nested_keys_rejected_with_path(self):
        for where, path in (
            (lambda d: d["tables"][1], "tables[1].extra"),
            (lambda d: d["tables"][1]["scheme"], "tables[1].scheme.extra"),
            (lambda d: d["tables"][1]["shards"][0], "tables[1].shards[0].extra"),
        ):
            _, doc = self.plan_doc()
            where(doc)["extra"] = 0
            with pytest.raises(InvalidValue) as err:
                plan_from_json(json.dumps(doc))
            assert err.value.path == path

    def test_string_worker_rejected(self):
        _, doc = self.plan_doc()
        doc["tables"][0]["shards"][0]["worker"] = "0"
        with pytest.raises(InvalidValue) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.path == "tables[0].shards[0].worker"

    def test_boolean_worker_rejected(self):
        _, doc = self.plan_doc()
        doc["tables"][0]["shards"][0]["worker"] = True
        with pytest.raises(InvalidValue) as err:
            plan_from_json(json.dumps(doc))
        assert err.value.path == "tables[0].shards[0].worker"
