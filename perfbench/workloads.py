"""The benchmark's four workloads.

Each workload draws its op sequence and every generated input from the seed;
neosim receives only the generated inputs. An op is one user-level call
through neosim's public Python API (what one CLI command does, minus file
I/O) followed by its output check. Every call into a neosim layer goes
through ``tr.call("<layer>.<function>", ...)`` so that a traced run can time
it from outside; untraced runs pass a ``NullTracer`` and run the same code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from neosim import __version__ as neosim_version
from neosim.bundled import data_path
from neosim.cache import CacheConfig, ReplacementPolicy, simulate_trace
from neosim.comms import (
    alltoall_redistribute,
    reassemble_values,
    to_wtb,
    train_step_sharded,
    volume_forward_alltoall,
    volume_gradient_collectives,
    volume_input_alltoall,
)
from neosim.embedding import (
    OptimizerConfig,
    OptimizerKind,
    build_tables,
    fused_backward_update,
    fused_forward,
    train_step_reference,
)
from neosim.model import (
    Precision,
    gen_synthetic_batch,
    parse_cluster_spec,
    parse_model_spec,
)
from neosim.perf import component_latencies, shrink_to_fit, simulate
from neosim.planner import (
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    Scheme,
    SchemeKind,
    Shard,
    ShardingPlan,
    TableAssignment,
    candidate_costs,
    even_bounds,
    greedy_partition,
    hierarchical_plan,
    karmarkar_karp_partition,
    memory_check,
    plan_4d,
    plan_to_json,
    shard_cost,
    validate_plan,
)

# Simulation settings of the ROADMAP baseline table: row-wise optimizer
# state, TF32 compute and a 0.9 software-cache hit rate for DRAM-tier workers.
HIT_RATE = 0.9
A2A_PRECISIONS = (
    (Precision.FP32, Precision.FP32),
    (Precision.FP16, Precision.BF16),
)
VERIFY_TOLERANCE = 1e-9  # same bound as `neosim verify`


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, *stream])


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _cycles(rng: np.random.Generator, combos: tuple) -> Iterator:
    """Endless op mix: every combo once per cycle, in a seeded order, so a
    run's mix stays balanced whatever its length."""
    while True:
        for i in rng.permutation(len(combos)):
            yield combos[int(i)]


@dataclass
class OpResult:
    ok: bool
    digests: dict[str, str]  # output kind -> sha256 of the op's output
    problem: str = ""
    info: dict = field(default_factory=dict)  # deterministic counts
    ctx: object = None  # what the traced stage breakdown needs


class Workload:
    """One workload: seeded inputs, an endless op sequence and its checks."""

    name = ""
    stream = 0  # separates this workload's random streams from the others'

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> None:
        """Parse specs and generate inputs; repeatable, same result each time."""
        raise NotImplementedError

    def checks(self, tr) -> dict[str, tuple[bool, float]]:
        """Run-level output checks beyond the per-op ones."""
        return {}

    @property
    def cycle_length(self) -> int:
        raise NotImplementedError

    def ops(self) -> Iterator:
        raise NotImplementedError

    def run_op(self, op, tr) -> OpResult:
        raise NotImplementedError

    def stages(self, op, result: OpResult, tr) -> dict:
        """Traced runs only: call the op's stage functions directly on its
        inputs so per-stage times come out without tracing inside neosim."""
        return {}

    def census(self) -> list:
        """A short fixed op list whose deterministic counts every traced run
        records."""
        raise NotImplementedError

    def census_metrics(self, results: list[OpResult], checks: dict) -> dict[str, float]:
        """Named per-layer counts from the census ops and run-level checks."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# planning workloads


@dataclass(frozen=True)
class PlanOp:
    model: str
    nodes: int
    placement: str  # "greedy" | "kk" | "hierarchical"
    fine_grain: bool
    fp16_tables: bool
    a2a: tuple[Precision, Precision]

    @property
    def label(self) -> str:
        return f"{self.model}.{'fine_grain' if self.fine_grain else self.placement}"

    @property
    def op_kind(self) -> tuple:
        return (self.model, self.nodes, self.placement, self.fine_grain)


SCHEME_COUNTS = ("table_wise", "row_wise", "column_wise", "data_parallel", "hierarchical")


class PlanWorkload(Workload):
    """Plan (greedy, KK or hierarchical placement), serialize, simulate."""

    models: tuple[str, ...] = ()
    combos: tuple = ()  # (model, nodes, placement, fine_grain)
    census_combos: tuple = ()
    shrink = False

    def setup(self, tr) -> None:
        text = data_path("cluster_16node.json").read_text()
        self.cluster = tr.call("model.parse_cluster_spec", parse_cluster_spec, text)
        self.model_specs = {}
        for name in self.models:
            text = data_path(f"{name}.json").read_text()
            self.model_specs[name] = tr.call(
                "model.parse_model_spec", parse_model_spec, text
            )

    @property
    def cycle_length(self) -> int:
        return len(self.combos)

    def ops(self) -> Iterator[PlanOp]:
        """Each op kind draws its FP16-table and AlltoAll-precision flags
        once, so that its repeats time the same inputs."""
        rng = _rng(self.seed, self.stream, 0)
        ops = tuple(
            PlanOp(
                model,
                nodes,
                placement,
                fine_grain,
                fp16_tables=bool(rng.integers(2)),
                a2a=A2A_PRECISIONS[int(rng.integers(len(A2A_PRECISIONS)))],
            )
            for model, nodes, placement, fine_grain in self.combos
        )
        yield from _cycles(rng, ops)

    def census(self) -> list[PlanOp]:
        return [
            PlanOp(model, 16, placement, fine_grain, True, A2A_PRECISIONS[0])
            for model, placement, fine_grain in self.census_combos
        ]

    def run_op(self, op: PlanOp, tr) -> OpResult:
        model = self.model_specs[op.model]
        cluster = dataclasses.replace(self.cluster, num_nodes=op.nodes)
        flags = CompressionFlags(
            table_precision=Precision.FP16 if op.fp16_tables else None,
            rowwise_optimizer=True,
        )
        policy = CandidatePolicy(fine_grain=op.fine_grain, flags=flags)
        if self.shrink:
            model = tr.call("perf.shrink_to_fit", shrink_to_fit, model, cluster, flags)
        if op.placement == "hierarchical":
            plan = tr.call(
                "planner.hierarchical_plan",
                hierarchical_plan,
                model,
                cluster,
                CostWeights(),
                policy,
            )
        else:
            plan = tr.call(
                "planner.plan_4d",
                plan_4d,
                model,
                cluster,
                CostWeights(),
                policy,
                heuristic=op.placement,
            )
        text = tr.call("planner.plan_to_json", plan_to_json, plan, model, cluster, flags)
        result = tr.call(
            "perf.simulate",
            simulate,
            model,
            cluster,
            plan,
            cache_hit_rate=HIT_RATE,
            a2a_fwd_precision=op.a2a[0],
            a2a_bwd_precision=op.a2a[1],
            flags=flags,
        )
        # output check: a valid plan, feasible in memory, with a finite estimate
        tr.call("planner.validate_plan", validate_plan, plan, model)
        report = tr.call("planner.memory_check", memory_check, plan, model, cluster, flags)
        est = result.estimate
        problems = []
        if not report.feasible:
            problems.append("plan fails the memory check")
        if not (math.isfinite(est.qps) and est.qps > 0):
            problems.append(f"estimate qps {est.qps!r}")
        counts = dict.fromkeys(SCHEME_COUNTS, 0)
        for a in plan.assignments:
            counts["hierarchical" if a.scheme.hierarchical else a.scheme.kind.value] += 1
        return OpResult(
            ok=not problems,
            digests={
                "plan_json": _sha(text),
                "simulate_estimate": _sha(
                    json.dumps(dataclasses.asdict(est), sort_keys=True)
                ),
            },
            problem="; ".join(problems),
            info={
                "shards": sum(len(a.shards) for a in plan.assignments),
                "tables": len(plan.assignments),
                "schemes": counts,
                "qps": est.qps,
                "label": op.label,
            },
            ctx=(model, cluster, plan, policy, flags),
        )

    def stages(self, op: PlanOp, result: OpResult, tr) -> dict:
        model, cluster, plan, policy, flags = result.ctx
        W = cluster.num_workers
        global_batch = model.local_batch * W
        tables = {t.id: t for t in model.tables}
        if op.placement == "hierarchical":
            # the table-to-node split hierarchical_plan makes, by access load
            tw = Scheme(SchemeKind.TABLE_WISE)
            items = [
                (t.id, shard_cost(t, tw, cluster, global_batch).load)
                for t in model.tables
            ]
            tr.call(
                "planner.karmarkar_karp_partition",
                karmarkar_karp_partition,
                items,
                cluster.num_nodes,
            )
        else:
            tr.call("planner.candidate_costs", candidate_costs, model, cluster, policy)
            # the chosen plan's placed shards, weighted by access load
            items = []
            for a in plan.assignments:
                if a.scheme.kind is SchemeKind.DATA_PARALLEL:
                    continue
                load = shard_cost(tables[a.table_id], a.scheme, cluster, global_batch).load
                items.extend((f"{a.table_id}#{i}", load) for i in range(len(a.shards)))
            partition = greedy_partition if op.placement == "greedy" else karmarkar_karp_partition
            tr.call(f"planner.{partition.__name__}", partition, items, W)
        tr.call("comms.volume_forward_alltoall", volume_forward_alltoall, plan, model, W)
        tr.call(
            "comms.volume_gradient_collectives", volume_gradient_collectives, plan, model, W
        )
        tr.call("comms.volume_input_alltoall", volume_input_alltoall, plan, model, W)
        tr.call(
            "perf.component_latencies",
            component_latencies,
            model,
            plan,
            cluster,
            cache_hit_rate=HIT_RATE,
            a2a_fwd_precision=op.a2a[0],
            a2a_bwd_precision=op.a2a[1],
            flags=flags,
        )
        return {}

    def census_metrics(self, results: list[OpResult], checks: dict) -> dict[str, float]:
        out = {
            "planner.shards_placed": sum(r.info["shards"] for r in results),
            "planner.tables_placed": sum(r.info["tables"] for r in results),
        }
        for kind in SCHEME_COUNTS:
            out[f"planner.tables.{kind}"] = sum(r.info["schemes"][kind] for r in results)
        for r in results:
            out[f"perf.modeled_qps.{r.info['label']}"] = r.info["qps"]
        return out


class PlanModelA(PlanWorkload):
    name = "plan_model_a"
    stream = 1
    models = ("model_a",)
    shrink = True  # weak scaling: the table rows shrink to fit small clusters
    combos = tuple(
        ("model_a", n, placement, False)
        for n in (1, 2, 4, 8, 16)
        for placement in ("greedy", "kk", "hierarchical")
    )
    census_combos = (
        ("model_a", "greedy", False),
        ("model_a", "kk", False),
        ("model_a", "hierarchical", False),
    )


class PlanFewTables(PlanWorkload):
    name = "plan_few_tables"
    stream = 2
    models = ("model_f", "model_i")
    # model_f's hierarchical placement is infeasible by design, so it stays
    # out of the mix.
    combos = (
        ("model_f", 16, "greedy", False),
        ("model_f", 16, "kk", False),
        ("model_f", 16, "greedy", True),
        ("model_f", 16, "kk", True),
        ("model_i", 16, "greedy", False),
        ("model_i", 16, "kk", False),
        ("model_i", 16, "hierarchical", False),
    )
    # the fine_grain modeled QPS is that of greedy placement, as in the ROADMAP
    census_combos = tuple(
        (m, p, fine) for m, _, p, fine in combos if not (fine and p == "kk")
    )


# ---------------------------------------------------------------------------
# sharded-vs-reference execution


@dataclass(frozen=True)
class VerifyOp:
    workers: int
    gpus_per_node: int
    optimizer: OptimizerKind
    batch: int  # index into the batches generated at setup
    init_seed: int
    plan: ShardingPlan

    @property
    def op_kind(self) -> tuple:
        return (self.workers, self.gpus_per_node, self.optimizer.value)


VERIFY_LAYOUTS = ((1, 1), (2, 2), (2, 1), (8, 8), (8, 4))  # (workers, gpus per node)
OPTIMIZERS = (OptimizerKind.SGD, OptimizerKind.ROWWISE_ADAGRAD, OptimizerKind.ADAGRAD)
# The global batch is the same for every W, so op cost barely depends on W.
# Batch and table size keep an op near 100 ms, so that every op kind repeats
# often enough in a run for its typical time to be steady; np.add.at pooling
# and aggregation stay about half of an op.
GLOBAL_BATCH = 128
NUM_BATCHES = 3
PARAMS_PER_TABLE = 20_000  # 12 tables stay well under verify's 1e6-parameter limit
# (dim, pooling, Zipf skew) per table. The pairing is fixed so that every seed
# does the same pooled work (sum of dim x pooling); the seed orders the tables
# and picks which six store FP16.
DESK_TABLES = (
    (64, 1, False),
    (8, 2, True),
    (32, 3, False),
    (16, 5, True),
    (64, 8, False),
    (4, 10, True),
    (32, 15, False),
    (16, 20, True),
    (8, 25, False),
    (64, 30, True),
    (16, 35, False),
    (32, 40, True),
)
DESK_ZIPF_ALPHA = 1.05


def draw_desk_model_doc(rng: np.random.Generator) -> dict:
    """12 tables mixing uniform and Zipf skew, FP16 and FP32 storage, and
    pooling from 1 to 40."""
    order = rng.permutation(len(DESK_TABLES))
    fp16 = rng.permutation([True] * 6 + [False] * 6)
    tables = []
    for i, t in enumerate(order):
        dim, pooling, zipf = DESK_TABLES[int(t)]
        tables.append(
            {
                "id": f"desk{i}",
                "num_rows": PARAMS_PER_TABLE // dim,
                "dim": dim,
                "avg_pooling": float(pooling),
                "value_precision": "FP16" if fp16[i] else "FP32",
                "index_skew": (
                    {"kind": "zipf", "alpha": DESK_ZIPF_ALPHA}
                    if zipf
                    else {"kind": "uniform"}
                ),
            }
        )
    return {"spec_version": 1, "mflops_per_sample": 1, "tables": tables}


def draw_plan(rng, model, workers: int, gpus_per_node: int) -> ShardingPlan:
    """A seeded scheme per table, built the way acceptance criterion 5 builds
    its plans. Every scheme the layout allows goes to the same number of
    tables (give or take one), so memory and work vary little between plans."""
    kinds = ["table_wise", "data_parallel", "column_wise"]
    if workers >= 2:
        kinds.append("row_wise")
    if workers > gpus_per_node:
        kinds.append("hierarchical")
    picks = [kinds[i % len(kinds)] for i in rng.permutation(len(model.tables))]
    assignments = []
    for table, kind in zip(model.tables, picks):
        start = int(rng.integers(workers))
        if kind == "table_wise":
            scheme = Scheme(SchemeKind.TABLE_WISE)
            shards = (Shard(worker=start),)
        elif kind == "data_parallel":
            scheme = Scheme(SchemeKind.DATA_PARALLEL)
            shards = (Shard(worker=None),)
        elif kind == "column_wise":
            half = table.dim // 2
            splits = ((0, half), (half, table.dim))
            scheme = Scheme(SchemeKind.COLUMN_WISE, col_splits=splits)
            shards = tuple(
                Shard(worker=(start + i) % workers, cols=s) for i, s in enumerate(splits)
            )
        elif kind == "row_wise":
            k = int(rng.integers(2, min(workers, table.num_rows) + 1))
            scheme = Scheme(SchemeKind.ROW_WISE, num_row_shards=k)
            shards = tuple(
                Shard(worker=(start + i) % workers, rows=b)
                for i, b in enumerate(even_bounds(table.num_rows, k))
            )
        else:  # hierarchical: one node, row-wise across its GPUs
            node = int(rng.integers(workers // gpus_per_node))
            k = min(gpus_per_node, table.num_rows)
            scheme = Scheme(
                SchemeKind.ROW_WISE,
                num_row_shards=k,
                hierarchical=(SchemeKind.TABLE_WISE, SchemeKind.ROW_WISE),
            )
            shards = tuple(
                Shard(worker=node * gpus_per_node + i % gpus_per_node, rows=b)
                for i, b in enumerate(even_bounds(table.num_rows, k))
            )
        assignments.append(TableAssignment(table.id, scheme, shards))
    return ShardingPlan(workers, gpus_per_node, tuple(assignments))


class VerifyDesk(Workload):
    """train_step_reference, train_step_sharded, reassemble_values, compare."""

    name = "verify_desk"
    stream = 3

    def setup(self, tr) -> None:
        rng = _rng(self.seed, self.stream, 1)
        doc = draw_desk_model_doc(rng)
        self.models = {}
        for workers in sorted({w for w, _ in VERIFY_LAYOUTS}):
            text = json.dumps({**doc, "local_batch": GLOBAL_BATCH // workers})
            self.models[workers] = tr.call("model.parse_model_spec", parse_model_spec, text)
        batch_seeds = rng.integers(2**31, size=NUM_BATCHES)
        self.batches = [
            tr.call(
                "model.gen_synthetic_batch",
                gen_synthetic_batch,
                self.models[1],
                GLOBAL_BATCH,
                int(s),
            )
            for s in batch_seeds
        ]

    @property
    def cycle_length(self) -> int:
        return len(VERIFY_LAYOUTS) * len(OPTIMIZERS)

    def _op(self, rng, workers, gpus_per_node, optimizer) -> VerifyOp:
        return VerifyOp(
            workers,
            gpus_per_node,
            optimizer,
            batch=int(rng.integers(NUM_BATCHES)),
            init_seed=int(rng.integers(2**31)),
            plan=draw_plan(rng, self.models[workers], workers, gpus_per_node),
        )

    def ops(self) -> Iterator[VerifyOp]:
        """Each op kind draws its plan, batch and initial values once, so
        that its repeats time the same inputs."""
        rng = _rng(self.seed, self.stream, 0)
        combos = tuple(
            self._op(rng, w, g, o) for w, g in VERIFY_LAYOUTS for o in OPTIMIZERS
        )
        yield from _cycles(rng, combos)

    def census(self) -> list[VerifyOp]:
        rng = _rng(self.seed, self.stream, 2)
        return [
            self._op(rng, 1, 1, OptimizerKind.SGD),
            self._op(rng, 2, 1, OptimizerKind.ROWWISE_ADAGRAD),
            self._op(rng, 8, 4, OptimizerKind.ADAGRAD),
        ]

    def run_op(self, op: VerifyOp, tr) -> OpResult:
        model = self.models[op.workers]
        batch = self.batches[op.batch]
        cfg = OptimizerConfig(kind=op.optimizer, lr=0.05, eps=1e-8)
        ref_out, ref_tables = tr.call(
            "embedding.train_step_reference",
            train_step_reference,
            model,
            batch,
            cfg,
            seed=op.init_seed,
        )
        sh_out, state = tr.call(
            "comms.train_step_sharded",
            train_step_sharded,
            model,
            op.plan,
            batch,
            cfg,
            seed=op.init_seed,
        )
        values = tr.call("comms.reassemble_values", reassemble_values, model, op.plan, state)
        return check_verify(ref_out, ref_tables, sh_out, values, op.workers)

    def stages(self, op: VerifyOp, result: OpResult, tr) -> dict:
        model = self.models[op.workers]
        batch = self.batches[op.batch]
        cfg = OptimizerConfig(kind=op.optimizer, lr=0.05, eps=1e-8)
        tables = tr.call("embedding.build_tables", build_tables, model, cfg, op.init_seed)
        tr.call("embedding.fused_forward", fused_forward, tables, batch)
        for t, table in enumerate(tables):
            lengths, indices = batch.table_slice(t)
            upstream = np.ones((batch.num_samples, table.dim), dtype=np.float64)
            tr.call(
                "embedding.fused_backward_update",
                fused_backward_update,
                table,
                lengths,
                indices,
                upstream,
                cfg,
            )
        slices = tr.call(
            "comms.alltoall_redistribute",
            alltoall_redistribute,
            to_wtb(batch, op.workers),
            op.plan,
            model,
        )
        return {
            "redistributed_indices": sum(
                len(si.indices) for ws in slices for si in ws.inputs
            )
        }

    def census_metrics(self, results: list[OpResult], checks: dict) -> dict[str, float]:
        indices = unique = 0
        for op in self.census():
            batch = self.batches[op.batch]
            indices += len(batch.indices)
            unique += sum(
                len(np.unique(batch.table_slice(t)[1])) for t in range(batch.num_tables)
            )
        return {
            "embedding.indices": indices,
            "embedding.unique_rows": unique,
            "embedding.unique_row_ratio": unique / indices,
            "comms.redistributed_indices": sum(
                r.info["redistributed_indices"] for r in results
            ),
            "verify.max_deviation": max(r.info["max_deviation"] for r in results),
        }


def check_verify(ref_out, ref_tables, sh_out, values, workers: int) -> OpResult:
    """Sharded outputs and post-step tables must match the single-worker
    reference within 1e-9, and bit for bit when W = 1."""
    deviation = float(np.max(np.abs(ref_out - sh_out))) if ref_out.size else 0.0
    bitwise = np.array_equal(ref_out, sh_out)
    if len(values) != len(ref_tables):
        return OpResult(False, {}, f"{len(values)} tables back, {len(ref_tables)} expected")
    for ref, got in zip(ref_tables, values):
        deviation = max(deviation, float(np.max(np.abs(ref.values - got))))
        bitwise = bitwise and np.array_equal(ref.values, got)
    problems = []
    if not deviation <= VERIFY_TOLERANCE:
        problems.append(f"max deviation {deviation:.3e} > {VERIFY_TOLERANCE:.0e}")
    if workers == 1 and not bitwise:
        problems.append("W=1 result is not bitwise equal to the reference")
    return OpResult(
        ok=not problems,
        digests={"reference_outputs": _sha(np.ascontiguousarray(ref_out).tobytes())},
        problem="; ".join(problems),
        info={"max_deviation": deviation},
    )


# ---------------------------------------------------------------------------
# software cache replay


@dataclass(frozen=True)
class CacheOp:
    policy: ReplacementPolicy
    kind: str  # "hot": working set inside the cache, "cold": far beyond it
    trace: int

    @property
    def op_kind(self) -> tuple:
        return (self.policy.value, self.kind, self.trace)


CACHE_SETS, CACHE_WAYS = 64, 32  # 2048 lines
# (rows, Zipf exponent, trace length, traces). A miss costs about four hits,
# so hot traces are four times longer and every op takes about as long. The
# traces are short, so that every op kind repeats often in a run and its
# typical time is steady.
CACHE_TRACES = {
    "hot": (1024, 1.05, 16_000, 2),
    "cold": (1 << 20, 0.8, 8_000, 1),
}
SCAN_HOT_GEOMETRY = (4, 8)  # the sets and ways make_scan_hot_trace targets


class CacheZipf(Workload):
    """simulate_trace over Zipf row-id traces generated at setup."""

    name = "cache_zipf"
    stream = 4

    def setup(self, tr) -> None:
        rng = _rng(self.seed, self.stream, 1)
        self.traces = {}
        for kind, (rows, alpha, length, count) in CACHE_TRACES.items():
            probs = np.arange(1, rows + 1, dtype=np.float64) ** -alpha
            probs /= probs.sum()
            for i in range(count):
                self.traces[(kind, i)] = rng.choice(rows, size=length, p=probs).tolist()
        text = data_path("trace_scan_hot.txt").read_text()
        self.scan_hot = [int(line) for line in text.split()]

    def checks(self, tr) -> dict[str, tuple[bool, float]]:
        """The bundled scan-plus-hot trace favours LFU over LRU."""
        sets, ways = SCAN_HOT_GEOMETRY
        rate = {
            policy: tr.call(
                "cache.simulate_trace",
                simulate_trace,
                CacheConfig(sets, ways, policy),
                self.scan_hot,
            ).hit_rate
            for policy in ReplacementPolicy
        }
        gain = rate[ReplacementPolicy.LFU] - rate[ReplacementPolicy.LRU]
        return {"scan_hot_lfu_beats_lru": (gain > 0, gain)}

    @property
    def cycle_length(self) -> int:
        return len(ReplacementPolicy) * sum(c for *_, c in CACHE_TRACES.values())

    def ops(self) -> Iterator[CacheOp]:
        rng = _rng(self.seed, self.stream, 0)
        combos = tuple(
            CacheOp(policy, kind, i)
            for kind, (*_, count) in CACHE_TRACES.items()
            for i in range(count)
            for policy in ReplacementPolicy
        )
        yield from _cycles(rng, combos)

    def census(self) -> list[CacheOp]:
        return [
            CacheOp(policy, kind, 0) for kind in CACHE_TRACES for policy in ReplacementPolicy
        ]

    def run_op(self, op: CacheOp, tr) -> OpResult:
        trace = self.traces[(op.kind, op.trace)]
        config = CacheConfig(CACHE_SETS, CACHE_WAYS, op.policy)
        stats = tr.call(
            f"cache.simulate_trace.{op.policy.value}.{op.kind}", simulate_trace, config, trace
        )
        ok = stats.hits + stats.misses == len(trace)
        return OpResult(
            ok=ok,
            digests={"cache_stats": _sha(f"{stats.hits},{stats.misses},{stats.evictions}")},
            problem="" if ok else f"hits + misses != {len(trace)} accesses",
            info={"op": op, "stats": stats},
        )

    def census_metrics(self, results: list[OpResult], checks: dict) -> dict[str, float]:
        out = {
            "cache.accesses": sum(r.info["stats"].accesses for r in results),
            "cache.scan_hot_lfu_gain": checks["scan_hot_lfu_beats_lru"][1],
        }
        for r in results:
            op, stats = r.info["op"], r.info["stats"]
            out[f"cache.hit_rate.{op.policy.value}.{op.kind}"] = stats.hit_rate
            out[f"cache.evictions.{op.policy.value}.{op.kind}"] = stats.evictions
        return out


def cache_trace_length(kind: str) -> int:
    return CACHE_TRACES[kind][2]


WORKLOADS = {w.name: w for w in (PlanModelA, PlanFewTables, VerifyDesk, CacheZipf)}
