"""Roofline/overlap performance model.

Component latencies come from calibrated achieved rates (HBM bandwidth, MLP
efficiency, collective bandwidth curves); the iteration latency composes them
with the dependency structure

    T_fwd = max(botmlp_fwd, emb_lookup + a2a_fwd) + interaction_fwd + topmlp_fwd
    T_bwd = max(topmlp_bwd + interaction_bwd
                 + max(a2a_bwd + emb_update, botmlp_bwd),
                allreduce_top + allreduce_bot)

with the input AlltoAll hidden under the top-MLP forward window and the
host-to-device copy hidden under the double-buffered iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .cache import effective_row_bandwidth
from .comms import CollectiveVolume, LENGTH_BYTES, collective_volumes
from .errors import Infeasible, InvalidValue
from .model import ClusterSpec, ModelSpec, Precision, mlp_param_bytes
from .planner import (
    DP,
    HBM,
    INFEASIBLE,
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    ShardingPlan,
    _bins,
    _check_cluster_layout,
    _plan_tables,
    _value_bytes,
    memory_check,
    plan_4d,
    table_bytes,
)


def achieved_bw(points: Sequence[tuple[float, float]], message_bytes: float) -> float:
    """Log-linear interpolation of achieved bandwidth over message size,
    clamped at the calibration end points."""
    if not points:
        raise InvalidValue("points", "at least one calibration point required")
    if message_bytes <= points[0][0]:
        return points[0][1]
    if message_bytes >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= message_bytes <= x1:
            t = (math.log(message_bytes) - math.log(x0)) / (math.log(x1) - math.log(x0))
            return y0 * (y1 / y0) ** t
    raise AssertionError("unreachable: points are sorted")


@dataclass(frozen=True)
class ComponentLatencies:
    """Serialized per-component seconds, one field per dependency-graph node."""

    botmlp_fwd: float = 0.0
    emb_lookup: float = 0.0
    a2a_fwd: float = 0.0
    interaction_fwd: float = 0.0
    topmlp_fwd: float = 0.0
    topmlp_bwd: float = 0.0
    interaction_bwd: float = 0.0
    a2a_bwd: float = 0.0
    emb_update: float = 0.0
    botmlp_bwd: float = 0.0
    allreduce_top: float = 0.0
    allreduce_bot: float = 0.0
    input_a2a: float = 0.0
    h2d: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise InvalidValue(f.name, "must be >= 0")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PerfEstimate:
    components: ComponentLatencies
    t_fwd: float
    t_bwd: float
    t_total: float
    qps: float
    serialized_total: float
    exposed_comm: float
    global_batch: int


def _critical_path(
    botmlp_fwd, emb_lookup, a2a_fwd, interaction_fwd, topmlp_fwd, topmlp_bwd,
    interaction_bwd, a2a_bwd, emb_update, botmlp_bwd, allreduce_top,
    allreduce_bot, input_a2a, h2d,
) -> tuple[float, float, float]:
    """(t_fwd, t_bwd, t_total) of component seconds, named as the fields of
    ComponentLatencies."""
    t_fwd = max(botmlp_fwd, emb_lookup + a2a_fwd) + interaction_fwd + topmlp_fwd
    t_bwd = max(
        topmlp_bwd + interaction_bwd + max(a2a_bwd + emb_update, botmlp_bwd),
        allreduce_top + allreduce_bot,
    )
    core = t_fwd + t_bwd
    exposed_input = max(0.0, input_a2a - topmlp_fwd)
    exposed_h2d = max(0.0, h2d - core)
    return t_fwd, t_bwd, core + exposed_input + exposed_h2d


def iteration_latency(c: ComponentLatencies, global_batch: int) -> PerfEstimate:
    """Compose component latencies into the per-iteration estimate.

    exposed_comm is the slowdown over the pure-compute critical path; the
    input AlltoAll beyond the top-MLP forward window and the H2D copy beyond
    one full iteration surface as additional exposed time. An iteration of
    no time has no QPS: it raises InvalidValue.
    """
    times = c.as_dict()
    t_fwd, t_bwd, t_total = _critical_path(**times)
    if not t_total > 0:
        raise InvalidValue("components", "QPS is undefined for an iteration with no work")
    compute_only = (
        max(c.botmlp_fwd, c.emb_lookup)
        + c.interaction_fwd
        + c.topmlp_fwd
        + c.topmlp_bwd
        + c.interaction_bwd
        + max(c.emb_update, c.botmlp_bwd)
    )
    return PerfEstimate(
        components=c,
        t_fwd=t_fwd,
        t_bwd=t_bwd,
        t_total=t_total,
        qps=global_batch / t_total,
        serialized_total=sum(times.values()),
        exposed_comm=t_total - compute_only,
        global_batch=global_batch,
    )


def exposed_breakdown(c: ComponentLatencies) -> dict[str, dict[str, float]]:
    """Serialized vs exposed seconds per component; exposure is the marginal
    increase of t_total over running with that component zeroed."""
    times = c.as_dict()
    base = _critical_path(**times)[2]
    return {
        name: {
            "serialized": serialized,
            "exposed": base - _critical_path(**{**times, name: 0.0})[2],
        }
        for name, serialized in times.items()
    }


# ---------------------------------------------------------------------------
# component latencies from a plan


def _dense_flop_split(model: ModelSpec) -> tuple[float, float, float]:
    """(bottom MLP, interaction, top MLP) forward FLOPs per sample."""
    if model.bottom_mlp_layers or model.top_mlp_layers:
        return (
            model.bottom_mlp_flops_per_sample,
            model.interaction_flops_per_sample,
            model.top_mlp_flops_per_sample,
        )
    mlp_total = max(model.mflops_per_sample * 1e6 - model.interaction_flops_per_sample, 0.0)
    return mlp_total / 2, model.interaction_flops_per_sample, mlp_total / 2


def _remote_fraction(num_workers: int, gpus_per_node: int) -> float:
    if num_workers <= gpus_per_node or num_workers < 2:
        return 0.0
    return (num_workers - gpus_per_node) / (num_workers - 1)


def _collective_time(
    max_bytes: float,
    remote_fraction: float,
    points,
    scaleup_bw: float,
    fixed: float,
    messages: int,
) -> float:
    """Straggler worker's time: remote share over the achieved-bandwidth
    curve, local share over the scale-up fabric, plus fixed latency per
    message. Zero-volume collectives never launch."""
    if max_bytes <= 0:
        return 0.0
    remote = max_bytes * remote_fraction
    local = max_bytes - remote
    t = local / scaleup_bw
    if remote > 0:
        t += remote / achieved_bw(points, remote)
    return t + fixed * messages


def _pooled_exchange_time(
    pooled: CollectiveVolume,
    row_wise: Optional[CollectiveVolume],
    remote_fraction: float,
    cluster: ClusterSpec,
) -> float:
    """Pooled AlltoAll, then the row-wise partial-pool exchange that rides
    with it: the flat share crosses scale-out at the remote fraction, the
    scale-up share (hierarchical shards, reduced inside one node) stays on
    the scale-up fabric. Each part is its own collective."""
    points = cluster.alltoall_bw_points
    bw = cluster.scaleup_bw
    fixed = cluster.fixed_latency_per_collective
    t = _collective_time(pooled.max_bytes, remote_fraction, points, bw, fixed, 1)
    if row_wise is not None:
        send, scaleup = row_wise.per_worker_send_bytes, row_wise.scaleup_bytes
        flat = float((send - scaleup).max())
        t += _collective_time(flat, remote_fraction, points, bw, fixed, 1)
        t += _collective_time(float(scaleup.max()), 0.0, points, bw, fixed, 1)
    return t


def component_latencies(
    model: ModelSpec,
    plan: ShardingPlan,
    cluster: ClusterSpec,
    cache_hit_rate: float = 0.9,
    a2a_fwd_precision: Precision = Precision.FP32,
    a2a_bwd_precision: Precision = Precision.FP32,
    flags: CompressionFlags = CompressionFlags(),
) -> ComponentLatencies:
    """Calibrated per-component latencies for one training iteration, at
    TF32 compute (simulate takes the compute precision).

    MLP terms divide layer FLOPs by peak x mlp_efficiency; embedding terms
    divide shard bytes touched by the effective row bandwidth of the worker's
    memory tier; collective terms divide the straggler's volume, from
    comms.collective_volumes at the given AlltoAll precisions, by the
    achieved bandwidth for its message size. Model-parallel terms take the
    max over workers.
    """
    volumes = collective_volumes(plan, model, a2a_fwd_precision, a2a_bwd_precision)
    return _component_latencies(
        model, plan, cluster, cache_hit_rate, Precision.TF32, flags, volumes
    )


def _component_latencies(
    model, plan, cluster, cache_hit_rate, compute_precision, flags, volumes
) -> ComponentLatencies:
    """component_latencies at `compute_precision`, over the volumes that
    comms.collective_volumes built."""
    _check_cluster_layout(plan.num_workers, plan.gpus_per_node, cluster)
    if not 0 <= cache_hit_rate <= 1:
        raise InvalidValue("cache_hit_rate", "must be in [0, 1]")
    W = cluster.num_workers
    B = model.local_batch
    global_batch = B * W
    if compute_precision.value not in cluster.peak_flops:
        raise Infeasible(f"cluster lists no peak rate for {compute_precision.value}")
    rate = cluster.peak_flops[compute_precision.value] * cluster.mlp_efficiency
    bot_flops, inter_flops, top_flops = _dense_flop_split(model)
    botmlp_fwd = bot_flops * B / rate
    topmlp_fwd = top_flops * B / rate
    interaction_fwd = inter_flops * B / rate

    # memory tier per worker decides the effective embedding bandwidth
    tier = memory_check(plan, model, cluster, flags).tier
    infeasible = tier == INFEASIBLE
    if infeasible.any():
        raise Infeasible(f"worker {infeasible.argmax()} exceeds its memory budget")
    in_hbm = tier == HBM
    worker_bw = np.full(W, cluster.hbm_bw, np.float64)
    if not in_hbm.all():
        worker_bw[~in_hbm] = effective_row_bandwidth(
            cache_hit_rate, cluster.hbm_bw, cluster.dram_to_gpu_bw
        )
    cols = plan.shard_columns
    tc = model.table_columns
    t = _plan_tables(plan, model)
    elem = _value_bytes(tc, flags)[t]
    pooling = tc.pooling[t]
    width = cols.extents("cols", tc.dim[t])
    placed = global_batch * pooling * cols.row_share() * width * elem
    replica = B * pooling * tc.dim[t] * elem  # on every worker
    lookup_bytes = cols.per_worker(np.where(cols.kind == DP, replica, placed), W)
    emb_lookup = float((lookup_bytes / worker_bw).max(initial=0.0))
    # update re-reads and writes back the touched rows
    emb_update = float((2.0 * lookup_bytes / worker_bw).max(initial=0.0))

    fixed = cluster.fixed_latency_per_collective
    remote_frac = _remote_fraction(W, cluster.gpus_per_node)
    by_label = {v.label: v for v in volumes}
    a2a_fwd = _pooled_exchange_time(
        by_label["pooled_a2a_fwd"], by_label.get("rw_reduce_scatter_fwd"),
        remote_frac, cluster,
    )
    a2a_bwd = _pooled_exchange_time(
        by_label["pooled_a2a_bwd"], by_label.get("rw_gather_bwd"),
        remote_frac, cluster,
    )
    dp_vol = by_label.get("dp_table_allreduce")
    dp_allreduce_bytes = 0.0 if dp_vol is None else dp_vol.max_bytes

    ar_frac = 1.0 if W > cluster.gpus_per_node else 0.0
    dense_bot, dense_top = _dense_allreduce_split(model)
    scale = 2 * (W - 1) / W
    allreduce_top = _collective_time(
        scale * dense_top, ar_frac, cluster.allreduce_bw_points,
        cluster.scaleup_bw, fixed, 1,
    )
    allreduce_bot = _collective_time(
        scale * dense_bot + dp_allreduce_bytes, ar_frac, cluster.allreduce_bw_points,
        cluster.scaleup_bw, fixed, 1,
    )

    input_vol = by_label["input_a2a"]
    input_bytes = float(
        (input_vol.per_worker_send_bytes + input_vol.metadata_bytes).max(initial=0.0)
    )
    input_a2a = _collective_time(
        input_bytes, remote_frac, cluster.alltoall_bw_points,
        cluster.scaleup_bw, fixed, input_vol.message_count,
    )

    index_bytes = (tc.pooling * tc.index_bytes + LENGTH_BYTES).tolist()
    h2d_bytes = B * sum(index_bytes) + B * model.dense_input_dim * 4
    h2d = h2d_bytes / cluster.dram_to_gpu_bw if h2d_bytes > 0 else 0.0

    return ComponentLatencies(
        botmlp_fwd=botmlp_fwd,
        emb_lookup=emb_lookup,
        a2a_fwd=a2a_fwd,
        interaction_fwd=interaction_fwd,
        topmlp_fwd=topmlp_fwd,
        topmlp_bwd=2 * topmlp_fwd,
        interaction_bwd=2 * interaction_fwd,
        a2a_bwd=a2a_bwd,
        emb_update=emb_update,
        botmlp_bwd=2 * botmlp_fwd,
        allreduce_top=allreduce_top,
        allreduce_bot=allreduce_bot,
        input_a2a=input_a2a,
        h2d=h2d,
    )


def _dense_allreduce_split(model: ModelSpec) -> tuple[float, float]:
    """Split dense_param_bytes into (bottom, top) by layer share."""
    bot = mlp_param_bytes(model.bottom_mlp_layers)
    top = mlp_param_bytes(model.top_mlp_layers)
    if bot + top == 0:
        half = model.dense_param_bytes / 2
        return half, half
    scale = model.dense_param_bytes / (bot + top)
    return bot * scale, top * scale


def effective_performance(mflops_per_sample: float, qps: float) -> float:
    """Model complexity x throughput, in FLOPS/s."""
    if not mflops_per_sample > 0 or not qps > 0:
        raise InvalidValue("effective_performance", "inputs must be > 0")
    return mflops_per_sample * 1e6 * qps


# ---------------------------------------------------------------------------
# end-to-end simulation and scaling sweeps


@dataclass(frozen=True)
class SimulationResult:
    estimate: PerfEstimate
    volumes: tuple[CollectiveVolume, ...]
    breakdown: dict[str, dict[str, float]]


def simulate(
    model: ModelSpec,
    cluster: ClusterSpec,
    plan: ShardingPlan,
    cache_hit_rate: float = 0.9,
    compute_precision: Precision = Precision.TF32,
    a2a_fwd_precision: Precision = Precision.FP32,
    a2a_bwd_precision: Precision = Precision.FP32,
    flags: CompressionFlags = CompressionFlags(),
) -> SimulationResult:
    volumes = collective_volumes(plan, model, a2a_fwd_precision, a2a_bwd_precision)
    comps = _component_latencies(
        model, plan, cluster, cache_hit_rate, compute_precision, flags, volumes
    )
    global_batch = model.local_batch * cluster.num_workers
    estimate = iteration_latency(comps, global_batch)
    return SimulationResult(
        estimate=estimate,
        volumes=tuple(volumes),
        breakdown=exposed_breakdown(comps),
    )


def shrink_to_fit(
    model: ModelSpec, cluster: ClusterSpec, flags: CompressionFlags
) -> ModelSpec:
    """Scale table cardinality down until the heaviest worker fits in HBM.

    Mirrors the shrunk-model methodology for small node counts: inputs hash
    into the reduced row space, leaving per-iteration access volumes (and so
    the performance character) unchanged. The heaviest worker is estimated by
    greedy placement of whole tables by bytes, with 10% headroom: above 0.9 x
    HBM, table i keeps max(1, floor(H_i * budget / heaviest)) rows.

    The model is returned unpartitioned when S / W + the largest table (S the
    exact int total of T tables) is within budget / (1 + 4Tu), u = 2**-53:
    greedy puts each table on a bin no heavier than the mean of all bins
    before it, so no bin ends above S / W + the largest. The heap's and the
    compared float sums stray from the exact ones by a factor within 1 +- g,
    g = Tu / (1 - Tu), and (1 + g)**2 / (1 - g) < 1 + 4Tu for T < 2**40.
    """
    if not model.num_tables:
        return model
    per_table = table_bytes(model.table_columns, flags)
    W, T = cluster.num_workers, len(per_table)
    budget = 0.9 * cluster.hbm_capacity_per_gpu
    num, den = budget.as_integer_ratio()
    bound = sum(per_table.tolist()) + W * int(per_table.max())  # W x (S / W + largest)
    if bound * (2**53 + 4 * T) * den <= W * 2**53 * num:
        return model
    worker = _bins(per_table, W, "greedy")
    # per-worker sums in table order from 0.0
    heaviest = float(np.bincount(worker, weights=per_table, minlength=W).max())
    if heaviest <= budget:
        return model
    factor = budget / heaviest
    return model._with_rows(np.maximum(1.0, np.trunc(model.table_columns.rows * factor)))


@dataclass(frozen=True)
class SweepEntry:
    nodes: int
    workers: int
    qps: Optional[float]
    efficiency: Optional[float]
    estimate: Optional[PerfEstimate]
    error: Optional[str] = None


def scaling_sweep(
    model: ModelSpec,
    cluster_template: ClusterSpec,
    node_counts: Sequence[int],
    weights: CostWeights = CostWeights(),
    policy: CandidatePolicy = CandidatePolicy(),
    heuristic: str = "greedy",
    cache_hit_rate: float = 0.9,
    compute_precision: Precision = Precision.TF32,
    a2a_fwd_precision: Precision = Precision.FP32,
    a2a_bwd_precision: Precision = Precision.FP32,
) -> list[SweepEntry]:
    """Weak-scaling sweep: per-GPU batch fixed, re-planned at every scale,
    each scale's tables shrunk to fit (shrink_to_fit).

    Efficiency is per-worker throughput relative to the smallest node count.
    Infeasible scales are reported per entry rather than raised.
    """
    if list(node_counts) != sorted(node_counts) or len(set(node_counts)) != len(
        node_counts
    ):
        raise InvalidValue("node_counts", "must be strictly ascending")
    entries: list[SweepEntry] = []
    baseline: Optional[tuple[int, float]] = None  # (workers, qps)
    for n in node_counts:
        cluster = replace(cluster_template, num_nodes=n)
        scale_model = shrink_to_fit(model, cluster, policy.flags)
        try:
            plan = plan_4d(scale_model, cluster, weights, policy, heuristic)
            result = simulate(
                scale_model,
                cluster,
                plan,
                cache_hit_rate=cache_hit_rate,
                compute_precision=compute_precision,
                a2a_fwd_precision=a2a_fwd_precision,
                a2a_bwd_precision=a2a_bwd_precision,
                flags=policy.flags,
            )
        except Infeasible as exc:
            entries.append(
                SweepEntry(n, cluster.num_workers, None, None, None, str(exc))
            )
            continue
        qps = result.estimate.qps
        if baseline is None:
            baseline = (cluster.num_workers, qps)
        efficiency = (qps / cluster.num_workers) / (baseline[1] / baseline[0])
        entries.append(
            SweepEntry(
                nodes=n,
                workers=cluster.num_workers,
                qps=qps,
                efficiency=efficiency,
                estimate=result.estimate,
            )
        )
    return entries
