"""Command-line front end: plan, simulate, sweep, verify, cache, report.

Exit codes: 0 ok, 1 input error, 2 infeasible, 3 verification failure.
Every emitted report embeds a run manifest; report bodies are byte-identical
for identical inputs, and for verify the same seed (the timestamp lives only
in the manifest).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .cache import CacheConfig, ReplacementPolicy, simulate_trace
from .comms import reassemble_values, train_step_sharded, volume_forward_alltoall
from .embedding import OptimizerConfig, OptimizerKind, dump_table, train_step_reference
from .errors import Infeasible, InvalidValue, NeosimError
from .model import (
    ClusterSpec,
    ModelSpec,
    Precision,
    _as_dict,
    _as_real,
    gen_synthetic_batch,
    parse_cluster_spec,
    parse_model_spec,
)
from .perf import scaling_sweep, simulate
from .planner import (
    TIERS,
    CandidatePolicy,
    CompressionFlags,
    CostWeights,
    ShardingPlan,
    hierarchical_plan,
    memory_check,
    plan_4d,
    plan_from_json,
    plan_to_json,
    validate_plan,
)

VERIFY_MAX_PARAMS = 10**6
VERIFY_TOLERANCE = 1e-9


def _write(out_dir: str, name: str, text: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(text)
    return target


def _write_report(args, inputs: list, body: dict, seed: Optional[int] = None) -> None:
    """Write `<command>.json`, the body under its run manifest, to --out and
    say where. Keys are sorted, so identical inputs give identical bodies;
    the seed is None for commands that draw no random numbers. A body is
    strict JSON: a non-finite number raises ValueError."""
    manifest = {
        "command": args.command,
        "inputs": {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs if p},
        "seed": seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    text = json.dumps(
        {"manifest": manifest, "body": body}, indent=2, sort_keys=True, allow_nan=False
    )
    written = _write(args.out, f"{args.command}.json", text)
    print(f"report written to {written}")


def _csv(header: list, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _load_model(path: str) -> ModelSpec:
    return parse_model_spec(Path(path).read_text())


def _load_cluster(path: str) -> ClusterSpec:
    return parse_cluster_spec(Path(path).read_text())


def _load_plan(path: str, model: ModelSpec) -> ShardingPlan:
    """The plan document at `path`, validated against the model."""
    plan = plan_from_json(Path(path).read_text())
    validate_plan(plan, model)
    return plan


def _policy_from_args(args) -> CandidatePolicy:
    flags = CompressionFlags(
        table_precision=Precision.FP16 if args.fp16_tables else None,
        rowwise_optimizer=not args.elementwise_state,
    )
    return CandidatePolicy(
        dp_threshold_bytes=args.dp_threshold,
        fine_grain=args.fine_grain,
        flags=flags,
    )


def _weights_from_args(args) -> CostWeights:
    try:
        parts = [float(v) for v in args.weights.split(",")]
    except ValueError:
        raise NeosimError("--weights expects w_comm,w_load,w_lat") from None
    if len(parts) != 3:
        raise NeosimError("--weights expects w_comm,w_load,w_lat")
    return CostWeights(*parts)


def _plan_from_args(args, model: ModelSpec, cluster: ClusterSpec, policy: CandidatePolicy):
    if getattr(args, "plan", None):
        return _load_plan(args.plan, model)
    weights = _weights_from_args(args)
    if args.hierarchical:
        return hierarchical_plan(model, cluster, weights, policy)
    return plan_4d(model, cluster, weights, policy, heuristic=args.heuristic)


# ---------------------------------------------------------------------------
# commands


def cmd_plan(args) -> int:
    model = _load_model(args.model)
    cluster = _load_cluster(args.cluster)
    policy = _policy_from_args(args)
    plan = _plan_from_args(args, model, cluster, policy)
    text = plan_to_json(plan, model, cluster, policy.flags)
    Path(args.out).write_text(text)
    report = memory_check(plan, model, cluster, policy.flags)
    sent = volume_forward_alltoall(plan, model, plan.num_workers).per_worker_send_bytes
    print(f"plan written to {args.out} ({len(plan.shard_columns.table_ids)} tables, "
          f"{plan.num_workers} workers)")
    print(f"{'worker':>6} {'memory_gb':>10} {'tier':>9} {'a2a_send_mb':>12}")
    for w, (total, tier) in enumerate(zip(report.totals.tolist(), report.tier.tolist())):
        print(f"{w:>6} {total / 1e9:>10.2f} {TIERS[tier]:>9} {sent[w] / 1e6:>12.2f}")
    return 0


def _precision(value: str) -> Precision:
    return Precision(value.upper())


def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    cluster = _load_cluster(args.cluster)
    policy = _policy_from_args(args)
    plan = _plan_from_args(args, model, cluster, policy)
    result = simulate(
        model,
        cluster,
        plan,
        cache_hit_rate=args.hit_rate,
        compute_precision=_precision(args.compute_precision),
        a2a_fwd_precision=_precision(args.a2a_fwd_precision),
        a2a_bwd_precision=_precision(args.a2a_bwd_precision),
        flags=policy.flags,
    )
    est = result.estimate
    body = {
        "global_batch": est.global_batch,
        "qps": est.qps,
        "t_fwd_ms": est.t_fwd * 1e3,
        "t_bwd_ms": est.t_bwd * 1e3,
        "t_total_ms": est.t_total * 1e3,
        "serialized_total_ms": est.serialized_total * 1e3,
        "exposed_comm_ms": est.exposed_comm * 1e3,
        "components_ms": {
            name: {
                "serialized": entry["serialized"] * 1e3,
                "exposed": entry["exposed"] * 1e3,
            }
            for name, entry in result.breakdown.items()
        },
        "volumes": [v.to_dict() for v in result.volumes],
    }
    _write_report(args, [args.model, args.cluster, args.plan], body)
    if args.format == "csv":
        _write(args.out, "simulate.csv", _components_csv(body["components_ms"]))
    print(
        f"t_total {est.t_total * 1e3:.3f} ms  qps {est.qps:,.0f}  "
        f"exposed comm {est.exposed_comm * 1e3:.3f} ms"
    )
    return 0


def _components_csv(components: dict) -> str:
    return _csv(
        ["component", "serialized_ms", "exposed_ms"],
        (
            [name, f"{entry['serialized']:.6f}", f"{entry['exposed']:.6f}"]
            for name, entry in components.items()
        ),
    )


def cmd_sweep(args) -> int:
    model = _load_model(args.model)
    cluster = _load_cluster(args.cluster)
    try:
        node_counts = [int(v) for v in args.nodes.split(",")]
    except ValueError:
        raise NeosimError("--nodes expects comma-separated integers") from None
    entries = scaling_sweep(
        model,
        cluster,
        node_counts,
        weights=_weights_from_args(args),
        policy=_policy_from_args(args),
        heuristic=args.heuristic,
        cache_hit_rate=args.hit_rate,
        compute_precision=_precision(args.compute_precision),
        a2a_fwd_precision=_precision(args.a2a_fwd_precision),
        a2a_bwd_precision=_precision(args.a2a_bwd_precision),
    )
    rows = []
    for e in entries:
        rows.append(
            {
                "nodes": e.nodes,
                "workers": e.workers,
                "qps": e.qps,
                "efficiency": e.efficiency,
                "t_total_ms": None if e.estimate is None else e.estimate.t_total * 1e3,
                "exposed_comm_ms": (
                    None if e.estimate is None else e.estimate.exposed_comm * 1e3
                ),
                "serialized_total_ms": (
                    None if e.estimate is None else e.estimate.serialized_total * 1e3
                ),
                "error": e.error,
            }
        )
    body = {"node_counts": node_counts, "entries": rows}
    _write_report(args, [args.model, args.cluster], body)
    if args.format == "csv":
        columns = ["nodes", "workers", "qps", "efficiency", "t_total_ms", "error"]
        table = _csv(columns, ([r[c] for c in columns] for r in rows))
        _write(args.out, "sweep.csv", table)
    for r in rows:
        eff = "-" if r["efficiency"] is None else f"{r['efficiency']:.3f}"
        qps = "-" if r["qps"] is None else f"{r['qps']:,.0f}"
        print(f"nodes {r['nodes']:>3}  qps {qps:>14}  efficiency {eff}" +
              (f"  [{r['error']}]" if r["error"] else ""))
    return 0


def cmd_verify(args) -> int:
    model = _load_model(args.model)
    if model.total_table_params > VERIFY_MAX_PARAMS:
        raise NeosimError(
            f"verify is desk-scale only: {model.total_table_params} parameters "
            f"exceed the {VERIFY_MAX_PARAMS} limit"
        )
    if args.plan:
        plan = _load_plan(args.plan, model)
    else:
        cluster = _desk_cluster(args.workers)
        plan = plan_4d(
            model,
            cluster,
            CostWeights(),
            CandidatePolicy(),
        )
    W = plan.num_workers
    cfg = OptimizerConfig(
        kind=OptimizerKind(args.optimizer), lr=args.lr, eps=args.eps
    )
    batch = gen_synthetic_batch(model, model.local_batch * W, seed=args.seed)
    ref_out, ref_tables = train_step_reference(model, batch, cfg, seed=args.seed)
    sh_out, state = train_step_sharded(model, plan, batch, cfg, seed=args.seed)
    out_dev = _max_deviation(ref_out, sh_out)
    per_table = {
        ref.spec.id: _max_deviation(ref.values, values)
        for ref, values in zip(ref_tables, reassemble_values(model, plan, state))
    }
    worst = float(np.max([out_dev, *per_table.values()]))  # NaN and inf carry through
    passed = worst <= VERIFY_TOLERANCE
    bitwise = W == 1 and out_dev == 0.0 and all(v == 0.0 for v in per_table.values())
    if args.dump_tables:
        dump_dir = Path(args.out) / "tables"
        dump_dir.mkdir(parents=True, exist_ok=True)
        for table in ref_tables:
            with open(dump_dir / f"{table.spec.id}.bin", "wb") as fh:
                dump_table(table, fh)
    body = {
        "workers": W,
        "optimizer": cfg.kind.value,
        "max_output_deviation": _json_number(out_dev),
        "per_table_deviation": {tid: _json_number(dev) for tid, dev in per_table.items()},
        "max_deviation": _json_number(worst),
        "tolerance": VERIFY_TOLERANCE,
        "bitwise": bitwise,
        "passed": passed,
    }
    _write_report(args, [args.model, args.plan], body, args.seed)
    for tid, dev in per_table.items():
        print(f"table {tid}: max deviation {dev:.3e}")
    not_finite = [
        name for name, dev in [("outputs", out_dev), *per_table.items()] if not math.isfinite(dev)
    ]
    if not_finite:
        verdict = f"deviation not finite in {', '.join(not_finite)}"
    else:
        verdict = f"max deviation {worst:.3e}"
    print(f"{'PASS' if passed else 'FAIL'}: {verdict} "
          f"(tolerance {VERIFY_TOLERANCE:.0e}, workers {W})")
    return 0 if passed else 3


def _max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b|, 0.0 if empty. A cell past FP16 range on both sides is
    inf - inf, so NaN, and a NaN anywhere makes the maximum NaN."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - b))) if a.size else 0.0


def _json_number(x: float) -> Optional[float]:
    """`x`, or null for a non-finite value, which strict JSON cannot hold."""
    return x if math.isfinite(x) else None


def _desk_cluster(workers: int) -> ClusterSpec:
    return ClusterSpec(
        num_nodes=1,
        gpus_per_node=workers,
        hbm_capacity_per_gpu=64 * 2**30,
        hbm_bw=1e12,
        dram_capacity_per_node=workers * 256 * 2**30,
        dram_to_gpu_bw=25e9,
        scaleup_bw=300e9,
        scaleout_bw_per_gpu=25e9,
        peak_flops={"FP32": 2e13, "TF32": 1e14, "FP16": 2e14, "BF16": 2e14},
        mlp_efficiency=0.7,
        alltoall_bw_points=((268435456.0, 7e9),),
        allreduce_bw_points=((268435456.0, 6e10),),
        fixed_latency_per_collective=2e-5,
    )


def cmd_cache(args) -> int:
    try:
        trace = [
            int(line)
            for line in Path(args.trace).read_text().splitlines()
            if line.strip()
        ]
    except ValueError as exc:
        raise NeosimError(f"trace must hold one decimal row id per line: {exc}") from None
    config = CacheConfig(
        num_sets=args.sets,
        ways=args.ways,
        policy=ReplacementPolicy(args.policy),
    )
    stats = simulate_trace(config, trace)
    body = {
        "num_sets": args.sets,
        "ways": args.ways,
        "policy": args.policy,
        "accesses": stats.accesses,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "hit_rate": stats.hit_rate,
    }
    _write_report(args, [args.trace], body)
    print(
        f"accesses {stats.accesses}  hits {stats.hits}  misses {stats.misses}  "
        f"evictions {stats.evictions}  hit_rate {stats.hit_rate:.4f}"
    )
    return 0


def cmd_report(args) -> int:
    doc = _as_dict(json.loads(Path(args.input).read_text()), args.input)
    body = _as_dict(doc.get("body", {}), "body")
    if args.format == "json":
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0
    if "components_ms" not in body:
        raise InvalidValue(
            "body.components_ms", "CSV needs a simulate report's components"
        )
    components = _as_dict(body["components_ms"], "body.components_ms")
    for name, entry in components.items():
        path = f"body.components_ms.{name}"
        for key in ("serialized", "exposed"):
            _as_real(_as_dict(entry, path).get(key), f"{path}.{key}")
    print(_components_csv(components), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model spec JSON")
    p.add_argument("--cluster", required=True, help="cluster spec JSON")
    p.add_argument("--out", default=".", help="output directory")


def _add_policy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--heuristic", choices=["greedy", "kk"], default="greedy")
    p.add_argument("--weights", default="1,1,1", help="w_comm,w_load,w_lat")
    p.add_argument("--fine-grain", action="store_true",
                   help="offer row/column sharding even for fitting tables")
    p.add_argument("--fp16-tables", action="store_true",
                   help="account tables at FP16 storage width")
    p.add_argument("--elementwise-state", action="store_true",
                   help="full H x D optimizer state instead of row-wise")
    p.add_argument("--dp-threshold", type=int, default=None,
                   help="max table bytes for data parallelism")


def _add_planner(p: argparse.ArgumentParser) -> None:
    """The policy options and --hierarchical, which sweep lacks: scaling_sweep
    plans every node count with plan_4d."""
    _add_policy(p)
    p.add_argument("--hierarchical", action="store_true",
                   help="table-wise across nodes, then row-wise within")


def _add_sim(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--hit-rate", type=float, default=0.9,
                   help="software cache hit rate for DRAM-tier workers")
    p.add_argument("--compute-precision", default="tf32",
                   choices=["fp32", "tf32", "fp16", "bf16"])
    p.add_argument("--a2a-fwd-precision", default="fp32",
                   choices=["fp32", "tf32", "fp16", "bf16"])
    p.add_argument("--a2a-bwd-precision", default="fp32",
                   choices=["fp32", "tf32", "fp16", "bf16"])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on a usage error, which here means infeasible
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neosim",
        description="sharding planner and performance simulator for "
        "embedding-dominated recommendation models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute a sharding plan")
    _add_common(p)
    _add_planner(p)
    p.set_defaults(out="plan.json")

    p = sub.add_parser("simulate", help="estimate per-iteration latency and QPS")
    _add_common(p)
    _add_planner(p)
    _add_sim(p)
    p.add_argument("--plan", help="plan JSON (computed when omitted)")

    p = sub.add_parser("sweep", help="weak-scaling sweep over node counts")
    _add_common(p)
    _add_policy(p)
    _add_sim(p)
    p.add_argument("--nodes", default="1,2,4,8,16", help="comma-separated node counts")

    p = sub.add_parser("verify", help="sharded vs reference execution check")
    p.add_argument("--model", required=True)
    p.add_argument("--plan", help="plan JSON (desk-scale default when omitted)")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--optimizer", default="rowwise_adagrad",
                   choices=[k.value for k in OptimizerKind])
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--dump-tables", action="store_true",
                   help="write reference table checkpoints next to the report")

    p = sub.add_parser("cache", help="replay a row-id trace through the cache")
    p.add_argument("--sets", type=int, required=True)
    p.add_argument("--ways", type=int, default=32)
    p.add_argument("--policy", choices=["lru", "lfu"], default="lru")
    p.add_argument("--trace", required=True, help="one decimal row id per line")
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="re-emit a stored report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


COMMANDS = {
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "cache": cmd_cache,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except Infeasible as exc:
        print(f"infeasible: {exc.reason}", file=sys.stderr)
        return 2
    except NeosimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
