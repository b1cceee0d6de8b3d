"""neosim benchmark: one workload per process, one client in a closed loop.

    python3 perfbench/run.py --workload plan_model_a --seed 1 --seconds 10 --trace 0

The next op starts only when the previous one returns; the benchmark starts
no threads or processes and pins BLAS/OpenMP to one thread. All times are
host time (how long neosim takes to run); modeled training speed is recorded
as deterministic output, never as a timing.

``--trace 0`` measures the end-to-end metrics: op times scaled to a reference
host speed by calibration kernels timed between ops (see calibration.py) and
summarized as the interquartile mean over ops and as throughput over op
kinds, scaled set-up time and peak memory. The raw wall-time median, tail and throughput go in the run
record beside them.
``--trace 1`` alternates untraced and traced op cycles (the difference in
their op times is the tracing overhead), then runs the census: a short fixed op list of every workload, so that each traced
run reports every per-layer metric and the deterministic counts.

The last line of standard output is the result; the line before it is the run
record, which also goes, with the op times or spans, to ``perfbench/out/``.
Workloads, op mixes and the per-layer to end-to-end mapping are described in
``perfbench/mapping.json``; the smoke tests run with
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
from tracing import (  # noqa: E402
    NullTracer,
    Tracer,
    group_totals_ms,
    median_per_group,
    self_times_ns,
    spans_to_dicts,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("plan_model_a", "plan_few_tables", "verify_desk", "cache_zipf")
SETUP_REPEATS = 9  # one before the first op, the rest spread over the run
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MAX_ERRORS_KEPT = 5

END_TO_END_UNITS = {
    "scaled_op_iqm_ms": "ms",
    "scaled_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose per-op median is a per-layer metric named "<span>_ms".
STAGE_SPANS = (
    "model.parse_model_spec",
    "model.gen_synthetic_batch",
    "perf.shrink_to_fit",
    "planner.candidate_costs",
    "planner.plan_4d",
    "planner.hierarchical_plan",
    "planner.greedy_partition",
    "planner.karmarkar_karp_partition",
    "planner.memory_check",
    "planner.validate_plan",
    "planner.plan_to_json",
    "comms.volume_forward_alltoall",
    "comms.volume_gradient_collectives",
    "comms.volume_input_alltoall",
    "perf.component_latencies",
    "perf.simulate",
    "embedding.build_tables",
    "embedding.fused_forward",
    "embedding.fused_backward_update",
    "embedding.train_step_reference",
    "comms.alltoall_redistribute",
    "comms.train_step_sharded",
    "comms.reassemble_values",
)
CACHE_SPLITS = tuple(f"{p}.{k}" for p in ("lru", "lfu") for k in ("hot", "cold"))
MODELED_PLANS = (
    "model_a.greedy",
    "model_a.kk",
    "model_a.hierarchical",
    "model_f.greedy",
    "model_f.kk",
    "model_f.fine_grain",
    "model_i.greedy",
    "model_i.kk",
    "model_i.hierarchical",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_ms": "ms" for name in STAGE_SPANS}
    for split in CACHE_SPLITS:
        units[f"cache.simulate_trace_ms.{split}"] = "ms"
        units[f"cache.accesses_per_s.{split}"] = "1/s"
    units.update(
        {
            "bench.op_self_ms": "ms",
            "bench.traced_scaled_op_iqm_ms": "ms",
            "bench.untraced_scaled_op_iqm_ms": "ms",
            "bench.trace_overhead_ms": "ms",
            "planner.shards_placed": "count",
            "planner.tables_placed": "count",
            **{
                f"planner.tables.{kind}": "count"
                for kind in (
                    "table_wise",
                    "row_wise",
                    "column_wise",
                    "data_parallel",
                    "hierarchical",
                )
            },
            "embedding.indices": "count",
            "embedding.unique_rows": "count",
            "embedding.unique_row_ratio": "ratio",
            "comms.redistributed_indices": "count",
            "verify.max_deviation": "abs",
            "cache.accesses": "count",
            "cache.scan_hot_lfu_gain": "ratio",
        }
    )
    for split in CACHE_SPLITS:
        units[f"cache.hit_rate.{split}"] = "ratio"
        units[f"cache.evictions.{split}"] = "count"
    for plan in MODELED_PLANS:
        units[f"perf.modeled_qps.{plan}"] = "samples/s"
    return units


@dataclass
class LoopStats:
    times: list[float] = field(default_factory=list)  # seconds per op
    calibration_ms: list[float] = field(default_factory=list)  # around each op
    kinds: list = field(default_factory=list)  # each op's kind (its op-mix combo)
    traced: list[bool] = field(default_factory=list)
    elapsed: float = 0.0  # the timed run, set-ups and calibration left out
    failed: int = 0
    digests: list = field(default_factory=list)  # per op: dict, or None if failed
    groups: list[str] = field(default_factory=list)


@dataclass
class SetupTimes:
    raw_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)  # at the reference speed


def timed_setup(workload, tracer, setups: SetupTimes) -> float:
    """One set-up: a fresh import of neosim, spec parsing, input generation.
    Returns the wall time it took, calibration included."""
    start = time.perf_counter()
    gc.collect()
    before = calibration.sample()
    t0 = time.perf_counter()
    with tracer.span("setup", group=f"setup{len(setups.raw_s)}"):
        with tracer.span("import neosim"):
            fresh_import_neosim()
        workload.setup(tracer)
    seconds = time.perf_counter() - t0
    cal_ms = calibration.around(before, calibration.sample())
    setups.raw_s.append(seconds)
    setups.scaled_s.append(calibration.scaled(seconds, cal_ms))
    return time.perf_counter() - start


def closed_loop(workload, seconds, max_ops, tracers, errors, setups=None):
    """Run ops back to back for `seconds`, rounded up to whole op cycles so
    that every run has the same op mix (or for `max_ops` ops, if sooner).

    Before every op a full garbage collection runs, untimed, so that each
    repeat of an op starts from the same collector state and pays the same
    collections. The calibration kernels run before the first op and after
    every op, and each op keeps the calibration time around it. Given
    `setups`, the set-up repeats at even intervals between ops until it has
    run SETUP_REPEATS times, so that their median does not hang on the
    host's state at one moment. Set-up and calibration time are left out of
    `elapsed`.

    Op cycle c runs under tracers[c % len(tracers)]; alternating an untraced
    and a traced cycle exposes both to the same host conditions. Traced ops
    are followed by their stage breakdown. A failed op, whether its check
    failed or it raised, is counted and the loop moves on; it is never
    skipped or retried."""
    stats = LoopStats()
    ops = workload.ops()
    cycle = workload.cycle_length
    interval = seconds / SETUP_REPEATS
    overhead = 0.0
    start = time.perf_counter()
    cal = calibration.sample()
    overhead += time.perf_counter() - start
    while (
        time.perf_counter() - start < seconds or len(stats.times) % cycle
    ) and (max_ops is None or len(stats.times) < max_ops):
        if (
            setups is not None
            and len(setups.raw_s) < SETUP_REPEATS
            and time.perf_counter() - start >= len(setups.raw_s) * interval
        ):
            start += timed_setup(workload, tracers[-1], setups)
            t0 = time.perf_counter()
            cal = calibration.sample()
            overhead += time.perf_counter() - t0
        op = next(ops)
        tracer = tracers[len(stats.times) // cycle % len(tracers)]
        group = f"op{len(stats.times)}"
        t0 = time.perf_counter()
        gc.collect()
        overhead += time.perf_counter() - t0
        result, op_seconds = run_one(workload, op, tracer, group, errors)
        t0 = time.perf_counter()
        after = calibration.sample()
        overhead += time.perf_counter() - t0
        stats.calibration_ms.append(calibration.around(cal, after))
        cal = after
        stats.times.append(op_seconds)
        stats.kinds.append(op.op_kind)
        stats.traced.append(tracer.enabled)
        stats.groups.append(group)
        if result is None or not result.ok:
            stats.failed += 1
            stats.digests.append(None)
        else:
            stats.digests.append(result.digests)
    stats.elapsed = time.perf_counter() - start - overhead
    return stats


def run_one(workload, op, tracer, group, errors):
    """One op and, when traced, its stage breakdown. Returns the result (None
    if either raised) and the op's wall time, stages left out."""
    t0 = time.perf_counter()
    try:
        with tracer.span("op", group=group):
            result = workload.run_op(op, tracer)
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return None, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    try:
        if tracer.enabled:
            with tracer.span("stages", group=group):
                result.info.update(workload.stages(op, result, tracer))
    except Exception:
        errors.append(traceback.format_exc(limit=4))
        return None, seconds
    if not result.ok:
        errors.append(f"{op}: {result.problem}")
    return result, seconds


def cycle_digests(stats: LoopStats, cycle_length: int) -> dict:
    """sha256 per output kind over the first cycle of ops, which covers every
    op combo once; the same seed must give the same digests."""
    covered = stats.digests[:cycle_length]
    kinds = sorted({k for d in covered if d for k in d})
    return {
        "ops_covered": len(covered),
        **{
            kind: hashlib.sha256(
                "".join((d or {}).get(kind, "failed") for d in covered).encode()
            ).hexdigest()
            for kind in kinds
        },
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile on the ladder with at
    least TAIL_BEYOND samples beyond it (nearest rank); the median when even
    that has too few."""
    ordered = sorted(times)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            chosen = pct
    return ordered[max(math.ceil(chosen / 100 * n), 1) - 1], chosen


def scaled_times(stats: LoopStats, traced=None) -> tuple[list[float], list]:
    """Op times (s) at the reference host speed, with their op kinds; only
    the traced or only the untraced ops when `traced` is given."""
    keep = [traced is None or t == traced for t in stats.traced]
    times = [
        calibration.scaled(t, c)
        for t, c, k in zip(stats.times, stats.calibration_ms, keep)
        if k
    ]
    return times, [kind for kind, k in zip(stats.kinds, keep) if k]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: a quarter of the values dropped at each end."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def kind_typical(times: list[float], kinds: list) -> dict:
    """Each op kind's typical op time, the interquartile mean of its ops: a
    kind may have as few as five ops in a run, where it is steadier than the
    median and, unlike the mean, ignores a stray slow op."""
    per_kind: dict = {}
    for kind, t in zip(kinds, times):
        per_kind.setdefault(kind, []).append(t)
    return {kind: interquartile_mean(ts) for kind, ts in per_kind.items()}


def end_to_end_metrics(stats: LoopStats, setups: SetupTimes) -> tuple[dict, dict]:
    """The gated metrics use op times scaled to the reference host speed (see
    calibration.py): the interquartile mean over all ops of the run, which
    holds whole op cycles so every kind weighs the same, and op kinds per
    second at their typical times, which the slowest kinds dominate. Over ten
    runs the interquartile mean spread about half as much as the median. The
    median, the slowest kind's typical time, the tails and the raw wall-time
    statistics go in the run record beside them; a single kind has too few
    ops in a run to stay within a bound."""
    times, kinds = scaled_times(stats)
    per_kind = kind_typical(times, kinds)
    tail_value, tail_pct = tail(stats.times)
    scaled_tail, _ = tail(times)
    values = {
        "scaled_op_iqm_ms": interquartile_mean(times) * 1e3,
        "scaled_ops_per_s": len(per_kind) / sum(per_kind.values()),
        "setup_s": statistics.median(setups.scaled_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    beside = {
        "op_kinds": len(per_kind),
        "op_samples": len(stats.times),
        "op_p50_ms": statistics.median(stats.times) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "op_tail_percentile": tail_pct,
        "scaled_op_p50_ms": statistics.median(times) * 1e3,
        "scaled_op_tail_ms": scaled_tail * 1e3,
        "scaled_slowest_kind_ms": max(per_kind.values()) * 1e3,
        "ops_per_s": len(stats.times) / stats.elapsed,
        "timed_seconds": stats.elapsed,
        "setup_raw_s": statistics.median(setups.raw_s),
        "calibration_p50_ms": statistics.median(stats.calibration_ms),
        "calibration_min_ms": min(stats.calibration_ms),
        "calibration_reference_ms": calibration.REFERENCE_MS,
    }
    return values, beside


def census(workloads_mod, seed, tracer, errors) -> tuple[dict, int, int]:
    """One traced pass over every workload's census ops."""
    counts: dict[str, float] = {}
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        workload = workloads_mod.WORKLOADS[name](seed)
        with tracer.span("setup", group=f"census.{name}.setup"):
            workload.setup(tracer)
        with tracer.span("checks", group=f"census.{name}.checks"):
            checks = workload.checks(tracer)
        attempted += len(checks)
        failed += sum(not ok for ok, _ in checks.values())
        results = []
        for i, op in enumerate(workload.census()):
            attempted += 1
            result, _ = run_one(workload, op, tracer, f"census.{name}.{i}", errors)
            if result is None or not result.ok:
                failed += 1
            if result is not None:
                results.append(result)
        counts.update(workload.census_metrics(results, checks))
    return counts, attempted, failed


def per_layer_metrics(tracer, workloads_mod, loop: LoopStats, counts) -> dict:
    totals = group_totals_ms(tracer.spans)
    values = {}
    for name in STAGE_SPANS:
        values[f"{name}_ms"] = median_per_group(totals.get(name, {}))
    for split in CACHE_SPLITS:
        per_group = totals.get(f"cache.simulate_trace.{split}", {})
        values[f"cache.simulate_trace_ms.{split}"] = median_per_group(per_group)
        accesses = workloads_mod.cache_trace_length(split.split(".")[1])
        values[f"cache.accesses_per_s.{split}"] = median_per_group(
            {g: accesses / (ms / 1e3) for g, ms in per_group.items()}
        )
    own = {g for g, traced in zip(loop.groups, loop.traced) if traced}
    self_ns = self_times_ns(tracer.spans)
    op_spans = [s for s in tracer.spans if s.name == "op" and s.group in own]
    values["bench.op_self_ms"] = statistics.median(
        self_ns[s.span_id] / 1e6 for s in op_spans
    )
    for label, traced in (("traced", True), ("untraced", False)):
        times, _ = scaled_times(loop, traced)
        values[f"bench.{label}_scaled_op_iqm_ms"] = interquartile_mean(times) * 1e3
    values["bench.trace_overhead_ms"] = (
        values["bench.traced_scaled_op_iqm_ms"] - values["bench.untraced_scaled_op_iqm_ms"]
    )
    values.update(counts)
    return values


def fresh_import_neosim() -> None:
    """Import neosim as if for the first time (numpy stays loaded), so that
    every set-up repetition pays neosim's own import. The workloads keep
    using the modules they imported first."""
    for name in [m for m in sys.modules if m == "neosim" or m.startswith("neosim.")]:
        del sys.modules[name]
    importlib.import_module("neosim")


def git_commit() -> str:
    """HEAD of the enclosing git checkout, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over neosim's sources and bundled data, to tie results to code
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "neosim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops",
        type=int,
        default=None,
        help="smoke mode: stop each timed phase after this many ops",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "neosim" / "__init__.py").is_file():
        print("neosim sources not found in src/neosim next to perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads as workloads_mod  # imports numpy and neosim

    first_import_s = time.perf_counter() - t0
    import numpy

    errors: list[str] = []
    tracer = Tracer() if args.trace else NullTracer()
    workload = workloads_mod.WORKLOADS[args.workload](args.seed)
    for _ in range(3):  # warm the calibration kernels
        calibration.sample()
    setups = SetupTimes()
    timed_setup(workload, tracer, setups)
    checks = workload.checks(tracer)

    if args.trace:
        loop = closed_loop(
            workload, args.seconds, args.max_ops, (NullTracer(), tracer), errors, setups
        )
        counts, census_attempted, census_failed = census(
            workloads_mod, args.seed, tracer, errors
        )
        metrics = per_layer_metrics(tracer, workloads_mod, loop, counts)
        units = per_layer_units()
        attempted = len(loop.times) + census_attempted
        failed = loop.failed + census_failed
        beside = {}
    else:
        loop = closed_loop(workload, args.seconds, args.max_ops, (tracer,), errors, setups)
        metrics, beside = end_to_end_metrics(loop, setups)
        units = END_TO_END_UNITS
        attempted, failed = len(loop.times), loop.failed
    attempted += len(checks)
    failed += sum(not ok for ok, _ in checks.values())
    for name, (ok, value) in checks.items():
        if not ok:
            errors.append(f"check {name} failed ({value})")

    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_ops": args.max_ops,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "neosim": workloads_mod.neosim_version,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "closed_loop_clients": 1,
        "first_import_s": first_import_s,
        "setup_repeats_s": setups.raw_s,
        "setup_repeats_scaled_s": setups.scaled_s,
        "failed_share": failed / attempted,
        "checks": {name: {"ok": ok, "value": v} for name, (ok, v) in checks.items()},
        "digests": cycle_digests(loop, workload.cycle_length),
        "errors": errors[:MAX_ERRORS_KEPT],
        **beside,
    }
    OUT.mkdir(exist_ok=True)
    out_doc = {
        "run_record": record,
        "metrics": metrics,
        "op_times_s": loop.times,
        "op_calibration_ms": loop.calibration_ms,
    }
    if args.trace:
        out_doc["spans"] = spans_to_dicts(tracer.spans)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(out_doc, indent=1, default=str))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps({"run_record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
