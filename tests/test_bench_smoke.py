"""The benchmark's workloads, run once in process: set up each workload,
run one cycle of its ops and of their stages under the NullTracer, and
require every op's output check to pass. A change to what the workloads
read of neosim (plan assignments, ShardedState, WorkerSlice.inputs, ...)
fails here rather than in a benchmark run. Nothing is written under
perfbench/: the modules are compiled from source, without a bytecode cache.
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1001


def load(name: str) -> types.ModuleType:
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_cycle_passes(name):
    tr = tracing.NullTracer()
    workload = workloads.WORKLOADS[name](SEED)
    workload.setup(tr)
    ops = workload.ops()
    results = []
    for _ in range(workload.cycle_length):
        op = next(ops)
        results.append((op, workload.run_op(op, tr)))
    assert [r.problem for _, r in results if not r.ok] == []
    for op, result in results:
        workload.stages(op, result, tr)
    assert all(ok for ok, _ in workload.checks(tr).values())
