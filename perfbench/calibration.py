"""Host-speed calibration: fixed kernels timed between ops.

The benchmark runs on a shared host whose speed swings by up to 1.7x for
seconds to minutes as other tenants load it, so raw op times of the same code
move between runs by more than any usable bound. Two short kernels that are
not neosim code, a Python dict-and-list loop and an ``np.add.at`` scatter,
run before the first op and after every op. An op's time divided by the
calibration time around it is its time in units of the host's current
speed; times the calibration's reference time it is the op's time at the
reference host speed, in milliseconds. These kernels never change with
neosim, so a change that makes neosim faster or slower moves the scaled time
by the same share, while a slower host moves op and calibration together.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The calibration's time (geometric mean of the two kernels, ms) on the
# shared 2-vCPU Linux VM where the benchmark was defined, at its quietest.
# Scaled times are op times at that speed.
REFERENCE_MS = 0.64

_PY_STEPS = 4000
_rng = np.random.default_rng(0)
_NP_INDEX = _rng.integers(0, 1000, size=4000)
_NP_VALUES = _rng.random((4000, 16))
_NP_OUT = np.zeros((1000, 16))


def python_kernel() -> int:
    """Interpreter-bound work like the planner's and the cache's loops."""
    seen: dict[int, int] = {}
    counts = [0] * 64
    total = 0
    for i in range(_PY_STEPS):
        key = (i * 2654435761) & 1023
        value = seen.get(key)
        if value is None:
            seen[key] = i
        else:
            total += value
        counts[key & 63] += 1
    return total


def numpy_kernel() -> float:
    """Scatter-add and gather like the embedding layer's pooling."""
    _NP_OUT[:] = 0.0
    np.add.at(_NP_OUT, _NP_INDEX, _NP_VALUES)
    return float(_NP_OUT[_NP_INDEX[:1000]].sum())


def sample() -> tuple[float, float]:
    """One timing of each kernel, in seconds."""
    t0 = time.perf_counter()
    python_kernel()
    t1 = time.perf_counter()
    numpy_kernel()
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1


def around(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Calibration time (ms) around one timed interval: each kernel's mean
    over the samples before and after it, combined by geometric mean."""
    py = (before[0] + after[0]) / 2
    nd = (before[1] + after[1]) / 2
    return math.sqrt(py * nd) * 1e3


def scaled(seconds: float, calibration_ms: float) -> float:
    """An interval in seconds, at the reference host speed."""
    return seconds * REFERENCE_MS / calibration_ms
