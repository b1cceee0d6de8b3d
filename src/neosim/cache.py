"""Set-associative software cache simulator for embedding rows.

Rows map to sets by id modulo num_sets. `simulate_trace` replays a trace
from an empty cache with one engine per replacement policy: LRU evicts the
least recently used row of a full set, LFU the least frequently used row,
the least recent among equals. Each set is a dict of its resident rows kept
in recency order: a hit pops the row and re-inserts it, so the first key is
always the least recently used row. Recency is a strict order, so no two
rows ever tie on it and no further tie rule is needed. The default 32-way
associativity mirrors the warp-sized layout the cache models.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import index
from typing import Iterable

from .errors import EmptyTrace, InvalidValue


class ReplacementPolicy(str, Enum):
    LRU = "lru"
    LFU = "lfu"


@dataclass(frozen=True)
class CacheConfig:
    num_sets: int
    ways: int = 32
    policy: ReplacementPolicy = ReplacementPolicy.LRU

    def __post_init__(self):
        for name in ("num_sets", "ways"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidValue(name, f"must be an integer, got {value!r}")
            if value < 1:
                raise InvalidValue(name, "must be >= 1")
        try:
            policy = ReplacementPolicy(self.policy)
        except (ValueError, TypeError):
            choices = ", ".join(p.value for p in ReplacementPolicy)
            raise InvalidValue(
                "policy", f"must be one of {choices}, got {self.policy!r}"
            ) from None
        object.__setattr__(self, "policy", policy)


def _row_id(value) -> int:
    try:
        row_id = index(value)
    except TypeError:
        raise InvalidValue("row_id", f"must be an integer, got {value!r}") from None
    if row_id < 0:
        raise InvalidValue("row_id", "must be >= 0")
    return row_id


def _victim(lines: dict[int, int]) -> int:
    """The row a full LFU set evicts. Keys run least recent first, so that
    is the first key holding the lowest count."""
    least = min(lines.values())
    for row_id, count in lines.items():
        if count == least:
            return row_id


@dataclass(frozen=True)
class TraceStats:
    hits: int
    misses: int
    evictions: int

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses


def simulate_trace(config: CacheConfig, trace: Iterable[int]) -> TraceStats:
    """Replay a trace from an empty cache under the config's policy: the
    hits, misses and evictions of LRU or LFU replacement (see the module
    docstring).

    A set that never receives more distinct rows than it has ways only ever
    takes compulsory misses, under either policy. When no set overflows, the
    counts follow from the distinct rows alone and nothing is replayed.
    """
    num_sets, ways = config.num_sets, config.ways
    ids, distinct = _row_ids(trace)
    misses = len(distinct)
    if misses <= num_sets * ways and (
        max(Counter(map(num_sets.__rmod__, distinct)).values()) <= ways  # rows per set
    ):
        return TraceStats(hits=len(ids) - misses, misses=misses, evictions=0)
    replay = _replay_lfu if config.policy is ReplacementPolicy.LFU else _replay_lru
    misses, evictions = replay(ids, num_sets, ways)
    return TraceStats(hits=len(ids) - misses, misses=misses, evictions=evictions)


def _row_ids(trace: Iterable[int]) -> tuple[list[int], set[int]]:
    """(every row id of the trace in order, the distinct ones), each id
    mapped through `operator.index` once. Raises `InvalidValue` for the
    first bad id in trace order and `EmptyTrace` on an empty trace."""
    if not isinstance(trace, list):
        trace = list(trace)  # a one-shot iterator is read once
    try:
        ids = list(map(index, trace))
    except TypeError:
        ids = None  # a non-integer id: the scan below finds the first bad one
    distinct = set(ids or ())
    if ids is None or (distinct and min(distinct) < 0):
        for value in trace:
            _row_id(value)  # raises InvalidValue at the first bad id in order
    if not ids:
        raise EmptyTrace("hit rate is undefined on an empty trace")
    return ids, distinct


def _replay_lru(ids: list[int], num_sets: int, ways: int) -> tuple[int, int]:
    """(misses, evictions) of an LRU replay. Each miss adds a resident row
    unless it evicts one, so evictions are the misses less the rows resident
    at the end."""
    sets: list[dict[int, bool]] = [{} for _ in range(num_sets)]
    misses = 0
    for row_id in ids:
        lines = sets[row_id % num_sets]
        if not lines.pop(row_id, False):
            misses += 1
            if len(lines) >= ways:
                del lines[next(iter(lines))]
        lines[row_id] = True
    return misses, misses - sum(map(len, sets))


def _replay_lfu(ids: list[int], num_sets: int, ways: int) -> tuple[int, int]:
    """(misses, evictions) of an LFU replay. Besides each set's counts,
    `ones[s]` holds set s's resident rows whose count is 1, least recent
    first. Such a row has not been hit since it came in, so the first of
    them is the least recent of the least frequent rows: the row `_victim`
    picks, found without a scan. Only a set whose every row has been hit
    falls back to `_victim`."""
    sets: list[dict[int, int]] = [{} for _ in range(num_sets)]
    ones: list[dict[int, None]] = [{} for _ in range(num_sets)]
    misses = 0
    for row_id in ids:
        s = row_id % num_sets
        lines = sets[s]
        count = lines.pop(row_id, 0)
        if count == 1:
            del ones[s][row_id]
        elif not count:
            misses += 1
            fresh = ones[s]
            if len(lines) >= ways:
                if fresh:
                    victim = next(iter(fresh))
                    del fresh[victim]
                else:
                    victim = _victim(lines)
                del lines[victim]
            fresh[row_id] = None
        lines[row_id] = count + 1
    return misses, misses - sum(map(len, sets))


def effective_row_bandwidth(hit_rate: float, hbm_bw: float, backing_bw: float) -> float:
    """Harmonic blend of the cached and backing tiers:
    1 / (h / hbm + (1 - h) / backing)."""
    if not 0 <= hit_rate <= 1:
        raise InvalidValue("hit_rate", "must be in [0, 1]")
    if not hbm_bw > 0 or not backing_bw > 0:
        raise InvalidValue("bandwidth", "must be > 0")
    return 1.0 / (hit_rate / hbm_bw + (1.0 - hit_rate) / backing_bw)


def make_scan_hot_trace() -> list[int]:
    """Deterministic scan-plus-hot-set trace where LFU beats LRU.

    A small hot set is re-touched between bursts of one-shot scan rows; the
    scan floods every set past its associativity, so LRU keeps evicting the
    hot rows while LFU retains them.
    """
    num_sets, ways = 4, 8
    hot = list(range(num_sets * ways // 2))  # 16 rows, 4 per set
    trace: list[int] = []
    next_cold = num_sets * ways
    for _ in range(40):
        for _ in range(3):
            trace.extend(hot)
        scan = [next_cold + i for i in range(3 * num_sets * ways)]
        next_cold += len(scan)
        trace.extend(scan)
    trace.extend(hot)
    return trace
