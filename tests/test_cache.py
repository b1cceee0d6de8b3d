"""Set-associative cache simulator and tiered-bandwidth blending."""

from operator import index

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neosim import (
    CacheConfig,
    EmptyTrace,
    InvalidValue,
    ReplacementPolicy,
    effective_row_bandwidth,
    simulate_trace,
)
from neosim.bundled import data_path
from neosim.cache import make_scan_hot_trace


class ListScanCache:
    """Oracle: the list-scan replay the dict-per-set cache replaced.

    Each set is a list of [row_id, last_used, frequency] lines scanned in
    full on every access; victims are min over (last_used, i) under LRU and
    over (frequency, last_used, i) under LFU.
    """

    def __init__(self, num_sets, ways, policy):
        self.num_sets, self.ways, self.policy = num_sets, ways, policy
        self.sets = [[] for _ in range(num_sets)]
        self.clock = self.hits = self.misses = self.evictions = 0

    def access(self, row_id):
        lines = self.sets[row_id % self.num_sets]
        self.clock += 1
        for line in lines:
            if line[0] == row_id:
                line[1] = self.clock
                line[2] += 1
                self.hits += 1
                return
        self.misses += 1
        if len(lines) >= self.ways:
            if self.policy is ReplacementPolicy.LRU:
                i = min(range(len(lines)), key=lambda i: (lines[i][1], i))
            else:
                i = min(range(len(lines)), key=lambda i: (lines[i][2], lines[i][1], i))
            lines.pop(i)
            self.evictions += 1
        lines.append([row_id, self.clock, 1])


def assert_matches_oracle(num_sets, ways, policy, trace):
    oracle = ListScanCache(num_sets, ways, policy)
    for row in trace:
        oracle.access(row)
    stats = simulate_trace(CacheConfig(num_sets, ways, policy), trace)
    expected = (oracle.hits, oracle.misses, oracle.evictions)
    assert (stats.hits, stats.misses, stats.evictions) == expected
    return stats


def counts(config, trace):
    """(hits, misses, evictions) of simulate_trace."""
    stats = simulate_trace(config, trace)
    return stats.hits, stats.misses, stats.evictions


@st.composite
def straddling_traces(draw):
    """(num_sets, ways, trace) over row ids 0..num_sets*ways: every set but
    set 0 has at most `ways` rows to receive and set 0 has `ways + 1`, so a
    trace overflows only when it reaches all of set 0's rows."""
    num_sets, ways = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = num_sets * ways
    trace = draw(st.lists(st.integers(0, top), min_size=1, max_size=4 * (top + 1)))
    return num_sets, ways, trace


def oracle_traces(rng):
    """Seeded traces over a row range a few times the cache capacity:
    uniform, Zipf-skewed, and two shapes that give LFU frequency ties
    (round-robin passes and repeated runs of equal length)."""
    num_sets, ways = (int(v) for v in rng.integers(1, 9, size=2))
    rows = int(rng.integers(1, 4 * num_sets * ways + 2))
    length = int(rng.integers(1, 240))
    shape = rng.integers(4)
    if shape == 0:
        trace = rng.integers(0, rows, size=length)
    elif shape == 1:
        trace = np.minimum(rng.zipf(1.3, size=length) - 1, rows - 1)
    elif shape == 2:
        trace = np.tile(rng.permutation(rows), length // rows + 1)[:length]
    else:
        runs = rng.integers(0, rows, size=length // 3 + 1)
        trace = np.repeat(runs, 3)[:length]
    return num_sets, ways, [int(v) for v in trace]


class TestAccess:
    """Each replacement rule pinned by a short trace whose counts differ
    under the wrong rule."""

    def test_cold_miss_then_hit(self):
        assert counts(CacheConfig(num_sets=2, ways=2), [5, 5]) == (1, 1, 0)

    def test_lru_evicts_oldest(self):
        # one set, two ways: 0, 2, 4 all map to set 0; 4 evicts 0, so 0
        # misses again (had 4 evicted 2, the last access would hit)
        config = CacheConfig(num_sets=1, ways=2, policy=ReplacementPolicy.LRU)
        assert counts(config, [0, 2, 4, 0]) == (0, 4, 2)

    def test_lru_hit_refreshes_recency(self):
        # refreshing 0 makes 2 the LRU line: 4 evicts 2 and 0 hits again
        config = CacheConfig(num_sets=1, ways=2, policy=ReplacementPolicy.LRU)
        assert counts(config, [0, 2, 0, 4, 0]) == (2, 3, 1)

    def test_two_sets_hold_sixty_four_rows(self):
        # rows 0..63 over 2 sets x 32 ways: second pass hits every access
        for policy in ReplacementPolicy:
            config = CacheConfig(num_sets=2, ways=32, policy=policy)
            assert counts(config, list(range(64)) * 2) == (64, 64, 0)

    def test_lfu_prefers_evicting_low_frequency(self):
        # 0 and 2 at frequency 2, 4 at 1: 6 evicts 4, though 0 is least
        # recent, so 0 and 2 hit again (LRU would give 2 hits, 6 misses)
        config = CacheConfig(num_sets=1, ways=3, policy=ReplacementPolicy.LFU)
        trace = [0, 0, 2, 2, 4, 6, 0, 2]
        assert counts(config, trace) == (4, 4, 1)
        assert_matches_oracle(1, 3, ReplacementPolicy.LFU, trace)

    def test_residency_bounded_by_ways(self):
        # each miss adds a line and each eviction drops one, so the lines
        # resident at the end are misses - evictions: every set full, no more
        rng = np.random.default_rng(0)
        trace = [int(row) for row in rng.integers(0, 100, size=500)]
        for policy in ReplacementPolicy:
            stats = simulate_trace(CacheConfig(num_sets=3, ways=4, policy=policy), trace)
            assert stats.misses - stats.evictions == 3 * 4

    def test_lfu_frequency_tie_evicts_least_recent(self):
        # every row at frequency 2, 2 least recent: 3 evicts 2; 3 is then the
        # only row at frequency 1, so 4 evicts 3, and 0 and 1 hit again
        config = CacheConfig(num_sets=1, ways=3, policy=ReplacementPolicy.LFU)
        trace = [0, 1, 2, 2, 1, 0, 3, 4, 0, 1]
        assert counts(config, trace) == (5, 5, 2)
        assert_matches_oracle(1, 3, ReplacementPolicy.LFU, trace)

    def test_resident_after_miss_not_after_eviction(self):
        # 4 and 6 share set 0 of 2 x 1: 4 hits after its miss, 6 evicts 4,
        # and 4 misses again
        assert counts(CacheConfig(num_sets=2, ways=1), [4, 4, 6, 4]) == (1, 3, 2)


class TestCacheConfig:
    def test_policy_string_coerced(self):
        trace = make_scan_hot_trace()
        for value in ("lru", "lfu"):
            config = CacheConfig(4, 8, value)
            assert config.policy is ReplacementPolicy(value)
            assert config == CacheConfig(4, 8, ReplacementPolicy(value))
        # the string "lru" once ran LFU and gave 1920 hits
        assert simulate_trace(CacheConfig(4, 8, "lru"), trace).hits == 1280
        assert simulate_trace(CacheConfig(4, 8, "lfu"), trace).hits == 1920

    @pytest.mark.parametrize("policy", ["mru", "LRU", "", None, 1])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(InvalidValue) as info:
            CacheConfig(4, 8, policy)
        assert info.value.path == "policy"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_sets", True),
            ("num_sets", 1.5),
            ("num_sets", 4.0),
            ("num_sets", "4"),
            ("num_sets", 0),
            ("ways", 2.0),
            ("ways", False),
            ("ways", None),
            ("ways", -1),
        ],
    )
    def test_bad_geometry_rejected(self, field, value):
        kwargs = {"num_sets": 4, "ways": 8, field: value}
        with pytest.raises(InvalidValue) as info:
            CacheConfig(**kwargs)
        assert info.value.path == field


class TestOracle:
    def test_matches_list_scan_replay(self):
        # 320 seeded traces x both policies: every access() result and every
        # simulate_trace count equal the list-scan replay's. Over half of the
        # ~10k LFU evictions here break a frequency tie by recency.
        rng = np.random.default_rng(31)
        for _ in range(320):
            num_sets, ways, trace = oracle_traces(rng)
            for policy in ReplacementPolicy:
                assert_matches_oracle(num_sets, ways, policy, trace)

    @settings(max_examples=200, deadline=None)
    @given(
        num_sets=st.integers(1, 8),
        ways=st.integers(1, 8),
        policy=st.sampled_from(list(ReplacementPolicy)),
        trace=st.lists(st.integers(0, 60), min_size=1, max_size=120),
    )
    def test_property_matches_list_scan_replay(self, num_sets, ways, policy, trace):
        assert_matches_oracle(num_sets, ways, policy, trace)


class TestReplayShortcuts:
    """simulate_trace skips the replay when no set can evict and finds LFU
    victims among the count-1 rows; each case is checked against the
    list-scan oracle."""

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_every_set_exactly_full(self, policy):
        rng = np.random.default_rng(4)
        trace = [int(v) for v in rng.permutation(np.tile(np.arange(12), 5))]
        stats = assert_matches_oracle(4, 3, policy, trace)
        assert (stats.hits, stats.misses, stats.evictions) == (48, 12, 0)

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_one_set_one_row_over(self, policy):
        # rows 0..12 at 4 x 3: set 0 receives 0, 4, 8 and 12, the rest 3 each
        trace = list(range(13)) * 3
        stats = assert_matches_oracle(4, 3, policy, trace)
        assert stats.evictions > 0

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_one_row_past_capacity(self, policy):
        # 13 distinct rows spread at random cannot fit 12 lines
        rng = np.random.default_rng(5)
        rows = rng.choice(1 << 30, size=13, replace=False)
        trace = [int(v) for v in rng.permutation(np.tile(rows, 4))]
        stats = assert_matches_oracle(4, 3, policy, trace)
        assert stats.misses > 13 and stats.evictions > 0

    def test_lfu_count_one_row_evicted_before_older_row(self):
        # [a, a, b, c] at 2 ways: b is the count-1 row, evicted though a is
        # older, so the last a hits
        a, b, c = 0, 1, 2
        stats = assert_matches_oracle(1, 2, ReplacementPolicy.LFU, [a, a, b, c, a])
        assert (stats.hits, stats.misses, stats.evictions) == (2, 3, 1)

    def test_lfu_without_count_one_row_scans(self):
        # [a, a, b, b, c]: no count-1 row, so the least recent of count 2
        # goes, and the last b hits
        a, b, c = 0, 1, 2
        stats = assert_matches_oracle(1, 2, ReplacementPolicy.LFU, [a, a, b, b, c, b])
        assert (stats.hits, stats.misses, stats.evictions) == (3, 3, 1)

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_generator_trace(self, policy):
        trace = [5, 1, 9, 5, 13, 1, 17, 5]
        config = CacheConfig(2, 2, policy)
        expected = assert_matches_oracle(2, 2, policy, trace)
        assert simulate_trace(config, (row for row in trace)) == expected
        assert simulate_trace(config, iter(trace)) == expected

    @pytest.mark.parametrize(
        "trace,message",
        [
            ([-1, 1.7], "invalid value at row_id: must be >= 0"),
            ([1.7, -1], "invalid value at row_id: must be an integer, got 1.7"),
            ([4, 2, -3], "invalid value at row_id: must be >= 0"),
            ((v for v in [4, None, -1]), "invalid value at row_id: must be an integer, got None"),
        ],
    )
    def test_first_bad_id_in_trace_order(self, trace, message):
        with pytest.raises(InvalidValue) as info:
            simulate_trace(CacheConfig(2, 2), trace)
        assert str(info.value) == message

    def test_empty_generator_rejected(self):
        with pytest.raises(EmptyTrace):
            simulate_trace(CacheConfig(2, 2), iter(()))

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_ids_past_int64_accepted(self, policy):
        big = 2**63
        trace = [big, big + 2, big + 4, big, big + 1, np.uint64(big), True]
        expected = assert_matches_oracle(2, 2, policy, [index(v) for v in trace])
        assert simulate_trace(CacheConfig(2, 2, policy), trace) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=straddling_traces())
    def test_property_around_capacity(self, case):
        num_sets, ways, trace = case
        for policy in ReplacementPolicy:
            assert_matches_oracle(num_sets, ways, policy, trace)


class TestSimulateTrace:
    def test_repeated_id_hit_rate(self):
        stats = simulate_trace(CacheConfig(num_sets=4, ways=2), [7] * 10)
        assert stats.hit_rate == 9 / 10

    def test_fitting_working_set_steady_state(self):
        # working set <= capacity with aligned set mapping: second pass all hits
        config = CacheConfig(num_sets=4, ways=4)
        trace = list(range(16)) * 3
        stats = simulate_trace(config, trace)
        assert stats.misses == 16
        assert stats.hits == 32

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            simulate_trace(CacheConfig(num_sets=1, ways=1), [])

    def test_negative_row_rejected(self):
        with pytest.raises(InvalidValue):
            simulate_trace(CacheConfig(num_sets=2, ways=2), [3, 1, -1, 4])

    def test_non_integral_row_rejected(self):
        for bad in (1.7, 2.0, "3", None):
            with pytest.raises(InvalidValue):
                simulate_trace(CacheConfig(num_sets=2, ways=2), [3, bad])

    def test_numpy_integer_trace_accepted(self):
        trace = np.array([1, 2, 1, 9, 1], dtype=np.int64)
        stats = simulate_trace(CacheConfig(num_sets=1, ways=2), trace)
        assert (stats.hits, stats.misses, stats.evictions) == (2, 3, 1)

    def test_long_zipf_traces_match_oracle(self):
        rng = np.random.default_rng(3)
        for policy in ReplacementPolicy:
            trace = [int(v) for v in rng.zipf(1.2, size=2000)]
            assert_matches_oracle(3, 4, policy, trace)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        trace = [int(v) for v in rng.integers(0, 64, size=300)]
        config = CacheConfig(num_sets=4, ways=4, policy=ReplacementPolicy.LFU)
        a = simulate_trace(config, trace)
        b = simulate_trace(config, trace)
        assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)

    def test_lfu_beats_lru_on_shipped_trace(self):
        trace = make_scan_hot_trace()
        shipped = [
            int(line)
            for line in data_path("trace_scan_hot.txt").read_text().splitlines()
        ]
        assert shipped == trace  # the bundled file is the generator's output
        lru = simulate_trace(CacheConfig(4, 8, ReplacementPolicy.LRU), trace)
        lfu = simulate_trace(CacheConfig(4, 8, ReplacementPolicy.LFU), trace)
        assert lfu.hit_rate > lru.hit_rate

    def test_lru_stack_property(self):
        # more ways never lose LRU hits (inclusion), 100 seeded traces
        rng = np.random.default_rng(2)
        for _ in range(100):
            trace = [int(v) for v in rng.integers(0, 40, size=200)]
            hits = []
            for ways in (1, 2, 4, 8):
                stats = simulate_trace(
                    CacheConfig(num_sets=2, ways=ways, policy=ReplacementPolicy.LRU),
                    trace,
                )
                hits.append(stats.hits)
            assert hits == sorted(hits)


class TestEffectiveRowBandwidth:
    def test_full_hit_rate_is_hbm(self):
        assert effective_row_bandwidth(1.0, 1300e9, 26e9) == 1300e9

    def test_zero_hit_rate_is_backing(self):
        assert effective_row_bandwidth(0.0, 1300e9, 26e9) == 26e9

    def test_harmonic_blend_hand_value(self):
        # 1 / (0.9/1300 + 0.1/26) GB/s = 13000/59 GB/s
        got = effective_row_bandwidth(0.9, 1300e9, 26e9)
        assert got == pytest.approx(13000 / 59 * 1e9, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(InvalidValue):
            effective_row_bandwidth(1.5, 1e9, 1e9)
        with pytest.raises(InvalidValue):
            effective_row_bandwidth(0.5, 0.0, 1e9)
