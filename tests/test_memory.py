"""Memory subsystem tests: caches, DRAM, CACTI-lite, hierarchy streams."""

import pytest

from repro.errors import ConfigError, MemoryModelError
from repro.memory import (
    WORDS_PER_LINE,
    CacheConfig,
    CacheModel,
    DRAMConfig,
    DRAMModel,
    MemoryConfig,
    MemoryHierarchy,
    estimate_sram,
)


def small_cache(ways=2, lines=8, banks=2):
    return CacheModel(
        CacheConfig(
            size_bytes=lines * 64, ways=ways, banks=banks, hit_latency=2,
            name="t",
        )
    )


class TestCacheLRU:
    def test_miss_then_hit(self):
        c = small_cache()
        assert not c.access_line(5)
        assert c.access_line(5)

    def test_lru_eviction_order(self):
        c = small_cache(ways=2, lines=8)  # 4 sets, 2 ways
        # lines 0, 4, 8 map to set 0 (4 sets)
        c.access_line(0)
        c.access_line(4)
        c.access_line(0)      # 0 becomes MRU
        c.access_line(8)      # evicts 4 (the LRU), not 0
        assert c.contains(0)
        assert not c.contains(4)
        assert c.contains(8)

    def test_sets_are_independent(self):
        c = small_cache(ways=2, lines=8)
        c.access_line(0)
        c.access_line(1)  # different set
        assert c.contains(0) and c.contains(1)

    def test_stats(self):
        c = small_cache()
        c.access_line(1)
        c.access_line(1)
        c.access_line(2)
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.hit_rate == pytest.approx(1 / 3)

    def test_no_allocate_probe(self):
        c = small_cache()
        assert not c.access_line(3, allocate=False)
        assert not c.contains(3)

    def test_reset(self):
        c = small_cache()
        c.access_line(1)
        c.reset()
        assert c.occupancy == 0
        assert c.stats.accesses == 0

    def test_occupancy_bounded(self):
        c = small_cache(ways=2, lines=8)
        for line in range(100):
            c.access_line(line)
        assert c.occupancy <= 8

    def test_bank_throughput(self):
        c = small_cache(banks=4, lines=16, ways=2)
        assert c.stream_bank_cycles(8) == 2
        assert c.stream_bank_cycles(1) == 1

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, ways=2, banks=2, hit_latency=1
                        ).validate()
        with pytest.raises(ConfigError):
            # 3 sets: not a power of two
            CacheConfig(size_bytes=6 * 64, ways=2, banks=1, hit_latency=1
                        ).validate()


class TestDRAM:
    def test_row_hit_cheaper_than_miss(self):
        d = DRAMModel(DRAMConfig())
        t1 = d.request_line(0.0, 0)       # row miss
        t2 = d.request_line(t1, 1 * 4)    # same channel? line 4 -> channel 0
        assert d.stats.row_misses >= 1
        # second access to the same row is a hit and faster
        assert (t2 - t1) < t1

    def test_channel_interleave(self):
        d = DRAMModel(DRAMConfig(channels=4))
        assert d.channel_of(0) == 0
        assert d.channel_of(1) == 1
        assert d.channel_of(5) == 1

    def test_queueing_under_contention(self):
        d = DRAMModel(DRAMConfig(channels=1))
        for _ in range(50):
            d.request_line(0.0, 0)
        assert d.stats.queue_cycles > 0

    def test_bandwidth_accounting(self):
        d = DRAMModel()
        d.request_line(0.0, 0)
        assert d.stats.bytes_transferred == 64

    def test_peak_bandwidth_matches_table2(self):
        assert DRAMConfig().peak_bandwidth_gbps == pytest.approx(76.8)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=0).validate()

    def test_reset(self):
        d = DRAMModel()
        d.request_line(0.0, 0)
        d.reset()
        assert d.stats.requests == 0


class TestCactiLite:
    def test_anchor_point(self):
        est = estimate_sram(32 * 1024)
        assert est.area_mm2 == pytest.approx(0.174, rel=0.01)

    def test_area_grows_sublinearly(self):
        small = estimate_sram(32 * 1024).area_mm2
        big = estimate_sram(64 * 1024).area_mm2
        assert small < big < 2 * small

    def test_latency_grows_with_capacity(self):
        assert (
            estimate_sram(4 * 1024 * 1024, banks=8).access_latency_cycles
            > estimate_sram(32 * 1024, banks=4).access_latency_cycles
        )

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            estimate_sram(0)


def _misses(h):
    """(private misses per PE, shared misses, DRAM requests) so far."""
    return (
        [c.stats.misses for c in h.private],
        h.shared.stats.misses,
        h.dram.stats.requests,
    )


class TestHierarchy:
    def test_cold_stream_misses_then_warms(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=2))
        cold = sum(h.stream_read(0.0, 0, 0x1000_0000, 32))
        (private, *_), shared, dram = _misses(h)
        assert shared > 0 and dram == shared
        warm = sum(h.stream_read(100.0, 0, 0x1000_0000, 32))
        assert _misses(h) == ([private, 0], shared, dram)
        assert warm < cold

    def test_lines_computed(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        h.stream_read(0.0, 0, 0, WORDS_PER_LINE * 3)
        assert h.private[0].stats.accesses == 3

    def test_empty_stream(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        assert h.stream_read(0.0, 0, 0, 0) == (0.0, 0.0)
        assert h.private[0].stats.accesses == 0

    def test_other_pe_hits_shared(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=2))
        h.stream_read(0.0, 0, 0x1000_0000, 16)
        (_, before), shared, dram = _misses(h)
        h.stream_read(50.0, 1, 0x1000_0000, 16)
        (_, after), *rest = _misses(h)
        assert rest == [shared, dram]
        assert after > before

    def test_scratch_allocation_disjoint(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=2))
        a = h.allocate_scratch(0, 10)
        b = h.allocate_scratch(0, 10)
        c = h.allocate_scratch(1, 10)
        assert a + 10 <= b
        assert abs(c - a) >= 0x0400_0000  # separate PE regions

    def test_scratch_bad_pe(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        with pytest.raises(MemoryModelError):
            h.allocate_scratch(3, 4)

    def test_write_allocates_private(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        addr = h.allocate_scratch(0, 32)
        h.stream_write(0.0, 0, addr, 32)
        before = _misses(h)
        h.stream_read(10.0, 0, addr, 32)
        assert _misses(h) == before

    def test_reset(self):
        h = MemoryHierarchy(MemoryConfig(num_pes=1))
        h.stream_read(0.0, 0, 0, 64)
        h.reset()
        assert h.shared.stats.accesses == 0
        assert h.dram.stats.requests == 0
