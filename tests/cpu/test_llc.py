"""Last-level cache filter: hits, LRU eviction, writebacks, filtering."""

import pytest

from repro.cpu.llc import LastLevelCache
from repro.memsys.request import OpType
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord


def tiny_cache(ways=2, sets=2):
    return LastLevelCache(size_bytes=ways * sets * 64, ways=ways)


class TestAccess:
    def test_first_touch_misses_then_hits(self):
        cache = tiny_cache()
        assert not cache.access(0x40, False).hit
        assert cache.access(0x40, False).hit
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.access(0x00, False)
        cache.access(0x40, False)
        cache.access(0x00, False)          # refresh line 0
        result = cache.access(0x80, False)  # evicts line 0x40 (LRU)
        assert not result.hit
        assert cache.access(0x00, False).hit
        assert not cache.access(0x40, False).hit

    def test_dirty_eviction_produces_writeback(self):
        cache = tiny_cache(ways=1, sets=1)
        cache.access(0x00, True)   # dirty
        result = cache.access(0x40, False)
        assert result.writeback_address == 0x00
        assert cache.stats.writebacks == 1

    def test_clean_eviction_is_silent(self):
        cache = tiny_cache(ways=1, sets=1)
        cache.access(0x00, False)
        result = cache.access(0x40, False)
        assert result.writeback_address is None

    def test_write_hit_marks_dirty(self):
        cache = tiny_cache(ways=1, sets=1)
        cache.access(0x00, False)
        cache.access(0x00, True)   # dirtied by the hit
        result = cache.access(0x40, False)
        assert result.writeback_address == 0x00

    def test_sets_are_independent(self):
        cache = tiny_cache(ways=1, sets=2)
        cache.access(0x00, False)   # set 0
        cache.access(0x40, False)   # set 1
        assert cache.access(0x00, False).hit
        assert cache.resident_lines() == 2


class TestGeometryValidation:
    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            LastLevelCache(size_bytes=1024, ways=2, line_bytes=48)

    def test_rejects_non_dividing_size(self):
        with pytest.raises(ValueError):
            LastLevelCache(size_bytes=1000, ways=2)

    def test_rejects_non_power_sets(self):
        with pytest.raises(ValueError):
            LastLevelCache(size_bytes=3 * 2 * 64, ways=2)


class TestFilterTrace:
    def test_hits_are_absorbed_into_gaps(self):
        cache = tiny_cache(ways=2, sets=2)
        raw = PackedTrace.from_records([
            TraceRecord(10, OpType.READ, 0x40),
            TraceRecord(10, OpType.READ, 0x40),  # hit
            TraceRecord(10, OpType.READ, 0x80),
        ])
        filtered = cache.filter_trace(raw)
        assert len(filtered) == 2
        assert filtered[0].gap == 10
        # The hit contributes its gap + itself to the next miss's gap.
        assert filtered[1].gap == 21

    def test_all_filtered_records_start_as_reads_or_writebacks(self):
        cache = tiny_cache(ways=1, sets=1)
        raw = PackedTrace.from_records(
            TraceRecord(0, OpType.WRITE, i * 64) for i in range(4)
        )
        filtered = cache.filter_trace(raw)
        fills = [r for r in filtered if r.op is OpType.READ]
        writebacks = [r for r in filtered if r.op is OpType.WRITE]
        assert len(fills) == 4          # every miss fetches the line
        assert len(writebacks) == 3     # all but the resident line drain

    def test_mpki_reflects_miss_rate(self):
        cache = tiny_cache(ways=2, sets=2)
        raw = PackedTrace.from_records(
            TraceRecord(99, OpType.READ, (i % 2) * 64) for i in range(100)
        )
        filtered = cache.filter_trace(raw)
        assert cache.stats.misses == 2
        assert cache.stats.miss_rate == pytest.approx(0.02)
        assert cache.stats.mpki(10_000) == pytest.approx(0.2)
        assert len(filtered) == 2
