"""Statistics collection and derived metrics."""

import pytest

from repro.config import fgnvm
from repro.core.fgnvm_bank import make_fgnvm_bank
from repro.memsys.address import AddressMapper
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import (
    LATENCY_BUCKETS,
    LATENCY_PERCENTILES,
    StatsCollector,
    histogram_percentile,
)


def tile_request(mapper, op, sag=0, cd=0, row_in_sag=0, col_in_cd=0):
    """A request to explicit (SAG, CD) coordinates of a 4x4 bank."""
    req = MemRequest(op, mapper.encode(row=sag * 64 + row_in_sag,
                                       col=cd * 4 + col_in_cd))
    req.decoded = mapper.decode(req.address)
    assert (req.decoded.sag, req.decoded.cd) == (sag, cd)
    return req


def issue_plan(plan):
    """Issue ``(cycle, op, tile kwargs)`` steps on one 4x4 FgNVM bank,
    each at exactly its cycle; the bank counts into fresh stats."""
    cfg = fgnvm(4, 4)
    cfg.org.rows_per_bank = 256
    stats = StatsCollector()
    bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(), stats)
    mapper = AddressMapper(cfg.org)
    for cycle, op, where in plan:
        req = tile_request(mapper, op, **where)
        assert bank.earliest_start(req, cycle) == cycle
        bank.issue(req, cycle)
    return stats, bank.sense_bits, bank.write_bits


class TestCounting:
    """The bank writes the per-issue counters as it issues."""

    def test_read_kinds(self):
        stats, _, _ = issue_plan([
            (0, OpType.READ, {}),                      # miss
            (48, OpType.READ, {"col_in_cd": 1}),       # same CD slice: hit
            (52, OpType.READ, {"cd": 1}),              # same row: underfetch
            (100, OpType.READ, {"row_in_sag": 1}),     # other row: miss
        ])
        assert stats.reads == 4
        assert stats.row_hits == 1
        assert stats.underfetches == 1
        assert stats.row_misses == 2
        assert stats.row_hit_rate == pytest.approx(0.25)
        assert stats.underfetch_rate == pytest.approx(0.25)

    def test_sense_and_overlap_counting(self):
        stats, slice_bits, _ = issue_plan([
            (0, OpType.READ, {}),                       # alone
            (4, OpType.READ, {"sag": 1, "cd": 1}),      # over one sense
            (8, OpType.WRITE, {"sag": 2, "cd": 2}),     # activation senses
            (12, OpType.READ, {"sag": 3, "cd": 3}),     # over senses + write
            # A buffered hit senses nothing; under the write it is a
            # read under write, never a Multi-Activation.
            (48, OpType.READ, {"col_in_cd": 1}),
        ])
        assert stats.senses == 4
        assert stats.sense_bits == 4 * slice_bits
        assert stats.multi_activation_senses == 2
        assert stats.reads_under_write == 2
        assert stats.writes_overlapped == 1

    def test_write_counting(self):
        stats, slice_bits, write_bits = issue_plan([
            (0, OpType.WRITE, {}),
            (4, OpType.WRITE, {"sag": 1, "cd": 1}),     # over the first
        ])
        assert stats.writes == 2
        assert stats.write_bits == 2 * write_bits
        assert stats.writes_overlapped == 1
        assert stats.senses == 2  # both activations sensed one slice
        assert stats.sense_bits == 2 * slice_bits
        assert stats.requests == 2


class TestLatency:
    def test_histogram_buckets(self):
        stats = StatsCollector()
        stats.count_read_latency(8)    # first bucket edge
        stats.count_read_latency(9)    # second bucket
        stats.count_read_latency(10**9)  # last catch-all bucket
        assert stats.latency_histogram[0] == 1
        assert stats.latency_histogram[1] == 1
        assert stats.latency_histogram[-1] == 1
        assert sum(stats.latency_histogram) == 3

    def test_average_and_max(self):
        stats = StatsCollector()
        stats.reads = 2
        stats.count_read_latency(10)
        stats.count_read_latency(30)
        assert stats.avg_read_latency == pytest.approx(20.0)
        assert stats.read_latency_max == 30

    def test_bucket_edges_are_increasing(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestPercentiles:
    def test_percentile_is_bucket_upper_edge(self):
        stats = StatsCollector()
        for _ in range(99):
            stats.count_read_latency(8)     # bucket 0: <= 8
        stats.count_read_latency(10)        # bucket 1: <= 16
        assert stats.latency_percentile(50) == LATENCY_BUCKETS[0]
        assert stats.latency_percentile(95) == LATENCY_BUCKETS[0]
        assert stats.latency_percentile(99) == LATENCY_BUCKETS[0]
        assert stats.latency_percentile(100) == LATENCY_BUCKETS[1]

    def test_open_ended_bucket_reports_observed_max(self):
        stats = StatsCollector()
        stats.count_read_latency(10**9)
        assert stats.latency_percentile(99) == 10**9

    def test_empty_histogram_gives_zero(self):
        assert StatsCollector().latency_percentile(99) == 0
        assert histogram_percentile([0, 0], 50) == 0

    def test_monotone_in_percent(self):
        stats = StatsCollector()
        for latency in (4, 12, 40, 90, 200, 600):
            stats.count_read_latency(latency)
        values = [stats.latency_percentile(p) for p in (10, 50, 90, 99)]
        assert values == sorted(values)

    def test_percentiles_land_in_as_dict(self):
        stats = StatsCollector()
        stats.count_read_latency(20)
        data = stats.as_dict()
        for percent in LATENCY_PERCENTILES:
            assert f"read_latency_p{percent}" in data
        assert data["read_latency_p50"] >= 20


class TestDerived:
    def test_ipc(self):
        stats = StatsCollector()
        stats.instructions = 8000
        stats.cycles = 1000
        assert stats.ipc(cpu_cycles_per_mem_cycle=8.0) == pytest.approx(1.0)

    def test_ipc_zero_cycles(self):
        assert StatsCollector().ipc(8.0) == 0.0

    def test_rates_with_no_reads(self):
        stats = StatsCollector()
        assert stats.row_hit_rate == 0.0
        assert stats.avg_read_latency == 0.0

    def test_as_dict_is_flat_and_complete(self):
        stats = StatsCollector()
        stats.reads = stats.row_hits = 1
        data = stats.as_dict()
        for key in ("reads", "row_hit_rate", "sense_bits", "cycles"):
            assert key in data
        assert all(isinstance(v, (int, float)) for v in data.values())
