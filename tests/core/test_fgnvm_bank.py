"""FgNVM bank state machine: the three access modes in cycle detail.

Timing constants under test (Table 2 at tCK=2.5ns): tRCD=10, tCAS=38,
tCAS_hit=6, tCCD=4, tBURST=4, write occupancy tCWD+tWP+tWR=66 cycles.
"""

import pytest

from repro.config import fgnvm, with_reliability
from repro.config.params import TimingParams
from repro.core.fgnvm_bank import FgNvmBank, make_fgnvm_bank
from repro.errors import ProtocolError
from repro.memsys.address import AddressMapper
from repro.memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_UNDERFETCH,
    SERVICE_WRITE,
    SERVICE_WRITE_MISS,
    MemRequest,
    OpType,
)
from repro.memsys.stats import StatsCollector

TRCD, TCAS, THIT, TCCD, TBURST = 10, 38, 6, 4, 4
MISS_BUSY = TRCD + TCAS  # 48
WRITE_BUSY = 3 + 60 + 3  # 66


@pytest.fixture
def setup():
    """A 4x4 FgNVM bank plus its mapper and stats."""
    cfg = fgnvm(4, 4)
    cfg.org.rows_per_bank = 256
    stats = StatsCollector()
    bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(), stats)
    mapper = AddressMapper(cfg.org)
    return bank, mapper, stats


def read_at(mapper, sag=0, cd=0, row_in_sag=0, col_in_cd=0):
    """A read targeting explicit (SAG, CD) coordinates."""
    org_rows_per_sag = 256 // 4
    row = sag * org_rows_per_sag + row_in_sag
    col = cd * 4 + col_in_cd
    req = MemRequest(OpType.READ, mapper.encode(row=row, col=col))
    req.decoded = mapper.decode(req.address)
    assert req.decoded.sag == sag and req.decoded.cd == cd
    return req


def write_at(mapper, sag=0, cd=0, row_in_sag=0, col_in_cd=0):
    req = read_at(mapper, sag, cd, row_in_sag, col_in_cd)
    wreq = MemRequest(OpType.WRITE, req.address)
    wreq.decoded = req.decoded
    return wreq


class TestClassification:
    def test_fresh_bank_misses(self, setup):
        bank, mapper, _ = setup
        assert bank.classify(read_at(mapper)) == SERVICE_ROW_MISS
        assert bank.classify(write_at(mapper)) == SERVICE_WRITE_MISS

    def test_miss_then_hit_same_line(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper), 0)
        assert bank.classify(read_at(mapper)) == SERVICE_ROW_HIT
        assert bank.is_row_hit(read_at(mapper))

    def test_same_cd_other_column_is_hit(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, col_in_cd=0), 0)
        # The whole CD slice of the row is latched by one sense.
        assert bank.classify(read_at(mapper, col_in_cd=3)) == SERVICE_ROW_HIT

    def test_same_row_other_cd_is_underfetch(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, cd=0), 0)
        assert bank.classify(read_at(mapper, cd=1)) == SERVICE_UNDERFETCH

    def test_other_row_same_sag_is_miss(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, row_in_sag=0), 0)
        assert bank.classify(read_at(mapper, row_in_sag=1)) == SERVICE_ROW_MISS

    def test_write_to_open_row_is_write_hit(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper), 0)
        assert bank.classify(write_at(mapper)) == SERVICE_WRITE
        assert bank.is_row_hit(write_at(mapper))


class TestReadTiming:
    def test_miss_latency(self, setup):
        bank, mapper, _ = setup
        result = bank.issue(read_at(mapper), 0)
        assert result.kind == SERVICE_ROW_MISS
        assert result.bus_desired_start == MISS_BUSY
        assert result.data_ready == MISS_BUSY + TBURST
        assert result.occupies_until == MISS_BUSY

    def test_hit_latency(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper), 0)
        hit = read_at(mapper, col_in_cd=1)
        start = bank.earliest_start(hit, MISS_BUSY)
        assert start == MISS_BUSY
        result = bank.issue(hit, MISS_BUSY)
        assert result.kind == SERVICE_ROW_HIT
        assert result.data_ready == MISS_BUSY + THIT + TBURST

    def test_underfetch_latency(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, cd=0), 0)
        uf = read_at(mapper, cd=1)
        start = bank.earliest_start(uf, TRCD)
        result = bank.issue(uf, start)
        assert result.kind == SERVICE_UNDERFETCH
        # Sense only (no tRCD): data leaves tCAS + tBURST after issue.
        assert result.bus_desired_start == start + TCAS
        assert result.data_ready == start + TCAS + TBURST

    def test_column_gate_spaces_commands(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        other = read_at(mapper, sag=1, cd=1)
        assert bank.earliest_start(other, 0) == TCCD


class TestMultiActivation:
    def test_disjoint_tiles_overlap(self, setup):
        bank, mapper, stats = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        second = read_at(mapper, sag=1, cd=1)
        start = bank.earliest_start(second, TCCD)
        assert start == TCCD  # only the column gate, no tile conflict
        bank.issue(second, start)
        assert stats.multi_activation_senses == 1

    def test_same_cd_serialises(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        blocked = read_at(mapper, sag=1, cd=0)
        assert bank.earliest_start(blocked, TCCD) == MISS_BUSY

    def test_same_sag_other_row_serialises(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0, row_in_sag=0), 0)
        blocked = read_at(mapper, sag=0, cd=1, row_in_sag=1)
        assert bank.earliest_start(blocked, TCCD) == MISS_BUSY

    def test_same_sag_same_row_overlaps_after_wordline_up(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        friend = read_at(mapper, sag=0, cd=1)
        # Wordline is stable after tRCD; the second CD senses in parallel.
        assert bank.earliest_start(friend, TCCD) == TRCD

    def test_max_parallelism_bounded_by_grid(self, setup):
        bank, mapper, stats = setup
        for i in range(4):
            req = read_at(mapper, sag=i, cd=i)
            bank.issue(req, bank.earliest_start(req, i * TCCD))
        assert stats.senses == 4
        assert stats.multi_activation_senses == 3


class TestBackgroundedWrites:
    def test_write_occupancy(self, setup):
        bank, mapper, _ = setup
        result = bank.issue(write_at(mapper), 0)
        assert result.kind == SERVICE_WRITE_MISS
        assert result.occupies_until == TRCD + WRITE_BUSY

    def test_write_hit_skips_activation(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper), 0)
        write = write_at(mapper)
        result = bank.issue(write, MISS_BUSY)
        assert result.kind == SERVICE_WRITE
        assert result.occupies_until == MISS_BUSY + WRITE_BUSY

    def test_write_blocks_its_sag_and_cd(self, setup):
        bank, mapper, _ = setup
        bank.issue(write_at(mapper, sag=0, cd=0), 0)
        until = TRCD + WRITE_BUSY
        same_sag = read_at(mapper, sag=0, cd=1)
        same_cd = read_at(mapper, sag=1, cd=0)
        assert bank.earliest_start(same_sag, TCCD) == until
        assert bank.earliest_start(same_cd, TCCD) == until

    def test_read_during_write_elsewhere(self, setup):
        bank, mapper, stats = setup
        bank.issue(write_at(mapper, sag=0, cd=0), 0)
        reader = read_at(mapper, sag=1, cd=1)
        assert bank.earliest_start(reader, TCCD) == TCCD
        bank.issue(reader, TCCD)
        assert stats.reads_under_write == 1

    def test_buffered_hit_during_write_other_cd(self, setup):
        bank, mapper, stats = setup
        bank.issue(read_at(mapper, sag=1, cd=1), 0)
        bank.issue(write_at(mapper, sag=0, cd=0), MISS_BUSY)
        hit = read_at(mapper, sag=1, cd=1, col_in_cd=2)
        start = bank.earliest_start(hit, MISS_BUSY + TCCD)
        assert start == MISS_BUSY + TCCD
        bank.issue(hit, start)
        assert stats.reads_under_write == 1

    def test_write_throttle_query(self, setup):
        bank, mapper, _ = setup
        assert bank.active_writes(0) == 0
        bank.issue(write_at(mapper, sag=0, cd=0), 0)
        assert bank.active_writes(1) == 1
        assert bank.active_writes(TRCD + WRITE_BUSY) == 0


class TestProtocolEnforcement:
    def test_premature_issue_raises(self, setup):
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        conflicting = read_at(mapper, sag=1, cd=0)
        with pytest.raises(ProtocolError):
            bank.issue(conflicting, TCCD)

    def test_issue_does_not_trust_the_scheduling_memo(self, setup):
        """A memo entry claiming "issuable now" must not let a request
        through whose real constraint lies in the future."""
        bank, mapper, _ = setup
        bank.issue(read_at(mapper, sag=0, cd=0), 0)
        conflicting = read_at(mapper, sag=1, cd=0)
        kind, constraint = bank.kind_and_constraint(conflicting)
        assert constraint == MISS_BUSY
        [key] = [k for k, v in bank.sched_memo.items()
                 if v == (kind, constraint)]
        bank.sched_memo[key] = (kind, 0)
        assert bank.kind_and_constraint(conflicting) == (kind, 0)
        with pytest.raises(ProtocolError):
            bank.issue(conflicting, TCCD)

class TestEnergyAccounting:
    def test_sense_bits_per_cd_slice(self, setup):
        bank, mapper, stats = setup
        bank.issue(read_at(mapper), 0)
        # 1KB row over 4 CDs -> 256B = 2048 bits per sense.
        assert stats.sense_bits == 2048

    def test_hit_senses_nothing(self, setup):
        bank, mapper, stats = setup
        bank.issue(read_at(mapper), 0)
        bank.issue(read_at(mapper, col_in_cd=1), MISS_BUSY)
        assert stats.senses == 1

    def test_fgnvm_write_senses_one_slice(self, setup):
        bank, mapper, stats = setup
        bank.issue(write_at(mapper), 0)
        assert stats.write_bits == 512
        # Partial activation for the write senses only its CD slice.
        assert stats.sense_bits == 2048


class TestCdSpan:
    def make_span_bank(self):
        """2 SAGs x 16 CDs over an 8-column row: every line spans 2 CDs."""
        cfg = fgnvm(2, 8)
        cfg.org.rows_per_bank = 64
        cfg.org.row_size_bytes = 512  # 8 cache lines per row
        cfg.org.column_divisions = 16  # 32B per CD
        stats = StatsCollector()
        bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(), stats)
        mapper = AddressMapper(cfg.org)
        return bank, mapper, stats

    def test_span_is_two(self):
        bank, _, _ = self.make_span_bank()
        assert bank.cd_span == 2

    def test_access_occupies_both_cds(self):
        bank, mapper, _ = self.make_span_bank()
        req = MemRequest(OpType.READ, mapper.encode(col=0))
        req.decoded = mapper.decode(req.address)
        bank.issue(req, 0)
        assert bank.grid.cd_free_at(0) == MISS_BUSY
        assert bank.grid.cd_free_at(1) == MISS_BUSY
        assert bank.grid.cd_free_at(2) == 0

    def test_sense_bits_cover_whole_line(self):
        bank, mapper, stats = self.make_span_bank()
        req = MemRequest(OpType.READ, mapper.encode(col=0))
        req.decoded = mapper.decode(req.address)
        bank.issue(req, 0)
        # 512B row / 16 CDs = 32B (256-bit) slices; a 64B line spans two,
        # so exactly one cache line's worth of bits is sensed (the
        # paper's "8x32 reads no more than one cache line at a time").
        assert bank.sense_bits == 256
        assert stats.sense_bits == 512


class TestClosePage:
    def make_closed_bank(self):
        cfg = fgnvm(4, 4)
        cfg.org.rows_per_bank = 256
        stats = StatsCollector()
        bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(), stats)
        bank.close_page = True
        return bank, AddressMapper(cfg.org), stats

    def test_every_access_misses(self):
        bank, mapper, stats = self.make_closed_bank()
        first = read_at(mapper)
        bank.issue(first, 0)
        again = read_at(mapper)
        # Same line immediately afterwards: the page closed behind it.
        assert bank.classify(again) == SERVICE_ROW_MISS
        assert bank.open_rows() == [None] * 4

    def test_no_hits_accumulate(self):
        bank, mapper, stats = self.make_closed_bank()
        now = 0
        for _ in range(4):
            req = read_at(mapper)
            now = bank.earliest_start(req, now)
            bank.issue(req, now)
        assert stats.row_hits == 0
        assert stats.row_misses == 4

    def test_writes_also_close(self):
        bank, mapper, _ = self.make_closed_bank()
        write = write_at(mapper)
        bank.issue(write, 0)
        assert bank.open_rows() == [None] * 4
        assert bank.classify(read_at(mapper)) == SERVICE_ROW_MISS

    def wear_out(self, sag, cd):
        """Write (sag, cd) twice on a bank whose tiles survive one write
        and which has one spare: the second write retires the tile and
        remaps it onto the next live one."""
        cfg = with_reliability(fgnvm(4, 4), endurance_writes=1,
                               spare_tiles=1)
        cfg.org.rows_per_bank = 256
        bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(),
                               StatsCollector(), reliability=cfg.reliability)
        bank.close_page = True
        mapper = AddressMapper(cfg.org)
        now = 0
        for _ in range(2):
            write = write_at(mapper, sag=sag, cd=cd)
            now = bank.earliest_start(write, now)
            bank.issue(write, now)
        assert (sag, cd) in bank.reliability.remap
        return bank, mapper

    def test_retiring_write_closes_its_own_tile(self):
        bank, _ = self.wear_out(sag=0, cd=0)
        assert bank.reliability.remap[(0, 0)] == (0, 1)
        assert bank.buffer_tag == [None] * 4
        assert bank.open_rows() == [None] * 4

    def test_retiring_write_closes_its_sag_when_remapped_across(self):
        bank, mapper = self.wear_out(sag=0, cd=3)
        assert bank.reliability.remap[(0, 3)] == (1, 0)
        assert bank.buffer_tag == [None] * 4
        assert bank.open_rows() == [None] * 4
        # Same row, other CD of the written SAG: the wordline is down.
        assert bank.classify(write_at(mapper, sag=0, cd=2)) == (
            SERVICE_WRITE_MISS)
