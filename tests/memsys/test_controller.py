"""Memory controller: admission, phases, issue, completion, flush."""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.memsys.controller import ANY_COMPLETION, ANY_READ, MemoryController
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import StatsCollector
from repro.obs import make_probe
from repro.obs.trace import RequestTracer


def controller_for(cfg):
    cfg.org.rows_per_bank = 256
    return MemoryController(cfg, StatsCollector())


@pytest.fixture
def ctrl():
    return controller_for(baseline_nvm())


@pytest.fixture
def fg_ctrl():
    return controller_for(fgnvm(4, 4))


def run_until(ctrl, req, limit=20_000):
    """Tick the controller until ``req`` completes; returns the cycle."""
    for cycle in range(limit):
        done = ctrl.tick(cycle)
        if req in done:
            return cycle
    raise AssertionError(f"request {req} never completed")


class TestAdmission:
    def test_enqueue_decodes(self, ctrl):
        req = MemRequest(OpType.READ, 0x4040)
        ctrl.enqueue(req, 0)
        assert req.decoded is not None
        assert len(ctrl.read_queue) == 1

    def test_can_accept_tracks_queue_space(self, ctrl):
        for i in range(32):
            assert ctrl.can_accept(OpType.READ)
            ctrl.enqueue(MemRequest(OpType.READ, i * 0x100000), 0)
        assert not ctrl.can_accept(OpType.READ)
        assert ctrl.can_accept(OpType.WRITE)

    def test_read_forwarded_from_write_queue(self, ctrl):
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x80), 0)
        read = MemRequest(OpType.READ, 0x80)
        ctrl.enqueue(read, 1)
        assert len(ctrl.read_queue) == 0
        assert read.service_kind == "forwarded"
        assert ctrl.forwarded_reads == 1
        cycle = run_until(ctrl, read)
        assert cycle <= 1 + ctrl.timing.tcas_hit + ctrl.timing.tburst


class TestReadService:
    def test_single_read_latency(self, ctrl):
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 0)
        run_until(ctrl, req)
        assert req.completed
        # tRCD + tCAS + tBURST for a cold miss.
        assert req.latency == 10 + 38 + 4

    def test_row_hits_ride_the_open_row(self, ctrl):
        miss = MemRequest(OpType.READ, 0x0)
        hit = MemRequest(OpType.READ, 0x40)  # same row, next line
        ctrl.enqueue(miss, 0)
        ctrl.enqueue(hit, 0)
        run_until(ctrl, hit)
        assert miss.service_kind == "row_miss"
        assert hit.service_kind == "row_hit"
        assert hit.completion_cycle > miss.completion_cycle

    def test_reads_to_different_banks_overlap(self, ctrl):
        bank_stride = 1 << 14  # one full row span x banks
        first = MemRequest(OpType.READ, 0)
        second = MemRequest(OpType.READ, 0x400)  # next bank, same row idx
        ctrl.enqueue(first, 0)
        ctrl.enqueue(second, 0)
        run_until(ctrl, second)
        # Bank-parallel: the second finishes well before 2x the miss
        # latency (it only loses the command slot and bus if contended).
        assert second.completion_cycle < first.completion_cycle + 20
        assert bank_stride  # silence unused (documentation constant)


class TestWritePhases:
    def test_writes_wait_for_drain_in_baseline(self, ctrl):
        write = MemRequest(OpType.WRITE, 0x40)
        read = MemRequest(OpType.READ, 0x20000)
        ctrl.enqueue(write, 0)
        ctrl.enqueue(read, 0)
        ctrl.tick(0)
        # The read got the slot; below watermark, the write waits.
        assert read.issue_cycle >= 0 and not read.completed
        assert write.issue_cycle == -1

    def test_writes_issue_when_no_reads(self, ctrl):
        write = MemRequest(OpType.WRITE, 0x40)
        ctrl.enqueue(write, 0)
        ctrl.tick(0)
        assert write.issue_cycle >= 0 and not write.completed

    def test_watermark_drain_prioritises_writes(self, ctrl):
        high = ctrl.config.controller.write_high_watermark
        for i in range(high):
            ctrl.enqueue(MemRequest(OpType.WRITE, 0x40 * (i + 1)), 0)
        read = MemRequest(OpType.READ, 0x100000)
        ctrl.enqueue(read, 0)
        ctrl.tick(0)
        assert read.issue_cycle == -1  # a write went first

    def test_eager_writes_fill_idle_slots(self, fg_ctrl):
        fg_ctrl.config.controller.eager_writes = True
        write = MemRequest(OpType.WRITE, 0x40)  # bank 0
        fg_ctrl.enqueue(write, 0)
        read = MemRequest(OpType.READ, 0x400)  # bank 1
        fg_ctrl.enqueue(read, 0)
        fg_ctrl.tick(0)   # read wins the first slot
        fg_ctrl.tick(1)   # write sneaks into the next idle slot
        assert write.issue_cycle >= 0 and not write.completed
        assert write.issue_cycle == 1

    @staticmethod
    def _two_tile_writes(cap, tracer=None):
        """Two writes to bank 0 in disjoint tiles, under ``cap``.

        0x0 is (SAG 0, CD 0) and 0x80200 is (SAG 1, CD 2): nothing but
        the write throttle keeps them apart once tCCD has passed.  The
        cap is set before the controller is built, which is when it is
        read.
        """
        cfg = fgnvm(4, 4)
        cfg.org.rows_per_bank = 256
        cfg.controller.max_writes_per_bank = cap
        ctrl = MemoryController(
            cfg, StatsCollector(), probe=make_probe(tracer=tracer)
        )
        first = MemRequest(OpType.WRITE, 0x0)
        second = MemRequest(OpType.WRITE, 0x80200)
        ctrl.enqueue(first, 0)
        ctrl.enqueue(second, 0)
        return ctrl, first, second

    @staticmethod
    def _tick_until_issued(ctrl, req, limit=1_000):
        for cycle in range(limit):
            ctrl.tick(cycle)
            if req.issue_cycle >= 0:
                return
        raise AssertionError(f"request {req} never issued")

    def test_write_cap_limits_inflight_writes_per_bank(self):
        ctrl, first, second = self._two_tile_writes(cap=1)
        assert (first.decoded.sag, first.decoded.cd) != (
            second.decoded.sag, second.decoded.cd)
        self._tick_until_issued(ctrl, second)
        assert first.issue_cycle == 0
        # The second write waits out the whole first write pulse.
        assert second.issue_cycle == first.completion_cycle == 76

    def test_uncapped_writes_overlap_in_one_bank(self):
        ctrl, first, second = self._two_tile_writes(cap=None)
        self._tick_until_issued(ctrl, second)
        assert first.issue_cycle == 0
        # Only the tCCD column gate separates the two writes.
        assert second.issue_cycle == ctrl.timing.tccd == 4
        assert second.issue_cycle < first.completion_cycle

    def test_capped_quiet_pass_memoizes_the_cap_release(self):
        ctrl, first, second = self._two_tile_writes(cap=1)
        ctrl.tick(0)
        bank = ctrl.banks[second.decoded.flat_bank]
        # At cycle 10 the bank itself would accept the second write.
        assert bank.earliest_start(second, 10) == 10
        ctrl.tick(10)
        assert second.issue_cycle == -1
        assert bank.write_cap_free_at(1) == first.completion_cycle
        assert ctrl._quiet_until == bank.write_cap_free_at(1)
        ctrl.tick(ctrl._quiet_until)
        assert second.issue_cycle == first.completion_cycle

    def test_capped_quiet_pass_not_memoized_while_traced(self):
        ctrl, first, second = self._two_tile_writes(
            cap=1, tracer=RequestTracer(sample_every=1)
        )
        ctrl.tick(0)
        ctrl.tick(10)
        assert second.issue_cycle == -1
        # The blame pass must run on every cycle the cap holds a traced
        # write back, so no quiet memo may skip those cycles.
        assert ctrl._quiet_until == 0

    def test_horizon_skips_to_the_cap_release(self):
        ctrl, first, second = self._two_tile_writes(cap=1)
        ctrl.tick(0)
        bank = ctrl.banks[second.decoded.flat_bank]
        assert bank.earliest_start(second, 10) == 10
        # Ready at the bank, held by the cap: no event before its release.
        assert ctrl.next_event_after(10) == bank.write_cap_free_at(1)

    def test_horizon_keeps_raw_cycles_while_traced(self):
        ctrl, first, second = self._two_tile_writes(
            cap=1, tracer=RequestTracer(sample_every=1)
        )
        ctrl.tick(0)
        # Each held cycle must be visited for the blame pass to read the
        # cap on it.
        assert ctrl.next_event_after(10) == 11

    def test_horizon_skips_writes_parked_behind_reads(self, ctrl):
        # Non-eager phase policy: while reads are queued, a write that
        # the bank would accept still waits.
        assert not ctrl.config.controller.eager_writes
        first = MemRequest(OpType.READ, 0x0)        # bank 0, row 0
        conflict = MemRequest(OpType.READ, 0x2000)  # bank 0, row 1
        write = MemRequest(OpType.WRITE, 0x400)     # bank 1
        for req in (first, conflict, write):
            ctrl.enqueue(req, 0)
        ctrl.tick(0)
        ctrl.tick(1)
        assert conflict.issue_cycle == write.issue_cycle == -1
        assert 2 < ctrl._quiet_until < first.completion_cycle
        assert ctrl.next_event_after(1) == ctrl._quiet_until


class TestFlushAndProgress:
    def test_flush_drains_everything(self, ctrl):
        for i in range(5):
            ctrl.enqueue(MemRequest(OpType.WRITE, 0x40 * i), 0)
        ctrl.begin_flush()
        for cycle in range(20_000):
            ctrl.tick(cycle)
            if not ctrl.busy():
                break
        assert not ctrl.busy()
        assert ctrl.stats.writes == 5

    def test_next_event_after_idle_is_none(self, ctrl):
        assert ctrl.next_event_after(100) is None

    def test_next_event_after_points_at_completion(self, ctrl):
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 0)
        ctrl.tick(0)
        # A completion is an event only when something observes it: a
        # core waiting on any read, or the end of the run.
        assert ctrl.next_event_after(0) is None
        assert ctrl.next_event_after(0, ANY_READ) == req.completion_cycle
        assert ctrl.next_event_after(0, ANY_COMPLETION) == \
            req.completion_cycle
        assert ctrl.next_event_after(0, last=True) == req.completion_cycle
        assert ctrl.next_completion() == req.completion_cycle

    def test_write_completions_wake_only_the_end_of_the_run(self, ctrl):
        first = MemRequest(OpType.WRITE, ctrl.mapper.encode(bank=0))
        second = MemRequest(OpType.WRITE, ctrl.mapper.encode(bank=1))
        ctrl.enqueue(first, 0)
        ctrl.enqueue(second, 0)
        ctrl.begin_flush()
        now = 0
        while ctrl.write_queue:
            ctrl.tick(now)
            now += 1
        assert now < first.completion_cycle < second.completion_cycle
        assert ctrl.next_event_after(now, ANY_READ) is None
        assert ctrl.next_event_after(now, ANY_COMPLETION) == \
            first.completion_cycle
        # The run ends when the last write finishes, not the first.
        assert ctrl.next_event_after(now, last=True) == \
            second.completion_cycle

    def test_next_event_after_visits_the_cycle_after_a_drain_flip(self,
                                                                 ctrl):
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x0), 0)
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x2000), 0)  # same bank
        ctrl.tick(0)
        assert ctrl.next_event_after(0) > 1
        ctrl.begin_flush()
        # The next pass publishes the drain event on time.
        assert ctrl.next_event_after(0) == 1

    def test_pending_counts_queues_and_inflight(self, ctrl):
        ctrl.enqueue(MemRequest(OpType.READ, 0x40), 0)
        ctrl.enqueue(MemRequest(OpType.WRITE, 0x80000), 0)
        assert ctrl.pending == 2
        ctrl.tick(0)
        assert ctrl.pending == 2  # one in flight, one queued


class TestQueueFullAccounting:
    def _fill_reads(self, ctrl):
        i = 0
        while ctrl.has_space(OpType.READ):
            ctrl.enqueue(MemRequest(OpType.READ, i * 0x100000), 0)
            i += 1

    def test_read_refusal_counts_event(self, ctrl):
        self._fill_reads(ctrl)
        before = ctrl.stats.read_queue_full_events
        assert not ctrl.can_accept(OpType.READ)
        assert not ctrl.can_accept(OpType.READ)
        assert ctrl.stats.read_queue_full_events == before + 2

    def test_write_refusal_counts_event(self, ctrl):
        i = 0
        while ctrl.has_space(OpType.WRITE):
            ctrl.enqueue(MemRequest(OpType.WRITE, i * 0x100000), 0)
            i += 1
        assert not ctrl.can_accept(OpType.WRITE)
        assert ctrl.stats.write_queue_full_events == 1

    def test_successful_admission_not_counted(self, ctrl):
        assert ctrl.can_accept(OpType.READ)
        assert ctrl.can_accept(OpType.WRITE)
        assert ctrl.stats.read_queue_full_events == 0
        assert ctrl.stats.write_queue_full_events == 0

    def test_has_space_is_pure(self, ctrl):
        self._fill_reads(ctrl)
        for _ in range(5):
            assert not ctrl.has_space(OpType.READ)
        assert ctrl.stats.read_queue_full_events == 0

    def test_refusal_emits_queue_stall_event(self):
        from repro.memsys.stats import StatsCollector
        from repro.obs import ListSink, make_probe
        from repro.obs.events import EV_QUEUE_STALL

        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        sink = ListSink()
        ctrl = MemoryController(
            cfg, StatsCollector(), probe=make_probe(sink)
        )
        self._fill_reads(ctrl)
        sink.events.clear()
        assert not ctrl.can_accept(OpType.READ, now=42)
        stalls = [e for e in sink.events if e.kind == EV_QUEUE_STALL]
        assert len(stalls) == 1
        assert stalls[0].cycle == 42
        assert stalls[0].op == "R"
        assert stalls[0].value == len(ctrl.read_queue)
