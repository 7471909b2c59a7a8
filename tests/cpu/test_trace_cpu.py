"""Trace-replay CPU: fetch/retire mechanics and IPC accounting."""

import pytest

from repro.config import baseline_nvm
from repro.cpu.trace_cpu import TraceCpu
from repro.memsys.controller import MemoryController
from repro.memsys.request import OpType
from repro.memsys.stats import StatsCollector
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord


def build(records, cfg=None):
    cfg = cfg or baseline_nvm()
    cfg.org.rows_per_bank = 256
    stats = StatsCollector()
    controller = MemoryController(cfg, stats)
    cpu = TraceCpu(cfg.cpu, PackedTrace.from_records(records), controller,
                   stats, cfg.timing.tck_ns)
    return cpu, controller, stats, cfg


def run(cpu, controller, stats, max_cycles=100_000):
    """Simple coupled loop (the Simulator adds event skipping on top)."""
    for cycle in range(max_cycles):
        done = controller.tick(cycle)
        reads = sum(1 for r in done if r.is_read)
        if reads:
            cpu.on_read_completed(reads)
        cpu.tick(cycle)
        if cpu.done():
            controller.begin_flush()
            if not controller.busy():
                stats.cycles = cycle + 1
                return cycle + 1
    raise AssertionError("run did not finish")


class TestPureCompute:
    def test_compute_only_trace_retires_at_peak(self):
        # One memory access after 3199 instructions, then nothing.
        trace = [TraceRecord(3199, OpType.READ, 0x40)]
        cpu, controller, stats, cfg = build(trace)
        cycles = run(cpu, controller, stats)
        ratio = cfg.cpu.cpu_cycles_per_mem_cycle(cfg.timing.tck_ns)
        ipc = stats.ipc(ratio)
        # 3200 instructions at width 4 with one ~52-cycle miss at the
        # end: IPC must be close to (but below) the peak width of 4.
        assert 2.0 < ipc <= 4.0
        assert stats.instructions == 3200
        assert cycles < 3200


class TestMemoryBound:
    def test_dependent_misses_serialise(self):
        # Gap-0 loads to distinct rows of one bank: each waits ~52cy.
        trace = [
            TraceRecord(0, OpType.READ, i * 1024 * 8 * 8)
            for i in range(20)
        ]
        cpu, controller, stats, _ = build(trace)
        cycles = run(cpu, controller, stats)
        assert cycles > 20 * 40  # strongly memory-bound

    def test_mshr_limit_caps_outstanding_reads(self):
        cfg = baseline_nvm()
        cfg.cpu.mshr_entries = 2
        trace = [TraceRecord(0, OpType.READ, i * 0x100000) for i in range(8)]
        cpu, controller, stats, _ = build(trace, cfg)
        controller.tick(0)
        cpu.tick(0)
        assert cpu.loads_issued == 2  # capped by MSHRs, not the queue

    def test_rob_limit_caps_fetch(self):
        cfg = baseline_nvm()
        cfg.cpu.rob_entries = 8
        trace = [TraceRecord(6, OpType.READ, 0x40),
                 TraceRecord(50, OpType.READ, 0x80)]
        cpu, controller, stats, _ = build(trace, cfg)
        controller.tick(0)
        cpu.tick(0)
        # 6 gap instructions + 1 load fill 7 of 8 slots; the second
        # record's 50-instruction gap cannot fit past slot 8.
        assert cpu.loads_issued == 1


class TestStores:
    def test_stores_do_not_block_retirement(self):
        trace = [TraceRecord(10, OpType.WRITE, i * 64) for i in range(10)]
        cpu, controller, stats, _ = build(trace)
        run(cpu, controller, stats)
        assert stats.instructions == 10 * 11
        assert cpu.stores_issued == 10

    def test_full_write_queue_stalls_fetch(self):
        cfg = baseline_nvm()
        trace = [TraceRecord(0, OpType.WRITE, i * 64) for i in range(100)]
        cpu, controller, stats, _ = build(trace, cfg)
        cpu.tick(0)
        assert cpu.stores_issued <= cfg.controller.write_queue_entries


class TestProgressQueries:
    def test_done_lifecycle(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, controller, stats, _ = build(trace)
        assert not cpu.done()
        run(cpu, controller, stats)
        assert cpu.done()
        assert cpu.trace_done

    def test_fully_stalled_on_blocked_head(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, controller, stats, _ = build(trace)
        cpu.tick(0)  # issues the load, head now blocked
        assert cpu.fully_stalled()

    def test_not_stalled_while_instructions_available(self):
        trace = [TraceRecord(0, OpType.READ, 0x40),
                 TraceRecord(500, OpType.READ, 0x80)]
        cpu, controller, stats, _ = build(trace)
        cpu.tick(0)
        # Head load pending but the gap still feeds the front end.
        assert not cpu.fully_stalled()

    def test_mshr_underflow_detected(self):
        trace = [TraceRecord(0, OpType.READ, 0x40)]
        cpu, _, _, _ = build(trace)
        with pytest.raises(ValueError):
            cpu.on_read_completed(1)


class TestTraceType:
    def test_record_list_rejected_with_packing_hint(self):
        cfg = baseline_nvm()
        stats = StatsCollector()
        controller = MemoryController(cfg, stats)
        with pytest.raises(TypeError, match="PackedTrace.from_records"):
            TraceCpu(cfg.cpu, [TraceRecord(0, OpType.READ, 0x40)],
                     controller, stats, cfg.timing.tck_ns)
