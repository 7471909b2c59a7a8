"""Failure injection: the system fails loudly, not wrongly.

Each test deliberately breaks a contract — a scheduler that ignores
issuability, a CPU that floods a queue, a simulator that can never make
progress — and checks the library raises the specific error instead of
silently mis-modelling.
"""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.errors import (
    ProtocolError,
    QueueFullError,
    SimulationError,
)
from repro.memsys.controller import MemoryController
from repro.memsys.request import MemRequest, OpType
from repro.memsys.scheduler import FrfcfsScheduler
from repro.memsys.stats import StatsCollector
from repro.sim.simulator import Simulator
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import stream_kernel


def make_controller(cfg=None):
    cfg = cfg or fgnvm(4, 4)
    cfg.org.rows_per_bank = 256
    return MemoryController(cfg, StatsCollector())


class RecklessScheduler(FrfcfsScheduler):
    """Ignores issuability: returns the oldest request regardless."""

    def rank(self, candidates, now):
        return sorted(
            candidates,
            key=lambda cand: (cand[0].arrival_cycle, cand[0].req_id),
        )


class TestProtocolViolations:
    def test_reckless_scheduler_trips_bank_protocol(self):
        ctrl = make_controller()
        ctrl.scheduler = RecklessScheduler()
        # Two conflicting reads (same CD, different SAGs): issuing the
        # second while the first senses violates the CD occupancy.
        ctrl.enqueue(MemRequest(OpType.READ, 0x0), 0)
        ctrl.enqueue(MemRequest(OpType.READ, 0x10000), 0)
        ctrl.tick(0)
        with pytest.raises(ProtocolError):
            for cycle in range(1, 40):
                ctrl.tick(cycle)

    def test_double_issue_same_request_is_rejected(self):
        ctrl = make_controller()
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 0)
        ctrl.tick(0)
        bank = ctrl.banks[req.decoded.flat_bank]
        with pytest.raises(ProtocolError):
            bank.issue(req, 1)  # resources already held by itself


class TestQueueOverflow:
    def test_read_queue_overflow_raises(self):
        ctrl = make_controller(baseline_nvm())
        capacity = ctrl.config.controller.read_queue_entries
        for i in range(capacity):
            ctrl.enqueue(MemRequest(OpType.READ, i * 0x100000), 0)
        with pytest.raises(QueueFullError):
            ctrl.enqueue(MemRequest(OpType.READ, 0xdead000), 0)

    def test_write_queue_overflow_raises(self):
        ctrl = make_controller(baseline_nvm())
        capacity = ctrl.config.controller.write_queue_entries
        for i in range(capacity):
            ctrl.enqueue(MemRequest(OpType.WRITE, i * 0x100000), 0)
        with pytest.raises(QueueFullError):
            ctrl.enqueue(MemRequest(OpType.WRITE, 0xdead000), 0)

    def test_cpu_respects_admission_instead_of_overflowing(self):
        # The replay CPU checks can_accept, so even a zero-gap store
        # storm must complete without a QueueFullError escaping.
        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        trace = PackedTrace.from_records(
            TraceRecord(0, OpType.WRITE, i * 64) for i in range(500)
        )
        result = Simulator(cfg, trace).run()
        assert result.stats.writes == 500


class TestSimulationGuards:
    def test_max_cycles_trips(self):
        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        cfg.sim.max_cycles = 50
        with pytest.raises(SimulationError) as excinfo:
            Simulator(cfg, stream_kernel(500, gap=50)).run()
        assert "max_cycles" in str(excinfo.value)

    def test_deadlock_guard_trips_when_memory_wedges(self):
        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        cfg.sim.deadlock_cycles = 500
        simulator = Simulator(cfg, stream_kernel(50, gap=5))

        # Wedge the controller: swallow every issue attempt so queued
        # requests never progress.
        controller = simulator.controller.controllers[0]
        controller._issue_phase = lambda now: None
        with pytest.raises(SimulationError) as excinfo:
            simulator.run()
        assert "no progress" in str(excinfo.value)

    def test_mshr_underflow_loudly_detected(self):
        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        simulator = Simulator(cfg, stream_kernel(5, gap=5))
        with pytest.raises(ValueError):
            simulator.cpu.on_read_completed(3)
