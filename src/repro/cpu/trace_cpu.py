"""Trace-replay CPU core (the gem5 substitute).

Models a Nehalem-class out-of-order core at the granularity that matters
for memory-system studies:

* a :class:`~repro.cpu.rob.ReorderBuffer` bounds the instruction window,
* reads are issued to the memory controller as soon as they are fetched
  (out-of-order issue), bounded by MSHR count and controller queue space,
* a read at the ROB head blocks retirement until its data returns,
* writes retire through a store buffer and only stall the front end when
  the controller's write queue is full,
* fetch and retire bandwidth are ``retire_width`` per CPU cycle, scaled
  to the memory clock the simulator runs on.

IPC falls out as instructions retired per CPU cycle; Figure 4's speedups
are ratios of these IPCs across memory architectures.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..config.params import CpuParams
from ..memsys.controller import MemoryController  # noqa: F401 (doc type)
from ..memsys.request import MemRequest, OpType
from ..memsys.stats import StatsCollector
from ..obs.events import EV_CPU_STALL, NULL_PROBE, Event, Probe
from ..workloads.packed import OP_READ, PackedTrace, RecordView
from ..workloads.record import TraceRecord
from .rob import ReorderBuffer


class TraceCpu:
    """One core replaying one trace against one memory controller."""

    def __init__(
        self,
        params: CpuParams,
        trace: Iterable[TraceRecord],
        controller: MemoryController,
        stats: StatsCollector,
        tck_ns: float,
        owner: int = 0,
        probe: Probe = NULL_PROBE,
    ):
        self.params = params
        self.controller = controller
        #: Core index stamped on every request (multi-core routing).
        self.owner = owner
        self.stats = stats
        self.probe = probe
        self.rob = ReorderBuffer(params.rob_entries)
        # Packed traces replay by column index — no TraceRecord exists
        # on the replay path; anything else replays through an iterator.
        # Both cursors fill the same scalar fields, so the fetch loop is
        # representation-blind.
        if isinstance(trace, RecordView):
            trace = trace.packed
        if isinstance(trace, PackedTrace):
            self._packed: Optional[PackedTrace] = trace
            self._gaps = trace.gaps
            self._ops = trace.ops
            self._addresses = trace.addresses
            self._packed_len = len(trace)
            self._index = 0
            self._trace: Iterator[TraceRecord] = iter(())
        else:
            self._packed = None
            self._packed_len = 0
            self._index = 0
            self._trace = iter(trace)
        #: Scalar trace cursor: the pending access (valid when
        #: ``_have_current``), decomposed so neither path boxes records.
        self._have_current = False
        self._cur_is_read = False
        self._cur_address = 0
        self._gap_left = 0
        self._mshrs_in_use = 0
        self._trace_done = False
        self._per_mem_cycle = params.retire_width * params.cpu_cycles_per_mem_cycle(tck_ns)
        #: Fractional budget carry so non-integer CPU/memory clock ratios
        #: retire the exact long-run rate.
        self._budget_carry = 0.0
        #: Integral-ratio fast path: the default 3.2 GHz core on a
        #: 2.5 ns memory clock retires a whole number of instructions
        #: per memory cycle, so the carry stays zero forever and the
        #: per-cycle float arithmetic can be skipped.
        whole = int(self._per_mem_cycle)
        self._budget_int = whole if whole == self._per_mem_cycle else None
        self.instructions_retired = 0
        self.loads_issued = 0
        self.stores_issued = 0
        self._advance_record()

    # -- trace cursor -----------------------------------------------------

    def _advance_record(self) -> None:
        if self._packed is not None:
            index = self._index
            if index >= self._packed_len:
                self._have_current = False
                self._trace_done = True
                return
            self._index = index + 1
            self._gap_left = self._gaps[index]
            self._cur_is_read = self._ops[index] == OP_READ
            self._cur_address = self._addresses[index]
            self._have_current = True
            return
        try:
            record = next(self._trace)
        except StopIteration:
            self._have_current = False
            self._trace_done = True
            return
        self._gap_left = record.gap
        self._cur_is_read = record.op is OpType.READ
        self._cur_address = record.address
        self._have_current = True

    @property
    def trace_done(self) -> bool:
        return self._trace_done

    def done(self) -> bool:
        """All instructions fetched and retired (memory may still drain)."""
        return self._trace_done and self.rob.is_empty

    # -- per-cycle operation -----------------------------------------------

    def tick(self, now: int) -> None:
        """One memory-cycle step: fetch into the ROB, then retire."""
        if self._budget_int is not None:
            budget = self._budget_int
        else:
            budget_f = self._per_mem_cycle + self._budget_carry
            budget = int(budget_f)
            self._budget_carry = budget_f - budget

        fetched = self._fetch(now, budget)
        retired = self.rob.retire(budget)
        self.instructions_retired += retired
        self.stats.instructions += retired
        if self.probe.enabled:
            # Once per visited cycle: counts depend on event skipping.
            if retired == 0 and self.rob.head_blocked():
                self.probe.emit(Event(EV_CPU_STALL, now, service="retire",
                                      value=self.owner))
            if (fetched == 0 and not self._trace_done
                    and self.rob.free_slots == 0):
                self.probe.emit(Event(EV_CPU_STALL, now, service="fetch",
                                      value=self.owner))

    def _fetch(self, now: int, budget: int) -> int:
        """Bring up to ``budget`` instructions into the window."""
        fetched = 0
        while fetched < budget and self._have_current:
            if self._gap_left > 0:
                want = min(self._gap_left, budget - fetched)
                accepted = self.rob.push_instructions(want)
                fetched += accepted
                self._gap_left -= accepted
                if accepted < want:
                    break  # ROB full
                continue
            address = self._cur_address
            if self._cur_is_read:
                if (self._mshrs_in_use >= self.params.mshr_entries
                        or self.rob.free_slots < 1
                        or not self.controller.can_accept(
                            OpType.READ, address, now)):
                    break
                req = MemRequest(OpType.READ, address,
                                 owner=self.owner)
                self.controller.enqueue(req, now)
                self.rob.push_load(req)
                self._mshrs_in_use += 1
                self.loads_issued += 1
                fetched += 1
            else:
                if self.rob.free_slots < 1:
                    break
                if not self.controller.can_accept(
                        OpType.WRITE, address, now):
                    break
                req = MemRequest(OpType.WRITE, address,
                                 owner=self.owner)
                self.controller.enqueue(req, now)
                self.stores_issued += 1
                # The store instruction itself retires in order like any
                # other instruction; it occupies a normal ROB slot (the
                # store *data* drains through the write queue).
                self.rob.push_instructions(1)
                fetched += 1
            self._advance_record()
        return fetched

    def on_read_completed(self, count: int = 1) -> None:
        """Free MSHRs when read data returns (called by the simulator)."""
        self._mshrs_in_use -= count
        if self._mshrs_in_use < 0:
            raise ValueError("MSHR underflow: completion without issue")

    # -- event-skipping support ----------------------------------------------

    def fully_stalled(self) -> bool:
        """No forward progress possible until a memory event occurs.

        True when retirement is blocked on the head load and the front
        end cannot fetch (ROB full, MSHRs exhausted, queue full, or the
        next record is an unissuable memory access with no gap left).
        """
        if not self.rob.head_blocked():
            return False
        if self._trace_done or not self._have_current:
            return True
        if self.rob.free_slots == 0:
            return True
        if self._gap_left > 0:
            return False  # can still fetch plain instructions
        address = self._cur_address
        if self._cur_is_read:
            return (
                self._mshrs_in_use >= self.params.mshr_entries
                or not self.controller.has_space(OpType.READ, address)
            )
        return not self.controller.has_space(OpType.WRITE, address)
