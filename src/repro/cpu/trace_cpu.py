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

from typing import Optional

from ..config.params import CpuParams
from ..memsys.controller import (  # noqa: F401 (MemoryController: doc type)
    ANY_COMPLETION,
    ANY_READ,
    MemoryController,
)
from ..memsys.request import MemRequest, OpType
from ..memsys.stats import StatsCollector
from ..obs.events import EV_CPU_STALL, NULL_PROBE, Event, Probe
from ..workloads.packed import OP_READ, PackedTrace
from .rob import ReorderBuffer

#: :meth:`TraceCpu.waiting_on` for a core that has fetched and retired
#: its whole trace: it never acts again and, like a queued head's -1,
#: gives the clock nothing to watch (memory may still drain).
DONE = -4


class TraceCpu:
    """One core replaying one trace against one memory controller."""

    def __init__(
        self,
        params: CpuParams,
        trace: PackedTrace,
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
        # The trace replays by column index: no TraceRecord exists on
        # the replay path.
        if not isinstance(trace, PackedTrace):
            raise TypeError(
                f"a trace must be a PackedTrace, not {type(trace).__name__}"
                "; pack records with PackedTrace.from_records"
            )
        self._gaps = trace.gaps
        self._ops = trace.ops
        self._addresses = trace.addresses
        self._trace_len = len(trace)
        self._index = 0
        #: Scalar trace cursor: the pending access (valid when
        #: ``_have_current``), decomposed so replay never boxes records.
        self._have_current = False
        self._cur_is_read = False
        self._cur_address = 0
        self._gap_left = 0
        #: MSHRs held by reads in flight: taken at fetch, freed by the
        #: simulator when the read's data returns.
        self.mshrs_in_use = 0
        self._mshr_entries = params.mshr_entries
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
        index = self._index
        if index >= self._trace_len:
            self._have_current = False
            self._trace_done = True
            return
        self._index = index + 1
        self._gap_left = self._gaps[index]
        self._cur_is_read = self._ops[index] == OP_READ
        self._cur_address = self._addresses[index]
        self._have_current = True

    @property
    def trace_done(self) -> bool:
        return self._trace_done

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
        rob = self.rob
        retired = rob.retire(budget)
        self.instructions_retired += retired
        self.stats.instructions += retired
        if self.probe.enabled:
            # Once per visited cycle: counts depend on event skipping.
            # With a retire slot, retiring nothing from a non-empty ROB
            # means retirement stopped at the head: a load whose data
            # has not returned (see :meth:`waiting_on`).
            if retired == 0 and budget and rob.fetched != rob.retired:
                self.probe.emit(Event(EV_CPU_STALL, now, service="retire",
                                      value=self.owner))
            if (fetched == 0 and not self._trace_done
                    and rob.fetched - rob.retired == rob.capacity):
                self.probe.emit(Event(EV_CPU_STALL, now, service="fetch",
                                      value=self.owner))

    def _fetch(self, now: int, budget: int) -> int:
        """Bring up to ``budget`` instructions into the window.

        Gap instructions are admitted by advancing the ROB's fetch
        counter; only loads enter its FIFO.
        """
        rob = self.rob
        seq = rob.fetched
        room = rob.capacity - seq + rob.retired
        controller = self.controller
        fetched = 0
        while fetched < budget and self._have_current:
            gap = self._gap_left
            if gap > 0:
                take = budget - fetched
                if gap < take:
                    take = gap
                if room < take:
                    take = room
                seq += take
                fetched += take
                room -= take
                self._gap_left = gap - take
                if not room:
                    break  # ROB full
                continue
            if not room:
                break
            address = self._cur_address
            if self._cur_is_read:
                if (self.mshrs_in_use >= self._mshr_entries
                        or not controller.can_accept(
                            OpType.READ, address, now)):
                    break
                req = MemRequest(OpType.READ, address, owner=self.owner)
                controller.enqueue(req, now)
                rob.loads.append((seq, req))
                self.mshrs_in_use += 1
                self.loads_issued += 1
            else:
                if not controller.can_accept(OpType.WRITE, address, now):
                    break
                req = MemRequest(OpType.WRITE, address, owner=self.owner)
                controller.enqueue(req, now)
                self.stores_issued += 1
                # The store instruction itself retires in order like any
                # other instruction; it occupies a normal ROB slot (the
                # store *data* drains through the write queue).
            seq += 1
            room -= 1
            fetched += 1
            self._advance_record()
        rob.fetched = seq
        return fetched

    # -- event-skipping support ----------------------------------------------

    def waiting_on(self) -> Optional[int]:
        """What must happen before this core can make progress.

        ``None`` when it can act on the very next cycle, :data:`DONE`
        once its whole trace is fetched and retired.  Otherwise
        retirement is blocked on the ROB head's load and the front end
        cannot fetch:

        * :data:`~repro.memsys.controller.ANY_READ` when the fetch
          waits on an MSHR, which any read completion frees;
        * :data:`~repro.memsys.controller.ANY_COMPLETION` when the
          fetch polls a full controller queue: the stall ends at an
          issue (a controller event), but every cycle the core is
          visited counts one more refused admission, so the clock keeps
          visiting every completion;
        * else (ROB full, or nothing left to fetch) the cycle the
          head's load completes, or -1 while it is still queued: its
          issue is a controller event, and the completion cycle is
          known from then on.
        """
        rob = self.rob
        # The ROB-head rule: retirement is blocked while the head is a
        # load whose data has not returned.
        loads = rob.loads
        if not loads or loads[0][0] != rob.retired:
            if self._trace_done and rob.fetched == rob.retired:
                return DONE
            return None
        head = loads[0][1]
        if head.completed:
            return None
        if (self._have_current
                and rob.fetched - rob.retired < rob.capacity):
            if self._gap_left > 0:
                return None  # can still fetch plain instructions
            if self._cur_is_read:
                if self.mshrs_in_use >= self._mshr_entries:
                    return ANY_READ
                op = OpType.READ
            else:
                op = OpType.WRITE
            if self.controller.has_space(op, self._cur_address):
                return None
            return ANY_COMPLETION
        return head.completion_cycle
