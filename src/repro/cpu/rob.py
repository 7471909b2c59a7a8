"""Reorder-buffer model for the trace-replay CPU.

The ROB is a FIFO of two entry kinds:

* **instruction chunks** — runs of independent, always-ready
  instructions (the ``gap`` between memory accesses), stored as counts
  so the hot loop is O(1) per cycle rather than O(instructions),
* **load markers** — one per outstanding read; a load at the ROB head
  blocks retirement until its data returns.

Stores do not occupy ROB slots: they retire through the store buffer
(admission to the controller's write queue is the CPU-side flow control).
This is the conventional trace-replay abstraction (USIMM-style) — IPC
sensitivity to memory behaviour comes from ROB fill/stall dynamics, which
this captures.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Union

from ..memsys.request import MemRequest, RequestState

_COMPLETED = RequestState.COMPLETED


class _InstChunk:
    """A run of plain instructions, retire-ready from the start."""

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count


class _LoadMarker:
    """An in-flight read occupying one ROB slot until data returns."""

    __slots__ = ("request",)

    def __init__(self, request: MemRequest):
        self.request = request


RobEntry = Union[_InstChunk, _LoadMarker]


class ReorderBuffer:
    """Bounded in-order retirement window."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError("ROB must have at least one entry")
        self.capacity = entries
        self._fifo: Deque[RobEntry] = deque()
        #: Slots in use (instructions plus load markers).  A plain
        #: attribute: the CPU reads it every cycle.
        self.occupancy = 0

    @property
    def free_slots(self) -> int:
        return self.capacity - self.occupancy

    @property
    def is_empty(self) -> bool:
        return self.occupancy == 0

    # -- fill ---------------------------------------------------------------

    def push_instructions(self, count: int) -> int:
        """Insert up to ``count`` plain instructions; returns how many fit."""
        free = self.capacity - self.occupancy
        accepted = count if count < free else free
        if accepted <= 0:
            return 0
        tail = self._fifo[-1] if self._fifo else None
        if isinstance(tail, _InstChunk):
            tail.count += accepted
        else:
            self._fifo.append(_InstChunk(accepted))
        self.occupancy += accepted
        return accepted

    def push_load(self, request: MemRequest) -> bool:
        """Insert a load marker; False when the ROB is full."""
        if self.occupancy >= self.capacity:
            return False
        self._fifo.append(_LoadMarker(request))
        self.occupancy += 1
        return True

    # -- drain ---------------------------------------------------------------

    def retire(self, budget: int) -> int:
        """Retire up to ``budget`` entries in order; returns count retired.

        Retirement stops early at a load whose data has not returned.
        """
        fifo = self._fifo
        retired = 0
        while budget > 0 and fifo:
            head = fifo[0]
            if type(head) is _InstChunk:
                count = head.count
                take = budget if budget < count else count
                head.count = count - take
                retired += take
                budget -= take
                if take == count:
                    fifo.popleft()
            else:
                if head.request.state is not _COMPLETED:
                    break
                fifo.popleft()
                retired += 1
                budget -= 1
        self.occupancy -= retired
        return retired

    def head_blocked(self) -> bool:
        """True when the head is a load still waiting for data."""
        return self.blocking_load() is not None

    def blocking_load(self) -> Optional[MemRequest]:
        """The head load while its data has not returned, else None."""
        if self._fifo:
            head = self._fifo[0]
            if (type(head) is _LoadMarker
                    and head.request.state is not _COMPLETED):
                return head.request
        return None

    def head_request(self) -> Optional[MemRequest]:
        """The blocking head load, if any (for diagnostics)."""
        if self._fifo and isinstance(self._fifo[0], _LoadMarker):
            return self._fifo[0].request
        return None
