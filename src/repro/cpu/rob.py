"""Reorder-buffer model for the trace-replay CPU.

Instructions are numbered in fetch order, so the window is the range
``[retired, fetched)`` of two counters: the ``gap`` instructions
between memory accesses are always ready and need no storage at all.
Only loads are stored, as ``(seq, request)`` pairs in fetch order; a
load at the ROB head blocks retirement until its data returns.

Stores do not occupy ROB slots: they retire through the store buffer
(admission to the controller's write queue is the CPU-side flow control).
This is the conventional trace-replay abstraction (USIMM-style) — IPC
sensitivity to memory behaviour comes from ROB fill/stall dynamics, which
this captures.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from ..memsys.request import MemRequest


class ReorderBuffer:
    """Bounded in-order retirement window.

    ``fetched`` and ``retired`` are plain attributes: the CPU reads and
    advances them directly on its hot path.
    """

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError("ROB must have at least one entry")
        self.capacity = entries
        #: Instructions admitted so far: the next one's sequence number.
        self.fetched = 0
        #: Instructions retired so far: the head's sequence number.
        self.retired = 0
        #: Outstanding loads as ``(seq, request)``, oldest first.
        self.loads: Deque[Tuple[int, MemRequest]] = deque()

    @property
    def occupancy(self) -> int:
        """Slots in use (instructions plus loads)."""
        return self.fetched - self.retired

    @property
    def free_slots(self) -> int:
        return self.capacity - self.fetched + self.retired

    @property
    def is_empty(self) -> bool:
        return self.fetched == self.retired

    # -- fill ---------------------------------------------------------------

    def push_instructions(self, count: int) -> int:
        """Insert up to ``count`` plain instructions; returns how many fit."""
        free = self.capacity - self.fetched + self.retired
        accepted = count if count < free else free
        if accepted <= 0:
            return 0
        self.fetched += accepted
        return accepted

    def push_load(self, request: MemRequest) -> bool:
        """Insert a load; False when the ROB is full."""
        if self.fetched - self.retired >= self.capacity:
            return False
        self.loads.append((self.fetched, request))
        self.fetched += 1
        return True

    # -- drain ---------------------------------------------------------------

    def retire(self, budget: int) -> int:
        """Retire up to ``budget`` entries in order; returns count retired.

        Retirement stops early at a load whose data has not returned.
        """
        start = self.retired
        limit = start + budget
        if limit > self.fetched:
            limit = self.fetched
        loads = self.loads
        while loads:
            seq, request = loads[0]
            if seq >= limit:
                break
            if not request.completed:
                limit = seq
                break
            loads.popleft()
        self.retired = limit
        return limit - start
