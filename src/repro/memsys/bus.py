"""Shared channel buses: command issue slots and data-burst lanes.

Every organisation the paper compares — baseline, FgNVM, 128 banks —
shares one command bus and one data bus per channel; Multi-Issue widens
both.  The paper calls data-bus collisions "column conflicts ... because
I/O lines are being used"; they are a first-order reason the 128-bank
design stays ahead of plain FgNVM.

* :class:`CommandBus` — at most ``issue_width`` commands per cycle.
* :class:`DataBus` — ``width`` lanes, each carrying one burst of
  ``tburst`` cycles; a transfer reserves the earliest lane at or after
  its desired start.
"""

from __future__ import annotations

from typing import List


class CommandBus:
    """Per-cycle command slot accounting."""

    def __init__(self, issue_width: int):
        if issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        self.issue_width = issue_width
        self._cycle = -1
        self._used = 0
        self.commands_issued = 0

    def slots_free(self, cycle: int) -> int:
        """Command slots still available in ``cycle``."""
        if cycle != self._cycle:
            return self.issue_width
        return self.issue_width - self._used

    def acquire(self, cycle: int) -> bool:
        """Take one command slot in ``cycle``; False when exhausted."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0
        if self._used >= self.issue_width:
            return False
        self._used += 1
        self.commands_issued += 1
        return True


class DataBus:
    """Multi-lane data bus with per-lane next-free tracking."""

    def __init__(self, width: int, tburst: int):
        if width < 1:
            raise ValueError("data bus width must be >= 1")
        if tburst < 1:
            raise ValueError("tburst must be >= 1")
        self.width = width
        self.tburst = tburst
        self._lane_free: List[int] = [0] * width
        self.transfers = 0
        self.busy_cycles = 0
        #: Cycles transfers spent waiting for a lane (column conflicts).
        self.conflict_cycles = 0

    def earliest_start(self, desired: int) -> int:
        """When the next transfer could start, given a desired cycle."""
        best = min(self._lane_free)
        return desired if desired >= best else best

    def reserve(self, desired: int) -> int:
        """Reserve one burst starting no earlier than ``desired``.

        Returns the actual start cycle (>= desired under contention).
        """
        lane_free = self._lane_free
        free = min(lane_free)
        # The first minimal lane, as ``min`` over lane indexes breaks ties.
        lane = lane_free.index(free)
        start = desired if desired > free else free
        lane_free[lane] = start + self.tburst
        self.transfers += 1
        self.busy_cycles += self.tburst
        self.conflict_cycles += start - desired
        return start

    def utilisation(self, elapsed_cycles: int) -> float:
        """Fraction of lane-cycles carrying data."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_cycles / (elapsed_cycles * self.width)
