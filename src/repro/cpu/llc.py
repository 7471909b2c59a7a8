"""A last-level cache filter model.

The paper selects SPEC2006 workloads by their LLC miss rate (MPKI >= 10)
and feeds only the miss stream to memory.  Our synthetic profiles emit
miss-level traces directly, but raw address streams (e.g. from the
synthetic kernels in :mod:`repro.workloads.synthetic`, or user-supplied
traces) can be turned into miss streams with this set-associative
write-back, write-allocate cache.

Dirty evictions become memory writes, which is where most main-memory
write traffic comes from — the mechanism Backgrounded Writes targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..units import is_power_of_two, log2_exact
from ..workloads.packed import OP_READ, OP_WRITE, PackedTrace


@dataclass
class LlcStats:
    """Access/miss accounting for one filtering pass."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.misses / instructions


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Address of a dirty line evicted by this access, if any.
    writeback_address: Optional[int] = None


class LastLevelCache:
    """Set-associative LRU cache, write-back + write-allocate."""

    def __init__(
        self,
        size_bytes: int = 2 * 1024 * 1024,
        ways: int = 16,
        line_bytes: int = 64,
    ):
        if not is_power_of_two(line_bytes):
            raise ValueError("line size must be a power of two")
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must divide into ways * lines")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if not is_power_of_two(self.num_sets):
            raise ValueError("set count must be a power of two")
        self._offset_bits = log2_exact(line_bytes)
        self._set_mask = self.num_sets - 1
        # One ordered dict per set: tag -> dirty, insertion order = LRU.
        self._sets: List[Dict[int, bool]] = [
            {} for _ in range(self.num_sets)
        ]
        self.stats = LlcStats()

    def access(self, address: int, is_write: bool) -> AccessResult:
        """Touch one address, updating LRU/dirty state and stats."""
        block = address >> self._offset_bits
        lines = self._sets[block & self._set_mask]
        self.stats.accesses += 1
        if block in lines:
            dirty = lines.pop(block)
            lines[block] = dirty or is_write  # re-insert as MRU
            return AccessResult(hit=True)
        self.stats.misses += 1
        writeback = None
        if len(lines) >= self.ways:
            victim_block, victim_dirty = next(iter(lines.items()))
            del lines[victim_block]
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim_block << self._offset_bits
        lines[block] = is_write
        return AccessResult(hit=False, writeback_address=writeback)

    def filter_trace(self, trace: PackedTrace) -> PackedTrace:
        """The memory-level trace a cached CPU would emit.

        Misses become memory reads (line fills) carrying the accumulated
        instruction gap of the hits they absorb; dirty evictions become
        memory writes with zero gap (writebacks leave asynchronously).
        """
        misses = PackedTrace()
        pending_gap = 0
        for gap, op_code, address in trace.rows():
            pending_gap += gap
            result = self.access(address, op_code == OP_WRITE)
            if result.hit:
                pending_gap += 1  # the hit retires as a plain instruction
                continue
            misses.append(pending_gap, OP_READ, address)
            pending_gap = 0
            if result.writeback_address is not None:
                misses.append(0, OP_WRITE, result.writeback_address)
        return misses

    def resident_lines(self) -> int:
        """Lines currently cached (tests and occupancy reporting)."""
        return sum(len(lines) for lines in self._sets)
