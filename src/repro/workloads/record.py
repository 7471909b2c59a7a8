"""Trace records: one row of a trace.

A trace (a :class:`~repro.workloads.packed.PackedTrace`) is a sequence
of LLC-miss-level memory accesses, each annotated with the number of
independent (non-memory) instructions the program executes before it.
This is the SimPoint-slice equivalent: the paper feeds gem5
quarter-billion-instruction SPEC2006 regions; we feed the CPU model
statistically equivalent streams (see
:mod:`repro.workloads.spec_profiles`).  Indexing or iterating a packed
trace yields :class:`TraceRecord` rows, and
:meth:`~repro.workloads.packed.PackedTrace.from_records` packs them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..memsys.request import OpType


@dataclass(frozen=True)
class TraceRecord:
    """One memory access plus its preceding instruction gap.

    ``gap`` — instructions executed (and retired) before this access;
    ``op`` — read or write; ``address`` — byte address (cache-line
    aligned by convention, but the simulator aligns defensively).
    """

    gap: int
    op: OpType
    address: int

    def __post_init__(self):
        if self.gap < 0:
            raise ValueError(f"negative instruction gap: {self.gap}")
        if self.address < 0:
            raise ValueError(f"negative address: {self.address:#x}")
