"""Trace transformations: offset, slice, concatenate, rescale.

Utilities for composing studies out of existing traces:

* :func:`offset_trace` — relocate a trace to a different address base.
  Multi-programmed mixes need this: two programs must not alias the
  same physical lines, or the controller's store-to-load forwarding
  would couple them (`repro.sim.multicore` callers offset each core).
* :func:`slice_trace` — take a region of interest (SimPoint-style).
* :func:`concat_traces` — phases back to back.
* :func:`scale_gaps` — change a trace's memory intensity (MPKI) while
  keeping its address pattern.
* :func:`interleave_traces` — round-robin merge by instruction budget
  (a context-switching single core running several programs).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

from .packed import PackedTrace


def _column(values) -> array:
    """A fresh local int64 column holding ``values``."""
    return array("q", values)


def offset_trace(trace: PackedTrace, base: int) -> PackedTrace:
    """Shift every address by ``base`` bytes (cache-line aligned).

    >>> from repro.workloads.packed import OP_READ
    >>> t = PackedTrace.from_rows([(1, OP_READ, 0x40)])
    >>> offset_trace(t, 1 << 30)[0].address == 0x40 + (1 << 30)
    True
    """
    if base % 64 != 0:
        raise ValueError("offset must be cache-line aligned")
    if base < 0:
        raise ValueError("offset must be non-negative")
    return PackedTrace(
        _column(trace.gaps), _column(trace.ops),
        _column(address + base for address in trace.addresses),
    )


def slice_trace(trace: PackedTrace, start: int, count: int) -> PackedTrace:
    """Accesses [start, start+count) — a region of interest."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    window = slice(start, start + count)
    return PackedTrace(
        _column(trace.gaps[window]), _column(trace.ops[window]),
        _column(trace.addresses[window]),
    )


def concat_traces(*traces: PackedTrace) -> PackedTrace:
    """Run traces back to back (program phases)."""
    merged = PackedTrace()
    for trace in traces:
        merged.gaps.extend(trace.gaps)
        merged.ops.extend(trace.ops)
        merged.addresses.extend(trace.addresses)
    return merged


def scale_gaps(trace: PackedTrace, factor: float) -> PackedTrace:
    """Multiply instruction gaps by ``factor`` (changes MPKI by ~1/factor).

    Fractional parts are carried between accesses so the long-run mean
    is exact rather than rounded per access.
    """
    if factor < 0:
        raise ValueError("factor must be non-negative")
    gaps = _column(())
    carry = 0.0
    for gap in trace.gaps:
        exact = gap * factor + carry
        gap = int(exact)
        carry = exact - gap
        gaps.append(gap)
    return PackedTrace(gaps, _column(trace.ops), _column(trace.addresses))


def interleave_traces(
    traces: Sequence[PackedTrace],
    quantum_instructions: int = 10_000,
) -> PackedTrace:
    """Round-robin merge by instruction budget (context switching).

    Each turn takes accesses from one trace until ``quantum_instructions``
    retire, then switches; an access that costs more than a whole
    quantum fills one turn by itself.  Exhausted traces drop out; the
    result ends when all do.
    """
    if quantum_instructions < 1:
        raise ValueError("quantum must be >= 1 instruction")
    cursors: List[Iterator[Tuple[int, int, int]]] = [
        trace.rows() for trace in traces
    ]
    pending: List[Optional[Tuple[int, int, int]]] = [None] * len(traces)
    live = set(range(len(traces)))
    merged = PackedTrace()

    def pull(index: int):
        if pending[index] is not None:
            row, pending[index] = pending[index], None
            return row
        try:
            return next(cursors[index])
        except StopIteration:
            live.discard(index)
            return None

    turn = 0
    while live:
        index = turn % len(traces)
        turn += 1
        if index not in live:
            continue
        budget = quantum_instructions
        while budget > 0:
            row = pull(index)
            if row is None:
                break
            cost = row[0] + 1
            if cost > budget and budget < quantum_instructions:
                # Does not fit the rest of this quantum: save it for
                # the next turn, whose fresh quantum takes it whole.
                pending[index] = row
                break
            merged.append(*row)
            budget -= cost
    return merged
