"""Trace records and aggregate metrics."""

import pytest

from repro.memsys.request import OpType
from repro.workloads.packed import (
    PackedTrace,
    read_fraction,
    total_instructions,
    trace_mpki,
)
from repro.workloads.record import TraceRecord


class TestTraceRecord:
    def test_fields_are_frozen(self):
        record = TraceRecord(5, OpType.READ, 0x40)
        with pytest.raises(AttributeError):
            record.gap = 10

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, OpType.READ, 0)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            TraceRecord(0, OpType.READ, -64)


class TestAggregates:
    def trace(self):
        return PackedTrace.from_records([
            TraceRecord(9, OpType.READ, 0x00),
            TraceRecord(9, OpType.WRITE, 0x40),
            TraceRecord(9, OpType.READ, 0x80),
            TraceRecord(9, OpType.READ, 0xc0),
        ])

    def test_total_instructions_counts_accesses(self):
        assert total_instructions(self.trace()) == 40

    def test_read_fraction(self):
        assert read_fraction(self.trace()) == pytest.approx(0.75)
        assert read_fraction(PackedTrace()) == 0.0

    def test_trace_mpki(self):
        assert trace_mpki(self.trace()) == pytest.approx(100.0)
        assert trace_mpki(PackedTrace()) == 0.0
