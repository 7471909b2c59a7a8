"""Trace transformations."""

import pytest

from repro.memsys.request import OpType
from repro.workloads.packed import PackedTrace, total_instructions
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import stream_kernel
from repro.workloads.transform import (
    concat_traces,
    interleave_traces,
    offset_trace,
    scale_gaps,
    slice_trace,
)


class TestOffset:
    def test_shifts_every_address(self):
        trace = stream_kernel(10)
        moved = offset_trace(trace, 1 << 30)
        assert all(
            m.address == t.address + (1 << 30)
            for m, t in zip(moved, trace)
        )
        assert [m.gap for m in moved] == [t.gap for t in trace]

    def test_rejects_unaligned_or_negative(self):
        with pytest.raises(ValueError):
            offset_trace(PackedTrace(), 10)
        with pytest.raises(ValueError):
            offset_trace(PackedTrace(), -64)

    def test_disjoint_offsets_do_not_alias(self):
        a = offset_trace(stream_kernel(50), 0)
        b = offset_trace(stream_kernel(50), 1 << 30)
        assert not {r.address for r in a} & {r.address for r in b}


class TestSliceConcat:
    def test_slice_region(self):
        trace = stream_kernel(20)
        region = slice_trace(trace, 5, 10)
        assert list(region) == list(trace)[5:15]

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            slice_trace(PackedTrace(), -1, 5)
        with pytest.raises(ValueError):
            slice_trace(PackedTrace(), 0, -5)

    def test_concat_preserves_order(self):
        a = stream_kernel(3)
        b = stream_kernel(2, start=1 << 20)
        merged = concat_traces(a, b)
        assert list(merged) == list(a) + list(b)


class TestScaleGaps:
    def test_mean_is_exact_under_fractional_scaling(self):
        trace = PackedTrace.from_records(
            TraceRecord(3, OpType.READ, i * 64) for i in range(100)
        )
        scaled = scale_gaps(trace, 0.5)
        # 3 * 0.5 = 1.5: alternating 1/2 keeps the long-run mean exact.
        assert sum(r.gap for r in scaled) == pytest.approx(150, abs=1)

    def test_zero_factor_compresses(self):
        scaled = scale_gaps(stream_kernel(10, gap=7), 0.0)
        assert all(r.gap == 0 for r in scaled)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scale_gaps(PackedTrace(), -1.0)


class TestInterleave:
    def test_preserves_all_records(self):
        a = stream_kernel(30, gap=10)
        b = stream_kernel(20, gap=10, start=1 << 22)
        merged = interleave_traces([a, b], quantum_instructions=50)
        assert len(merged) == 50
        assert total_instructions(merged) == (
            total_instructions(a) + total_instructions(b)
        )

    def test_round_robin_alternates_regions(self):
        a = stream_kernel(20, gap=9)       # 10 instructions per record
        b = stream_kernel(20, gap=9, start=1 << 22)
        merged = interleave_traces([a, b], quantum_instructions=20)
        regions = [address >> 22 for address in merged.addresses[:8]]
        # Two records per quantum, alternating sources.
        assert regions == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_uneven_sources_drain_completely(self):
        a = stream_kernel(5, gap=1)
        b = stream_kernel(50, gap=1, start=1 << 22)
        merged = interleave_traces([a, b], quantum_instructions=4)
        assert len(merged) == 55

    def test_oversized_accesses_are_taken_whole(self):
        # Every access costs 11 instructions, more than a whole quantum:
        # each turn takes exactly one instead of deferring it forever.
        a = stream_kernel(3, gap=10)
        b = stream_kernel(3, gap=10, start=1 << 22)
        merged = interleave_traces([a, b], quantum_instructions=5)
        regions = [address >> 22 for address in merged.addresses]
        assert regions == [0, 1, 0, 1, 0, 1]

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError):
            interleave_traces([PackedTrace()], quantum_instructions=0)
