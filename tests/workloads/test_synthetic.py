"""Synthetic micro-kernels: structure of each generated pattern."""

import pytest

from repro.memsys.request import OpType
from repro.workloads.synthetic import (
    copy_kernel,
    multi_stream_kernel,
    pointer_chase_kernel,
    random_kernel,
    stream_kernel,
    strided_kernel,
)


class TestStream:
    def test_sequential_reads(self):
        records = stream_kernel(10, gap=5, start=0x1000)
        assert len(records) == 10
        assert all(r.op is OpType.READ and r.gap == 5 for r in records)
        assert list(records.addresses[:3]) == [0x1000, 0x1040, 0x1080]


class TestCopy:
    def test_alternates_read_write(self):
        records = copy_kernel(10, gap=4)
        assert [r.op for r in list(records)[:4]] == [
            OpType.READ, OpType.WRITE, OpType.READ, OpType.WRITE
        ]
        # Writes land in the destination region.
        assert all(
            r.address >= 1 << 28 for r in records if r.op is OpType.WRITE
        )

    def test_half_are_writes(self):
        records = copy_kernel(20)
        writes = sum(1 for r in records if r.op is OpType.WRITE)
        assert writes == 10


class TestRandom:
    def test_deterministic_per_seed(self):
        assert random_kernel(50, seed=3) == random_kernel(50, seed=3)
        assert random_kernel(50, seed=3) != random_kernel(50, seed=4)

    def test_write_fraction(self):
        records = random_kernel(2000, write_fraction=0.5, seed=1)
        writes = sum(1 for r in records if r.op is OpType.WRITE)
        assert writes == pytest.approx(1000, rel=0.1)

    def test_footprint_respected(self):
        records = random_kernel(500, footprint_bytes=1 << 20)
        assert all(r.address < 1 << 20 for r in records)


class TestPointerChase:
    def test_single_dependent_stream(self):
        records = pointer_chase_kernel(100, gap=50)
        assert all(r.op is OpType.READ for r in records)
        assert all(r.gap == 50 for r in records)


class TestStrided:
    def test_stride_distance(self):
        records = strided_kernel(5, stride_lines=16)
        addresses = records.addresses
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {16 * 64}

    def test_rejects_zero_stride(self):
        with pytest.raises(ValueError):
            strided_kernel(5, stride_lines=0)


class TestMultiStream:
    def test_round_robin_across_streams(self):
        records = multi_stream_kernel(8, streams=4, stream_spacing_bytes=1 << 20)
        regions = [r.address >> 20 for r in records]
        assert regions == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_each_stream_advances_sequentially(self):
        records = multi_stream_kernel(8, streams=2, stream_spacing_bytes=1 << 20)
        stream0 = [r.address for r in records if r.address < 1 << 20]
        assert stream0 == [0, 64, 128, 192]

    def test_rejects_zero_streams(self):
        with pytest.raises(ValueError):
            multi_stream_kernel(4, streams=0)
