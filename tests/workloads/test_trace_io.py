"""Trace file I/O: round-trips and malformed-input handling."""

import io

import pytest

from repro.errors import TraceFormatError
from repro.memsys.request import OpType
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.trace_io import (
    read_nvmain_trace,
    read_trace,
    trace_to_string,
    write_nvmain_trace,
    write_trace,
)


@pytest.fixture
def records():
    return PackedTrace.from_records([
        TraceRecord(10, OpType.READ, 0x1000),
        TraceRecord(0, OpType.WRITE, 0x2040),
        TraceRecord(250, OpType.READ, 0xdeadbeef40),
    ])


class TestNativeFormat:
    def test_roundtrip_through_file(self, records, tmp_path):
        path = tmp_path / "trace.txt"
        count = write_trace(records, path)
        assert count == 3
        assert read_trace(path) == records

    def test_roundtrip_through_stream(self, records):
        text = trace_to_string(records)
        assert read_trace(io.StringIO(text)) == records

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n10 R 0x40\n  # inline comment line\n0 W 0x80\n"
        parsed = read_trace(io.StringIO(text))
        assert len(parsed) == 2
        assert parsed[1].op is OpType.WRITE

    @pytest.mark.parametrize("line", [
        "10 R",                # too few fields
        "10 R 0x40 extra",     # too many fields
        "ten R 0x40",          # bad gap
        "10 X 0x40",           # bad op
        "10 R zz",             # bad address
    ])
    def test_malformed_lines_raise_with_line_number(self, line):
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(io.StringIO(line + "\n"))
        assert "line 1" in str(excinfo.value)


class TestNvmainFormat:
    def test_roundtrip_preserves_ops_and_addresses(self, records):
        buffer = io.StringIO()
        write_nvmain_trace(records, buffer, cycles_per_instruction=0.5)
        parsed = read_nvmain_trace(
            io.StringIO(buffer.getvalue()), cycles_per_instruction=0.5
        )
        assert [r.op for r in parsed] == [r.op for r in records]
        assert [r.address for r in parsed] == [r.address for r in records]

    def test_gaps_survive_approximately(self, records):
        buffer = io.StringIO()
        write_nvmain_trace(records, buffer, cycles_per_instruction=0.5)
        parsed = read_nvmain_trace(
            io.StringIO(buffer.getvalue()), cycles_per_instruction=0.5
        )
        for original, parsed_rec in zip(records, parsed):
            assert abs(parsed_rec.gap - original.gap) <= 2

    def test_cycles_monotonic_enforced(self):
        text = "100 R 0x40 0 0\n50 R 0x80 0 0\n"
        with pytest.raises(TraceFormatError):
            read_nvmain_trace(io.StringIO(text))

    def test_bad_cpi_rejected(self, records):
        with pytest.raises(TraceFormatError):
            write_nvmain_trace(records, io.StringIO(),
                               cycles_per_instruction=0)
        with pytest.raises(TraceFormatError):
            read_nvmain_trace(io.StringIO(""), cycles_per_instruction=-1)

    def test_format_shape(self, records):
        buffer = io.StringIO()
        write_nvmain_trace(records, buffer, thread_id=3)
        lines = buffer.getvalue().strip().splitlines()
        first = lines[0].split()
        assert len(first) == 5
        assert first[1] in ("R", "W")
        assert first[4] == "3"
