"""Trace file reading and writing.

Two formats are supported:

* **native** — one access per line: ``<gap> <R|W> <hex-address>``, with
  ``#`` comments and blank lines ignored.  This is the format the
  generators emit and the examples ship.
* **nvmain** — the NVMain simulator's trace format,
  ``<cycle> <R|W> <hex-address> <data> [<thread>]``.  On import, cycle
  deltas are converted to instruction gaps with a cycles-per-instruction
  factor; on export, gaps are converted back.  Data payloads are not
  simulated and are written as zeros.

Readers stream straight into :class:`~repro.workloads.packed.PackedTrace`
columns — a million-access file costs three int64 arrays, not a million
``TraceRecord`` objects — and writers read those columns back.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO, Union

from ..errors import TraceFormatError
from ..memsys.request import OpType
from .packed import OP_READ, OP_WRITE, PackedTrace

PathOrFile = Union[str, Path, TextIO]

#: ``R``/``W`` tokens to column op codes (parse errors handled below).
_OP_CODES = {"R": OP_READ, "W": OP_WRITE}

#: Column op codes back to ``R``/``W`` tokens.
_OP_TOKENS = {OP_READ: "R", OP_WRITE: "W"}


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def write_trace(trace: PackedTrace, target: PathOrFile) -> int:
    """Write a trace in native format; returns the line count."""
    handle, owned = _open_for_write(target)
    count = 0
    try:
        handle.write("# repro native trace: <gap> <R|W> <hex-address>\n")
        for gap, op_code, address in trace.rows():
            handle.write(f"{gap} {_OP_TOKENS[op_code]} 0x{address:x}\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def read_trace(source: PathOrFile) -> PackedTrace:
    """Stream a native-format trace into packed columns."""
    handle, owned = _open_for_read(source)
    trace = PackedTrace()
    append = trace.append
    op_codes = _OP_CODES
    try:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 3:
                raise TraceFormatError(
                    f"line {line_no}: expected 3 fields, got {len(parts)}: "
                    f"{text!r}"
                )
            try:
                gap = int(parts[0])
                op_code = op_codes.get(parts[1])
                if op_code is None:
                    op_code = _OP_CODES[OpType.from_token(parts[1]).value]
                address = int(parts[2], 0)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from exc
            # Same validation (and exceptions) as TraceRecord.
            if gap < 0:
                raise ValueError(f"negative instruction gap: {gap}")
            if address < 0:
                raise ValueError(f"negative address: {address:#x}")
            append(gap, op_code, address)
    finally:
        if owned:
            handle.close()
    return trace


def write_nvmain_trace(
    trace: PackedTrace,
    target: PathOrFile,
    cycles_per_instruction: float = 0.5,
    thread_id: int = 0,
) -> int:
    """Export to NVMain's ``cycle op address data thread`` format."""
    if cycles_per_instruction <= 0:
        raise TraceFormatError("cycles_per_instruction must be positive")
    handle, owned = _open_for_write(target)
    cycle = 0
    count = 0
    try:
        for gap, op_code, address in trace.rows():
            cycle += max(1, round((gap + 1) * cycles_per_instruction))
            handle.write(
                f"{cycle} {_OP_TOKENS[op_code]} 0x{address:x} 0 "
                f"{thread_id}\n"
            )
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def read_nvmain_trace(
    source: PathOrFile, cycles_per_instruction: float = 0.5
) -> PackedTrace:
    """Import an NVMain-format trace, converting cycles to gaps."""
    if cycles_per_instruction <= 0:
        raise TraceFormatError("cycles_per_instruction must be positive")
    handle, owned = _open_for_read(source)
    trace = PackedTrace()
    append = trace.append
    op_codes = _OP_CODES
    last_cycle = 0
    try:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) < 3:
                raise TraceFormatError(
                    f"line {line_no}: expected >= 3 fields: {text!r}"
                )
            try:
                cycle = int(parts[0])
                op_code = op_codes.get(parts[1])
                if op_code is None:
                    op_code = _OP_CODES[OpType.from_token(parts[1]).value]
                address = int(parts[2], 0)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from exc
            if cycle < last_cycle:
                raise TraceFormatError(
                    f"line {line_no}: cycles must be non-decreasing"
                )
            delta = cycle - last_cycle
            last_cycle = cycle
            gap = max(0, round(delta / cycles_per_instruction) - 1)
            if address < 0:
                raise ValueError(f"negative address: {address:#x}")
            append(gap, op_code, address)
    finally:
        if owned:
            handle.close()
    return trace


def trace_to_string(trace: PackedTrace) -> str:
    """Native-format trace as a string (round-trip testing helper)."""
    buffer = io.StringIO()
    write_trace(trace, buffer)
    return buffer.getvalue()
