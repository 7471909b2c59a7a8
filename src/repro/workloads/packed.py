"""Packed struct-of-arrays traces and their binary blob format.

Every trace — read from a file, generated from a profile, built by a
synthetic kernel or a transform — lives in one container:

* :class:`PackedTrace` — three parallel stdlib ``array('q')`` columns
  (``gaps`` / ``ops`` / ``addresses``), appendable while a generator or
  reader fills them; indexing or iterating one yields
  :class:`~repro.workloads.record.TraceRecord` rows,
* :func:`total_instructions` / :func:`read_fraction` /
  :func:`trace_mpki` — the whole-trace reductions, over the columns,
* a versioned binary **blob format** (:data:`PACKED_MAGIC` + embedded
  SHA-256, the :mod:`repro.store` framing shared with the result-cache
  blobs) so a trace serialises to one contiguous byte string: the trace
  cache stores it, and the experiment engine hands it by value to the
  pool workers, which decode it with :meth:`PackedTrace.from_bytes`,
* :class:`TraceCache` — a :class:`~repro.store.BlobStore` codec keyed by
  :func:`trace_key` (profile fields, length, line size, format version),
  so a sweep generates each distinct trace exactly once.

Bit-identity contract: the blob round-trips byte-for-byte, so a trace
handed over in memory, as a blob or from the cache gives the simulator
identical columns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import sys
from array import array
from typing import Iterable, Iterator, Optional, Tuple

from ..errors import TraceFormatError
from ..memsys.request import OpType
from ..store import BlobStore, frame_prefix, unframe
from .record import TraceRecord
from .spec_profiles import BenchmarkProfile

#: Blob format version; part of the frame header *and* every cache key,
#: so a layout change can never satisfy a key minted by older code.
PACKED_FORMAT_VERSION = 1

#: Framed-blob magic: ``magic + sha256-hex + newline + payload`` — the
#: :mod:`repro.store` framing the result cache's ``BLOB_MAGIC`` uses too.
PACKED_MAGIC = b"repro-ptrace-v1\n"

#: Operation codes in the ``ops`` column.
OP_READ = 0
OP_WRITE = 1

#: Column order inside the blob payload (also the header's manifest).
COLUMNS = ("gaps", "ops", "addresses")

_TYPECODE = "q"
_ITEMSIZE = array(_TYPECODE).itemsize

def _op_of(code: int) -> OpType:
    return OpType.READ if code == OP_READ else OpType.WRITE


class PackedTrace:
    """A trace as three parallel int64 columns (stdlib ``array('q')``)."""

    __slots__ = ("gaps", "ops", "addresses")
    __hash__ = None

    def __init__(self, gaps=None, ops=None, addresses=None):
        self.gaps = gaps if gaps is not None else array(_TYPECODE)
        self.ops = ops if ops is not None else array(_TYPECODE)
        self.addresses = (
            addresses if addresses is not None else array(_TYPECODE)
        )
        if not (len(self.gaps) == len(self.ops) == len(self.addresses)):
            raise TraceFormatError(
                "packed columns disagree on length: "
                f"{len(self.gaps)}/{len(self.ops)}/{len(self.addresses)}"
            )

    # -- construction -------------------------------------------------------

    def append(self, gap: int, op_code: int, address: int) -> None:
        """Append one access (columns must be local arrays)."""
        self.gaps.append(gap)
        self.ops.append(op_code)
        self.addresses.append(address)

    @classmethod
    def from_rows(cls, rows: Iterable[Tuple[int, int, int]]
                  ) -> "PackedTrace":
        """Pack ``(gap, op_code, address)`` rows, validated as a
        :class:`TraceRecord` validates its fields."""
        packed = cls()
        append = packed.append
        for gap, op_code, address in rows:
            if gap < 0:
                raise ValueError(f"negative instruction gap: {gap}")
            if address < 0:
                raise ValueError(f"negative address: {address:#x}")
            append(gap, op_code, address)
        return packed

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "PackedTrace":
        return cls.from_rows(
            (record.gap,
             OP_WRITE if record.op is OpType.WRITE else OP_READ,
             record.address)
            for record in records
        )

    # -- row access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gaps)

    def __getitem__(self, index: int) -> TraceRecord:
        """The access at ``index`` as a (validated) TraceRecord.

        Indexes are ints only: a window of accesses is
        :func:`~repro.workloads.transform.slice_trace`, or a slice of
        the columns themselves.
        """
        try:
            index = operator.index(index)
        except TypeError:
            raise TypeError(
                f"PackedTrace indices must be integers, not "
                f"{type(index).__name__}; for a window of accesses use "
                f"slice_trace(trace, start, count)"
            ) from None
        return TraceRecord(
            self.gaps[index], _op_of(self.ops[index]), self.addresses[index]
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        for gap, op_code, address in self.rows():
            yield TraceRecord(gap, _op_of(op_code), address)

    def rows(self) -> Iterator[Tuple[int, int, int]]:
        """The accesses as raw ``(gap, op_code, address)`` ints."""
        return zip(self.gaps, self.ops, self.addresses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedTrace):
            return NotImplemented
        return (self.gaps == other.gaps and self.ops == other.ops
                and self.addresses == other.addresses)

    # -- binary blob format -------------------------------------------------

    @property
    def column_bytes(self) -> int:
        """Raw column payload size (excludes header/framing)."""
        return 3 * len(self) * _ITEMSIZE

    def _header(self) -> bytes:
        header = {
            "format": PACKED_FORMAT_VERSION,
            "columns": list(COLUMNS),
            "itemsize": _ITEMSIZE,
            "length": len(self),
            "byteorder": sys.byteorder,
        }
        return json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("ascii") + b"\n"

    def _payload(self) -> bytes:
        """Header line plus raw column bytes: what the frame digests."""
        parts = [self._header()]
        for name in COLUMNS:
            parts.append(getattr(self, name).tobytes())
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        """The framed, self-verifying blob for this trace."""
        payload = self._payload()
        digest = hashlib.sha256(payload).hexdigest()
        return frame_prefix(PACKED_MAGIC, digest) + payload

    @staticmethod
    def _parse_header(data, start: int) -> "tuple[dict, int, int]":
        """(header, column offset, payload end) of the payload at ``start``.

        The header line gives the payload's length, so a blob shorter
        than that is rejected and bytes past it are never read.
        """
        probe = bytes(data[start:start + 512])
        line_end = probe.find(b"\n")
        if line_end < 0:
            raise TraceFormatError("packed trace header line missing")
        try:
            header = json.loads(probe[:line_end].decode("ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceFormatError(
                f"unreadable packed trace header: {exc}"
            ) from exc
        if header.get("format") != PACKED_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported packed trace format {header.get('format')!r}"
            )
        if (header.get("columns") != list(COLUMNS)
                or header.get("itemsize") != _ITEMSIZE
                or not isinstance(header.get("length"), int)
                or header["length"] < 0):
            raise TraceFormatError("malformed packed trace header")
        offset = start + line_end + 1
        payload_end = offset + 3 * header["length"] * _ITEMSIZE
        if len(data) < payload_end:
            raise TraceFormatError("packed trace blob shorter than header")
        return header, offset, payload_end

    @classmethod
    def _parse_frame(cls, data) -> "tuple[dict, int]":
        """(header, column offset) of a framed blob; verifies the digest."""
        digest, start = unframe(data, PACKED_MAGIC, TraceFormatError)
        header, offset, end = cls._parse_header(data, start)
        if hashlib.sha256(data[start:end]).hexdigest() != digest:
            raise TraceFormatError("packed trace checksum mismatch")
        return header, offset

    @classmethod
    def from_bytes(cls, data: bytes) -> "PackedTrace":
        """Decode a framed blob into locally-owned columns (one copy)."""
        header, offset = cls._parse_frame(data)
        return cls._copy_columns(data, header, offset)

    @classmethod
    def _copy_columns(cls, data, header: dict,
                      offset: int) -> "PackedTrace":
        nbytes = header["length"] * _ITEMSIZE
        columns = []
        for i in range(3):
            start = offset + i * nbytes
            column = array(_TYPECODE)
            column.frombytes(data[start:start + nbytes])
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns.append(column)
        return cls(*columns)


# -- whole-trace reductions ---------------------------------------------------


def total_instructions(trace: PackedTrace) -> int:
    """Instructions a trace represents (gaps plus the accesses themselves)."""
    return sum(trace.gaps) + len(trace)


def read_fraction(trace: PackedTrace) -> float:
    """Fraction of accesses that are reads."""
    if not len(trace):
        return 0.0
    return sum(1 for code in trace.ops if code == OP_READ) / len(trace)


def trace_mpki(trace: PackedTrace) -> float:
    """Memory accesses per kilo-instruction represented by the trace."""
    instructions = total_instructions(trace)
    if instructions == 0:
        return 0.0
    return 1000.0 * len(trace) / instructions


# -- content-addressed keys and the on-disk trace cache ----------------------


def trace_key(profile: BenchmarkProfile, count: int,
              line_bytes: Optional[int] = None) -> str:
    """Content-addressed key for one generated trace.

    Covers every input the generator consumes — all profile fields (the
    seed included), the requested length, the line size — plus the blob
    format version, so any difference that could change a single byte of
    the packed trace changes the key.
    """
    if line_bytes is None:
        from .tracegen import LINE_BYTES

        line_bytes = LINE_BYTES
    payload = json.dumps(
        {
            "format": PACKED_FORMAT_VERSION,
            "profile": {
                f.name: getattr(profile, f.name)
                for f in dataclasses.fields(profile)
            },
            "requests": count,
            "line_bytes": line_bytes,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TraceCache(BlobStore):
    """Packed-trace blobs in a :class:`~repro.store.BlobStore`.

    Layout ``<root>/<key[:2]>/<key>.ptrace``, framed with
    :data:`PACKED_MAGIC`.  A blob that fails verification is quarantined
    under ``<root>/quarantine/`` and treated as a miss, so corruption
    costs one regeneration, never a wrong trace.
    """

    suffix = ".ptrace"
    magic = PACKED_MAGIC

    def __init__(self, root):
        super().__init__(root)
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[PackedTrace]:
        payload = self.read(key)
        packed = None
        if payload is not None:
            try:
                header, offset, _end = PackedTrace._parse_header(payload, 0)
                packed = PackedTrace._copy_columns(payload, header, offset)
            except TraceFormatError as exc:
                self.quarantine(key, str(exc))
        if packed is None:
            self.misses += 1
        else:
            self.hits += 1
        return packed

    def put(self, key: str, packed: PackedTrace) -> Optional[int]:
        """Atomically persist one trace; returns the blob size (bytes).

        A failed write (disk full, read-only cache) is counted and
        tolerated: the trace lives on in memory and is regenerated next
        run.
        """
        try:
            return self.write(key, packed._payload())
        except OSError:
            return None
