"""Packed struct-of-arrays traces and their zero-copy transport.

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
  blobs) so a trace serialises to one contiguous byte string,
* :func:`PackedTrace.from_buffer` — a **zero-copy** loader that maps the
  columns straight out of any buffer (a ``multiprocessing``
  shared-memory segment, an mmap) via ``memoryview.cast``,
* :class:`TraceCache` — a :class:`~repro.store.BlobStore` codec keyed by
  :func:`trace_key` (profile fields, length, line size, format version),
  so a sweep generates each distinct trace exactly once,
* a process-global **trace source registry** — the parent engine
  installs in-process traces and/or shared-memory references;
  :func:`resolve_trace` serves workers from those sources and falls back
  to deterministic regeneration, so every transport failure degrades to
  the bit-identical slow path.

Bit-identity contract: the blob round-trips byte-for-byte, and every
transport (in-process, shared memory, cache, regeneration) hands the
simulator identical columns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import sys
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
    """A trace as three parallel int64 columns.

    Columns are stdlib ``array('q')`` when built locally and appendable;
    traces loaded by :meth:`from_buffer` hold ``memoryview`` columns
    cast straight over the source buffer (zero copies, read-only use).
    Both index, iterate and compare identically.
    """

    __slots__ = ("gaps", "ops", "addresses", "_owner", "_views")
    __hash__ = None

    def __init__(self, gaps=None, ops=None, addresses=None, owner=None):
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
        #: Object keeping the column buffers alive (e.g. a SharedMemory);
        #: closed by :meth:`close`, never unlinked here — the segment's
        #: creator owns its lifetime.
        self._owner = owner
        self._views: List[memoryview] = []

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
            column = getattr(self, name)
            parts.append(
                column.tobytes() if isinstance(column, array)
                else bytes(column)
            )
        return b"".join(parts)

    def to_bytes(self) -> bytes:
        """The framed, self-verifying blob for this trace."""
        payload = self._payload()
        digest = hashlib.sha256(payload).hexdigest()
        return frame_prefix(PACKED_MAGIC, digest) + payload

    @staticmethod
    def _parse_header(data, start: int) -> "tuple[dict, int, int]":
        """(header, column offset, payload end) of the payload at ``start``.

        The header line bounds the payload; its newline is found first
        so oversized carriers (page-rounded shm segments) parse exactly.
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
        """(header, column offset) of a framed blob; verifies the digest.

        Accepts bytes or a memoryview; hashing reads the buffer but
        copies nothing.
        """
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

    @classmethod
    def from_buffer(cls, buffer: memoryview,
                    owner=None) -> "PackedTrace":
        """Map a framed blob's columns zero-copy out of ``buffer``.

        ``owner`` (e.g. a ``SharedMemory``) is retained and closed by
        :meth:`close` once the column views are released.  Foreign-endian
        blobs fall back to the copying :meth:`from_bytes` decode.
        """
        views: List[memoryview] = [buffer]
        try:
            header, offset = cls._parse_frame(buffer)
        except TraceFormatError:
            buffer.release()
            raise
        if header["byteorder"] != sys.byteorder:
            packed = cls.from_bytes(bytes(buffer))
            buffer.release()
            packed._owner = owner
            return packed
        length = header["length"]
        nbytes = length * _ITEMSIZE
        columns = []
        for i in range(3):
            start = offset + i * nbytes
            view = buffer[start:start + nbytes].cast(_TYPECODE)
            views.append(view)
            columns.append(view)
        packed = cls(*columns, owner=owner)
        packed._views = views
        return packed

    def close(self) -> None:
        """Release mapped column views and close the owning segment."""
        for view in self._views:
            try:
                view.release()
            except BufferError:
                pass
        self._views = []
        owner, self._owner = self._owner, None
        if owner is not None:
            try:
                owner.close()
            except (OSError, BufferError):
                pass


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


# -- the process-global trace source registry --------------------------------


@dataclasses.dataclass(frozen=True)
class SharedTraceRef:
    """Locator for one packed trace living in a shared-memory segment."""

    key: str        #: :func:`trace_key` of the trace inside
    name: str       #: shared-memory segment name
    nbytes: int     #: exact blob length (segments may be page-rounded)


#: Traces resolvable without regeneration in *this* process.
_IN_PROCESS: Dict[str, PackedTrace] = {}
#: Shared-memory locators installed by the pool initializer.
_SHARED_REFS: Dict[str, SharedTraceRef] = {}
#: Per-process cache of attached segments (attach once per worker).
_ATTACHED: Dict[str, PackedTrace] = {}
#: Shared-memory attaches that failed and fell back to regeneration.
_ATTACH_FAILURES = 0


def install_trace_sources(
    local: Optional[Dict[str, PackedTrace]] = None,
    shared: Optional[Iterable[SharedTraceRef]] = None,
) -> None:
    """Install this process's trace sources (replacing any previous).

    The parent engine installs ``local`` before running serially (and as
    the degraded-pool fallback); the pool initializer installs
    ``shared`` inside each worker.
    """
    clear_trace_sources()
    if local:
        _IN_PROCESS.update(local)
    if shared:
        _SHARED_REFS.update({ref.key: ref for ref in shared})


def clear_trace_sources() -> None:
    """Drop every installed source and close attached segments."""
    _IN_PROCESS.clear()
    _SHARED_REFS.clear()
    for packed in _ATTACHED.values():
        packed.close()
    _ATTACHED.clear()


def attach_failures() -> int:
    """Shared-memory attaches that degraded to regeneration (telemetry)."""
    return _ATTACH_FAILURES


def _open_untracked(name: str):
    """Attach a segment without registering it with the resource tracker.

    Workers only *attach*; the creating process owns unlink.  Left
    registered, a worker's resource tracker would unlink segments the
    parent is still serving to its siblings (bpo-39959) — and under the
    fork start method the tracker is *shared*, so a worker-side
    unregister would instead erase the parent's registration.  Plugging
    ``register`` for the duration of the attach sidesteps both.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def register(name, rtype):
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _attach(ref: SharedTraceRef) -> Optional[PackedTrace]:
    global _ATTACH_FAILURES
    try:
        shm = _open_untracked(ref.name)
    except (OSError, ValueError, ImportError):
        _ATTACH_FAILURES += 1
        return None
    try:
        return PackedTrace.from_buffer(
            memoryview(shm.buf)[:ref.nbytes], owner=shm
        )
    except TraceFormatError:
        _ATTACH_FAILURES += 1
        try:
            shm.close()
        except (OSError, BufferError):
            pass
        return None


def resolve_trace(profile: BenchmarkProfile, count: int,
                  line_bytes: Optional[int] = None) -> PackedTrace:
    """The packed trace for (profile, count) via the cheapest source.

    Resolution order: in-process installs, already-attached segments,
    attachable shared-memory references, then deterministic
    regeneration.  Every step yields the bit-identical trace, so a
    transport failure can only cost time, never correctness.
    """
    from .tracegen import LINE_BYTES, generate_packed_trace

    if line_bytes is None:
        line_bytes = LINE_BYTES
    key = trace_key(profile, count, line_bytes)
    packed = _IN_PROCESS.get(key)
    if packed is not None:
        return packed
    packed = _ATTACHED.get(key)
    if packed is not None:
        return packed
    ref = _SHARED_REFS.get(key)
    if ref is not None:
        packed = _attach(ref)
        if packed is not None:
            _ATTACHED[key] = packed
            return packed
    return generate_packed_trace(profile, count, line_bytes)
