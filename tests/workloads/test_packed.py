"""Unit tests for the packed struct-of-arrays trace pipeline."""

import gc
import io

import pytest

from repro.errors import TraceFormatError
from repro.memsys.request import OpType
from repro.workloads.packed import (
    OP_READ,
    OP_WRITE,
    PACKED_MAGIC,
    PackedTrace,
    SharedTraceRef,
    TraceCache,
    attach_failures,
    clear_trace_sources,
    install_trace_sources,
    read_fraction,
    resolve_trace,
    total_instructions,
    trace_key,
)
from repro.workloads.record import TraceRecord
from repro.workloads.spec_profiles import get_profile
from repro.workloads.trace_io import read_trace
from repro.workloads.tracegen import generate_packed_trace


def sample_trace():
    trace = PackedTrace()
    trace.append(0, OP_READ, 0x1000)
    trace.append(3, OP_WRITE, 0x2040)
    trace.append(17, OP_READ, 0)
    return trace


def sample_records():
    return [
        TraceRecord(0, OpType.READ, 0x1000),
        TraceRecord(3, OpType.WRITE, 0x2040),
        TraceRecord(17, OpType.READ, 0),
    ]


class TestPackedTrace:
    def test_append_and_record_access(self):
        trace = sample_trace()
        assert len(trace) == 3
        assert trace[1] == TraceRecord(3, OpType.WRITE, 0x2040)
        assert list(trace) == sample_records()

    def test_from_records_round_trip(self):
        trace = PackedTrace.from_records(sample_records())
        assert list(trace) == sample_records()
        assert trace == sample_trace()

    def test_column_reductions(self):
        trace = sample_trace()
        assert total_instructions(trace) == 0 + 3 + 17 + 3
        assert read_fraction(trace) == pytest.approx(2 / 3)

    def test_mismatched_columns_rejected(self):
        from array import array

        with pytest.raises(TraceFormatError, match="disagree"):
            PackedTrace(array("q", [1]), array("q"), array("q"))

    def test_indexing_and_iteration(self):
        trace = sample_trace()
        records = sample_records()
        assert [trace[i] for i in range(len(trace))] == records
        assert trace[-1] == records[-1]
        assert [row for row in trace.rows()] == [
            (0, OP_READ, 0x1000), (3, OP_WRITE, 0x2040), (17, OP_READ, 0)
        ]

    def test_non_int_index_names_slice_trace(self):
        trace = sample_trace()
        for index in (slice(0, 2), 1.0, "1"):
            with pytest.raises(TypeError, match="slice_trace"):
                trace[index]
        with pytest.raises(IndexError):
            trace[3]

    def test_column_wise_equality(self):
        assert sample_trace() == sample_trace()
        shorter = PackedTrace.from_records(sample_records()[:-1])
        assert sample_trace() != shorter
        assert sample_trace() != PackedTrace()
        # Not a list: compare rows explicitly.
        assert sample_trace() != sample_records()
        carrier = bytearray(sample_trace().to_bytes())
        mapped = PackedTrace.from_buffer(memoryview(carrier))
        try:
            assert mapped == sample_trace()
        finally:
            mapped.close()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(sample_trace())

    def test_from_rows_validates_like_trace_record(self):
        with pytest.raises(ValueError, match="negative instruction gap"):
            PackedTrace.from_rows([(-1, OP_READ, 0)])
        with pytest.raises(ValueError, match="negative address"):
            PackedTrace.from_rows([(0, OP_READ, -64)])


class TestBlobFormat:
    def test_round_trip_byte_identical(self):
        trace = sample_trace()
        blob = trace.to_bytes()
        assert blob.startswith(PACKED_MAGIC)
        decoded = PackedTrace.from_bytes(blob)
        assert decoded == trace
        assert decoded.to_bytes() == blob

    def test_empty_trace_round_trips(self):
        blob = PackedTrace().to_bytes()
        assert len(PackedTrace.from_bytes(blob)) == 0

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError, match="magic"):
            PackedTrace.from_bytes(b"not-a-trace" * 10)

    def test_truncated_blob_rejected(self):
        blob = sample_trace().to_bytes()
        with pytest.raises(TraceFormatError):
            PackedTrace.from_bytes(blob[: len(blob) - 4])

    def test_flipped_payload_byte_rejected(self):
        blob = bytearray(sample_trace().to_bytes())
        blob[-1] ^= 0xFF
        with pytest.raises(TraceFormatError, match="checksum"):
            PackedTrace.from_bytes(bytes(blob))

    def test_from_buffer_zero_copy_with_oversized_carrier(self):
        # Shared-memory segments are page-rounded: the carrier is
        # larger than the blob and the header must bound the payload.
        trace = sample_trace()
        blob = trace.to_bytes()
        carrier = bytearray(blob) + bytearray(4096 - len(blob) % 4096)
        mapped = PackedTrace.from_buffer(memoryview(carrier))
        assert mapped == trace
        mapped.close()

    def test_close_releases_views(self):
        carrier = bytearray(sample_trace().to_bytes())
        mapped = PackedTrace.from_buffer(memoryview(carrier))
        mapped.close()
        del mapped
        carrier += b"x"  # raises BufferError if a view is still held


class TestTraceKey:
    def test_stable_and_sensitive(self):
        profile = get_profile("mcf")
        key = trace_key(profile, 1000)
        assert key == trace_key(profile, 1000)
        assert key != trace_key(profile, 1001)
        assert key != trace_key(get_profile("milc"), 1000)
        assert key != trace_key(profile, 1000, line_bytes=128)
        import dataclasses

        reseeded = dataclasses.replace(profile, seed=profile.seed + 1)
        assert key != trace_key(reseeded, 1000)


class TestTraceCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = TraceCache(tmp_path)
        trace = generate_packed_trace(get_profile("mcf"), 200)
        key = trace_key(get_profile("mcf"), 200)
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.put(key, trace) > 0
        got = cache.get(key)
        assert got is not None
        assert got == trace
        assert cache.hits == 1
        assert len(cache) == 1

    def test_corrupt_blob_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        key = trace_key(get_profile("mcf"), 50)
        cache.put(key, generate_packed_trace(get_profile("mcf"), 50))
        path = cache._path(key)
        path.write_bytes(path.read_bytes()[:-8] + b"corrupted")
        assert cache.get(key) is None
        assert cache.corrupt_blobs == 1
        assert not path.exists()
        assert list((tmp_path / "quarantine").glob("*.corrupt"))

    def test_repeat_corruption_keeps_every_quarantined_blob(self, tmp_path):
        cache = TraceCache(tmp_path / "traces")
        key = trace_key(get_profile("mcf"), 50)
        trace = generate_packed_trace(get_profile("mcf"), 50)
        path = cache._path(key)
        corrupted = []
        for flip in (1, 2):
            cache.put(key, trace)
            data = bytearray(path.read_bytes())
            data[-flip] ^= 0xFF
            path.write_bytes(bytes(data))
            corrupted.append(bytes(data))
            assert cache.get(key) is None
        quarantined = sorted((tmp_path / "traces" / "quarantine").iterdir())
        assert len(quarantined) == 2
        assert sorted(q.read_bytes() for q in quarantined) == sorted(corrupted)
        assert cache.corrupt_blobs == 2


class TestTraceSourceRegistry:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        clear_trace_sources()
        yield
        clear_trace_sources()

    def test_in_process_install_served_without_regeneration(self):
        profile = get_profile("mcf")
        trace = generate_packed_trace(profile, 100)
        install_trace_sources(local={trace_key(profile, 100): trace})
        assert resolve_trace(profile, 100) is trace

    def test_resolution_falls_back_to_generation(self):
        profile = get_profile("milc")
        resolved = resolve_trace(profile, 80)
        expected = generate_packed_trace(profile, 80)
        assert resolved == expected

    def test_dead_shared_ref_degrades_bit_identically(self):
        profile = get_profile("mcf")
        key = trace_key(profile, 60)
        before = attach_failures()
        install_trace_sources(shared=[
            SharedTraceRef(key=key, name="repro-test-no-such-segment",
                           nbytes=64)
        ])
        resolved = resolve_trace(profile, 60)
        assert attach_failures() == before + 1
        assert resolved == generate_packed_trace(profile, 60)

    def test_clear_drops_installed_sources(self):
        profile = get_profile("mcf")
        trace = generate_packed_trace(profile, 40)
        install_trace_sources(local={trace_key(profile, 40): trace})
        clear_trace_sources()
        assert resolve_trace(profile, 40) is not trace


class TestReaderAllocation:
    def test_read_trace_does_not_materialise_records(self):
        # The regression the packed reader fixes: a large file used to
        # become a List[TraceRecord].  Streaming into columns must leave
        # zero live TraceRecord objects until the trace is indexed.
        lines = ["# header"]
        for i in range(20_000):
            op = "W" if i % 7 == 0 else "R"
            lines.append(f"{i % 11} {op} 0x{i * 64:x}")
        text = "\n".join(lines)

        gc.collect()
        trace = read_trace(io.StringIO(text))
        gc.collect()
        live = sum(
            1 for obj in gc.get_objects() if isinstance(obj, TraceRecord)
        )
        assert len(trace) == 20_000
        assert live == 0
        # Touching one element materialises exactly that record.
        assert trace[123].address == 123 * 64
