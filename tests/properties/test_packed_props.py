"""Property tests: the packed pipeline is bit-identical to records.

The contracts pinned here are the ones every transport relies on:

* the generator's packed and record outputs describe the same stream,
* the framed blob round-trips byte-for-byte (shared-memory segments
  carry exactly these bytes),
* trace file I/O round-trips through the streaming packed readers,
* the whole-column reductions agree with the record stream.
"""

import dataclasses
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.packed import (
    OP_READ,
    OP_WRITE,
    PackedTrace,
    trace_key,
)
from repro.workloads.spec_profiles import benchmark_names, get_profile
from repro.workloads.trace_io import (
    read_nvmain_trace_packed,
    read_trace_packed,
    trace_to_string,
    write_nvmain_trace,
)
from repro.workloads.tracegen import ProfileTraceGenerator

BENCHMARKS = benchmark_names()

rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from((OP_READ, OP_WRITE)),
        st.integers(min_value=0, max_value=(1 << 45) - 1),
    ),
    max_size=200,
)


def packed_from(row_list):
    trace = PackedTrace()
    for gap, op, address in row_list:
        trace.append(gap, op, address)
    return trace


@given(
    bench=st.sampled_from(BENCHMARKS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=0, max_value=300),
)
@settings(max_examples=30, deadline=None)
def test_generator_packed_equals_records(bench, seed, count):
    profile = dataclasses.replace(get_profile(bench), seed=seed)
    packed = ProfileTraceGenerator(profile).packed(count)
    records = list(ProfileTraceGenerator(profile).records(count))
    assert packed.to_records() == records
    assert packed.view() == records


@given(row_list=rows)
@settings(max_examples=50, deadline=None)
def test_blob_round_trip_byte_identical(row_list):
    trace = packed_from(row_list)
    blob = trace.to_bytes()
    decoded = PackedTrace.from_bytes(blob)
    assert list(decoded.gaps) == list(trace.gaps)
    assert list(decoded.ops) == list(trace.ops)
    assert list(decoded.addresses) == list(trace.addresses)
    assert decoded.to_bytes() == blob


@given(row_list=rows)
@settings(max_examples=50, deadline=None)
def test_from_buffer_matches_from_bytes(row_list):
    trace = packed_from(row_list)
    carrier = bytearray(trace.to_bytes()) + bytes(512)  # page-rounded
    mapped = PackedTrace.from_buffer(memoryview(carrier))
    try:
        assert mapped.to_records() == trace.to_records()
    finally:
        mapped.close()


@given(row_list=rows)
@settings(max_examples=50, deadline=None)
def test_native_text_round_trip(row_list):
    trace = packed_from(row_list)
    text = trace_to_string(trace.view())
    back = read_trace_packed(io.StringIO(text))
    assert back.to_records() == trace.to_records()


@given(
    row_list=rows,
    cpi=st.sampled_from((1.0, 2.0, 4.0)),
)
@settings(max_examples=30, deadline=None)
def test_nvmain_round_trip_at_integral_cpi(row_list, cpi):
    # With integral cycles-per-instruction the gap<->cycle conversion
    # is exact: cycle deltas are (gap + 1) * cpi, recovered precisely.
    trace = packed_from(row_list)
    buffer = io.StringIO()
    write_nvmain_trace(trace.view(), buffer, cycles_per_instruction=cpi)
    back = read_nvmain_trace_packed(
        io.StringIO(buffer.getvalue()), cycles_per_instruction=cpi
    )
    assert back.to_records() == trace.to_records()


@given(
    row_list=rows,
    cpi=st.floats(min_value=0.25, max_value=4.0),
)
@settings(max_examples=30, deadline=None)
def test_nvmain_conversion_preserves_ops_and_addresses(row_list, cpi):
    trace = packed_from(row_list)
    buffer = io.StringIO()
    write_nvmain_trace(trace.view(), buffer, cycles_per_instruction=cpi)
    back = read_nvmain_trace_packed(
        io.StringIO(buffer.getvalue()), cycles_per_instruction=cpi
    )
    assert list(back.ops) == list(trace.ops)
    assert list(back.addresses) == list(trace.addresses)


@given(row_list=rows)
@settings(max_examples=30, deadline=None)
def test_column_reductions_match_records(row_list):
    trace = packed_from(row_list)
    assert trace.total_instructions() == sum(
        gap + 1 for gap, _op, _address in row_list
    )
    assert trace.read_count() == sum(
        1 for _gap, op, _address in row_list if op == OP_READ
    )


@given(
    bench=st.sampled_from(BENCHMARKS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_trace_key_is_deterministic_and_seed_sensitive(bench, seed, count):
    profile = dataclasses.replace(get_profile(bench), seed=seed)
    key = trace_key(profile, count)
    assert key == trace_key(profile, count)
    other = dataclasses.replace(profile, seed=seed + 1)
    assert key != trace_key(other, count)
