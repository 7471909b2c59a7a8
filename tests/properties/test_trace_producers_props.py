"""Property tests: every trace producer matches its record-list oracle.

Each producer returns a :class:`~repro.workloads.packed.PackedTrace`.
The oracles below are record-list implementations of the same
producers, one record at a time: transforms, synthetic kernels, the
LLC filter, both file formats and the profile generator.
Over random inputs, the rows of each packed output must equal the
oracle's list of :class:`~repro.workloads.record.TraceRecord`.
"""

import dataclasses
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.llc import LastLevelCache
from repro.memsys.request import OpType
from repro.workloads import synthetic
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.spec_profiles import benchmark_names, get_profile
from repro.workloads.trace_io import (
    read_nvmain_trace,
    read_trace,
    trace_to_string,
    write_nvmain_trace,
)
from repro.workloads.tracegen import generate_trace
from repro.workloads.transform import (
    concat_traces,
    interleave_traces,
    offset_trace,
    scale_gaps,
    slice_trace,
)

LINE = 64

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        gap=st.integers(0, 5_000),
        op=st.sampled_from((OpType.READ, OpType.WRITE)),
        address=st.integers(0, (1 << 40) - 1),
    ),
    max_size=120,
)


def packed(records):
    return PackedTrace.from_records(records)


# -- record-list oracles: transforms ----------------------------------------


def oracle_offset(trace, base):
    if base % 64 != 0:
        raise ValueError("offset must be cache-line aligned")
    if base < 0:
        raise ValueError("offset must be non-negative")
    return [TraceRecord(r.gap, r.op, r.address + base) for r in trace]


def oracle_slice(trace, start, count):
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    return list(trace[start:start + count])


def oracle_concat(*traces):
    merged = []
    for trace in traces:
        merged.extend(trace)
    return merged


def oracle_scale_gaps(trace, factor):
    if factor < 0:
        raise ValueError("factor must be non-negative")
    scaled, carry = [], 0.0
    for record in trace:
        exact = record.gap * factor + carry
        gap = int(exact)
        carry = exact - gap
        scaled.append(TraceRecord(gap, record.op, record.address))
    return scaled


def oracle_interleave(traces, quantum_instructions=10_000):
    if quantum_instructions < 1:
        raise ValueError("quantum must be >= 1 instruction")
    cursors = [iter(trace) for trace in traces]
    pending = [None] * len(traces)
    live = set(range(len(traces)))
    merged = []

    def pull(index):
        if pending[index] is not None:
            record, pending[index] = pending[index], None
            return record
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
            record = pull(index)
            if record is None:
                break
            cost = record.gap + 1
            if cost > budget and merged and budget < cost:
                pending[index] = record
                break
            merged.append(record)
            budget -= cost
    return merged


# -- record-list oracles: synthetic kernels ---------------------------------


def oracle_stream(count, gap=20, start=0):
    return [TraceRecord(gap, OpType.READ, start + i * LINE)
            for i in range(count)]


def oracle_copy(count, gap=20, src=0, dst=1 << 28):
    records = []
    for i in range(count // 2):
        records.append(TraceRecord(gap, OpType.READ, src + i * LINE))
        records.append(TraceRecord(0, OpType.WRITE, dst + i * LINE))
    return records


def oracle_random(count, footprint_bytes=1 << 30, gap=20,
                  write_fraction=0.0, seed=7):
    rng = random.Random(seed)
    lines = footprint_bytes // LINE
    records = []
    for _ in range(count):
        op = OpType.WRITE if rng.random() < write_fraction else OpType.READ
        records.append(TraceRecord(gap, op, rng.randrange(lines) * LINE))
    return records


def oracle_pointer_chase(count, footprint_bytes=1 << 28, gap=50, seed=11):
    rng = random.Random(seed)
    lines = footprint_bytes // LINE
    position = rng.randrange(lines)
    records = []
    for _ in range(count):
        position = rng.randrange(lines)
        records.append(TraceRecord(gap, OpType.READ, position * LINE))
    return records


def oracle_strided(count, stride_lines, gap=20, start=0):
    if stride_lines < 1:
        raise ValueError("stride must be >= 1 line")
    return [TraceRecord(gap, OpType.READ, start + i * stride_lines * LINE)
            for i in range(count)]


def oracle_multi_stream(count, streams, gap=20,
                        stream_spacing_bytes=1 << 24, write_fraction=0.0,
                        seed=13):
    if streams < 1:
        raise ValueError("needs at least one stream")
    rng = random.Random(seed)
    positions = [i * stream_spacing_bytes for i in range(streams)]
    records = []
    for i in range(count):
        index = i % streams
        op = OpType.WRITE if rng.random() < write_fraction else OpType.READ
        records.append(TraceRecord(gap, op, positions[index]))
        positions[index] += LINE
    return records


# -- record-list oracles: LLC filter, file formats, generator ---------------


def oracle_filter(cache, trace):
    pending_gap = 0
    for record in trace:
        pending_gap += record.gap
        result = cache.access(record.address, record.op is OpType.WRITE)
        if result.hit:
            pending_gap += 1
            continue
        yield TraceRecord(pending_gap, OpType.READ, record.address)
        pending_gap = 0
        if result.writeback_address is not None:
            yield TraceRecord(0, OpType.WRITE, result.writeback_address)


def oracle_native_text(records):
    lines = ["# repro native trace: <gap> <R|W> <hex-address>"]
    lines += [f"{r.gap} {r.op.value} 0x{r.address:x}" for r in records]
    return "\n".join(lines) + "\n"


def oracle_read_native(text):
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        gap, op, address = line.split()
        records.append(
            TraceRecord(int(gap), OpType.from_token(op), int(address, 0))
        )
    return records


def oracle_nvmain_text(records, cpi):
    lines, cycle = [], 0
    for r in records:
        cycle += max(1, round((r.gap + 1) * cpi))
        lines.append(f"{cycle} {r.op.value} 0x{r.address:x} 0 0")
    return "".join(line + "\n" for line in lines)


def oracle_read_nvmain(text, cpi):
    records, last_cycle = [], 0
    for line in text.splitlines():
        parts = line.split()
        cycle = int(parts[0])
        gap = max(0, round((cycle - last_cycle) / cpi) - 1)
        last_cycle = cycle
        records.append(
            TraceRecord(gap, OpType.from_token(parts[1]), int(parts[2], 0))
        )
    return records


def oracle_generate(profile, count, line_bytes=64):
    rng = random.Random(profile.seed)
    footprint = max(profile.streams * 4,
                    profile.footprint_mib * 1024 * 1024 // line_bytes)
    walkers = [rng.randrange(footprint) for _ in range(profile.streams)]

    def next_gap():
        if rng.random() < profile.gap_burstiness:
            return rng.choice((0, 1))
        b = profile.gap_burstiness
        mean = (profile.mean_gap - 0.5 * b) / (1.0 - b)
        if mean <= 0:
            return 0
        p = 1.0 / (mean + 1.0)
        gap = 0
        while rng.random() >= p:
            gap += 1
            if gap > 100_000:
                break
        return gap

    def next_line():
        index = rng.randrange(profile.streams)
        if rng.random() < profile.p_seq:
            walkers[index] = (walkers[index] + 1) % footprint
        else:
            walkers[index] = rng.randrange(footprint)
        return walkers[index]

    records = []
    for _ in range(count):
        op = (OpType.WRITE if rng.random() < profile.write_fraction
              else OpType.READ)
        address = next_line() * line_bytes
        records.append(TraceRecord(next_gap(), op, address))
    return records


# -- properties ---------------------------------------------------------------


@given(records=records_strategy, lines=st.integers(0, 1 << 20))
@settings(max_examples=40, deadline=None)
def test_offset_trace_matches_oracle(records, lines):
    base = lines * 64
    assert list(offset_trace(packed(records), base)) == (
        oracle_offset(records, base)
    )


@given(records=records_strategy, start=st.integers(0, 150),
       count=st.integers(0, 150))
@settings(max_examples=40, deadline=None)
def test_slice_trace_matches_oracle(records, start, count):
    assert list(slice_trace(packed(records), start, count)) == (
        oracle_slice(records, start, count)
    )


@given(parts=st.lists(records_strategy, max_size=4))
@settings(max_examples=40, deadline=None)
def test_concat_traces_matches_oracle(parts):
    assert list(concat_traces(*map(packed, parts))) == (
        oracle_concat(*parts)
    )


@given(records=records_strategy,
       factor=st.floats(0.0, 8.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_scale_gaps_matches_oracle(records, factor):
    assert list(scale_gaps(packed(records), factor)) == (
        oracle_scale_gaps(records, factor)
    )


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_interleave_traces_matches_oracle(data):
    quantum = data.draw(st.integers(1, 30))
    # The oracle loops forever on an access costing more than a whole
    # quantum (``interleave_traces`` takes it whole; see
    # tests/workloads/test_transform.py), so draw gaps below it.
    part = st.lists(
        st.builds(TraceRecord, gap=st.integers(0, quantum - 1),
                  op=st.sampled_from((OpType.READ, OpType.WRITE)),
                  address=st.integers(0, (1 << 40) - 1)),
        max_size=60,
    )
    parts = data.draw(st.lists(part, min_size=1, max_size=4))
    assert list(interleave_traces([packed(p) for p in parts], quantum)) == (
        oracle_interleave(parts, quantum)
    )


kernel_count = st.integers(0, 200)
kernel_gap = st.integers(-2, 60)
kernel_start = st.integers(-4, 1 << 16).map(lambda line: line * LINE)


@given(count=kernel_count, gap=kernel_gap, start=kernel_start)
@settings(max_examples=40, deadline=None)
def test_stream_kernel_matches_oracle(count, gap, start):
    assert_same_or_same_error(
        lambda: synthetic.stream_kernel(count, gap, start),
        lambda: oracle_stream(count, gap, start),
    )


@given(count=kernel_count, gap=kernel_gap, src=kernel_start,
       dst=kernel_start)
@settings(max_examples=40, deadline=None)
def test_copy_kernel_matches_oracle(count, gap, src, dst):
    assert_same_or_same_error(
        lambda: synthetic.copy_kernel(count, gap, src, dst),
        lambda: oracle_copy(count, gap, src, dst),
    )


@given(count=kernel_count, footprint=st.integers(1, 1 << 12),
       gap=kernel_gap, write_fraction=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_random_kernel_matches_oracle(count, footprint, gap,
                                      write_fraction, seed):
    footprint_bytes = footprint * LINE
    assert_same_or_same_error(
        lambda: synthetic.random_kernel(count, footprint_bytes, gap,
                                        write_fraction, seed),
        lambda: oracle_random(count, footprint_bytes, gap, write_fraction,
                              seed),
    )


@given(count=kernel_count, footprint=st.integers(1, 1 << 12),
       gap=kernel_gap, seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_pointer_chase_kernel_matches_oracle(count, footprint, gap, seed):
    footprint_bytes = footprint * LINE
    assert_same_or_same_error(
        lambda: synthetic.pointer_chase_kernel(count, footprint_bytes, gap,
                                               seed),
        lambda: oracle_pointer_chase(count, footprint_bytes, gap, seed),
    )


@given(count=kernel_count, stride=st.integers(0, 64), gap=kernel_gap,
       start=kernel_start)
@settings(max_examples=40, deadline=None)
def test_strided_kernel_matches_oracle(count, stride, gap, start):
    assert_same_or_same_error(
        lambda: synthetic.strided_kernel(count, stride, gap, start),
        lambda: oracle_strided(count, stride, gap, start),
    )


@given(count=kernel_count, streams=st.integers(0, 9), gap=kernel_gap,
       spacing=st.integers(-2, 1 << 14).map(lambda line: line * LINE),
       write_fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_multi_stream_kernel_matches_oracle(count, streams, gap, spacing,
                                            write_fraction, seed):
    assert_same_or_same_error(
        lambda: synthetic.multi_stream_kernel(count, streams, gap, spacing,
                                              write_fraction, seed),
        lambda: oracle_multi_stream(count, streams, gap, spacing,
                                    write_fraction, seed),
    )


def assert_same_or_same_error(produce, oracle):
    """Equal rows, or the same exception type and message."""
    try:
        expected = oracle()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            produce()
        assert str(raised.value) == str(exc)
        return
    trace = produce()
    assert isinstance(trace, PackedTrace)
    assert list(trace) == expected


small_footprint_records = st.lists(
    st.builds(
        TraceRecord,
        gap=st.integers(0, 50),
        op=st.sampled_from((OpType.READ, OpType.WRITE)),
        address=st.integers(0, 255).map(lambda line: line * LINE),
    ),
    max_size=300,
)


@given(records=small_footprint_records, ways=st.sampled_from((1, 2, 4)),
       sets=st.sampled_from((1, 2, 8)))
@settings(max_examples=40, deadline=None)
def test_filter_trace_matches_oracle(records, ways, sets):
    size = ways * sets * LINE
    cache = LastLevelCache(size_bytes=size, ways=ways)
    filtered = cache.filter_trace(packed(records))
    oracle_cache = LastLevelCache(size_bytes=size, ways=ways)
    assert list(filtered) == list(oracle_filter(oracle_cache, records))
    assert cache.stats == oracle_cache.stats


@given(records=records_strategy)
@settings(max_examples=40, deadline=None)
def test_native_reader_and_writer_match_oracle(records):
    text = oracle_native_text(records)
    assert trace_to_string(packed(records)) == text
    assert list(read_trace(io.StringIO(text))) == oracle_read_native(text)


@given(records=records_strategy,
       cpi=st.one_of(st.sampled_from((0.5, 1.0, 2.0, 4.0)),
                     st.floats(0.25, 4.0)))
@settings(max_examples=40, deadline=None)
def test_nvmain_reader_and_writer_match_oracle(records, cpi):
    text = oracle_nvmain_text(records, cpi)
    buffer = io.StringIO()
    write_nvmain_trace(packed(records), buffer, cycles_per_instruction=cpi)
    assert buffer.getvalue() == text
    back = read_nvmain_trace(io.StringIO(text), cycles_per_instruction=cpi)
    assert list(back) == oracle_read_nvmain(text, cpi)


@given(records=records_strategy, cpi=st.sampled_from((1.0, 2.0, 3.0)))
@settings(max_examples=30, deadline=None)
def test_nvmain_round_trip_is_exact_at_integral_cpi(records, cpi):
    buffer = io.StringIO()
    write_nvmain_trace(packed(records), buffer, cycles_per_instruction=cpi)
    back = read_nvmain_trace(io.StringIO(buffer.getvalue()),
                             cycles_per_instruction=cpi)
    assert list(back) == records


@given(bench=st.sampled_from(benchmark_names()),
       seed=st.integers(0, 2**31 - 1), count=st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_generate_trace_matches_oracle(bench, seed, count):
    profile = dataclasses.replace(get_profile(bench), seed=seed)
    assert list(generate_trace(profile, count)) == (
        oracle_generate(profile, count)
    )
