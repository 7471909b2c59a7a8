"""Whole-simulator property tests over random small traces.

Invariants checked for every architecture on arbitrary (bounded)
workloads: the run completes, every request is serviced exactly once,
instruction accounting is exact, read latencies respect the physical
minimum, and reruns are bit-identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_nvm, fgnvm, many_banks
from repro.memsys.request import OpType
from repro.sim.simulator import simulate
from repro.workloads.packed import PackedTrace, total_instructions
from repro.workloads.record import TraceRecord

#: Bounded random traces: up to 60 accesses over a 1 MiB footprint.
trace_strategy = st.lists(
    st.tuples(
        st.integers(0, 40),          # gap
        st.booleans(),               # is_write
        st.integers(0, (1 << 20) // 64 - 1),  # line index
    ),
    max_size=60,
)


def to_trace(raw):
    return PackedTrace.from_records(
        TraceRecord(gap, OpType.WRITE if w else OpType.READ, line * 64)
        for gap, w, line in raw
    )


def small(cfg):
    cfg.org.rows_per_bank = 256
    return cfg


ARCHES = {
    "baseline": lambda: small(baseline_nvm()),
    "fgnvm": lambda: small(fgnvm(4, 4)),
    "many-banks": lambda: small(many_banks(4, 4)),
}


@pytest.mark.parametrize("arch", list(ARCHES), ids=list(ARCHES))
@given(raw=trace_strategy)
@settings(max_examples=25, deadline=None)
def test_conservation_and_accounting(arch, raw):
    trace = to_trace(raw)
    result = simulate(ARCHES[arch](), trace)
    reads = sum(1 for r in trace if r.op is OpType.READ)
    writes = len(trace) - reads
    assert result.stats.reads == reads
    assert result.stats.writes == writes
    assert result.instructions == total_instructions(trace)
    assert result.cycles >= 1


@given(raw=trace_strategy)
@settings(max_examples=25, deadline=None)
def test_read_latency_floor(raw):
    trace = to_trace(raw)
    config = small(fgnvm(4, 4))
    result = simulate(config, trace)
    if result.stats.reads:
        timing = config.timing.cycles()
        floor = timing.tcas_hit + timing.tburst  # forwarded/hit minimum
        # avg >= floor implies every latency >= floor given the floor is
        # the global minimum service time.
        assert result.stats.avg_read_latency >= floor - 1e-9


@given(raw=trace_strategy)
@settings(max_examples=15, deadline=None)
def test_reruns_are_bit_identical(raw):
    trace = to_trace(raw)
    first = simulate(small(fgnvm(4, 4)), trace)
    second = simulate(small(fgnvm(4, 4)), trace)
    assert first.stats.as_dict() == second.stats.as_dict()
    assert first.cycles == second.cycles


@given(raw=trace_strategy)
@settings(max_examples=15, deadline=None)
def test_energy_components_consistent_with_counters(raw):
    trace = to_trace(raw)
    config = small(fgnvm(4, 4))
    result = simulate(config, trace)
    stats = result.stats
    assert result.energy.read_pj == stats.sense_bits * 2.0
    assert result.energy.write_pj == stats.write_bits * 16.0
    assert result.energy.background_pj > 0 or stats.cycles == 1


@given(raw=trace_strategy, raw2=trace_strategy)
@settings(max_examples=10, deadline=None)
def test_multicore_conservation(raw, raw2):
    from repro.sim.multicore import run_mix

    traces = [to_trace(raw), to_trace(raw2)]
    result = run_mix(small(fgnvm(4, 4)), traces)
    total = len(traces[0]) + len(traces[1])
    assert result.stats.requests == total
    assert sum(result.per_core_instructions) == sum(
        total_instructions(t) for t in traces
    )
