"""Controller hot-path microbenchmarks: tick and clock-advance costs.

Not a paper artifact — these time the two loops the event-driven
overhaul rewrote, directly against a :class:`MemoryController` at
controlled queue depths and bank counts:

* ``ctrl-tick`` — one controller tick (completion pop, drain phase
  decision, incremental FRFCFS pick, issue) with the transaction queue
  held at a fixed occupancy,
* ``clock-advance`` — the ``next_event_after`` horizon query the
  simulator calls whenever the CPU is blocked (heap top + cached
  min-constraint),
* ``policy-tick`` — the same tick loop once per registered scheduling
  policy at one mid-size grid point, so a slow ranking key in any
  policy shows up next to the FRFCFS numbers (every policy shares one
  min-scan, so only the ranking key differs),
* ``trace.generate`` / ``trace.decode`` — the packed struct-of-arrays
  trace pipeline: column-fill generation, and streaming text decode vs
  the framed-blob decode.

Timings are recorded as ``microbench``-sourced entries in the session's
``BENCH_PERF.json`` via :func:`conftest.record_perf_entry`, alongside
the engine-sourced figure timings — so a regression in either loop is
visible to ``repro perf compare`` without rerunning a full figure.
"""

import io
import time

import pytest

from conftest import record_perf_entry
from repro.config import fgnvm
from repro.memsys.controller import MemoryController
from repro.memsys.policies import apply_policy, policy_names
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import StatsCollector
from repro.obs.perf import PerfEntry
from repro.workloads.packed import PackedTrace
from repro.workloads.spec_profiles import get_profile
from repro.workloads.trace_io import read_trace, trace_to_string
from repro.workloads.tracegen import ProfileTraceGenerator, generate_packed_trace

#: Transaction-queue occupancy held during timing.
DEPTHS = (8, 32, 64)

#: Independent banks behind the controller.
BANK_COUNTS = (8, 64, 256)

GRID = [(b, d) for b in BANK_COUNTS for d in DEPTHS]

#: Controller ticks timed per sample (ctrl-tick bench).
TICK_CYCLES = 2000

#: Horizon queries timed per sample (clock-advance bench).
QUERY_ITERS = 5000

SAMPLES = 3


def _config(banks):
    cfg = fgnvm(4, 4)
    cfg.org.banks_per_rank = banks
    cfg.org.rows_per_bank = 512
    cfg.controller.read_queue_entries = 64
    return cfg


def _filled_controller(banks, depth):
    """A controller with ``depth`` reads spread across banks and rows."""
    ctrl = MemoryController(_config(banks), StatsCollector())
    for i in range(depth):
        address = ctrl.mapper.encode(
            bank=i % banks, row=(i * 7) % 512, col=i % 4
        )
        ctrl.enqueue(MemRequest(OpType.READ, address), 0)
    return ctrl


def _record(name_config, bench, unit_count, per_sample_units, samples):
    record_perf_entry(PerfEntry(
        name=f"{name_config}:{bench}:{unit_count}",
        config=name_config, benchmark=bench, requests=unit_count,
        samples_wall_s=list(samples), sim_cycles=per_sample_units,
        source="microbench",
    ))


@pytest.mark.parametrize("banks,depth", GRID,
                         ids=[f"b{b}-d{d}" for b, d in GRID])
def bench_controller_tick(banks, depth, cache):
    """Tick throughput with the queue topped back up every cycle."""
    samples = []
    completed_total = 0
    for _ in range(SAMPLES):
        ctrl = _filled_controller(banks, depth)
        mapper = ctrl.mapper
        fill = depth
        start = time.perf_counter()
        for now in range(TICK_CYCLES):
            done = ctrl.tick(now)
            if done:
                completed_total += len(done)
                # Keep the scheduler's working set at `depth`: replace
                # every completion with a fresh read to a new row.
                for _ in done:
                    address = mapper.encode(
                        bank=fill % banks, row=(fill * 7) % 512,
                        col=fill % 4,
                    )
                    ctrl.enqueue(MemRequest(OpType.READ, address), now)
                    fill += 1
        samples.append(time.perf_counter() - start)
    assert completed_total > 0, "tick bench never completed a request"
    _record(f"hotpath-b{banks}-d{depth}", "ctrl-tick", depth,
            TICK_CYCLES, samples)


@pytest.mark.parametrize("banks,depth", GRID,
                         ids=[f"b{b}-d{d}" for b, d in GRID])
def bench_clock_advance(banks, depth, cache):
    """`next_event_after` cost against a busy, part-blocked queue."""
    ctrl = _filled_controller(banks, depth)
    # Issue what can issue at cycle 0 so in-flight completions populate
    # the event heap and the remaining queue entries are constrained.
    ctrl.tick(0)
    horizon = ctrl.next_event_after(0)
    assert horizon is not None and horizon > 0
    samples = []
    for _ in range(SAMPLES):
        query = ctrl.next_event_after
        start = time.perf_counter()
        for _ in range(QUERY_ITERS):
            query(0)
        samples.append(time.perf_counter() - start)
    assert ctrl.next_event_after(0) == horizon  # pure query, no mutation
    _record(f"hotpath-b{banks}-d{depth}", "clock-advance", depth,
            QUERY_ITERS, samples)


#: One mid-size grid point for the per-policy tick bench.
POLICY_BANKS, POLICY_DEPTH = 8, 32


def _policy_controller(policy, banks, depth):
    cfg = apply_policy(_config(banks), policy)
    ctrl = MemoryController(cfg, StatsCollector())
    for i in range(depth):
        address = ctrl.mapper.encode(
            bank=i % banks, row=(i * 7) % 512, col=i % 4
        )
        ctrl.enqueue(MemRequest(OpType.READ, address), 0)
    return ctrl


@pytest.mark.parametrize("policy", policy_names())
def bench_policy_tick(policy, cache):
    """Tick throughput per registered policy at b8-d32."""
    samples = []
    completed_total = 0
    for _ in range(SAMPLES):
        ctrl = _policy_controller(policy, POLICY_BANKS, POLICY_DEPTH)
        mapper = ctrl.mapper
        fill = POLICY_DEPTH
        start = time.perf_counter()
        for now in range(TICK_CYCLES):
            done = ctrl.tick(now)
            if done:
                completed_total += len(done)
                for _ in done:
                    address = mapper.encode(
                        bank=fill % POLICY_BANKS, row=(fill * 7) % 512,
                        col=fill % 4,
                    )
                    ctrl.enqueue(MemRequest(OpType.READ, address), now)
                    fill += 1
        samples.append(time.perf_counter() - start)
    assert completed_total > 0, "policy tick bench never completed"
    _record(f"policy-{policy}", "ctrl-tick", POLICY_DEPTH,
            TICK_CYCLES, samples)


#: Rows per sample in the trace-pipeline benches.
TRACE_ROWS = 20_000


def bench_trace_generate(cache):
    """Packed column fill straight from the profile generator."""
    profile = get_profile("mcf")
    packed_samples = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        packed = ProfileTraceGenerator(profile).packed(TRACE_ROWS)
        packed_samples.append(time.perf_counter() - start)
        assert len(packed) == TRACE_ROWS
    _record("trace-pipeline", "generate-packed", TRACE_ROWS,
            TRACE_ROWS, packed_samples)


def bench_trace_decode(cache):
    """Streaming text decode vs the framed blob decode."""
    trace = generate_packed_trace(get_profile("mcf"), TRACE_ROWS)
    text = trace_to_string(trace)
    blob = trace.to_bytes()
    text_samples, blob_samples = [], []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        decoded = read_trace(io.StringIO(text))
        text_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        reloaded = PackedTrace.from_bytes(blob)
        blob_samples.append(time.perf_counter() - start)
        assert len(decoded) == len(reloaded) == TRACE_ROWS
    _record("trace-pipeline", "decode-packed", TRACE_ROWS,
            TRACE_ROWS, text_samples)
    _record("trace-pipeline", "decode-blob", TRACE_ROWS,
            TRACE_ROWS, blob_samples)
