"""Simulation main loop: end-to-end runs, skipping, guards."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import CONFIG_BUILDERS
from repro.config import baseline_nvm, fgnvm, with_reliability
from repro.errors import ConfigError, SimulationError
from repro.memsys.policies import apply_policy, policy_names
from repro.memsys.request import OpType
from repro.obs import make_probe
from repro.obs.events import EV_CPU_STALL, ListSink
from repro.obs.trace import RequestTracer
from repro.sim.simulator import Simulator, simulate
from repro.workloads import generate_trace, get_profile
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import multi_stream_kernel, stream_kernel


def small(cfg):
    cfg.org.rows_per_bank = 256
    return cfg


class TestEndToEnd:
    def test_stream_completes_and_reports(self):
        result = simulate(small(baseline_nvm()), stream_kernel(200, gap=20))
        assert result.stats.reads == 200
        assert result.instructions == 200 * 21
        assert result.ipc > 0
        assert result.cycles > 0
        assert result.energy.total_pj > 0

    def test_write_trace_fully_drains(self):
        trace = PackedTrace.from_records(
            TraceRecord(5, OpType.WRITE, i * 64) for i in range(50)
        )
        result = simulate(small(baseline_nvm()), trace)
        assert result.stats.writes == 50

    def test_summary_is_flat(self):
        result = simulate(small(baseline_nvm()), stream_kernel(50))
        summary = result.summary()
        assert summary["config"] == "baseline-nvm"
        assert "energy_total_pj" in summary
        assert "row_hit_rate" in summary

    def test_empty_trace(self):
        result = simulate(small(baseline_nvm()), PackedTrace())
        assert result.stats.reads == 0
        assert result.instructions == 0


class TestDeterminism:
    def test_same_trace_same_result(self):
        trace = multi_stream_kernel(300, streams=4, write_fraction=0.3)
        first = simulate(small(fgnvm(4, 4)), trace)
        second = simulate(small(fgnvm(4, 4)), trace)
        assert first.cycles == second.cycles
        assert first.ipc == second.ipc
        assert first.stats.as_dict() == second.stats.as_dict()


def _skip_cases():
    """Every (preset, policy, reliability) the config validator accepts."""
    cases = []
    for preset, build in CONFIG_BUILDERS.items():
        for policy in policy_names():
            try:
                apply_policy(build(), policy)
            except ConfigError:
                continue  # e.g. baseline+palp: no reads under writes
            cases.extend((preset, policy, rel) for rel in (False, True))
    return cases


SKIP_CASES = _skip_cases()


def _case_config(preset, policy, reliability, epoch_cycles):
    config = apply_policy(small(CONFIG_BUILDERS[preset]()), policy)
    if reliability:
        config = with_reliability(config, write_fail_prob=0.2,
                                  endurance_writes=60, wear_rotate_every=16,
                                  seed=5)
    config.sim.epoch_cycles = epoch_cycles
    return config


def _run(config, trace, dense, traced):
    probe = (make_probe(ListSink(), tracer=RequestTracer(sample_every=2))
             if traced else None)
    sim = Simulator(config, trace, probe=probe)
    if dense:
        sim._next_cycle = lambda: sim.now + 1  # visit every cycle
    return sim.run(), probe


def _stream(probe):
    """The event stream minus per-visited-cycle ``cpu_stall`` events,
    with request ids rebased (they come from a process-global counter)."""
    events = [e for e in probe.sink.events if e.kind != EV_CPU_STALL]
    base = min((e.req_id for e in events if e.req_id >= 0), default=0)
    return [dataclasses.replace(e, req_id=e.req_id - base)
            if e.req_id >= 0 else e for e in events]


def _spans(probe):
    return [(s.op, s.arrival, s.bank, s.sag, s.cd, s.issue, s.completion,
             s.service, s.segments) for s in probe.tracer.finished]


def assert_skipping_matches_dense(case, trace, epoch_cycles, traced):
    skipped, skipped_probe = _run(_case_config(*case, epoch_cycles), trace,
                                  dense=False, traced=traced)
    dense, dense_probe = _run(_case_config(*case, epoch_cycles), trace,
                              dense=True, traced=traced)
    assert skipped.cycles == dense.cycles
    assert skipped.stats.as_dict() == dense.stats.as_dict()
    assert skipped.epochs == dense.epochs
    if traced:
        assert _spans(skipped_probe) == _spans(dense_probe)
        assert _stream(skipped_probe) == _stream(dense_probe)


class TestEventSkipping:
    """The event-skip fast path must not change simulated behaviour:
    every run equals the same run ticked densely (``now + 1``)."""

    @given(case=st.sampled_from(SKIP_CASES),
           benchmark=st.sampled_from(["mcf", "lbm", "libquantum"]),
           seed=st.integers(0, 2**16), requests=st.integers(20, 300),
           epoch_cycles=st.integers(50, 1000), traced=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_skipping_matches_dense_ticking(self, case, benchmark, seed,
                                            requests, epoch_cycles, traced):
        profile = dataclasses.replace(get_profile(benchmark), seed=seed)
        trace = generate_trace(profile, requests)
        assert_skipping_matches_dense(case, trace, epoch_cycles, traced)

    @pytest.mark.parametrize("case", SKIP_CASES,
                             ids=["-".join(map(str, c)) for c in SKIP_CASES])
    def test_every_case_matches_dense_ticking(self, case):
        trace = generate_trace(get_profile("lbm"), 150)
        assert_skipping_matches_dense(case, trace, 250, traced=False)
        assert_skipping_matches_dense(case, trace, 250, traced=True)

    def test_long_gaps_do_not_blow_up_runtime(self):
        # Huge compute gap between two accesses: must finish quickly.
        trace = PackedTrace.from_records([
            TraceRecord(0, OpType.READ, 0x40),
            TraceRecord(100_000, OpType.READ, 0x80),
        ])
        result = simulate(small(baseline_nvm()), trace)
        assert result.instructions == 100_002


class TestGuards:
    def test_max_cycles_guard(self):
        cfg = small(baseline_nvm())
        cfg.sim.max_cycles = 10
        with pytest.raises(SimulationError):
            simulate(cfg, stream_kernel(1000, gap=100))

    def test_invalid_config_rejected_up_front(self):
        cfg = baseline_nvm()
        cfg.org.channels = 3
        with pytest.raises(Exception):
            Simulator(cfg, PackedTrace())


class TestCrossArchitectureSanity:
    def test_fgnvm_not_slower_than_baseline_on_parallel_load(self):
        trace = multi_stream_kernel(
            400, streams=8, gap=5, write_fraction=0.3,
            stream_spacing_bytes=1 << 16,
        )
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 2)), trace)
        assert fg.ipc >= base.ipc * 0.98
