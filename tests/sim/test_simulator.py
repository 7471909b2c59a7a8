"""Simulation main loop: end-to-end runs, skipping, guards."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import CONFIG_BUILDERS
from repro.config import baseline_nvm, fgnvm, with_reliability
from repro.cpu.trace_cpu import DONE
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


def _case_config(preset, policy, reliability, epoch_cycles, mshrs=None):
    config = small(CONFIG_BUILDERS[preset]())
    if policy is not None:  # None: the preset's own policy
        config = apply_policy(config, policy)
    if mshrs is not None:
        config.cpu.mshr_entries = mshrs
    if reliability:
        config = with_reliability(config, write_fail_prob=0.2,
                                  endurance_writes=60, wear_rotate_every=16,
                                  seed=5)
    config.sim.epoch_cycles = epoch_cycles or None  # 0: epochs off
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


def assert_skipping_matches_dense(case, trace, epoch_cycles, traced,
                                  mshrs=None):
    skipped, skipped_probe = _run(_case_config(*case, epoch_cycles, mshrs),
                                  trace, dense=False, traced=traced)
    dense, dense_probe = _run(_case_config(*case, epoch_cycles, mshrs),
                              trace, dense=True, traced=traced)
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
           epoch_cycles=st.just(0) | st.integers(50, 1000),
           traced=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_skipping_matches_dense_ticking(self, case, benchmark, seed,
                                            requests, epoch_cycles, traced):
        profile = dataclasses.replace(get_profile(benchmark), seed=seed)
        trace = generate_trace(profile, requests)
        assert_skipping_matches_dense(case, trace, epoch_cycles, traced)

    @pytest.mark.parametrize("case", SKIP_CASES,
                             ids=["-".join(map(str, c)) for c in SKIP_CASES])
    def test_every_case_matches_dense_ticking(self, case):
        # Epochs off (0) is the clock every benchmark and figure runs.
        trace = generate_trace(get_profile("lbm"), 150)
        for epoch_cycles in (0, 250):
            assert_skipping_matches_dense(case, trace, epoch_cycles,
                                          traced=False)
            assert_skipping_matches_dense(case, trace, epoch_cycles,
                                          traced=True)

    @pytest.mark.parametrize("preset", ["baseline", "fgnvm-8x2", "salp-8",
                                        "multi-issue"])
    def test_mshr_bound_core_matches_dense_ticking(self, preset):
        """Few MSHRs: the fetch waits on *any* read completion, not just
        the ROB head's, so those completions must stay clock events."""
        trace = generate_trace(get_profile("mcf"), 200)
        case = (preset, None, False)
        for epoch_cycles in (0, 250):
            for traced in (False, True):
                assert_skipping_matches_dense(case, trace, epoch_cycles,
                                              traced, mshrs=4)

    def test_long_gaps_do_not_blow_up_runtime(self):
        # Huge compute gap between two accesses: must finish quickly.
        trace = PackedTrace.from_records([
            TraceRecord(0, OpType.READ, 0x40),
            TraceRecord(100_000, OpType.READ, 0x80),
        ])
        result = simulate(small(baseline_nvm()), trace)
        assert result.instructions == 100_002


def _counted_run(sim, tick_always=False):
    """Run ``sim``; return (result, visited cycles, CPU ticks, visits up
    to the one whose tick finished the core)."""
    counts = {"visits": 1, "ticks": 0, "live": 0}  # cycle 0: no advance
    advance = sim._next_cycle
    cpu = sim.cpus[0]
    tick = cpu.tick

    def counting_advance():
        counts["visits"] += 1
        return advance()

    def counting_tick(now):
        counts["ticks"] += 1
        tick(now)
        if cpu.waiting_on() == DONE and not counts["live"]:
            counts["live"] = counts["visits"]

    sim._next_cycle = counting_advance
    cpu.tick = counting_tick
    if tick_always:
        sim._idle_skips = lambda: False
    result = sim.run()
    return result, counts["visits"], counts["ticks"], counts["live"]


def assert_idle_skips_change_nothing(config, trace):
    skipped, visits, ticks, _ = _counted_run(Simulator(config, trace))
    ticked, dense_visits, dense_ticks, live_visits = _counted_run(
        Simulator(config, trace), tick_always=True)
    assert skipped.cycles == ticked.cycles
    assert skipped.stats.as_dict() == ticked.stats.as_dict()
    assert visits == dense_visits
    # Every visit until the core is done; a done core is never ticked.
    assert dense_ticks == live_visits
    assert ticks <= visits
    return visits, ticks


class TestIdleTicks:
    """A waiting core is ticked only when its wait can have ended; every
    skipped tick provably fetches and retires nothing."""

    @pytest.mark.parametrize("profile,policy", [("mcf", None),
                                                ("lbm", "palp")])
    def test_skipped_ticks_match_ticking_every_visit(self, profile, policy):
        config = fgnvm(8, 2)
        if policy is not None:
            config = apply_policy(config, policy)
        trace = generate_trace(get_profile(profile), 3000)
        visits, ticks = assert_idle_skips_change_nothing(config, trace)
        assert ticks < visits

    @given(case=st.sampled_from(SKIP_CASES),
           benchmark=st.sampled_from(["mcf", "lbm", "libquantum"]),
           seed=st.integers(0, 2**16), requests=st.integers(20, 300),
           epoch_cycles=st.just(0) | st.integers(50, 1000),
           mshrs=st.sampled_from([None, 4]))
    @settings(max_examples=40, deadline=None)
    def test_skipped_ticks_match_on_every_case(self, case, benchmark, seed,
                                               requests, epoch_cycles,
                                               mshrs):
        profile = dataclasses.replace(get_profile(benchmark), seed=seed)
        trace = generate_trace(profile, requests)
        assert_idle_skips_change_nothing(
            _case_config(*case, epoch_cycles, mshrs), trace)

    def test_probed_run_ticks_every_visit(self, monkeypatch):
        """``EV_CPU_STALL`` is counted once per visited cycle, so a
        probe keeps every tick until the core is done; the per-kind
        counts are those recorded before idle ticks were skipped, under
        the default scheduler."""
        monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
        probe = make_probe(ListSink())
        sim = Simulator(fgnvm(8, 2), generate_trace(get_profile("mcf"), 3000),
                        probe=probe)
        result, _, ticks, live_visits = _counted_run(sim)
        assert ticks == live_visits
        assert result.cycles == 23015
        kinds = Counter(
            f"{e.kind}:{e.service}" if e.kind == EV_CPU_STALL else e.kind
            for e in probe.sink.events)
        assert kinds == {
            "complete": 3000, "enqueue": 3000, "issue": 3000, "run_end": 1,
            "sense": 2586, "write_pulse": 744, "cpu_stall:fetch": 2008,
            "cpu_stall:retire": 2895,
        }

    def test_fractional_retire_budget_ticks_every_visit(self):
        """The budget carry advances once per tick, so a fractional
        CPU/memory clock ratio keeps every tick until the core is done."""
        config = small(fgnvm(8, 2))
        config.cpu.clock_ghz = 0.71  # 7.1 instructions per memory cycle
        sim = Simulator(config, generate_trace(get_profile("astar"), 300))
        _, _, ticks, live_visits = _counted_run(sim)
        assert ticks == live_visits


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
