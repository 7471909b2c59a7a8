"""Multi-core simulation: routing, conservation, interference."""

import dataclasses

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.memsys.policies import apply_policy
from repro.memsys.request import OpType
from repro.obs import make_probe
from repro.obs.events import EV_CPU_STALL, ListSink
from repro.sim.multicore import (
    MultiCoreResult,
    isolate_address_spaces,
    run_mix,
    weighted_speedup_study,
)
from repro.sim.simulator import Simulator, simulate
from repro.workloads import generate_trace, get_profile
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.synthetic import random_kernel, stream_kernel


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def two_traces(count=200):
    return [
        random_kernel(count, footprint_bytes=1 << 22, gap=5, seed=1),
        random_kernel(count, footprint_bytes=1 << 22, gap=5, seed=2),
    ]


class TestMechanics:
    def test_requires_at_least_one_trace(self):
        with pytest.raises(ValueError):
            Simulator(small(fgnvm(4, 4)))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            run_mix(small(fgnvm(4, 4)), two_traces(), labels=["only-one"])

    def test_all_requests_serviced(self):
        traces = two_traces(150)
        result = run_mix(small(fgnvm(4, 4)), traces)
        assert result.stats.requests == 300
        assert len(result.per_core_ipc) == 2

    def test_per_core_instruction_accounting(self):
        traces = [
            stream_kernel(100, gap=10),
            stream_kernel(50, gap=10, start=1 << 22),
        ]
        result = run_mix(small(baseline_nvm()), traces)
        assert result.per_core_instructions[0] == 100 * 11
        assert result.per_core_instructions[1] == 50 * 11

    def test_single_core_mix_matches_simulator(self):
        trace = random_kernel(200, footprint_bytes=1 << 22, gap=5, seed=4)
        solo = simulate(small(fgnvm(4, 4)), trace)
        mix = run_mix(small(fgnvm(4, 4)), [trace])
        assert mix.per_core_ipc[0] == pytest.approx(solo.ipc, rel=1e-6)
        assert mix.cycles == solo.cycles

    def test_deterministic(self):
        traces = two_traces(150)
        first = run_mix(small(fgnvm(4, 4)), traces)
        second = run_mix(small(fgnvm(4, 4)), traces)
        assert first.per_core_ipc == second.per_core_ipc

    def test_warmup_restarts_stats_and_core_counts(self):
        traces = two_traces(150)
        cfg = small(fgnvm(4, 4))
        cfg.sim.warmup_requests = 100
        warm = run_mix(cfg, traces)
        cold = run_mix(small(fgnvm(4, 4)), traces)
        assert warm.stats.requests == 300 - 100
        assert sum(warm.per_core_instructions) == warm.stats.instructions
        assert warm.cycles < cold.cycles


class TestMetrics:
    def test_weighted_speedup_bounds(self):
        traces = two_traces(200)
        cfg = small(fgnvm(4, 4))
        study = weighted_speedup_study(cfg, traces)
        # Interference can only hurt: each ratio <= ~1, sum <= cores.
        assert 0 < study["weighted_speedup"] <= 2.02
        assert study["ratio[core0]"] <= 1.02

    def test_weighted_speedup_validates_inputs(self):
        result = MultiCoreResult(
            config=small(fgnvm(4, 4)), cycles=10,
            per_core_instructions=[1, 1], per_core_ipc=[0.5, 0.5],
            stats=None, energy=None,
        )
        with pytest.raises(ValueError):
            result.weighted_speedup([1.0])
        with pytest.raises(ValueError):
            result.weighted_speedup([1.0, 0.0])

    def test_summary_contains_per_core_rows(self):
        result = run_mix(
            small(fgnvm(4, 4)), two_traces(100), labels=["a", "b"]
        )
        summary = result.summary()
        assert "ipc[a]" in summary and "ipc[b]" in summary


class TestInterference:
    def test_fgnvm_tolerates_contention_better_than_baseline(self):
        traces = [
            random_kernel(250, footprint_bytes=1 << 22, gap=4, seed=s)
            for s in (10, 11, 12, 13)
        ]
        base = run_mix(small(baseline_nvm()), traces)
        fg = run_mix(small(fgnvm(8, 2)), traces)
        assert fg.throughput_ipc > base.throughput_ipc * 1.2

    def test_writes_route_completions_correctly(self):
        # A write-heavy core next to a read-only core: MSHR accounting
        # must survive cross-core completion routing.
        traces = [
            PackedTrace.from_records(
                TraceRecord(3, OpType.WRITE, i * 64) for i in range(150)
            ),
            random_kernel(150, footprint_bytes=1 << 22, gap=3, seed=9),
        ]
        result = run_mix(small(fgnvm(4, 4)), traces)
        assert result.stats.writes == 150
        assert result.stats.reads == 150


class TestAddressIsolation:
    def test_stride_is_not_capacity_aligned(self):
        from repro.sim.multicore import DEFAULT_REGION_BYTES
        for capacity_bits in (26, 28, 30):  # 64MiB..1GiB capacities
            assert DEFAULT_REGION_BYTES % (1 << capacity_bits) != 0

    def test_isolation_separates_addresses(self):
        from repro.sim.multicore import isolate_address_spaces
        trace = random_kernel(100, footprint_bytes=1 << 20, gap=5, seed=1)
        a, b = isolate_address_spaces([trace, trace])
        assert not {r.address for r in a} & {r.address for r in b}
        # Gaps and operations are untouched.
        assert [r.gap for r in a] == [r.gap for r in trace]

    def test_study_isolates_by_default(self):
        traces = [
            random_kernel(120, footprint_bytes=1 << 20, gap=5, seed=s)
            for s in (1, 2)
        ]
        study = weighted_speedup_study(
            small(fgnvm(4, 4)), traces, labels=["a", "b"]
        )
        assert 0 < study["weighted_speedup"] <= 2.02


def mix_config(preset):
    if preset == "baseline":
        return small(baseline_nvm())
    if preset == "fgnvm-4x4":
        return small(fgnvm(4, 4))
    cfg = small(fgnvm(8, 2))
    return apply_policy(cfg, "palp") if preset.endswith("palp") else cfg


def mix_traces(names=("mcf", "lbm", "libquantum")):
    return isolate_address_spaces([
        generate_trace(get_profile(name), 150) for name in names
    ])


def counted_run(config, traces, dense=False, probe=None, tick_always=False):
    """Run one mix; return (result, per-core instructions, visited
    cycles, ticks over all cores)."""
    sim = Simulator(config, *traces, probe=probe)
    visited = [0]
    advance = (lambda: sim.now + 1) if dense else sim._next_cycle

    def recording():
        visited.append(advance())
        return visited[-1]

    sim._next_cycle = recording
    ticks = [0]
    for cpu in sim.cpus:
        def counting(now, tick=cpu.tick):
            ticks[0] += 1
            tick(now)
        cpu.tick = counting
    if tick_always:
        sim._idle_skips = lambda: False
    result = sim.run()
    return (result, [cpu.instructions_retired for cpu in sim.cpus],
            visited, ticks[0])


def rebased(events):
    """``events`` with request ids rebased (they come from a
    process-global counter)."""
    base = min((e.req_id for e in events if e.req_id >= 0), default=0)
    return [dataclasses.replace(e, req_id=e.req_id - base)
            if e.req_id >= 0 else e for e in events]


class TestEventSkipping:
    """The clock rule must not change simulated behaviour of an N-core
    run: every run equals the same run ticked densely (``now + 1``)."""

    @pytest.mark.parametrize("preset", ("baseline", "fgnvm-4x4",
                                        "fgnvm-8x2", "fgnvm-8x2-palp"))
    def test_skipping_matches_dense_ticking(self, preset):
        traces = mix_traces()
        fast, fast_cores, visited, _ = counted_run(mix_config(preset),
                                                   traces)
        slow, slow_cores, _, _ = counted_run(mix_config(preset), traces,
                                             dense=True)
        assert len(visited) < fast.cycles  # the clock did skip
        assert fast.cycles == slow.cycles
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast_cores == slow_cores
        assert fast.ipc == slow.ipc

    @pytest.mark.parametrize("preset", ("baseline", "fgnvm-8x2-palp"))
    def test_probed_run_matches_dense_ticking(self, preset):
        """Every event but the per-visit ``EV_CPU_STALL`` is the same;
        the stalls the skipped run saw are exactly the dense run's on
        the cycles it visited, each naming its core."""
        traces = mix_traces()
        fast_probe, slow_probe = make_probe(ListSink()), make_probe(ListSink())
        fast, fast_cores, visited, _ = counted_run(
            mix_config(preset), traces, probe=fast_probe)
        slow, slow_cores, _, _ = counted_run(
            mix_config(preset), traces, dense=True, probe=slow_probe)
        assert fast.cycles == slow.cycles
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast_cores == slow_cores

        def split(events, cycles=None):
            stalls = [e for e in events if e.kind == EV_CPU_STALL
                      and (cycles is None or e.cycle in cycles)]
            return rebased([e for e in events
                            if e.kind != EV_CPU_STALL]), stalls

        fast_rest, fast_stalls = split(fast_probe.sink.events)
        slow_rest, slow_stalls = split(slow_probe.sink.events, set(visited))
        assert fast_rest == slow_rest
        assert fast_stalls == slow_stalls
        assert {e.value for e in fast_stalls} == {0, 1, 2}

    def test_epoch_run_matches_dense_ticking(self):
        traces = mix_traces()

        def config():
            cfg = mix_config("fgnvm-8x2")
            cfg.sim.epoch_cycles = 250
            return cfg

        fast, fast_cores, visited, _ = counted_run(config(), traces)
        slow, slow_cores, _, _ = counted_run(config(), traces, dense=True)
        assert len(visited) < fast.cycles
        assert fast.cycles == slow.cycles
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.epochs == slow.epochs and len(fast.epochs) > 1
        assert fast_cores == slow_cores

    def test_waiting_cores_are_not_ticked(self):
        """A waiting core's skipped tick fetches and retires nothing:
        the same visits and outputs as ticking every live core on every
        visit, with fewer ticks than visits over both cores."""
        traces = mix_traces(("mcf", "lbm"))
        fast, fast_cores, visited, ticks = counted_run(
            mix_config("fgnvm-8x2"), traces)
        dense, dense_cores, dense_visited, dense_ticks = counted_run(
            mix_config("fgnvm-8x2"), traces, tick_always=True)
        assert visited == dense_visited
        assert fast.cycles == dense.cycles
        assert fast.stats.as_dict() == dense.stats.as_dict()
        assert fast_cores == dense_cores
        assert ticks < len(visited) < dense_ticks
