"""Multi-core simulation: routing, conservation, interference."""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.memsys.request import OpType
from repro.sim.multicore import (
    MultiCoreResult,
    MultiCoreSimulator,
    run_mix,
    weighted_speedup_study,
)
from repro.sim.simulator import simulate
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
            MultiCoreSimulator(small(fgnvm(4, 4)), [])

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            MultiCoreSimulator(
                small(fgnvm(4, 4)), two_traces(), labels=["only-one"]
            )

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
