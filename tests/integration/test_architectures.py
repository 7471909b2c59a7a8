"""Cross-architecture integration: the paper's mechanisms, end to end.

Each test builds a workload that isolates one FgNVM mechanism and
checks the full simulator (CPU + controller + banks + buses) produces
the effect the paper predicts.
"""

import pytest

from repro.config import (
    baseline_nvm,
    fgnvm,
    fgnvm_multi_issue,
    many_banks,
)
from repro.sim.simulator import simulate
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.memsys.request import OpType
from repro.workloads.synthetic import (
    multi_stream_kernel,
    random_kernel,
    stream_kernel,
)


def small(cfg):
    cfg.org.rows_per_bank = 1024
    return cfg


class TestMultiActivation:
    def test_parallel_streams_speed_up_fgnvm(self):
        """Interleaved streams in different SAGs run concurrently."""
        trace = multi_stream_kernel(
            600, streams=8, gap=2,
            stream_spacing_bytes=(1 << 20) + 128,
        )
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 8)), trace)
        assert fg.ipc > base.ipc * 1.1
        assert fg.stats.multi_activation_senses > 0

    def test_single_stream_gains_little(self):
        """One sequential stream cannot exploit tile parallelism."""
        trace = stream_kernel(600, gap=2)
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 8)), trace)
        assert fg.ipc < base.ipc * 1.35  # no large win available

    def test_many_banks_upper_bounds_fgnvm(self):
        trace = random_kernel(800, footprint_bytes=1 << 22, gap=3, seed=9)
        fg = simulate(small(fgnvm(8, 2)), trace)
        mb = simulate(small(many_banks(8, 2)), trace)
        assert mb.ipc >= fg.ipc * 0.95


class TestBackgroundedWrites:
    def write_heavy_trace(self):
        return multi_stream_kernel(
            800, streams=8, gap=3, write_fraction=0.4,
            stream_spacing_bytes=(1 << 20) + 128, seed=5,
        )

    def test_fgnvm_hides_write_latency(self):
        trace = self.write_heavy_trace()
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 8)), trace)
        assert fg.ipc > base.ipc * 1.15
        assert fg.stats.reads_under_write > 0

    def test_baseline_never_reads_under_write(self):
        trace = self.write_heavy_trace()
        base = simulate(small(baseline_nvm()), trace)
        assert base.stats.reads_under_write == 0

    def test_write_latency_hurts_baseline_reads(self):
        """Removing writes from the same read stream must help baseline
        reads more than it helps FgNVM (that's the interference)."""
        mixed = self.write_heavy_trace()
        reads_only = PackedTrace.from_records(
            r for r in mixed if r.op is OpType.READ
        )
        base_mixed = simulate(small(baseline_nvm()), mixed)
        base_clean = simulate(small(baseline_nvm()), reads_only)
        assert (
            base_clean.stats.avg_read_latency
            < base_mixed.stats.avg_read_latency
        )


class TestPartialActivation:
    def test_sensed_bits_scale_down_with_cds(self):
        trace = random_kernel(400, footprint_bytes=1 << 22, gap=5, seed=3)
        base = simulate(small(baseline_nvm()), trace)
        fg8 = simulate(small(fgnvm(8, 8)), trace)
        per_sense_base = base.stats.sense_bits / base.stats.senses
        per_sense_fg = fg8.stats.sense_bits / fg8.stats.senses
        assert per_sense_base == 8192  # full 1KB row
        assert per_sense_fg == 1024    # one eighth

    def test_underfetch_appears_only_with_subdivision(self):
        trace = stream_kernel(400, gap=5)
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 8)), trace)
        assert base.stats.underfetches == 0
        assert fg.stats.underfetches > 0

    def test_energy_ordering_baseline_vs_fgnvm(self):
        trace = random_kernel(400, footprint_bytes=1 << 22, gap=5, seed=4)
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(8, 8)), trace)
        assert fg.energy.total_pj < base.energy.total_pj


class TestMultiIssue:
    def test_multi_issue_never_loses_to_plain_fgnvm(self):
        trace = multi_stream_kernel(
            800, streams=8, gap=2, write_fraction=0.3,
            stream_spacing_bytes=1 << 17, seed=8,
        )
        fg = simulate(small(fgnvm(8, 2)), trace)
        mi = simulate(small(fgnvm_multi_issue(8, 2)), trace)
        assert mi.ipc >= fg.ipc * 0.99


class TestRequestConservation:
    @pytest.mark.parametrize("builder", [
        baseline_nvm,
        lambda: fgnvm(8, 2),
        lambda: many_banks(8, 2),
        lambda: fgnvm_multi_issue(8, 2),
    ])
    def test_every_request_serviced_exactly_once(self, builder):
        trace = multi_stream_kernel(
            500, streams=4, gap=4, write_fraction=0.3, seed=2,
        )
        reads = sum(1 for r in trace if r.op is OpType.READ)
        writes = len(trace) - reads
        result = simulate(small(builder()), trace)
        assert result.stats.reads == reads
        assert result.stats.writes == writes

    def test_identical_work_across_architectures(self):
        trace = PackedTrace.from_records(
            TraceRecord(10, OpType.READ, i * 4096) for i in range(64)
        )
        base = simulate(small(baseline_nvm()), trace)
        fg = simulate(small(fgnvm(4, 4)), trace)
        assert base.instructions == fg.instructions
