"""Pipeline integration: raw stream -> LLC filter -> trace file -> sim."""

from repro.config import baseline_nvm, fgnvm
from repro.cpu.llc import LastLevelCache
from repro.memsys.request import OpType
from repro.sim.simulator import simulate
from repro.workloads.packed import PackedTrace, total_instructions
from repro.workloads.record import TraceRecord
from repro.workloads.spec_profiles import get_profile
from repro.workloads.trace_io import read_trace, write_trace
from repro.workloads.tracegen import generate_trace


def small(cfg):
    cfg.org.rows_per_bank = 1024
    return cfg


class TestLlcToSimulator:
    def test_filtered_stream_simulates(self):
        cache = LastLevelCache(size_bytes=64 * 1024, ways=8)
        raw = PackedTrace.from_records(
            TraceRecord(5, OpType.WRITE if i % 3 == 0 else OpType.READ,
                        (i % 4096) * 64)
            for i in range(8000)
        )
        filtered = cache.filter_trace(raw)
        assert 0 < len(filtered) < len(raw) + cache.stats.writebacks + 1
        result = simulate(small(baseline_nvm()), filtered)
        reads = sum(1 for r in filtered if r.op is OpType.READ)
        assert result.stats.reads == reads

    def test_filtering_preserves_instruction_count(self):
        # Footprint (4096 lines) exceeds the cache (1024 lines), so the
        # stream keeps missing and ends on a miss: no trailing hit run
        # is left unflushed.
        cache = LastLevelCache(size_bytes=64 * 1024, ways=8)
        raw = PackedTrace.from_records(
            TraceRecord(7, OpType.READ, (i % 4096) * 64) for i in range(8192)
        )
        filtered = cache.filter_trace(raw)
        # Hits fold into the next miss's gap (hit instruction included);
        # writebacks add zero-gap records.
        raw_insts = total_instructions(raw)
        filtered_insts = total_instructions(filtered)
        writebacks = sum(1 for r in filtered if r.op is OpType.WRITE)
        assert filtered_insts == raw_insts + writebacks


class TestTraceFileRoundtrip:
    def test_simulation_identical_through_disk(self, tmp_path):
        trace = generate_trace(get_profile("sphinx3"), 600)
        path = tmp_path / "sphinx3.trace"
        write_trace(trace, path)
        reloaded = read_trace(path)
        assert reloaded == trace
        direct = simulate(small(fgnvm(8, 2)), trace)
        loaded = simulate(small(fgnvm(8, 2)), reloaded)
        assert direct.cycles == loaded.cycles
        assert direct.stats.as_dict() == loaded.stats.as_dict()
