"""Integration tests: the zero-copy trace transport end to end.

Every engine path — serial, pooled over shared memory, disk-cached,
degraded-to-regeneration — must produce bit-identical results, and no
shared-memory segment may outlive its engine (crash paths included).
"""

import glob
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import fgnvm
from repro.obs.inspect import render_engine_report, summarize_manifest
from repro.sim.parallel import (
    ExperimentJob,
    ParallelExperimentEngine,
    _pool_worker_init,
)
from repro.workloads.packed import SharedTraceRef, trace_key
from repro.workloads.spec_profiles import get_profile
from repro.workloads.tracegen import generate_packed_trace

REQUESTS = 300

shm_only = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def jobs(n=4):
    return [ExperimentJob(small(fgnvm(4, 4)), "sphinx3", REQUESTS, seed)
            for seed in range(n)]


def summaries(results):
    return [(r.cycles, r.instructions, round(r.ipc, 12)) for r in results]


def leftover_segments():
    return glob.glob("/dev/shm/repro-trace-*")


def _worker_digest(args):
    """Resolve a trace inside a pool worker; report blob digest + source."""
    benchmark, count = args
    from repro.workloads import packed

    trace = packed.resolve_trace(get_profile(benchmark), count)
    return (
        hashlib.sha256(trace.to_bytes()).hexdigest(),
        bool(packed._ATTACHED),
    )


class TestTransportIdentity:
    def test_serial_pooled_cached_shm_all_identical(self, tmp_path):
        batch = jobs()
        serial = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        pooled_engine = ParallelExperimentEngine(workers=2)
        pooled = summaries(pooled_engine.run_jobs(batch))
        cached_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        cached = summaries(cached_engine.run_jobs(batch))
        cached_engine.disk.purge()  # results gone, trace blobs remain
        warm_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        warm = summaries(warm_engine.run_jobs(batch))
        assert serial == pooled == cached == warm
        assert pooled_engine.trace_stats.shm_segments == len(batch)
        assert cached_engine.trace_stats.generated == len(batch)
        assert warm_engine.trace_stats.cache_hits == len(batch)
        assert warm_engine.trace_stats.generated == 0

    def test_shm_failure_degrades_bit_identically(self, tmp_path,
                                                  monkeypatch):
        batch = jobs(3)
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))

        def refuse(*args, **kwargs):
            raise OSError("no shared memory for you")

        monkeypatch.setattr(
            "multiprocessing.shared_memory.SharedMemory", refuse
        )
        engine = ParallelExperimentEngine(workers=2)
        got = summaries(engine.run_jobs(batch))
        assert got == expected
        stats = engine.trace_stats
        assert stats.fallback is not None
        assert "segment create failed" in stats.fallback
        assert stats.shm_segments == 0
        assert stats.regenerated_jobs == len(batch)

    @shm_only
    def test_workers_map_byte_identical_blobs(self):
        from multiprocessing import shared_memory

        profile = get_profile("mcf")
        packed = generate_packed_trace(profile, REQUESTS)
        blob = packed.to_bytes()
        parent_digest = hashlib.sha256(blob).hexdigest()
        shm = shared_memory.SharedMemory(create=True, size=len(blob))
        try:
            shm.buf[: len(blob)] = blob
            ref = SharedTraceRef(
                key=trace_key(profile, REQUESTS),
                name=shm.name, nbytes=len(blob),
            )
            with ProcessPoolExecutor(
                max_workers=2,
                initializer=_pool_worker_init,
                initargs=((ref,), None, 0),
            ) as pool:
                reports = list(pool.map(
                    _worker_digest, [("mcf", REQUESTS)] * 4
                ))
        finally:
            shm.close()
            shm.unlink()
        for digest, attached in reports:
            assert digest == parent_digest
            assert attached  # served from the mapped segment, not regen


@shm_only
class TestSegmentLifetime:
    def test_no_segment_survives_run_jobs(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        engine.run_jobs(jobs())
        assert leftover_segments() == []

    def test_no_segment_survives_worker_crash(self, tmp_path):
        from repro.resilience import (
            CRASH,
            FaultPlan,
            FaultSpec,
            RetryPolicy,
        )

        batch = jobs(3)
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=FaultPlan(
                faults=(FaultSpec(kind=CRASH, job_index=1),)
            ),
            retry=RetryPolicy(base_delay_s=0.0, jitter=0.0),
        )
        got = summaries(engine.run_jobs(batch))
        assert got == expected
        assert engine.rstats.worker_crashes >= 1
        assert leftover_segments() == []


class TestTraceTelemetry:
    def test_manifest_carries_trace_counters(self, tmp_path):
        from repro.obs.manifest import read_manifest

        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        batch = jobs()
        engine.run_jobs(batch)
        data = read_manifest(engine.write_manifest())
        trace = data["trace"]
        assert trace["unique_traces"] == len(batch)
        assert trace["packed_bytes"] > 0
        assert trace["traces_generated"] == len(batch)
        assert trace["regenerated_jobs"] == 0
        if os.path.isdir("/dev/shm"):
            assert trace["shm_segments"] == len(batch)
            assert trace["shm_attached"] == len(batch)
            assert trace["fallback"] is None

    def test_warm_trace_cache_reports_hits(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        batch = jobs(3)
        engine.run_jobs(batch)
        engine.disk.purge()
        warm = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        warm.run_jobs(batch)
        data = warm.manifest().as_dict()
        assert data["trace"]["trace_cache_hits"] == len(batch)
        assert data["trace"]["traces_generated"] == 0

    def test_inspect_surfaces_trace_block(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        engine.run_jobs(jobs(2))
        summary = summarize_manifest(engine.manifest().as_dict())
        assert summary["trace"]["unique_traces"] == 2
        report = render_engine_report(summary)
        assert "traces:" in report
        assert "2 unique" in report

    def test_hub_fleet_view_carries_trace_counters(self, tmp_path):
        from repro.obs.hub import TelemetryHub, render_dashboard

        hub = TelemetryHub()
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache", telemetry=hub)
        engine.run_jobs(jobs(2))
        fleet = hub.fleet.as_dict()
        assert fleet["trace_packed_bytes"] > 0
        if os.path.isdir("/dev/shm"):
            assert fleet["shm_segments"] == 2
        assert "traces" in render_dashboard(hub)
        hub.close()
