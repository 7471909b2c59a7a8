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
from repro.resilience import (
    CRASH,
    INTERRUPT,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.sim import parallel
from repro.sim.parallel import (
    ExperimentJob,
    ParallelExperimentEngine,
    _pool_worker_init,
)
from repro.workloads import tracegen
from repro.workloads.packed import SharedTraceRef, attach_failures, trace_key
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


PROFILES = ("sphinx3", "mcf", "lbm")
FAST_RETRY = RetryPolicy(base_delay_s=0.0, jitter=0.0)


def grid():
    """3 profiles x 2 configs, benchmark-major: 6 jobs over 3 traces."""
    return [ExperimentJob(small(cfg), bench, REQUESTS)
            for bench in PROFILES for cfg in (fgnvm(4, 4), fgnvm(8, 2))]


def summaries(results):
    return [(r.cycles, r.instructions, round(r.ipc, 12)) for r in results]


def leftover_segments():
    return glob.glob("/dev/shm/repro-trace-*")


def _worker_digest(args):
    """Run one job in a pool worker with its trace's segment reference;
    report the mapped trace's blob digest and the job's summary.

    Trace generation is disabled in the worker, so a job that did not
    map its segment fails instead of regenerating."""
    job, trace_ref = args
    from repro.sim.parallel import _timed_execute_job
    from repro.workloads import packed

    def no_generation(*args, **kwargs):
        raise AssertionError("the worker regenerated a shared trace")

    tracegen.generate_packed_trace = no_generation
    result, _wall_s = _timed_execute_job(job, None, trace_ref)
    mapped = packed._ATTACHED.get(trace_ref.key)
    digest = (hashlib.sha256(mapped.to_bytes()).hexdigest()
              if mapped is not None else None)
    return digest, result.summary()


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
        """A reference sent with the job is enough: the pool initializer
        carries no trace, and the worker maps the segment."""
        from multiprocessing import shared_memory

        profile = get_profile("mcf")
        packed = generate_packed_trace(profile, REQUESTS)
        blob = packed.to_bytes()
        parent_digest = hashlib.sha256(blob).hexdigest()
        job = ExperimentJob(small(fgnvm(4, 4)), "mcf", REQUESTS)
        expected = ParallelExperimentEngine(workers=1).run(
            job.config, "mcf", REQUESTS).summary()
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
                initargs=(None, 0),
            ) as pool:
                reports = list(pool.map(_worker_digest, [(job, ref)] * 4))
        finally:
            shm.close()
            shm.unlink()
        for digest, summary in reports:
            # Served from the mapped segment, not regenerated.
            assert digest == parent_digest
            assert summary == expected


class TestTraceStaging:
    """Each distinct trace is staged once, when a job first needs it."""

    @shm_only
    def test_each_trace_exported_once_and_mapped_by_every_job(self):
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        failures = attach_failures()
        engine = ParallelExperimentEngine(workers=2)
        assert summaries(engine.run_jobs(batch)) == expected
        stats = engine.trace_stats
        assert stats.shm_segments == stats.unique_traces == len(PROFILES)
        assert stats.generated == len(PROFILES)
        assert stats.shm_attached == len(batch)
        assert stats.regenerated_jobs == 0
        assert stats.inproc_jobs == 0
        assert attach_failures() == failures
        assert leftover_segments() == []

    def test_degraded_drain_stages_without_regenerating(self, monkeypatch):
        """A crash past the rebuild limit moves the rest of the batch
        in-process: every trace is made once, by the engine, and
        ``resolve_trace`` regenerates none."""
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 0)
        regenerated = []

        def counted(*args, **kwargs):
            regenerated.append(args)
            return generate_packed_trace(*args, **kwargs)

        # resolve_trace imports the generator from tracegen on each call.
        monkeypatch.setattr(tracegen, "generate_packed_trace", counted)
        engine = ParallelExperimentEngine(
            workers=2,
            fault_plan=FaultPlan(
                faults=(FaultSpec(kind=CRASH, job_index=0),)
            ),
            retry=FAST_RETRY,
        )
        assert summaries(engine.run_jobs(batch)) == expected
        assert engine.rstats.degraded_to_serial == 1
        assert engine.trace_stats.generated == len(PROFILES)
        assert engine.trace_stats.unique_traces == len(PROFILES)
        assert regenerated == []

    def test_refused_pool_stages_every_trace_in_the_drain(self, monkeypatch):
        """No pool at all: the drain stages all three traces itself."""
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))

        def refuse(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel, "_new_pool", refuse)
        engine = ParallelExperimentEngine(workers=2)
        assert summaries(engine.run_jobs(batch)) == expected
        stats = engine.trace_stats
        assert stats.generated == stats.unique_traces == len(PROFILES)
        assert stats.shm_segments == 0
        assert stats.inproc_jobs == len(batch)


@shm_only
class TestSegmentLifetime:
    def test_no_segment_survives_run_jobs(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path / "cache")
        engine.run_jobs(jobs())
        assert leftover_segments() == []

    def test_no_segment_survives_worker_crash(self, tmp_path):
        batch = jobs(3)
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=FaultPlan(
                faults=(FaultSpec(kind=CRASH, job_index=1),)
            ),
            retry=FAST_RETRY,
        )
        got = summaries(engine.run_jobs(batch))
        assert got == expected
        assert engine.rstats.worker_crashes >= 1
        assert leftover_segments() == []

    def test_no_segment_survives_crash_mid_grid(self, tmp_path):
        """A crash while later traces are still unstaged."""
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=FaultPlan(
                faults=(FaultSpec(kind=CRASH, job_index=3),)
            ),
            retry=FAST_RETRY,
        )
        assert summaries(engine.run_jobs(batch)) == expected
        assert engine.rstats.worker_crashes >= 1
        assert engine.trace_stats.shm_segments == len(PROFILES)
        assert leftover_segments() == []

    def test_no_segment_survives_interrupt(self, tmp_path):
        engine = ParallelExperimentEngine(
            workers=2,
            cache_dir=tmp_path / "cache",
            fault_plan=FaultPlan(
                faults=(FaultSpec(kind=INTERRUPT, job_index=1),)
            ),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run_jobs(grid())
        assert engine.trace_stats.shm_segments >= 1
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
