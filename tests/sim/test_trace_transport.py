"""Integration tests: the by-value trace hand-off end to end.

Every engine path — serial, pooled, disk-cached, degraded to the
in-process drain — must produce bit-identical results from traces the
parent staged once; a pool job carries its trace's blob, so no worker
generates a trace.
"""

import glob
import os

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
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine
from repro.workloads.tracegen import generate_packed_trace

REQUESTS = 300


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


@pytest.fixture
def parent_generations(monkeypatch):
    """Trace generations made by this (the parent) process.

    A generation in any other process -- a pool worker -- raises, which
    fails its job fatally instead of regenerating a trace silently."""
    parent = os.getpid()
    made = []

    def generate(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a pool worker generated a trace")
        made.append(args)
        return generate_packed_trace(*args, **kwargs)

    monkeypatch.setattr(parallel, "generate_packed_trace", generate)
    return made


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
        assert pooled_engine.trace_stats.pooled_jobs == len(batch)
        assert cached_engine.trace_stats.generated == len(batch)
        assert warm_engine.trace_stats.cache_hits == len(batch)
        assert warm_engine.trace_stats.generated == 0


class TestTraceStaging:
    """Each distinct trace is staged once, when a job first needs it."""

    def test_each_trace_exported_once_and_mapped_by_every_job(
            self, monkeypatch, parent_generations):
        """The parent makes and frames each trace once; every pool job
        carries the blob, and no worker generates a trace."""
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        del parent_generations[:]
        exported = []
        export = ParallelExperimentEngine._export_segments

        def counted(engine, key, packed):
            exported.append(key)
            return export(engine, key, packed)

        monkeypatch.setattr(ParallelExperimentEngine, "_export_segments",
                            counted)
        engine = ParallelExperimentEngine(workers=2)
        assert summaries(engine.run_jobs(batch)) == expected
        stats = engine.trace_stats
        assert stats.unique_traces == stats.generated == len(PROFILES)
        assert len(parent_generations) == len(PROFILES)
        assert len(set(exported)) == len(exported) == len(PROFILES)
        assert stats.pooled_jobs == len(batch)
        assert stats.inproc_jobs == 0

    def test_degraded_drain_stages_without_regenerating(
            self, monkeypatch, parent_generations):
        """A crash past the rebuild limit moves the rest of the batch
        in-process: every trace is made once, by the engine."""
        batch = grid()
        expected = summaries(
            ParallelExperimentEngine(workers=1).run_jobs(batch))
        del parent_generations[:]
        monkeypatch.setattr(parallel, "MAX_POOL_REBUILDS", 0)
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
        assert len(parent_generations) == len(PROFILES)

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
        assert stats.pooled_jobs == 0
        assert stats.inproc_jobs == len(batch)


class TestSegmentLifetime:
    """No engine path leaves a trace segment in ``/dev/shm``: the guard
    against a shared-memory transport coming back, beside each crash
    and interrupt path's results."""

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
        assert engine.trace_stats.unique_traces == len(PROFILES)
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
        assert engine.trace_stats.pooled_jobs >= 1
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
        assert trace["pooled_jobs"] == len(batch)
        assert trace["inproc_jobs"] == 0
        assert sorted(trace) == [
            "inproc_jobs", "packed_bytes", "pooled_jobs", "trace_cache_hits",
            "trace_cache_misses", "traces_generated", "unique_traces",
        ]

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
        assert fleet["pooled_jobs"] == 2
        assert "traces" in render_dashboard(hub)
        hub.close()
